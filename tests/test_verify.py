import hashlib
import io
import random
from types import SimpleNamespace

import pytest

from polaris import catalog, linalg, verify
from polaris.catalog import build_preset
from polaris.cli import main as cli_main
from polaris.embed import arises_from, natural_embedding, universal_embedding
from polaris.errors import UsageError
from polaris.polar import (
    PointSet,
    closure,
    enumerate_subspaces,
    is_hyperplane,
    is_maximal_subspace,
    perp,
    rank_nd,
    rank_of,
)
from polaris.records import RecordWriter
from polaris.specfile import build_space_from_spec, parse_spec
from polaris.verify import (
    SamplePlan,
    check_corollary2,
    check_corollary3,
    check_prop5,
    check_theorem1,
    explore_problem5,
    search_nonarising_rank1,
)

from oracles import (
    line_bits,
    oracle_grow_to_maximal,
    oracle_noncollinear_sets,
    oracle_orthogonality,
    oracle_saturation,
)


def report_tuple(r):
    return (r.check, r.space, r.mode, r.sampled, r.applicable, r.passed,
            r.failed, tuple(sorted(r.skipped.items())),
            tuple(tuple(sorted(w.items())) for w in r.witnesses),
            tuple(tuple(sorted(e.items())) for e in r.exhibits),
            tuple(sorted(r.info.items())))


# ---------------------------------------------------------------------------
# theorem1
# ---------------------------------------------------------------------------

def test_theorem1_exhaustive_q42(space):
    Q = space("Q4_2")
    r = check_theorem1(Q, natural_embedding(Q), SamplePlan(mode="exhaustive"))
    assert r.failed == 0
    assert r.consistent()
    assert r.mode == "exhaustive"
    # the ten grid sections are the only applicable subspaces
    assert r.applicable == 10
    assert r.skipped["improper"] == 1


def test_theorem1_refuses_quotient_embedding(space):
    W = space("W3_2")
    with pytest.raises(UsageError, match="quotient"):
        check_theorem1(W, natural_embedding(W), SamplePlan())


def test_theorem1_positive_control_on_the_natural_embedding(space):
    # theorem1's judge against a known-bad embedding: W(3,2)'s natural
    # embedding in PG(3,2) is a proper quotient of its universal one, and
    # every one of its ten applicable subspaces, which are exactly the
    # 9-point subspaces, fails to arise from it
    W = space("W3_2")
    lattice = enumerate_subspaces(W)
    applicable = [S for S in lattice if verify.classify_subspace(W, S) is None]
    assert len(applicable) == 10
    assert applicable == [S for S in lattice if len(S) == 9]
    for emb, failing in ((natural_embedding(W), applicable), (universal_embedding(W), [])):
        assert [S for S in applicable if not arises_from(emb, S).arises] == failing


@pytest.mark.parametrize("n,q", [(5, 2), (3, 4)], ids=["W5_2", "W3_4"])
def test_theorem1_positive_control_matches_the_nucleus_criterion(n, q):
    # the natural embedding of W(2n-1, 2^h) is the universal one projected
    # from the hull quadric's nucleus e0 = (1, 0, ..., 0), so S arises
    # from it exactly when <eps_u(S)> contains e0; the sampled applicable
    # closures must agree with that criterion, and some must fail
    sp = build_space_from_spec(catalog._family_spec("W", n, q), cap=2000)
    nat, uni = natural_embedding(sp), universal_embedding(sp)
    F = sp.field
    e0 = (1,) + (0,) * (uni.dim - 1)
    seen, failing = set(), 0
    for S in verify._subspaces(sp, SamplePlan(seed=1, samples=300, mode="random"), "random"):
        if S.bits in seen or verify.classify_subspace(sp, S) is not None:
            continue
        seen.add(S.bits)
        arises = arises_from(nat, S).arises
        assert arises == linalg.in_span(F, linalg.rref(F, [uni.vectors[i] for i in S]), e0), \
            S.indices()
        failing += not arises
    assert seen and failing


def test_theorem1_refuses_grid(space):
    G = space("Qp3_2")
    with pytest.raises(UsageError, match="unknown embedding of Qp3_2"):
        check_theorem1(G, natural_embedding(G), SamplePlan())


def test_theorem1_refuses_another_spaces_universal_embedding(space):
    # a universal embedding of an equal but distinct build is still
    # refused
    Q = space("Q4_2")
    other = build_space_from_spec(parse_spec(catalog.preset_text("Q4_2")), label="Q4_2")
    assert other is not Q
    with pytest.raises(UsageError, match="universal embedding of Q4_2"):
        check_theorem1(Q, universal_embedding(other), SamplePlan())
    with pytest.raises(UsageError, match="universal embedding of Q6_2"):
        check_theorem1(Q, universal_embedding(space("Q6_2")), SamplePlan())


def test_theorem1_sampled_h34(space):
    H = space("H3_4")
    r = check_theorem1(H, natural_embedding(H), SamplePlan(seed=0, samples=200,
                                                           mode="random"))
    assert r.failed == 0 and r.consistent()
    # no proper subquadrangles exist in a 4-dim hermitian quadrangle,
    # so no proper sampled subspace can reach the rank_nd threshold
    assert r.applicable == 0
    assert not r.witnesses


def test_theorem1_sampled_replay_is_identical(space):
    Q = space("Q4_3")
    plan = SamplePlan(seed=7, samples=60, mode="random")
    a = check_theorem1(Q, natural_embedding(Q), plan)
    b = check_theorem1(Q, natural_embedding(Q), plan)
    assert report_tuple(a) == report_tuple(b)
    c = check_theorem1(Q, natural_embedding(Q), SamplePlan(seed=8, samples=60,
                                                           mode="random"))
    assert report_tuple(a) != report_tuple(c)


def test_theorem1_hull_embedding_accepted(space):
    W = space("W3_2")
    r = check_theorem1(W, universal_embedding(W), SamplePlan(mode="exhaustive"))
    assert r.failed == 0 and r.applicable > 0


def test_theorem1_judges_without_row_reduction(space, monkeypatch):
    # arises_from reads the dual table, so once the universal embedding is
    # built a theorem1 run reduces no rows, sampled or exhaustive
    spaces = [space("Q6_2"), space("W3_2")]
    embs = [universal_embedding(sp) for sp in spaces]

    def refuse(*args):
        raise AssertionError("row reduction in a theorem1 run")

    monkeypatch.setattr(linalg, "rref", refuse)
    monkeypatch.setattr(linalg, "right_kernel", refuse)
    r = check_theorem1(spaces[0], embs[0], SamplePlan(seed=3, samples=200, mode="random"))
    assert r.failed == 0 and r.applicable > 0
    r = check_theorem1(spaces[1], embs[1], SamplePlan(mode="exhaustive"))
    assert (r.sampled, r.applicable, r.failed) == (278, 10, 0)


# ---------------------------------------------------------------------------
# corollary2 / corollary3
# ---------------------------------------------------------------------------

def test_corollary2_exhaustive_w32(space):
    W = space("W3_2")
    r = check_corollary2(W, SamplePlan(mode="exhaustive"))
    assert r.failed == 0 and r.consistent()
    # 15 singular hyperplanes plus 10 grids
    assert r.applicable == 25
    assert r.skipped["improper"] == 1


def test_corollary2_exhaustive_q42(space):
    Q = space("Q4_2")
    r = check_corollary2(Q, SamplePlan(mode="exhaustive"))
    assert r.failed == 0
    assert r.applicable == 25
    assert r.skipped["improper"] == 1


def test_forced_exhaustive_walks_every_subspace_of_the_16_point_grid(fresh_space):
    # Q+(3,3) has 16 points, past the auto limit: only a forced
    # exhaustive run judges all 234 of its subspaces
    G = fresh_space("Qp3_3")
    plan = SamplePlan(mode="exhaustive")
    for r in (check_corollary2(G, plan), explore_problem5(G, plan)):
        assert r.mode == "exhaustive"
        assert r.sampled == 234 and r.consistent()


def _records(report) -> str:
    buf = io.StringIO()
    RecordWriter(buf, "records").emit_report(report)
    return buf.getvalue()


COLD_WARM_CALLS = [
    ("theorem1", "W3_2"), ("theorem1", "Q4_2"),
    ("corollary2", "W3_2"), ("corollary2", "Q4_2"), ("corollary2", "Qp3_2"),
    ("problem5", "W3_2"), ("problem5", "Q4_2"), ("problem5", "Qp3_2"),
    ("corollary2", "Qp3_3"), ("problem5", "Qp3_3"),
    ("rank1-nonarising", "Q4_2"),
]


@pytest.mark.parametrize("check,name", COLD_WARM_CALLS)
def test_cold_and_warm_exhaustive_reports_match(check, name, fresh_space):
    # the first call on a space built afresh renders the same records as
    # later calls on it: no state a call leaves on the space changes them
    sp = fresh_space(name)
    plan = SamplePlan(seed=3, mode="exhaustive")
    call = {
        "theorem1": lambda: check_theorem1(sp, universal_embedding(sp), plan),
        "corollary2": lambda: check_corollary2(sp, plan),
        "problem5": lambda: explore_problem5(sp, plan),
        "rank1-nonarising": lambda: search_nonarising_rank1(sp, plan),
    }[check]
    cold = _records(call())
    assert _records(call()) == _records(call()) == cold


def test_corollary2_witness_names_the_lowest_missed_line(space, monkeypatch):
    # no maximal subspace of a correct space misses a line, so the
    # witness is forced: the non-hyperplanes pass as maximal, and every
    # candidate fails the hyperplane test
    W = space("W3_2")
    real = verify.is_hyperplane
    monkeypatch.setattr(verify, "is_maximal_subspace", lambda sp, S: not real(sp, S))
    monkeypatch.setattr(verify, "is_hyperplane", lambda sp, S: False)
    r = check_corollary2(W, SamplePlan(mode="exhaustive"))
    assert r.failed == len(r.witnesses) > 0
    for w in r.witnesses:
        missed = [li for li, lb in enumerate(line_bits(W))
                  if not lb & PointSet.of(W, w["points"]).bits]
        assert w["missed_line"] == missed[0]


def test_corollary2_sampled_q62(space):
    Q = space("Q6_2")
    r = check_corollary2(Q, SamplePlan(seed=0, samples=25, mode="random"))
    assert r.failed == 0 and r.consistent()
    assert r.applicable > 0


@pytest.mark.parametrize("name", ["Q6_2", "W5_2", "H4_4", "Sp4_3", "Q4_3", "H3_4"])
def test_grow_to_maximal_matches_restart_loop(name, space):
    # the restart loop runs over the space's own lines, which other tests
    # check against the oracle's; this pins the one-pass growth and its
    # line-class rejections on seeds of the sampler's sizes.  On the
    # q >= 3 spaces a line through a class point carries q >= 3 points
    # outside S, so a class spread along the wrong lines shows.
    sp = space(name)
    lines = line_bits(sp)
    N = len(sp.points)
    rng = random.Random(4)
    grown = 0
    for _ in range(60):
        S = closure(sp, rng.sample(range(N), rng.randint(2, 2 * sp.n + 2)))
        want = oracle_grow_to_maximal(lines, sp.all_bits, S.bits)
        assert verify._grow_to_maximal(sp, S).bits == want
        grown += want != S.bits
    assert grown >= 20


def _grow_work(sp, S):
    """Closures of the ascending one-pass scan from S: one per accepted
    step and rejected class, when a rejection decides its whole class
    (the fixed point of spreading over the lines that meet S), and one
    per outside point scanned, when it decides only itself."""
    lines = line_bits(sp)
    per_class = per_point = 0
    rejected = 0
    for p in range(len(sp.points)):
        if S >> p & 1:
            continue
        per_point += 1
        if rejected >> p & 1:
            continue
        per_class += 1
        grown = closure(sp, 1 << p, S).bits
        if grown != sp.all_bits:
            S = grown
            continue
        cls, changed = 1 << p, True
        while changed:
            changed = False
            for lb in lines:
                if lb & S and lb & cls and lb & ~S & ~cls:
                    cls |= lb & ~S
                    changed = True
        rejected |= cls
    return per_class, per_point


@pytest.mark.parametrize("name", ["Q6_2", "H4_4"])
def test_grow_to_maximal_closes_once_per_class(name, space, monkeypatch):
    # one closure per accepted step and per rejected class, where the
    # one-pass scan took one per outside point it scanned
    sp = space(name)
    plan = SamplePlan(seed=7, samples=20, mode="random")
    seeds = [S for S in verify._subspaces(sp, plan, "random") if S.bits != sp.all_bits]
    calls = []
    original = verify.closure
    monkeypatch.setattr(verify, "closure",
                        lambda *args: calls.append(1) or original(*args))
    fewer = 0
    for S in seeds:
        per_class, per_point = _grow_work(sp, S.bits)
        calls.clear()
        verify._grow_to_maximal(sp, S)
        assert len(calls) <= per_class
        fewer += per_class < per_point
    assert fewer == len(seeds) >= 10


def test_grow_to_maximal_rejects_a_class_whose_closure_meets_the_ruled_out_points(monkeypatch):
    # no preset seed has been seen to reach a closure that meets the
    # ruled-out points from a class that misses them (H3_9 does, below),
    # so this partial linear space isolates one: over the non-collinear
    # pair S = {a, b}, x and p each close to everything, yet no line
    # through S joins their classes {x, u, v} and {p, w, z}; only the
    # lines uvp and wzx do.  S is already maximal.
    a, b, x, u, v, p, w, z = range(8)
    lines = [(a, x, u), (b, x, v), (a, p, w), (b, p, z), (u, v, p), (w, z, x)]
    lbs = [sum(1 << i for i in pts) for pts in lines]
    lines_at = tuple(tuple(lb & ~(1 << i) for lb in lbs if lb >> i & 1) for i in range(8))
    geometry = SimpleNamespace(all_bits=(1 << 8) - 1, lines_at=lines_at,
                               adj=tuple(1 << i | sum(ls) for i, ls in enumerate(lines_at)))
    S = PointSet(geometry, 1 << a | 1 << b)
    results = []
    original = verify.closure
    monkeypatch.setattr(verify, "closure",
                        lambda *args: results.append(original(*args)) or results[-1])
    assert verify._grow_to_maximal(geometry, S).bits == S.bits \
        == oracle_grow_to_maximal(lbs, geometry.all_bits, S.bits)
    assert [c and c.bits for c in results] == [geometry.all_bits, None]


def test_grow_to_maximal_rejects_a_class_whose_closure_meets_the_ruled_out_points_on_h3_9(
        battery, monkeypatch):
    # the real twin of the case above, in the hermitian quadrangle H(3, 9):
    # after the first rejection, one class misses the ruled-out points but
    # its closure with S meets them, and closing it without them would
    # accept the whole space
    sp = battery("H3_9")
    S = closure(sp, [122, 215])
    avoided = []
    original = verify.closure

    def spy(*args):
        c = original(*args)
        if len(args) > 3:
            avoided.append(c)
        return c

    monkeypatch.setattr(verify, "closure", spy)
    grown = verify._grow_to_maximal(sp, S)
    assert grown.bits == oracle_grow_to_maximal(line_bits(sp), sp.all_bits, S.bits)
    assert len(grown) == 25 and is_maximal_subspace(sp, grown)
    assert sum(c is None for c in avoided) == 1 and len(avoided) > 1


@pytest.mark.parametrize("name", ["Q6_2", "W5_2", "H4_4"])
def test_grow_to_maximal_closes_to_the_whole_space_at_most_once(name, space, monkeypatch):
    # a closure that reaches the whole space only rejects, and after the
    # first rejection the rejected points decide every later rejection
    # before any closure gets that far
    sp = space(name)
    plan = SamplePlan(seed=7, samples=20, mode="random")
    seeds = [S for S in verify._subspaces(sp, plan, "random") if S.bits != sp.all_bits]
    whole = []
    original = verify.closure

    def spy(*args, **kwargs):
        c = original(*args, **kwargs)
        whole.append(c is not None and c.bits == sp.all_bits)
        return c

    monkeypatch.setattr(verify, "closure", spy)
    rejected = 0
    for S in seeds:
        whole.clear()
        verify._grow_to_maximal(sp, S)
        assert sum(whole) <= 1
        rejected += sum(whole)
    assert len(seeds) >= 10 and rejected >= 10


def test_corollary3_q62(space):
    Q = space("Q6_2")
    r = check_corollary3(Q, SamplePlan(seed=0, samples=30, mode="random"))
    assert r.mode == "exhaustive" and r.failed == 0 and r.consistent()
    # the 127 hyperplanes of PG(6,2): 63 tangent and 36 hyperbolic
    # sections of rank 3, 28 elliptic sections of rank 2
    assert r.sampled == r.applicable == 127
    assert r.info["rank_histogram"] == {2: 28, 3: 99}


@pytest.mark.parametrize("name", ["Qp5_2", "W5_2"])
def test_corollary3_other_rank3_spaces(name, space):
    hist = {"Qp5_2": {2: 28, 3: 35}, "W5_2": {2: 28, 3: 99}}[name]
    r = check_corollary3(space(name), SamplePlan(seed=0, samples=40, mode="random"))
    assert r.mode == "exhaustive" and r.failed == 0 and r.consistent()
    assert r.sampled == r.applicable == sum(hist.values())
    assert r.info["rank_histogram"] == hist


def test_corollary3_ignores_seed_and_samples(space):
    Q = space("Qp5_2")
    plans = (SamplePlan(), SamplePlan(seed=9, samples=0, mode="exhaustive"),
             SamplePlan(seed=-3, samples=7, mode="random"))
    first, *rest = (report_tuple(check_corollary3(Q, plan)) for plan in plans)
    assert all(r == first for r in rest)


def _dual_zero_sets(sp):
    return list(universal_embedding(sp).duals.zero)


def test_dual_space_covers_every_hyperplane(space):
    # on Qp5_2 the zero sets are the lattice's proper subspaces that meet
    # every line, each once
    sp = space("Qp5_2")
    zeros = _dual_zero_sets(sp)
    lattice = [S.bits for S in enumerate_subspaces(sp) if S.bits != sp.all_bits
               and all(lb & S.bits for lb in line_bits(sp))]
    assert len(zeros) == len(set(zeros)) == 63
    assert set(zeros) == set(lattice)
    # too many subspaces to list on the 63-point spaces: check that every
    # singular hyperplane perp(p) is met
    for name in ("Q6_2", "W5_2"):
        sp = space(name)
        zeros = _dual_zero_sets(sp)
        assert len(zeros) == len(set(zeros)) == 127
        assert {perp(sp, [p]).bits for p in range(len(sp.points))} <= set(zeros)


def test_corollary3_rejects_rank2(space):
    with pytest.raises(UsageError):
        check_corollary3(space("Q4_2"), SamplePlan())


def test_corollary3_section_ranks(space):
    # direct spot checks: tangent, elliptic, and hyperbolic sections of Q(6,2)
    from polaris.embed import preimage
    Q = space("Q6_2")
    emb = natural_embedding(Q)
    F = Q.field
    tangent = PointSet(Q, Q.adj[0])
    assert rank_of(Q, tangent) == 3
    counts = {}
    for functional in linalg.projective_reps(F, 7):
        H = preimage(emb, linalg.right_kernel(F, (functional,), 7))
        counts.setdefault((len(H), rank_of(Q, H)), 0)
        counts[(len(H), rank_of(Q, H))] += 1
    # 63 tangent hyperplanes (31 points, rank 3), q^3(q^3-1)/2 = 28 elliptic
    # (27 points, rank 2), q^3(q^3+1)/2 = 36 hyperbolic (35 points, rank 3)
    assert counts == {(31, 3): 63, (27, 2): 28, (35, 3): 36}


# ---------------------------------------------------------------------------
# prop5
# ---------------------------------------------------------------------------

def test_prop5_h34(space):
    H = space("H3_4")
    r = check_prop5(H, SamplePlan(seed=0, samples=300, mode="random"))
    assert r.failed == 0 and r.consistent()
    assert r.applicable > 0


def test_prop5_rejects_q42(space):
    with pytest.raises(UsageError):
        check_prop5(space("Q4_2"), SamplePlan())


def test_prop5_files_a_witness_and_fails_the_run(space, monkeypatch):
    # H(3, 4) has no proper subspace of rank_nd >= 2, so the first
    # candidate judged is made to read as rank_nd 2
    judged = []
    real = verify.rank_nd

    def forced(sp, S):
        judged.append(S)
        return 2 if len(judged) == 1 else real(sp, S)

    monkeypatch.setattr(verify, "rank_nd", forced)
    r = check_prop5(space("H3_4"), SamplePlan(seed=0, samples=20, mode="random"))
    assert r.consistent() and r.failed == 1
    assert r.witnesses == [{"kind": "proper subspace of rank_nd >= 2",
                            "points": judged[0].indices(), "rank_nd": 2}]
    judged.clear()
    out = io.StringIO()
    code = cli_main(["check", "prop5", "--preset", "H3_4", "--samples", "20"],
                    out=out, err=io.StringIO())
    assert code == 1
    assert "failed: 1\n" in out.getvalue() and "status: fail\n" in out.getvalue()


def test_prop5_h39_built_from_spec_text():
    text = ("field p=3 k=2\n"
            "form kind=hermitian dim=4\n"
            "row 1 0 0 0\n"
            "row 0 1 0 0\n"
            "row 0 0 1 0\n"
            "row 0 0 0 1\n")
    H = build_space_from_spec(parse_spec(text), label="H3_9")
    assert len(H.points) == 280
    r = check_prop5(H, SamplePlan(seed=0, samples=150, mode="random"))
    assert r.failed == 0 and r.consistent()


def test_corollary2_sampled_200_q62(space):
    Q = space("Q6_2")
    r = check_corollary2(Q, SamplePlan(seed=0, samples=200, mode="random"))
    assert r.failed == 0 and r.consistent()
    assert r.applicable > 0


# ---------------------------------------------------------------------------
# searches (experimental)
# ---------------------------------------------------------------------------

def test_search_rank1_q42_exhibits(space):
    Q = space("Q4_2")
    r = search_nonarising_rank1(Q, SamplePlan(seed=0, samples=50, mode="random"))
    assert r.experimental and r.failed == 0
    assert r.exhibits
    # no exhibit uses only three points: plane sections of this quadric
    # are conics or line pairs, so non-collinear triples always arise
    assert all(len(e["points"]) >= 4 for e in r.exhibits)
    # every 4-point exhibit completes to a 5-point ovoid
    for e in r.exhibits:
        if len(e["points"]) == 4:
            assert len(e["preimage"]) == 5
    # witnesses replay: the reported subspace really fails in isolation
    e = r.exhibits[0]
    S = PointSet.of(Q, e["points"])
    verdict = arises_from(natural_embedding(Q), S)
    assert not verdict.arises
    assert verdict.preimage.indices() == e["preimage"]


@pytest.mark.parametrize("name", ["W3_2", "Q4_2", "Qm5_2", "Qp5_2", "Sp4_3"])
def test_anchored_scan_double_counts_the_full_scan(space, name):
    # The group is transitive on ordered non-collinear pairs, so each pair
    # lies in equally many pairwise non-collinear k-sets.  Counting (set,
    # ordered pair in it) both ways gives full * k(k-1) == anchored * pairs,
    # for all sets and, arising being invariant, for non-arising ones.
    # W3_2 is judged on its hull embedding.
    sp = space(name)
    emb = universal_embedding(sp)
    orth = oracle_orthogonality(sp.form, sp.points)
    pairs = 2 * len(oracle_noncollinear_sets(orth, 2))
    plan = SamplePlan(seed=0, samples=0, mode="random")   # no sampled closures
    walked = 0
    for k in (2, 3, 4):
        r = search_nonarising_rank1(sp, plan, k)
        assert r.skipped == {} and r.consistent()
        anchored, walked = r.sampled - walked, r.sampled
        anchored_bad = sum(len(e["points"]) == k for e in r.exhibits)
        full = oracle_noncollinear_sets(orth, k)
        full_bad = sum(not arises_from(emb, PointSet.of(sp, c)).arises for c in full)
        assert len(full) * k * (k - 1) == anchored * pairs, k
        assert full_bad * k * (k - 1) == anchored_bad * pairs, k


def test_search_reports_its_anchor(space):
    W = space("Sp4_3")
    r = search_nonarising_rank1(W, SamplePlan(seed=0, samples=0, mode="random"), 2)
    p0, q0 = r.info["anchor"]
    # q0 is the lowest point not collinear with p0 = 0
    assert p0 == 0 and not (W.adj[0] >> q0) & 1
    assert all((W.adj[0] >> p) & 1 for p in range(q0))
    assert r.sampled == 1 and r.exhibits[0]["points"] == (p0, q0)
    buf = io.StringIO()
    RecordWriter(buf).emit_report(r)
    assert f"info-anchor: {p0},{q0}\n" in buf.getvalue()


def test_search_below_set_size_two_judges_no_set(space):
    # no non-collinear set has fewer than two points; only the sampled
    # closures are judged
    Q = space("Q4_2")
    for size in (1, 0, -3):
        assert search_nonarising_rank1(
            Q, SamplePlan(seed=0, samples=0, mode="random"), size).sampled == 0
    plan = SamplePlan(seed=0, samples=20, mode="random")
    assert search_nonarising_rank1(Q, plan, 1).sampled == 20


def test_search_never_exhibits_singular(space):
    W = space("Sp4_3")
    r = search_nonarising_rank1(W, SamplePlan(seed=1, samples=40, mode="random"))
    for e in r.exhibits:
        S = PointSet.of(W, e["points"])
        assert rank_nd(W, S) != 0


def test_explore_problem5_w32(space):
    W = space("W3_2")
    r = explore_problem5(W, SamplePlan(mode="exhaustive"))
    assert r.experimental
    # the six ovoids are the maximal rank-1 subspaces, and all are hyperplanes
    assert r.info["ovoid_hyperplanes"] == 6
    assert r.info["non_hyperplane_maximals"] == 0
    assert r.applicable == 6
    assert r.skipped["improper"] == 1


def test_explore_problem5_q42(space):
    Q = space("Q4_2")
    r = explore_problem5(Q, SamplePlan(mode="exhaustive"))
    assert r.info["ovoid_hyperplanes"] == 6
    assert r.info["non_hyperplane_maximals"] == 0
    assert r.skipped["improper"] == 1


def test_explore_problem5_sampled(space):
    S = space("Sp4_3")
    r = explore_problem5(S, SamplePlan(seed=0, samples=30, mode="random"))
    assert r.experimental and r.consistent()
    # a saturation is a proper rank-1 subspace, so the judge never skips
    # one for being improper or of another rank
    assert "improper" not in r.skipped and "rank_ne_1" not in r.skipped
    for e in r.exhibits:
        assert not is_hyperplane(S, PointSet.of(S, e["points"]))


@pytest.mark.parametrize("name", ["H3_4", "Sp4_3", "Q4_3", "Qp3_4", "W3_2", "H4_4"])
def test_saturation_matches_rescanning_reference(name, space):
    sp = space(name)
    orth = oracle_orthogonality(sp.form, sp.points)
    for p in range(len(sp.points)):
        assert verify._saturate(sp, p) == oracle_saturation(orth, p)


@pytest.mark.parametrize("name", ["Sp4_3", "H3_4"])
def test_sampled_problem5_saturates_each_start_point_once(name, space, monkeypatch):
    # a saturation depends on its start point alone; the reference draws
    # the same start points and saturates on every draw
    sp = space(name)
    N = len(sp.points)
    calls = []
    original = verify._saturate
    monkeypatch.setattr(verify, "_saturate",
                        lambda *args: calls.append(1) or original(*args))
    for seed in range(10):
        plan = SamplePlan(seed=seed, mode="random")
        rng = plan.rng_for()
        starts = [rng.randrange(N) for _ in range(plan.samples)]
        distinct = list(dict.fromkeys(original(sp, p) for p in starts))
        skipped = {"duplicate": plan.samples - len(distinct)}
        exhibits = []
        for bits in distinct:
            if not is_maximal_subspace(sp, bits):
                skipped["not_maximal"] = skipped.get("not_maximal", 0) + 1
            elif not is_hyperplane(sp, bits):
                exhibits.append(PointSet(sp, bits).indices())
        calls.clear()
        r = explore_problem5(sp, plan)
        assert len(calls) == len(set(starts)) <= N
        assert (r.sampled, r.skipped, r.applicable) == \
            (plan.samples, skipped, plan.samples - sum(skipped.values()))
        assert [e["points"] for e in r.exhibits] == exhibits
        assert r.info["ovoid_hyperplanes"] == r.applicable - len(exhibits)


def test_explore_problem5_rejects_rank3(space):
    with pytest.raises(UsageError):
        explore_problem5(space("Q6_2"), SamplePlan())


# ---------------------------------------------------------------------------
# sampling contracts
# ---------------------------------------------------------------------------

def test_exhaustive_auto_selection(space):
    plan = SamplePlan(mode="auto")
    assert plan.resolved_mode(space("W3_2")) == "exhaustive"
    assert plan.resolved_mode(space("H3_4")) == "random"


def test_exhaustive_cost_guard(space):
    with pytest.raises(UsageError):
        SamplePlan(mode="exhaustive").resolved_mode(space("H3_4"))


def test_unknown_sample_mode_is_refused(space):
    with pytest.raises(UsageError) as err:
        SamplePlan(mode="sometimes").resolved_mode(space("W3_2"))
    assert str(err.value) == "unknown sample mode 'sometimes'"


def test_exhaustive_mode_decisions_by_point_count():
    # auto goes exhaustive at 15 points or fewer; forcing it is allowed at
    # 20 points or fewer, and the refusal names the limit, not a subset count
    for N in range(9, 22):
        sp = SimpleNamespace(points=range(N))
        auto = SamplePlan(mode="auto").resolved_mode(sp)
        assert auto == ("exhaustive" if N <= 15 else "random")
        forced = SamplePlan(mode="exhaustive")
        if N <= 20:
            assert forced.resolved_mode(sp) == "exhaustive"
        else:
            with pytest.raises(UsageError, match="at most 20 points") as err:
                forced.resolved_mode(sp)
            assert "2^" not in str(err.value)


def test_sampled_agrees_with_exhaustive_on_small_space(space):
    # every sampled verdict must match the exhaustive classification
    Q = space("Q4_2")
    emb = natural_embedding(Q)
    ex = check_theorem1(Q, emb, SamplePlan(mode="exhaustive"))
    assert ex.failed == 0
    sam = check_theorem1(Q, emb, SamplePlan(seed=3, samples=120, mode="random"))
    assert sam.failed == 0 and sam.consistent()


def test_driver_skips_the_whole_space_before_any_judge(space):
    # the first whole space is skipped as improper and its repeat as a
    # duplicate, neither reaching the judge; the proper subspace is
    # judged once
    W = space("W3_2")
    S = closure(W, [0, 1])
    judged = []

    def judge(cand):
        assert cand.bits != W.all_bits
        judged.append(cand.bits)

    r = verify._drive("probe", W, SamplePlan(), "random",
                      [PointSet(W, W.all_bits), PointSet(W, W.all_bits), S], judge)
    assert r.skipped == {"improper": 1, "duplicate": 1}
    assert judged == [S.bits] and r.passed == 1 and r.consistent()


def test_skip_accounting(space):
    H = space("H3_4")
    r = check_theorem1(H, natural_embedding(H),
                       SamplePlan(seed=2, samples=90, mode="random"))
    assert r.sampled == 90
    assert r.consistent()
    assert set(r.skipped) <= {"improper", "singular", "rank_nd_lt_2", "duplicate"}


# ---------------------------------------------------------------------------
# sample streams
# ---------------------------------------------------------------------------

def _candidate_bits(sp, plan):
    return [S.bits for S in verify._subspaces(sp, plan, "random")]


def test_sample_stream_replays(space):
    sp = space("Q6_2")
    first = _candidate_bits(sp, SamplePlan(seed=5, samples=40, mode="random"))
    again = _candidate_bits(sp, SamplePlan(seed=5, samples=40, mode="random"))
    assert len(first) == 40 and first == again


@pytest.mark.parametrize("seed", [0, 1, -4])
def test_shorter_plan_draws_a_prefix_of_a_longer_one(seed, space):
    sp = space("H4_4")
    short = _candidate_bits(sp, SamplePlan(seed=seed, samples=15, mode="random"))
    long = _candidate_bits(sp, SamplePlan(seed=seed, samples=30, mode="random"))
    assert short == long[:15]


def test_opposite_seeds_draw_different_first_candidates(space, monkeypatch):
    # a candidate is the closure of its drawn seed set; the closure of a
    # large seed set is often the whole space, so the drawn sets' bits
    # are compared, since they are what the stream decides
    sp = space("Q6_2")
    drawn = []
    original = verify.closure
    monkeypatch.setattr(verify, "closure",
                        lambda sp, bits, *rest: drawn.append(bits)
                        or original(sp, bits, *rest))

    def first(seed):
        drawn.clear()
        next(verify._subspaces(sp, SamplePlan(seed=seed, samples=1, mode="random"),
                               "random"))
        return drawn[0]

    for s in range(1, 21):
        assert first(s) != first(-s), s


def _assert_draws_match_stdlib(N, hi, seeds):
    # `_draw` must take the bits `random.sample` and `randint` take from
    # a twin stream and give their set; the streams must agree after.
    # The reference is CPython 3.11's `sample`: on a Python that samples
    # differently this fails, while polaris's records stay the same
    for seed in seeds:
        rng, twin = random.Random(seed), random.Random(seed)
        for _ in range(20):
            bits = verify._draw(rng.getrandbits, N, hi)
            want = {*twin.sample(range(N), twin.randint(2, hi))}
            assert bits == sum(1 << p for p in want), (N, hi, seed)
            assert rng.getrandbits(32) == twin.getrandbits(32), (N, hi, seed)


def test_draws_equal_stdlib_sample_on_every_space(every_space):
    # every size in [2, 2n+2]: the largest bound draws them all, and
    # each smaller bound draws from its own range of sizes
    N = len(every_space.points)
    for hi in range(2, 2 * every_space.n + 3):
        _assert_draws_match_stdlib(N, hi, range(25))


@pytest.mark.parametrize("N", [21, 22, 85, 86])
def test_draws_equal_stdlib_sample_at_the_pool_threshold(N):
    # `sample` keeps a pool up to N = 21 for sizes 2-5, and up to N = 85
    # for sizes 6-21; past it, a set of the chosen points
    _assert_draws_match_stdlib(N, 8, range(100))


def test_exhaustive_mode_draws_nothing(space, monkeypatch):
    # prop5 shares `_subspaces` with theorem1; no preset small enough for
    # exhaustive mode has a universal embedding of vector dimension 4
    def no_stream(self, *args):
        raise AssertionError("exhaustive mode drew from a sample stream")

    monkeypatch.setattr(SamplePlan, "rng_for", no_stream)
    plan = SamplePlan(seed=3, samples=50, mode="exhaustive")
    Q, W = space("Q4_2"), space("W3_2")
    assert check_theorem1(Q, natural_embedding(Q), plan).applicable == 10
    assert check_corollary2(W, plan).applicable == 25
    assert explore_problem5(W, plan).applicable == 6
    assert search_nonarising_rank1(Q, plan).mode == "mixed"


def test_each_sampled_call_seeds_one_stream(space, monkeypatch):
    # one stream per check call, however many samples it draws
    calls = []
    original = SamplePlan.rng_for
    monkeypatch.setattr(SamplePlan, "rng_for",
                        lambda self, *args: calls.append(self) or original(self, *args))
    Q, H, S = space("Q6_2"), space("H3_4"), space("Sp4_3")
    plan = SamplePlan(seed=2, samples=25, mode="random")
    runs = [
        lambda: check_theorem1(Q, universal_embedding(Q), plan),
        lambda: check_corollary2(Q, plan),
        lambda: check_prop5(H, plan),
        lambda: explore_problem5(S, plan),
        lambda: search_nonarising_rank1(S, plan),
    ]
    for run in runs:
        calls.clear()
        report = run()
        assert report.consistent()
        assert calls == [plan], report.check


# ---------------------------------------------------------------------------
# the family battery: spaces past the presets
# ---------------------------------------------------------------------------

# the first 16 hex digits of the sha256 of each report's records, seed 0
# and 50 samples; prop5 runs where the universal embedding has d = 4
BATTERY_DIGESTS = {
    ("corollary2", "H3_9"): "c5fb49d5b7ab5077",
    ("corollary2", "Q4_4"): "6ab9f0aa107a7e91",
    ("corollary2", "Q4_5"): "1850057dada355b2",
    ("corollary2", "Qm5_3"): "77a26b185c71c15d",
    ("corollary2", "W3_4"): "b88f6d797a434ea6",
    ("corollary2", "W3_5"): "76f4713d62159e6e",
    ("problem5", "H3_9"): "351d9af2e9f58daf",
    ("problem5", "Q4_4"): "f96c0fd3f145a89a",
    ("problem5", "Q4_5"): "c61bf9453a7933c8",
    ("problem5", "Qm5_3"): "329a772d5208bfd7",
    ("problem5", "W3_4"): "6041098b039a7e72",
    ("problem5", "W3_5"): "b6aed5c24883776c",
    ("prop5", "H3_9"): "be54495aff84db34",
    ("prop5", "W3_5"): "412d42974c9a729d",
}
BATTERY_CHECKS = {"corollary2": check_corollary2, "problem5": explore_problem5,
                  "prop5": check_prop5}


@pytest.mark.parametrize("check,name", sorted(BATTERY_DIGESTS))
def test_battery_records_are_pinned(check, name, battery):
    r = BATTERY_CHECKS[check](battery(name), SamplePlan(seed=0, samples=50, mode="random"))
    assert r.consistent() and r.failed == 0 and r.applicable > 0
    buf = io.StringIO()
    RecordWriter(buf, "records").emit_report(r)
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest()[:16] \
        == BATTERY_DIGESTS[check, name]

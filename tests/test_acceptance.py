"""Acceptance suite: every criterion runs at its stated tolerance and
prints one PASS/FAIL line (run with -s to see them live)."""

import hashlib
import io
import random
import time

import pytest

from polaris import linalg
from polaris.catalog import PRESETS, build_preset
from polaris.cli import main as cli_main
from polaris.embed import (
    arises_from,
    hull_of_symplectic_char2,
    natural_embedding,
    preimage,
    projective_span,
    quotient_embedding,
    universal_embedding,
)
from polaris.forms import polarize, radical_of_form
from polaris.polar import (
    PointSet,
    check_one_or_all,
    closure,
    enumerate_subspaces,
    find_partial_frame,
    frame_span,
    rank_of,
    sample_partial_frame,
)
from polaris.verify import (
    SamplePlan,
    check_corollary2,
    check_corollary3,
    check_prop5,
    check_theorem1,
)

from oracles import oracle_points_and_lines

SAMPLED_SPACES = ("Q4_3", "Qm5_2", "Qp5_2", "H3_4", "H4_4", "Q6_2", "Sp4_3")


def announce(num, desc):
    def deco(fn):
        def wrapper(*a, **k):
            try:
                fn(*a, **k)
            except BaseException:
                print(f"\nACCEPTANCE {num} FAIL  {desc}")
                raise
            print(f"\nACCEPTANCE {num} PASS  {desc}")
        wrapper.__name__ = fn.__name__
        return wrapper
    return deco


@announce(1, "exhaustive subspace check on Q(4,2) under the quadric embedding")
def test_criterion_1_exhaustive_q42():
    start = time.perf_counter()
    Q = build_preset("Q4_2")
    emb = natural_embedding(Q)
    report = check_theorem1(Q, emb, SamplePlan(seed=0, mode="exhaustive"))
    elapsed = time.perf_counter() - start
    assert report.failed == 0
    assert report.consistent()
    # candidates really are all subspaces collected from the 2^15 subsets
    assert report.sampled == len(enumerate_subspaces(Q))
    # the ten grid sections qualify; ovoids sit below the rank_nd threshold
    assert report.applicable == 10
    grid = closure(Q, find_partial_frame(Q, Q.universe(), 2).point_set())
    assert arises_from(emb, grid).arises
    for bits in enumerate_subspaces(Q):
        S = PointSet(Q, bits)
        if len(S) == 5 and rank_of(Q, S) == 1:
            assert S.rank_nd < 2  # elliptic ovoid: skipped, not asserted
            break
    assert elapsed < 60.0, f"criterion 1 took {elapsed:.1f}s"


@announce(2, "sampled subspace checks on the seven larger catalog spaces")
def test_criterion_2_sampled_spaces():
    start = time.perf_counter()
    for name in SAMPLED_SPACES:
        sp = build_preset(name)
        emb = natural_embedding(sp)
        report = check_theorem1(sp, emb, SamplePlan(seed=0, samples=1500,
                                                    mode="random"))
        distinct = report.sampled - report.skipped.get("duplicate", 0)
        assert report.failed == 0, f"{name}: {report.witnesses}"
        assert report.consistent()
        assert distinct >= 500, f"{name}: only {distinct} distinct subspaces"
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0, f"criterion 2 took {elapsed:.1f}s"


@announce(3, "sampled frames: span preimage, bases, span rank and dimension")
def test_criterion_3_frames():
    for name in sorted(PRESETS):
        sp = build_preset(name)
        emb = natural_embedding(sp)
        if emb.tag == "quotient":
            emb = universal_embedding(sp)
        # grids keep their natural (relatively universal) embedding
        rng = random.Random(0)
        for k in range(2, sp.n + 1):
            got = 0
            attempts = 0
            while got < 100:
                attempts += 1
                assert attempts < 5000, f"{name}: frame sampling starved at rank {k}"
                fr = sample_partial_frame(sp, k, rng)  # validates F1..F4
                if fr is None:
                    continue
                got += 1
                span = frame_span(sp, fr)  # asserts non-degenerate, rank k
                wanted = preimage(emb, projective_span(emb, fr.point_set()))
                assert span == wanted, f"{name} rank {k}: span != preimage"
                if fr.rank == sp.n and span.bits == sp.all_bits:
                    rows = projective_span(emb, fr.point_set())
                    assert len(rows) == 2 * sp.n == emb.dim


@announce(4, "quotient discrimination and arising-transport on W(3,2)/Q(4,2)")
def test_criterion_4_quotient_discrimination():
    Q = build_preset("Q4_2")
    uni = natural_embedding(Q)
    grid = closure(Q, find_partial_frame(Q, Q.universe(), 2).point_set())
    assert len(grid) == 9
    assert arises_from(uni, grid).arises

    quo = quotient_embedding(uni, radical_of_form(polarize(Q.form))).embedding
    verdict = arises_from(quo, grid)
    assert not verdict.arises
    assert verdict.preimage.bits == Q.all_bits  # exactly all 15 points

    # the same discrimination seen from the symplectic space itself
    W = build_preset("W3_2")
    hull = hull_of_symplectic_char2(W)
    gridW = PointSet.of(W, [hull.from_quad[i] for i in grid])
    symp = natural_embedding(W)
    vW = arises_from(symp, gridW)
    assert not vW.arises and vW.preimage.bits == W.all_bits
    assert arises_from(hull.universal, gridW).arises

    # transport, exhaustively: arising from the quotient implies arising
    # from the universal embedding
    for bits in enumerate_subspaces(Q):
        S = PointSet(Q, bits)
        if arises_from(quo, S).arises:
            assert arises_from(uni, S).arises, f"transport broken at {S.indices()}"


@announce(5, "maximal subspaces are hyperplanes; rank split of Q(6,2) hyperplanes")
def test_criterion_5_corollaries():
    for name in ("W3_2", "Q4_2"):
        r = check_corollary2(build_preset(name), SamplePlan(seed=0, mode="exhaustive"))
        assert r.failed == 0 and r.applicable == 25, name

    Q = build_preset("Q6_2")
    r = check_corollary3(Q, SamplePlan(seed=0, samples=200, mode="random"))
    assert r.failed == 0 and r.consistent()
    assert set(r.info["rank_histogram"]) <= {2, 3}
    assert r.applicable >= 63 + 100  # all singular + most sampled preimages

    # classify every hyperplane section: tangent 63, elliptic 28, hyperbolic 36
    emb = natural_embedding(Q)
    F = Q.field
    counts = {}
    for functional in linalg.projective_reps(F, 7):
        H = preimage(emb, linalg.right_kernel(F, (functional,), 7))
        key = (len(H), rank_of(Q, H))
        counts[key] = counts.get(key, 0) + 1
    assert counts == {(31, 3): 63, (27, 2): 28, (35, 3): 36}
    for p in range(len(Q.points)):
        assert rank_of(Q, PointSet(Q, Q.adj[p])) == 3


@announce(6, "no proper subspace of a 3-dim-embedded quadrangle has rank_nd >= 2")
def test_criterion_6_prop5():
    H = build_preset("H3_4")
    r = check_prop5(H, SamplePlan(seed=0, samples=1000, mode="random"))
    assert r.sampled == 1000
    assert r.failed == 0
    assert r.consistent()


@announce(7, "structural oracles: counts, one-or-all, closure as intersection")
def test_criterion_7_structural_oracles():
    expected = {
        "W3_2": (15, 15), "Sp4_3": (40, 40), "Q4_2": (15, 15),
        "Q4_3": (40, 40), "Qm5_2": (27, 45), "Qp5_2": (35, 105),
        "H3_4": (45, 27), "H4_4": (165, 297), "Q6_2": (63, 315),
        "W5_2": (63, 315), "Qp3_2": (9, 6), "Qp3_4": (25, 10),
    }
    assert set(expected) == set(PRESETS)
    for name in sorted(PRESETS):
        sp = build_preset(name)
        pts, lines = oracle_points_and_lines(sp.form)
        assert (len(pts), len(lines)) == expected[name], name
        assert list(sp.points) == pts, name
        got = {frozenset(sp.points[i] for i in line) for line in sp.lines}
        assert got == lines, name
        assert check_one_or_all(sp) is None, name

    # closure(X) equals the intersection of all subspaces containing X,
    # for every X, with the subspace family from the full 2^N sweep
    for name in ("W3_2", "Q4_2", "Qp3_2"):
        sp = build_preset(name)
        subs = enumerate_subspaces(sp)
        N = len(sp.points)
        for bits in range(1 << N):
            inter = sp.all_bits
            for s in subs:
                if s & bits == bits:
                    inter &= s
            assert closure(sp, bits).bits == inter


# (argv, sha256 of its stdout); the digests pin the record bytes themselves,
# so a change that alters any output has to name it and update them
CLI_BATTERY = [
    (["build", "--preset", "Q4_2"],
     "0e54628b8099316103510fe95f8870bec0043174c891e99de1d1a2b8311db2e3"),
    (["build", "--preset", "H4_4", "--verbose"],
     "7a400d86464b3f02b03e65fffafbbfe1b4a283ba4f5fe5be2d01853d38d69fd4"),
    (["points", "--preset", "W3_2"],
     "566856a99a9c5422b96e4fa8dd65c98e8ab2835d43f22940afd6fd39cc63911d"),
    (["lines", "--preset", "Qp3_4"],
     "bb84a04eaa0fdaf77f6524ddcd6d3bdea6887cdaed393bf4c80a88fb77cd9fe8"),
    (["closure", "--preset", "W3_2", "--points", "0,2"],
     "4d1b37683df7cb3342613eb1eeed695b99e0a312706d6049db6d61e81f9ddba3"),
    (["perp", "--preset", "Q4_2", "--points", "0,1"],
     "001bf89e314f5bffd63c033e69e1be0d8e34f0347e465930e697437e13c87908"),
    (["frame", "find", "--preset", "Q6_2", "--k", "3"],
     "72685e17066921220714177ba484f268f6701db574a54cb01241c15cd76eed00"),
    (["frame", "check", "--preset", "W3_2", "--a", "0,3", "--b", "1,7"],
     "9826aceb0326f94f4f2237077df47293ef6f74af37de9367f6399635a3257cd7"),
    (["check", "theorem1", "--preset", "Q4_2", "--samples", "0"],
     "7c9d84681602674d444df305a0823f086133aedf50db0732a979132e6b05a0f2"),
    (["check", "theorem1", "--preset", "Sp4_3", "--samples", "80", "--seed", "5"],
     "c550e49d9782414e100e2fe1e3a30ac45a572c46daface3b8ee4df93fe430c0c"),
    (["check", "theorem1", "--preset", "H4_4", "--samples", "40"],
     "5851ffb2f98cd3b40e26004072dee1608b4a84df54598b5faf554c365cbe8694"),
    (["check", "corollary2", "--preset", "Q4_2", "--samples", "0"],
     "e790a4d1862acc68fbb95f7f45c19e1065ab8a5dbaf858eaa8b2331273954d57"),
    (["check", "corollary2", "--preset", "Q6_2", "--samples", "12"],
     "c314089c5f7180a00a1276b1326ee972357b014b1459749a9881a478d8b84a8a"),
    (["check", "corollary3", "--preset", "Q6_2", "--samples", "20", "--seed", "1"],
     "1916b6fd0c7b82d83f157f2c0c7bdc15af03f23ab0a09d1e8545be7ca8b80d6d"),
    (["check", "corollary3", "--preset", "W5_2", "--samples", "10"],
     "7207689394437892c800c0a4db0d6626c6e89aeb2075e6089520be044e1b37a6"),
    (["check", "prop5", "--preset", "H3_4", "--samples", "120", "--seed", "2"],
     "4f126aa786bba491516ed59bf7bac8d2184707bfd7ca383b6dd7e4f5c2300f6c"),
    (["search", "rank1-nonarising", "--preset", "Q4_2", "--samples", "30"],
     "9ae2aa167f0208a042c1f7354f957cad7e5a54f6311dd4f3148882a605ea261c"),
    (["search", "rank1-nonarising", "--preset", "Q4_2", "--samples", "0"],
     "4ab9495e509d7292b15e134109460b0c2d7dfcd46d37d58de076d2bdd6d630dc"),
    (["search", "rank1-nonarising", "--preset", "Sp4_3", "--samples", "30", "--seed", "1"],
     "0b85699fddfe79561afd30428db5ed52e0fec25e9a7ecf193c4c18242d7c643c"),
    (["explore", "problem5", "--preset", "W3_2", "--samples", "0"],
     "fd4666d0e7f174427ba7c12bbd6786b7ab2732870984b74442cb2e5628ec7f38"),
    (["explore", "problem5", "--preset", "Q4_2", "--samples", "0"],
     "f8122186b191d829cc7d3130be7314633b82ea822b16dd8e66c6094bcda1d02c"),
    (["explore", "problem5", "--preset", "Sp4_3", "--samples", "100"],
     "97c0e1d3328985f288cec86c4d48c2ae11747763d65982914cf8d7b960dc8f10"),
    (["quotient", "--preset", "Q6_2"],
     "cc6ad32189f4d6d9fb3a4a1c351bc47973d88d4a7673ac73ce4130370b783879"),
    (["hull", "--preset", "W5_2"],
     "cb8c961d2720184f848e8025a308ee10e0a13c77b24358f8aa92d860680480f1"),
    (["mingen", "--preset", "Q4_2", "--points", "all"],
     "3fc330c34d734877fed6eebc37f7c24c57f0383cbc3b52ab1078efec5aaba704"),
]


@announce(8, "pinned, byte-identical record streams on rerun for every command")
def test_criterion_8_determinism():
    for argv, digest in CLI_BATTERY:
        outs = []
        for _ in range(2):
            buf = io.StringIO()
            code = cli_main(argv, out=buf, err=io.StringIO())
            assert code == 0, argv
            outs.append(buf.getvalue())
        assert outs[0] == outs[1], f"nondeterministic output: {argv}"
        assert "duration" not in outs[0]
        assert hashlib.sha256(outs[0].encode()).hexdigest() == digest, argv

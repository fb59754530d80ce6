import hashlib
import random
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polaris import linalg, polar, verify
from polaris.catalog import build_preset, preset_text
from polaris.embed import natural_embedding, universal_embedding
from polaris.errors import GeometryError
from polaris.field import field_make
from polaris.forms import (
    quadratic_form,
    radical_of_form,
    radical_of_quadratic,
    sesquilinear_form,
    trace_valued_check,
    witt_index,
)
from polaris.polar import (
    PointSet,
    build_polar_space,
    closure,
    enumerate_subspaces,
    extend_frame,
    find_partial_frame,
    generating_points,
    is_hyperplane,
    is_maximal_subspace,
    is_subspace,
    perp,
    radical_of_subspace,
    rank_nd,
    rank_of,
)
from polaris.specfile import build_space_from_spec, parse_spec

F2 = field_make(2, 1)


# ---------------------------------------------------------------------------
# independent brute-force oracle for points and lines
# ---------------------------------------------------------------------------

from oracles import (  # noqa: E402
    line_bits,
    oracle_closure,
    oracle_coatoms,
    oracle_line_class,
    oracle_one_or_all,
    oracle_orthogonality,
    oracle_points_and_lines,
    oracle_rank,
    oracle_subspaces,
    oracle_witt,
)


EXPECTED_COUNTS = {
    "W3_2": (15, 15),
    "Sp4_3": (40, 40),
    "Q4_2": (15, 15),
    "Q4_3": (40, 40),
    "Qm5_2": (27, 45),
    "Qp5_2": (35, 105),
    "H3_4": (45, 27),
    "H4_4": (165, 297),
    "Q6_2": (63, 315),
    "W5_2": (63, 315),
    "Qp3_2": (9, 6),
    "Qp3_4": (25, 10),
}


@pytest.mark.parametrize("name", sorted(EXPECTED_COUNTS))
def test_preset_counts_match_brute_force(name, space, preset_oracle):
    sp = space(name)
    npts, nlines = EXPECTED_COUNTS[name]
    assert len(sp.points) == npts
    assert len(sp.lines) == nlines
    pts, lines = preset_oracle(name)
    assert list(sp.points) == pts
    got = {frozenset(sp.points[i] for i in line) for line in sp.lines}
    assert got == lines


@pytest.mark.parametrize("name", sorted(EXPECTED_COUNTS))
def test_preset_axioms(name, space):
    sp = space(name)
    q = sp.q
    for line in sp.lines:
        assert len(line) == q + 1
    for i in range(len(sp.points)):
        assert (sp.adj[i] >> i) & 1
        assert sp.adj[i] != sp.all_bits
        for j in range(len(sp.points)):
            assert ((sp.adj[i] >> j) & 1) == ((sp.adj[j] >> i) & 1)
    lines = {frozenset(sp.points[i] for i in line) for line in sp.lines}
    assert oracle_one_or_all(sp.form, sp.points, lines) is None
    assert sp.points == tuple(sorted(sp.points))
    assert sp.lines == tuple(sorted(sp.lines))


@pytest.mark.parametrize("name", sorted(EXPECTED_COUNTS))
def test_clique_rank_of_the_space_is_the_witt_index(name, space):
    sp = space(name)
    assert rank_of(sp, sp.all_bits) == sp.n


# (field, kind, dimension) of the random-form test; each shape gets its
# own draws, so the rank-3 shapes (GF(2) in dimension 6) are always met.
# The oracle's line scan takes about a second on a sesquilinear form with
# 85 points, so GF(4) draws no alternating forms (test_embed checks one
# W(3,4) against the oracle) and hermitian ones stop at dimension 4.
RANDOM_FORM_SHAPES = [
    ((2, 1), "alternating", 4), ((2, 1), "alternating", 6),
    ((2, 1), "quadratic", 4), ((2, 1), "quadratic", 5), ((2, 1), "quadratic", 6),
    ((3, 1), "alternating", 4), ((3, 1), "symmetric", 4), ((3, 1), "symmetric", 5),
    ((3, 1), "quadratic", 4), ((3, 1), "quadratic", 5),
    ((2, 2), "hermitian", 4), ((2, 2), "quadratic", 4), ((2, 2), "quadratic", 5),
]


@st.composite
def random_forms(draw, F, kind, d):
    """A random form of the given shape; degenerate ones and ones whose
    isotropic vectors do not span are filtered out."""
    code = st.integers(0, F.q - 1)
    g = [[draw(code) if j >= i else 0 for j in range(d)] for i in range(d)]
    if kind == "quadratic":
        form = quadratic_form(F, g)
        assume(not radical_of_quadratic(form))
    else:
        for i in range(d):
            if kind == "alternating":
                g[i][i] = 0
            elif kind == "hermitian":
                g[i][i] = draw(st.sampled_from([0, 1]))   # the fixed field GF(2)
            for j in range(i):
                g[i][j] = {"alternating": F.neg(g[j][i]), "symmetric": g[j][i],
                           "hermitian": F.frob(g[j][i], 1)}[kind]
        form = sesquilinear_form(F, g, kind)
        assume(not radical_of_form(form) and trace_valued_check(form))
    return form


SHAPE_IDS = [f"GF{p**k}-{kind}-{d}" for (p, k), kind, d in RANDOM_FORM_SHAPES]


@pytest.mark.parametrize("pk,kind,d", RANDOM_FORM_SHAPES, ids=SHAPE_IDS)
@settings(derandomize=True, database=None, max_examples=5, deadline=None)
@given(data=st.data())
def test_random_forms_match_brute_force(pk, kind, d, data):
    # collinearity rows from zero sets and lines as {p, q}^perp^perp agree
    # with direct evaluation on random non-degenerate forms of rank >= 2
    form = data.draw(random_forms(field_make(*pk), kind, d))
    assume(witt_index(form) >= 2)
    sp = build_polar_space(form)
    pts, lines = oracle_points_and_lines(form)
    assert list(sp.points) == pts
    orth = oracle_orthogonality(form, sp.points)
    assert [set(polar._iter_bits(row)) for row in sp.adj] == orth
    assert {frozenset(sp.points[i] for i in line) for line in sp.lines} == lines
    assert rank_of(sp, sp.all_bits) == sp.n


@pytest.mark.parametrize("pk,kind,d", RANDOM_FORM_SHAPES, ids=SHAPE_IDS)
@settings(derandomize=True, database=None, max_examples=10, deadline=None)
@given(data=st.data())
def test_witt_index_matches_oracle_on_random_forms(pk, kind, d, data):
    # no rank filter: the one ascending pass meets forms of every rank,
    # and dimensions below the shape's reach ranks 0 and 1 as well
    dim = data.draw(st.integers(1, d))
    form = data.draw(random_forms(field_make(*pk), kind, dim))
    assert witt_index(form) == oracle_witt(form)


def test_build_rejects_degenerate_and_thin():
    with pytest.raises(GeometryError):
        build_polar_space(quadratic_form(F2, [[0, 1, 0], [0, 0, 0], [0, 0, 0]]))
    # anisotropic plane: witt index 0
    with pytest.raises(GeometryError):
        build_polar_space(quadratic_form(F2, [[1, 1], [0, 1]]))
    # rank 1: a conic has no lines
    with pytest.raises(GeometryError):
        build_polar_space(quadratic_form(F2, [[1, 0, 0], [0, 0, 1], [0, 0, 0]]))


def test_build_rejects_non_trace_valued():
    with pytest.raises(GeometryError):
        build_polar_space(sesquilinear_form(F2, [[1 if i == j else 0 for j in range(4)]
                                                 for i in range(4)], "symmetric"))
    # a 1-dim hermitian form is trace-valued but anisotropic
    with pytest.raises(GeometryError, match="rank 0 < 2"):
        build_polar_space(sesquilinear_form(field_make(2, 2), [[1]], "hermitian"))


def test_point_cap_enforced():
    W = parse_spec(preset_text("W3_2"))
    with pytest.raises(GeometryError):
        build_space_from_spec(W, cap=10)


def test_rows_and_lines_hold_what_the_build_does_not_test(every_space):
    # every point lies in its own row, no row is every point, and each
    # line has q + 1 points: the facts the build's docstring proves
    sp = every_space
    assert all((row >> i) & 1 and row != sp.all_bits for i, row in enumerate(sp.adj))
    assert {len(line) for line in sp.lines} == {sp.q + 1}


@pytest.mark.parametrize("call,message", [
    (lambda W, Q: build_polar_space("W3_2"), "not a form: 'W3_2'"),
    (lambda W, Q: closure(W, PointSet.of(Q, [0])), "PointSet belongs to a different space"),
    (lambda W, Q: extend_frame(Q, find_partial_frame(W, W.all_bits, 2)),
     "frame belongs to a different space"),
], ids=["not-a-form", "pointset", "frame"])
def test_library_refusals_name_the_problem(call, message, space):
    with pytest.raises(GeometryError) as err:
        call(space("W3_2"), space("Q6_2"))
    assert str(err.value) == message


def test_pointset_repr_lists_its_points(space):
    # pytest prints it when an assertion on point sets fails
    assert repr(PointSet.of(space("W3_2"), [7, 0, 3])) == "PointSet([0, 3, 7])"


def test_grid_detection(space):
    assert space("Qp3_2").is_grid
    assert space("Qp3_4").is_grid
    assert not space("W3_2").is_grid
    assert not space("Q4_2").is_grid


# ---------------------------------------------------------------------------
# perp
# ---------------------------------------------------------------------------

def test_perp_examples(space):
    W = space("W3_2")
    p = perp(W, [0])
    assert len(p) == 7  # the point plus three further lines of two points
    assert perp(W, []).bits == W.all_bits


def test_perp_of_frame_is_empty(space):
    W = space("W3_2")
    fr = find_partial_frame(W, W.all_bits, 2)
    assert perp(W, fr.point_set()).bits == 0


def test_perp_antitone_and_double_perp(space):
    W = space("Q4_2")
    rng = random.Random(11)
    for _ in range(50):
        xs = rng.sample(range(15), rng.randint(1, 6))
        ys = xs + [i for i in range(15) if i not in xs][:2]
        X, Y = PointSet.of(W, xs), PointSet.of(W, ys)
        assert perp(W, Y).bits & ~perp(W, X).bits == 0
        assert X.bits & ~perp(W, perp(W, X)).bits == 0


# ---------------------------------------------------------------------------
# closure
# ---------------------------------------------------------------------------

def test_closure_examples(space):
    W = space("W3_2")
    # two collinear points saturate to their full line
    i = 0
    j = next(iter(PointSet(W, W.adj[0] & ~1)))
    c = closure(W, [i, j])
    assert len(c) == W.q + 1
    assert any(c.bits == lb for lb in line_bits(W))
    # two non-collinear points are already closed
    k = next(iter(PointSet(W, W.all_bits & ~W.adj[0])))
    assert closure(W, [0, k]).bits == (1 | (1 << k))


def test_closure_of_complete_frame_is_grid(space):
    Q = space("Q4_2")
    fr = find_partial_frame(Q, Q.all_bits, 2)
    g = closure(Q, fr.point_set())
    assert len(g) == 9
    assert rank_of(Q, g) == 2 and radical_of_subspace(Q, g).bits == 0
    # cross-check: the grid is a hyperbolic hyperplane section, so it is
    # the set of points whose vectors lie in the span of the grid vectors
    span = linalg.rref(Q.field, [Q.points[i] for i in g])
    assert len(span) == 4
    by_span = {i for i, v in enumerate(Q.points) if linalg.in_span(Q.field, span, v)}
    assert set(g.indices()) == by_span


def test_closure_properties(space):
    W = space("W3_2")
    rng = random.Random(5)
    for _ in range(60):
        xs = rng.sample(range(15), rng.randint(0, 6))
        X = PointSet.of(W, xs)
        c = closure(W, X)
        assert X.bits & ~c.bits == 0                      # extensive
        assert closure(W, c).bits == c.bits               # idempotent
        ys = xs + [i for i in range(15) if i not in xs][:1]
        assert c.bits & ~closure(W, ys).bits == 0         # monotone
        assert is_subspace(W, c)


def test_closure_equals_subspace_intersection_small(space):
    # closure(X) == intersection of all subspaces containing X, with the
    # subspace family enumerated over all 2^9 subsets of the small grid
    G = space("Qp3_2")
    subs = oracle_subspaces(G.form)
    for bits in range(1 << 9):
        inter = G.all_bits
        for s in subs:
            if s & bits == bits:
                inter &= s
        assert closure(G, bits).bits == inter


@pytest.mark.parametrize("name", ["Q6_2", "Sp4_3", "H3_4"])
def test_closure_from_closed_base_matches_oracle(name, space, preset_oracle):
    # lines of 3, 4 and 5 points; the line set comes from the oracle
    sp = space(name)
    _, lines = preset_oracle(name)
    oracle_lines = [sum(1 << sp.points.index(v) for v in line) for line in lines]
    N = len(sp.points)
    rng = random.Random(11)
    for _ in range(60):
        seeds = PointSet.of(sp, rng.sample(range(N), rng.randint(0, 3)))
        S = oracle_closure(oracle_lines, seeds.bits)
        X = PointSet.of(sp, rng.sample(range(N), rng.randint(0, 3))).bits
        want = oracle_closure(oracle_lines, X | S)
        from_base = closure(sp, X, S)
        cold = closure(sp, X | S)
        assert from_base.bits == cold.bits == want
        assert from_base.is_subspace == is_subspace(sp, from_base.bits) is True
        assert cold.is_subspace == is_subspace(sp, cold.bits) is True


# ---------------------------------------------------------------------------
# closure's point-perp shortcut
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(EXPECTED_COUNTS))
def test_a_point_perp_and_one_point_off_it_close_to_the_whole_space(name, space,
                                                                     preset_oracle):
    # the fact behind the shortcut, on the oracle's own lines: each point
    # perp is a subspace, and with its lowest outside point it closes to
    # the whole space
    sp = space(name)
    lines = _oracle_line_bits(sp, preset_oracle)
    for p, h in enumerate(sp.adj):
        off = sp.all_bits & ~h
        assert oracle_closure(lines, h) == h
        assert oracle_closure(lines, h | (off & -off)) == sp.all_bits, p


def test_closure_of_a_point_perp_is_the_perp(every_space):
    # p^perp holds no point off p^perp, so the shortcut must not fire on it
    sp = every_space
    for p, h in enumerate(sp.adj):
        assert closure(sp, h).bits == h, p


def test_closure_matches_oracle_on_sampler_sized_seed_sets(every_space):
    # cold closures of seed sets of the sampler's sizes, and a point closed
    # over a closed base while avoiding up to two other points; the whole
    # space comes out of either, or None when there is a point to avoid
    sp = every_space
    lines = line_bits(sp)
    N = len(sp.points)
    hi = max(2, min(2 * sp.n + 2, N))
    rng = random.Random(13)
    whole = {"cold": 0, "avoided": 0}
    for _ in range(100):
        X = PointSet.of(sp, rng.sample(range(N), rng.randint(2, hi))).bits
        want = oracle_closure(lines, X)
        assert closure(sp, X).bits == want, PointSet(sp, X).indices()
        whole["cold"] += want == sp.all_bits
        S = oracle_closure(lines, PointSet.of(sp, rng.sample(range(N), rng.randint(1, hi - 1))).bits)
        if S == sp.all_bits:
            continue
        p, *rest = rng.sample([x for x in range(N) if not (S >> x) & 1], 3)
        E = sum(1 << x for x in rest[:rng.randint(0, 2)])
        want = oracle_closure(lines, S | 1 << p)
        got = closure(sp, 1 << p, S, E)
        if want & E:
            assert got is None, (PointSet(sp, S).indices(), p, E)
        else:
            assert got.bits == want and got.is_subspace, (PointSet(sp, S).indices(), p, E)
        whole["avoided"] += want == sp.all_bits and E != 0
    assert whole["cold"] and whole["avoided"], whole


@pytest.mark.parametrize("name", ["W3_2", "H3_4", "Qp3_4", "W5_2"])
def test_closure_stops_at_the_first_popped_point_whose_perp_it_holds(name, space,
                                                                     monkeypatch):
    # with x the lowest point off p^perp: x over the closed base p^perp
    # fills x^perp with its first batch, and p^perp u x, cold, holds p^perp
    # when p is popped first; either way the first pop decides
    sp = space(name)
    asked = []
    original = polar._perp_is_maximal
    monkeypatch.setattr(polar, "_perp_is_maximal",
                        lambda space, p: asked.append(p) or original(space, p))
    cold = 0
    for p, h in enumerate(sp.adj):
        off = sp.all_bits & ~h
        x = (off & -off).bit_length() - 1
        asked.clear()
        assert closure(sp, 1 << x, h).bits == sp.all_bits and asked == [x]
        far = off & ~sp.adj[x]
        assert closure(sp, 1 << x, h, far & -far) is None and asked == [x, x]
        seeds = h | 1 << x
        if seeds & -seeds == 1 << p:
            asked.clear()
            assert closure(sp, seeds).bits == sp.all_bits and asked == [p]
            cold += 1
    assert cold


@pytest.mark.parametrize("name", ["H3_4", "Q6_2"])
def test_each_point_perp_is_certified_once_on_first_use(name, fresh_space, monkeypatch):
    # nothing is certified at build; closure walks no line class but the
    # certificate's, from a point perp, and a certified point is never
    # walked again
    sp = fresh_space(name)
    assert sp._perp_maximal == 0
    owner = {h: p for p, h in enumerate(sp.adj)}
    checked = []
    original = polar._line_class
    monkeypatch.setattr(polar, "_line_class", lambda space, s_bits, *args:
                        checked.append(owner[s_bits]) or original(space, s_bits, *args))
    N = len(sp.points)
    rng = random.Random(17)
    for _ in range(300):
        closure(sp, rng.sample(range(N), rng.randint(2, 2 * sp.n + 2)))
    assert len(checked) == len(set(checked)) >= 10
    assert sp._perp_maximal == sum(1 << p for p in checked)


def test_a_refused_certificate_takes_no_shortcut(fresh_space, monkeypatch):
    # a class walk that falls short of the complement certifies nothing,
    # and closure then runs to the end of its worklist
    sp = fresh_space("H3_4")
    lines = line_bits(sp)
    monkeypatch.setattr(polar, "_line_class", lambda space, s_bits, p, avoid=0: 1 << p)
    N = len(sp.points)
    rng = random.Random(19)
    for _ in range(100):
        X = PointSet.of(sp, rng.sample(range(N), rng.randint(2, 6))).bits
        assert closure(sp, X).bits == oracle_closure(lines, X)
    assert sp._perp_maximal == 0


# ---------------------------------------------------------------------------
# subspace, singularity, ranks
# ---------------------------------------------------------------------------

def test_is_subspace_examples(space):
    W = space("W3_2")
    line = list(W.lines[0])
    assert is_subspace(W, line) and rank_nd(W, line) == 0
    assert not is_subspace(W, line[:-1])
    Q = space("Q4_2")
    grid = closure(Q, find_partial_frame(Q, Q.all_bits, 2).point_set())
    assert is_subspace(Q, grid) and rank_nd(Q, grid) != 0


def test_rank_examples(space):
    W = space("W3_2")
    line = PointSet.of(W, W.lines[0])
    assert radical_of_subspace(W, line).bits == line.bits
    assert rank_of(W, line) == 2
    assert rank_nd(W, line) == 0

    H = perp(W, 1 << 0)
    assert radical_of_subspace(W, H).indices() == (0,)
    assert rank_of(W, H) == 2
    assert rank_nd(W, H) == 1

    Q = space("Q4_2")
    grid = closure(Q, find_partial_frame(Q, Q.all_bits, 2).point_set())
    assert radical_of_subspace(Q, grid).bits == 0
    assert rank_of(Q, grid) == 2 and rank_nd(Q, grid) == 2


def test_rank_cross_checked_exhaustively(space):
    # on a 15-point space, compare greedy rank with the largest singular
    # subspace found by scanning every subset
    W = space("W3_2")
    subs = [S.bits for S in enumerate_subspaces(W)]
    singular_dims = {}
    for bits in subs:
        if bits and rank_nd(W, bits) == 0:
            vecs = [W.points[i] for i in PointSet(W, bits)]
            singular_dims[bits] = len(linalg.rref(W.field, vecs))
    rng = random.Random(23)
    picks = [s for s in subs if s][:40] + rng.sample(subs, 40)
    for bits in picks:
        if not is_subspace(W, bits):
            continue
        best = 0
        for sb, dim in singular_dims.items():
            if sb & bits == sb:
                best = max(best, dim)
        assert rank_of(W, bits) == best


@pytest.mark.parametrize("name", ["W3_2", "Q4_2", "Qp3_2"])
def test_rank_matches_oracle_on_every_subspace(name, space):
    sp = space(name)
    orth = oracle_orthogonality(sp.form, sp.points)
    for S in enumerate_subspaces(sp):
        want = oracle_rank(sp.field, sp.points, orth, S)
        assert (rank_of(sp, S.bits), rank_nd(sp, S.bits)) == want


@pytest.mark.parametrize("name", ["W3_2", "Q4_2", "Qp3_2"])
def test_rank_nd_is_zero_exactly_on_singular_subspaces(name, space):
    # theorem1's classification reads both of its skips off rank_nd
    sp = space(name)
    orth = oracle_orthogonality(sp.form, sp.points)
    for bits in oracle_subspaces(sp.form):
        ids = set(PointSet(sp, bits))
        singular = all(ids <= orth[i] for i in ids)
        assert (rank_nd(sp, bits) == 0) == singular


@pytest.mark.parametrize("name", ["Q6_2", "H3_4", "H4_4"])
def test_rank_matches_oracle_on_sampled_closures(name, space):
    # closures of random sets, cut by the perp of up to two points so
    # that degenerate subspaces with radicals come up too
    sp = space(name)
    orth = oracle_orthogonality(sp.form, sp.points)
    rng = random.Random(31)
    N = len(sp.points)
    seen = set()
    for _ in range(200):
        S = closure(sp, rng.sample(range(N), rng.randint(1, 2 * sp.n + 1)))
        bits = S.bits & perp(sp, rng.sample(range(N), rng.randint(0, 2))).bits
        if bits in seen:
            continue
        seen.add(bits)
        want = oracle_rank(sp.field, sp.points, orth, PointSet(sp, bits))
        assert (rank_of(sp, bits), rank_nd(sp, bits)) == want
    assert len(seen) > 20


def test_rank_requires_subspace(space):
    W = space("W3_2")
    bad = list(W.lines[0])[:-1]
    with pytest.raises(GeometryError):
        rank_of(W, bad)
    with pytest.raises(GeometryError):
        radical_of_subspace(W, bad)
    with pytest.raises(GeometryError):
        rank_nd(W, bad)


def test_vector_dim_inverts_the_point_count():
    # the presets' singular subspaces stop at dimension 3, too low to
    # tell a wrong running power of q from the right one
    for q in (2, 3, 4, 5, 7, 8, 9):
        for k in range(8):
            assert polar._vector_dim(q, (q**k - 1) // (q - 1)) == k


def test_pointset_subspace_flag_agrees_with_recomputation(space):
    W = space("Q4_2")
    S = closure(W, [0, 1, 2])
    fresh = PointSet(W, S.bits)
    assert S.is_subspace == is_subspace(W, fresh)
    # a generating set picked from S lies in S and generates it
    gens = PointSet.of(W, generating_points(W, S))
    assert gens.bits & ~S.bits == 0 and closure(W, gens).bits == S.bits


# ---------------------------------------------------------------------------
# hyperplanes and maximality
# ---------------------------------------------------------------------------

def _scan_is_subspace(lines, bits):
    return not any((lb & bits) != lb and (lb & bits) & ((lb & bits) - 1)
                   for lb in lines)


def _subspace_test_inputs(sp, rng):
    """Point sets for `is_subspace` and `is_hyperplane`: the edge cases,
    random subsets of three densities, closures, zero sets of
    functionals, closures and zero sets with one point taken out, and
    the maximal pairwise non-collinear set grown from each point."""
    N = len(sp.points)
    # a grid has no designated universal embedding; its natural one
    # gives its hyperplane sections
    emb = natural_embedding(sp) if sp.is_grid else universal_embedding(sp)
    zero_sets = list(emb.duals.zero)
    lines = line_bits(sp)
    out = [0, 1, 1 << (N - 1), lines[0], lines[-1], sp.all_bits]
    out += [verify._saturate(sp, p) for p in range(N)]
    for k in (2, 4, N // 2):
        out += [sum(1 << p for p in rng.sample(range(N), k)) for _ in range(20)]
    closures = [closure(sp, rng.sample(range(N), rng.randint(2, 2 * sp.n + 2))).bits
                for _ in range(40)]
    for bits in closures + rng.sample(zero_sets, min(40, len(zero_sets))):
        out += [bits, bits & ~(1 << rng.choice(PointSet(sp, bits).indices()))]
    return out


@pytest.mark.parametrize("name", sorted(EXPECTED_COUNTS))
def test_line_row_tests_match_a_line_scan(name, space):
    # is_subspace asks whether a set is its own closure and is_hyperplane
    # counts each outside point's perp in the set; the plain scan over
    # every line is the reference.  A near miss is a subspace that misses
    # a line though some outside point has every line through it met, or
    # though it is maximal, as many saturations of a point are
    sp = space(name)
    lines = line_bits(sp)
    subspaces = hyperplanes = near_misses = 0
    for bits in _subspace_test_inputs(sp, random.Random(23)):
        want = _scan_is_subspace(lines, bits)
        assert is_subspace(sp, bits) == want, PointSet(sp, bits).indices()
        subspaces += want
        if want and bits != sp.all_bits:
            meets_all = all(lb & bits for lb in lines)
            assert is_hyperplane(sp, bits) == meets_all, PointSet(sp, bits).indices()
            hyperplanes += meets_all
            near_misses += not meets_all and (any(
                all(rest & bits for rest in sp.lines_at[p])
                for p in polar._iter_bits(sp.all_bits & ~bits))
                or is_maximal_subspace(sp, bits))
    assert subspaces >= 40 and hyperplanes >= 10 and near_misses >= 1


def test_hyperplane_examples(space):
    W = space("W3_2")
    H = perp(W, 1 << 0)
    assert is_hyperplane(W, H)
    assert rank_of(W, H) == 2 and rank_nd(W, H) == 1

    Q = space("Q4_2")
    grid = closure(Q, find_partial_frame(Q, Q.all_bits, 2).point_set())
    assert is_hyperplane(Q, grid)
    line = PointSet.of(Q, Q.lines[0])
    assert not is_hyperplane(Q, line)


def test_maximality_examples(space):
    W = space("W3_2")
    assert is_maximal_subspace(W, perp(W, 1 << 0))
    assert not is_maximal_subspace(W, PointSet.of(W, W.lines[0]))
    Q = space("Q4_2")
    grid = closure(Q, find_partial_frame(Q, Q.all_bits, 2).point_set())
    assert is_maximal_subspace(Q, grid)


def test_every_singular_hyperplane_is_maximal(space):
    for name in ("W3_2", "Q4_2", "Qm5_2"):
        sp = space(name)
        for p in range(0, len(sp.points), 5):
            H = perp(sp, 1 << p)
            assert is_hyperplane(sp, H) and is_maximal_subspace(sp, H)


@pytest.mark.parametrize("name", ["W3_2", "Q4_2", "Qp3_2", "Qm5_2", "Qp5_2", "Qp3_4"])
def test_is_maximal_subspace_matches_coatom_oracle(name, space):
    # the brute-force list where 2^N subsets can be scanned; on the 25- to
    # 35-point spaces the walk's list, which shares `_line_class` with the
    # maximality test, so its sha256 is pinned independently below
    sp = space(name)
    brute = name in ("W3_2", "Q4_2", "Qp3_2")
    subs = oracle_subspaces(sp.form) if brute \
        else [S.bits for S in enumerate_subspaces(sp)]
    coatoms = oracle_coatoms(subs, sp.all_bits)
    for bits in subs:
        if bits != sp.all_bits:
            assert is_maximal_subspace(sp, PointSet(sp, bits)) == (bits in coatoms), \
                PointSet(sp, bits).indices()


def test_two_line_classes_of_one_subspace_close_to_the_whole_space_on_h3_9(battery):
    # "at most one line class of a proper subspace S closes with S to the
    # whole space" holds on every subspace of the walkable presets, and
    # fails on H(3, 9): so maximality keeps its closures, one per class
    sp = battery("H3_9")
    S = closure(sp, [0, 1, 8])
    assert S.indices() == (0, 1, 8)
    lbs = line_bits(sp)
    assert oracle_closure(lbs, S.bits) == S.bits
    classes, todo = [], sp.all_bits & ~S.bits
    while todo:
        cls = oracle_line_class(lbs, sp.all_bits, S.bits, (todo & -todo).bit_length() - 1)
        classes.append(cls)
        todo &= ~cls
    whole = [cls for cls in classes if oracle_closure(lbs, S.bits | cls) == sp.all_bits]
    assert len(classes) == 183
    assert [cls.bit_count() for cls in whole] == [48, 48]


@pytest.mark.parametrize("name", ["W3_2", "Q4_2", "Qp3_2", "Qm5_2", "Qp5_2", "Qp3_4"])
def test_maximal_subspaces_with_a_radical_are_point_perps(name, space):
    # a maximal M of rank >= 2 with rank_nd(M) <= 1 has a radical point p,
    # since an empty radical gives rank_nd(M) = rank(M); so M lies in the
    # proper subspace p^perp and equals it.  Every tangent hyperplane of
    # Qp5_2 has rank_nd 2, so both sides are empty there
    sp = space(name)
    found = {S.bits for S in enumerate_subspaces(sp)
             if S.bits != sp.all_bits and rank_of(sp, S) >= 2 and rank_nd(sp, S) <= 1
             and is_maximal_subspace(sp, S)}
    perps = {P.bits for P in (perp(sp, 1 << p) for p in range(len(sp.points)))
             if rank_nd(sp, P) <= 1}
    assert found == perps
    assert bool(found) == (name != "Qp5_2")


def _check_line_classes(sp, line_bits, s_bits, cases):
    """`_line_class` from every point outside S against the oracle's
    search.  Once per class, `cases[k]` counts the members whose oracle
    lines meet S in none (k = 0), some (1) or all (2) of them."""
    N = len(sp.points)
    classes = {}
    for p in range(N):
        if (s_bits >> p) & 1:
            continue
        if p not in classes:
            cls = oracle_line_class(line_bits, sp.all_bits, s_bits, p)
            for f in PointSet(sp, cls):
                classes[f] = cls
                through = [lb for lb in line_bits if (lb >> f) & 1]
                meet = sum(1 for lb in through if lb & s_bits)
                cases[0 if not meet else 2 if meet == len(through) else 1] += 1
        assert polar._line_class(sp, s_bits, p) == classes[p], \
            (PointSet(sp, s_bits).indices(), p)


def _oracle_line_bits(sp, preset_oracle):
    _, lines = preset_oracle(sp.label)
    return [sum(1 << sp.points.index(v) for v in line) for line in lines]


# class members by how many of their lines meet S, summed over every class
# of every subspace: none, some, all
LINE_CLASS_CASES = {"W3_2": (525, 2160, 480), "Q4_2": (525, 2160, 480),
                    "Qp3_2": (63, 144, 108)}


@pytest.mark.parametrize("name", sorted(LINE_CLASS_CASES))
def test_line_class_matches_oracle_on_every_subspace(name, space, preset_oracle):
    # the counts show that each branch of the walk is taken
    sp = space(name)
    line_bits = _oracle_line_bits(sp, preset_oracle)
    cases = [0, 0, 0]
    for bits in oracle_subspaces(sp.form):
        _check_line_classes(sp, line_bits, bits, cases)
    assert tuple(cases) == LINE_CLASS_CASES[name]


# over random E for every (S, p): the class misses E, or meets it and is
# returned whole, or meets it and the walk stops short
LINE_CLASS_AVOID_OUTCOMES = {"W3_2": (6043, 2923, 6859), "Q4_2": (6149, 2897, 6779),
                             "Qp3_2": (766, 363, 446)}


@pytest.mark.parametrize("name", sorted(LINE_CLASS_AVOID_OUTCOMES))
def test_line_class_stops_at_the_first_batch_that_meets_avoid(name, space, preset_oracle):
    # with points to avoid, as the lattice walk calls it: the whole class
    # when it misses them, else a part of it that holds p and meets them
    sp = space(name)
    N = len(sp.points)
    line_bits = _oracle_line_bits(sp, preset_oracle)
    rng = random.Random(43)
    outcomes = [0, 0, 0]
    for S in oracle_subspaces(sp.form):
        for p in range(N):
            if (S >> p) & 1:
                continue
            want = oracle_line_class(line_bits, sp.all_bits, S, p)
            rest = [x for x in range(N) if not ((S | 1 << p) >> x) & 1]
            for _ in range(5):
                E = sum(1 << x for x in rng.sample(rest, rng.randint(0, len(rest))))
                got = polar._line_class(sp, S, p, E)
                if want & E:
                    assert (got >> p) & 1 and got & E and not got & ~want, \
                        (PointSet(sp, S).indices(), p, E)
                    outcomes[1 + (got != want)] += 1
                else:
                    assert got == want, (PointSet(sp, S).indices(), p, E)
                    outcomes[0] += 1
    assert tuple(outcomes) == LINE_CLASS_AVOID_OUTCOMES[name]


@pytest.mark.parametrize("name", ["Q6_2", "W5_2"])
def test_line_class_of_a_hyperplane_takes_every_line(name, space, preset_oracle):
    # every line through a point outside a hyperplane meets it, so every
    # outside point reaches its perp in one AND
    sp = space(name)
    line_bits = _oracle_line_bits(sp, preset_oracle)
    for H in universal_embedding(sp).duals.zero:
        assert is_hyperplane(sp, H)
        cases = [0, 0, 0]
        _check_line_classes(sp, line_bits, H, cases)
        assert cases[0] == cases[1] == 0 and cases[2] == len(sp.points) - H.bit_count()
        for f in range(len(sp.points)):
            if not (H >> f) & 1:
                assert (sp.adj[f] & H).bit_count() == len(sp.lines_at[f])


# ---------------------------------------------------------------------------
# exhaustive enumeration
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["W3_2", "Q4_2", "Qp3_2", "Qp3_3"])
def test_enumerate_subspaces_is_the_brute_force_list(name, space, fresh_space):
    sp = fresh_space(name) if name == "Qp3_3" else space(name)
    subs = enumerate_subspaces(sp)
    assert [S.bits for S in subs] == oracle_subspaces(sp.form)
    assert all(isinstance(S, PointSet) and S.space is sp and S.is_subspace for S in subs)


# sha256 of the comma-joined ascending bit lists, each pinned from a walk
# that an earlier lattice algorithm ran: the reference for the spaces too
# large for `oracle_subspaces`
PINNED_LATTICE_DIGESTS = {
    "Qp3_4": "2b7c9a0c221855f0",
    "Qm5_2": "61b023c72308c913",
    "Qp5_2": "25003e6d2d98e327",
    "Sp4_3": "c86e2f58fd1667a4",
    "Q4_3": "321001d26b641731",
}


@pytest.mark.parametrize("name,count", [("Qp3_4", 1582), ("Qm5_2", 3668), ("Qp5_2", 2636),
                                        ("Sp4_3", 40536), ("Q4_3", 45972)])
def test_enumerate_subspaces_beyond_brute_force(name, count, space):
    # 25 to 40 points: too many subsets to scan, so check the list's shape
    # and pin it
    sp = space(name)
    subs = [S.bits for S in enumerate_subspaces(sp)]
    assert len(subs) == count
    assert all(a < b for a, b in zip(subs, subs[1:]))
    assert all(is_subspace(sp, bits) for bits in subs)
    text = ",".join(map(str, subs))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == PINNED_LATTICE_DIGESTS[name]
    members = set(subs)
    N = len(sp.points)
    rng = random.Random(41)
    for _ in range(50):
        S = closure(sp, rng.sample(range(N), rng.randint(0, 2 * sp.n + 2)))
        assert S.bits in members


@pytest.mark.parametrize("name,count", [("W3_2", 278), ("Q4_2", 278), ("Qp3_2", 50),
                                        ("Qp3_4", 1582), ("Qm5_2", 3668), ("Qp5_2", 2636)])
def test_enumerate_subspaces_runs_one_closure_per_subspace(name, count, fresh_space,
                                                          monkeypatch):
    # a closure that returns a subspace T starts the pair (T, E), which
    # lists T; so the walk runs one closure per subspace plus one per
    # closure that meets E.  The class of the branch point lies in
    # closure(S u p) and is tested against E first, and on these spaces
    # that leaves no closure to meet E.  The space is built afresh
    sp = fresh_space(name)
    real, calls = polar.closure, []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(polar, "closure", counted)
    first = [S.bits for S in enumerate_subspaces(sp)]
    assert len(first) == count
    assert len(calls) == count
    calls.clear()
    again = enumerate_subspaces(sp)
    assert [S.bits for S in again] == first
    # each walk runs its own closures, and its sets come marked as
    # subspaces, so testing them runs none
    assert len(calls) == count
    assert all(S.is_subspace for S in again) and len(calls) == count


def test_each_walk_returns_new_point_sets_of_its_own_space(fresh_space):
    # nothing a caller does to one walk's list or sets reaches the next
    sp = fresh_space("W3_2")
    first, second = enumerate_subspaces(sp), enumerate_subspaces(sp)
    assert first is not second
    assert all(a is not b for a, b in zip(first, second))
    assert all(S.space is sp and S.is_subspace for S in first + second)
    want = oracle_subspaces(sp.form)
    assert [S.bits for S in second] == want
    first.clear()
    second[0].bits = sp.all_bits
    assert [S.bits for S in enumerate_subspaces(sp)] == want
    # another form under the same label walks its own lattice, which
    # differs from W3_2's as bit lists
    other = fresh_space("Q4_2", label="W3_2")
    assert [S.bits for S in enumerate_subspaces(other)] == oracle_subspaces(other.form) != want


def test_a_walk_leaves_no_reference_to_the_space(fresh_space):
    # once its list is dropped, a walk leaves nothing that holds the space
    sp = fresh_space("Q4_2")
    before = sys.getrefcount(sp)
    for _ in range(2):
        subs = enumerate_subspaces(sp)
        assert len(subs) == 278
        del subs
        assert sys.getrefcount(sp) == before


@pytest.mark.parametrize("name", sorted(EXPECTED_COUNTS))
def test_lines_at_holds_each_line_through_a_point_less_the_point(name, space):
    # closure snapshots p^perp outside the set once per popped point p and
    # reads each line through p from this row, so the rows must split
    # p^perp less p into the lines through p
    sp = space(name)
    lines = set(line_bits(sp))
    for p, rows in enumerate(sp.lines_at):
        union = 0
        for rest in rows:
            assert not (rest >> p) & 1
            assert not rest & union
            assert rest | 1 << p in lines
            union |= rest
        assert union == sp.adj[p] & ~(1 << p)


# (subspace, outside point) pairs of each space
WARM_CLOSURE_CALLS = {"W3_2": 3165, "Q4_2": 3165, "Qp3_2": 315}


@pytest.mark.parametrize("name", sorted(WARM_CLOSURE_CALLS))
def test_warm_closure_matches_oracle_on_every_subspace(name, space, preset_oracle):
    # closure of one point over a closed set, as the lattice walk and the
    # maximality test call it, against saturating the oracle's lines
    sp = space(name)
    line_bits = _oracle_line_bits(sp, preset_oracle)
    calls = 0
    for S in oracle_subspaces(sp.form):
        for p in range(len(sp.points)):
            if not (S >> p) & 1:
                got = closure(sp, 1 << p, S)
                assert got.bits == oracle_closure(line_bits, S | 1 << p), \
                    (PointSet(sp, S).indices(), p)
                calls += 1
    assert calls == WARM_CLOSURE_CALLS[name]


# closures that meet E and closures that miss it, over every (S, p, E)
AVOID_OUTCOMES = {"W3_2": (39060, 24240), "Q4_2": (38990, 24310), "Qp3_2": (3226, 3074)}


@pytest.mark.parametrize("name", sorted(AVOID_OUTCOMES))
def test_closure_avoid_matches_oracle_on_every_subspace(name, space, preset_oracle):
    # closure(S u p) with points to avoid, as the include branch of the
    # lattice walk calls it: None exactly when the oracle's closure meets
    # E, the closure itself otherwise; E = 0 is the plain closure, and a
    # start that meets E is refused before any line is walked
    sp = space(name)
    N = len(sp.points)
    line_bits = _oracle_line_bits(sp, preset_oracle)
    rng = random.Random(31)
    outcomes = [0, 0]
    for S in oracle_subspaces(sp.form):
        for p in range(N):
            if (S >> p) & 1:
                continue
            want = oracle_closure(line_bits, S | 1 << p)
            assert closure(sp, 1 << p, S, 0).bits == closure(sp, 1 << p, S).bits == want
            assert closure(sp, 1 << p, S, 1 << p) is None
            rest = [x for x in range(N) if not ((S | 1 << p) >> x) & 1]
            for _ in range(20):
                E = sum(1 << x for x in rng.sample(rest, rng.randint(0, len(rest))))
                got = closure(sp, 1 << p, S, E)
                if want & E:
                    assert got is None, (PointSet(sp, S).indices(), p, E)
                else:
                    assert got.bits == want and got.is_subspace
                outcomes[got is not None] += 1
    assert tuple(outcomes) == AVOID_OUTCOMES[name]


@pytest.mark.parametrize("name", ["Q6_2", "W5_2"])
def test_hyperplanes_are_maximal_without_a_closure(name, space, monkeypatch):
    # outside a hyperplane every line meets it, so the class of the lowest
    # outside point reaches every outside point and the class walk alone
    # decides; the coatom oracle test above checks the closure path
    sp = space(name)
    hyperplanes = [PointSet(sp, H) for H in universal_embedding(sp).duals.zero]
    assert len(hyperplanes) == 127
    assert all(H.is_subspace and is_hyperplane(sp, H) for H in hyperplanes)
    calls = []
    original = polar.closure
    monkeypatch.setattr(polar, "closure",
                        lambda *args: calls.append(1) or original(*args))
    assert all(is_maximal_subspace(sp, H) for H in hyperplanes)
    assert not calls


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(name=st.sampled_from(["W3_2", "Q4_2", "H3_4", "Q6_2"]), data=st.data())
def test_closure_is_a_closure_operator(name, data):
    sp = build_preset(name)
    points = st.sets(st.integers(0, len(sp.points) - 1), max_size=2 * sp.n + 2)
    X = PointSet.of(sp, data.draw(points))
    Y = PointSet(sp, X.bits | PointSet.of(sp, data.draw(points)).bits)
    cX = closure(sp, X)
    assert X.bits & ~cX.bits == 0                         # extensive
    assert cX.bits & ~closure(sp, Y).bits == 0            # monotone
    assert closure(sp, cX).bits == cX.bits                # idempotent
    if len(sp.points) == 15:
        assert cX in enumerate_subspaces(sp)


def test_hyperplane_rejects_improper(space):
    W = space("W3_2")
    with pytest.raises(GeometryError):
        is_hyperplane(W, W.all_bits)

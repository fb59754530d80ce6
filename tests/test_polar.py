import random
from itertools import combinations, product

import pytest

from polaris import linalg, polar
from polaris.catalog import build_preset, preset_text
from polaris.errors import GeometryError
from polaris.field import field_make
from polaris.forms import (
    alternating_form,
    eval_form,
    eval_quadratic,
    isotropic_vector_test,
    polarize,
    quadratic_form,
    standard_alternating_gram,
    symmetric_form,
)
from polaris.polar import (
    PointSet,
    build_polar_space,
    check_one_or_all,
    closure,
    enumerate_subspaces,
    is_hyperplane,
    is_maximal_subspace,
    is_singular,
    is_subspace,
    perp,
    radical_of_subspace,
    rank_nd,
    rank_of,
    singular_hyperplane,
    span_dim,
    star_space,
)
from polaris.specfile import build_space_from_spec, parse_spec

F2 = field_make(2, 1)


# ---------------------------------------------------------------------------
# independent brute-force oracle for points and lines
# ---------------------------------------------------------------------------

from oracles import oracle_points_and_lines  # noqa: E402


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
def test_preset_counts_match_brute_force(name, space):
    sp = space(name)
    npts, nlines = EXPECTED_COUNTS[name]
    assert len(sp.points) == npts
    assert len(sp.lines) == nlines
    pts, lines = oracle_points_and_lines(sp.form)
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
    assert check_one_or_all(sp) is None
    assert sp.points == tuple(sorted(sp.points))
    assert sp.lines == tuple(sorted(sp.lines))


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
        build_polar_space(symmetric_form(F2, [[1 if i == j else 0 for j in range(4)]
                                              for i in range(4)]))


def test_point_cap_enforced():
    W = parse_spec(preset_text("W3_2"))
    with pytest.raises(GeometryError):
        build_space_from_spec(W, cap=10)


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
    from polaris.polar import find_partial_frame
    W = space("W3_2")
    fr = find_partial_frame(W, W.universe(), 2)
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
    assert any(c.bits == lb for lb in W.line_bits)
    # two non-collinear points are already closed
    k = next(iter(PointSet(W, W.all_bits & ~W.adj[0])))
    assert closure(W, [0, k]).bits == (1 | (1 << k))


def test_closure_of_complete_frame_is_grid(space):
    from polaris.polar import find_partial_frame
    Q = space("Q4_2")
    fr = find_partial_frame(Q, Q.universe(), 2)
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
    subs = enumerate_subspaces(G)
    for bits in range(1 << 9):
        inter = G.all_bits
        for s in subs:
            if s & bits == bits:
                inter &= s
        assert closure(G, bits).bits == inter


def _oracle_closure(line_bits, bits):
    """Saturate the given lines until nothing changes."""
    changed = True
    while changed:
        changed = False
        for lb in line_bits:
            inter = lb & bits
            if inter != lb and inter & (inter - 1):
                bits |= lb
                changed = True
    return bits


@pytest.mark.parametrize("name", ["Q6_2", "Sp4_3", "H3_4"])
def test_closure_from_closed_base_matches_oracle(name, space):
    # lines of 3, 4 and 5 points; the line set comes from the oracle
    sp = space(name)
    _, lines = oracle_points_and_lines(sp.form)
    oracle_lines = [sum(1 << sp.index[v] for v in line) for line in lines]
    N = len(sp.points)
    rng = random.Random(11)
    for _ in range(60):
        seeds = PointSet.of(sp, rng.sample(range(N), rng.randint(0, 3)))
        S = _oracle_closure(oracle_lines, seeds.bits)
        X = PointSet.of(sp, rng.sample(range(N), rng.randint(0, 3))).bits
        want = _oracle_closure(oracle_lines, X | S)
        from_base = closure(sp, X, S)
        cold = closure(sp, X | S)
        assert from_base.bits == cold.bits == want
        assert from_base.is_subspace == is_subspace(sp, from_base.bits) is True
        assert cold.is_subspace == is_subspace(sp, cold.bits) is True


# ---------------------------------------------------------------------------
# subspace, singularity, ranks
# ---------------------------------------------------------------------------

def test_is_subspace_examples(space):
    W = space("W3_2")
    line = list(W.lines[0])
    assert is_subspace(W, line) and is_singular(W, line)
    assert not is_subspace(W, line[:-1])
    Q = space("Q4_2")
    from polaris.polar import find_partial_frame
    grid = closure(Q, find_partial_frame(Q, Q.universe(), 2).point_set())
    assert is_subspace(Q, grid) and not is_singular(Q, grid)


def test_rank_examples(space):
    W = space("W3_2")
    line = PointSet.of(W, W.lines[0])
    assert radical_of_subspace(W, line).bits == line.bits
    assert rank_of(W, line) == 2
    assert rank_nd(W, line) == 0
    assert is_singular(W, line)

    H = singular_hyperplane(W, 0)
    assert radical_of_subspace(W, H).indices() == (0,)
    assert rank_of(W, H) == 2
    assert rank_nd(W, H) == 1

    Q = space("Q4_2")
    from polaris.polar import find_partial_frame
    grid = closure(Q, find_partial_frame(Q, Q.universe(), 2).point_set())
    assert radical_of_subspace(Q, grid).bits == 0
    assert rank_of(Q, grid) == 2 and rank_nd(Q, grid) == 2


def test_rank_cross_checked_exhaustively(space):
    # on a 15-point space, compare greedy rank with the largest singular
    # subspace found by scanning every subset
    W = space("W3_2")
    subs = enumerate_subspaces(W)
    singular_dims = {}
    for bits in subs:
        if bits and is_singular(W, bits):
            singular_dims[bits] = span_dim(W, bits)
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


def test_rank_requires_subspace(space):
    W = space("W3_2")
    bad = list(W.lines[0])[:-1]
    with pytest.raises(GeometryError):
        rank_of(W, bad)
    with pytest.raises(GeometryError):
        radical_of_subspace(W, bad)


def test_pointset_caches_agree_with_recomputation(space):
    W = space("Q4_2")
    S = closure(W, [0, 1, 2])
    _ = S.is_subspace, S.is_singular, S.rank, S.rank_nd, S.radical
    fresh = PointSet(W, S.bits)
    assert S.is_subspace == is_subspace(W, fresh)
    assert S.is_singular == is_singular(W, fresh)
    assert S.rank == rank_of(W, fresh)
    assert S.rank_nd == rank_nd(W, fresh)
    assert S.radical.bits == radical_of_subspace(W, fresh).bits


# ---------------------------------------------------------------------------
# hyperplanes and maximality
# ---------------------------------------------------------------------------

def test_hyperplane_examples(space):
    W = space("W3_2")
    H = singular_hyperplane(W, 0)
    assert is_hyperplane(W, H)
    assert rank_of(W, H) == 2 and rank_nd(W, H) == 1

    Q = space("Q4_2")
    from polaris.polar import find_partial_frame
    grid = closure(Q, find_partial_frame(Q, Q.universe(), 2).point_set())
    assert is_hyperplane(Q, grid)
    line = PointSet.of(Q, Q.lines[0])
    assert not is_hyperplane(Q, line)


def test_maximality_examples(space):
    W = space("W3_2")
    assert is_maximal_subspace(W, singular_hyperplane(W, 0))
    assert not is_maximal_subspace(W, PointSet.of(W, W.lines[0]))
    Q = space("Q4_2")
    from polaris.polar import find_partial_frame
    grid = closure(Q, find_partial_frame(Q, Q.universe(), 2).point_set())
    assert is_maximal_subspace(Q, grid)


def test_every_singular_hyperplane_is_maximal(space):
    for name in ("W3_2", "Q4_2", "Qm5_2"):
        sp = space(name)
        for p in range(0, len(sp.points), 5):
            H = singular_hyperplane(sp, p)
            assert is_hyperplane(sp, H) and is_maximal_subspace(sp, H)


def test_hyperplane_rejects_improper(space):
    W = space("W3_2")
    with pytest.raises(GeometryError):
        is_hyperplane(W, W.universe())


# ---------------------------------------------------------------------------
# stars
# ---------------------------------------------------------------------------

def test_star_of_point_in_q62(space):
    Q = space("Q6_2")
    st = star_space(Q, [0])
    assert st.residue.n == 2
    assert len(st.residue.points) == 15  # the lines through the point
    assert len(st.residue.lines) == 15   # a quadrangle of order (2,2)
    assert len(st.residue.points) == len(Q.lines_at[0])
    assert check_one_or_all(st.residue) is None
    # members are the rank-2 singular subspaces through the base point
    for mem in st.members:
        assert 0 in mem
        assert is_singular(Q, mem) and is_subspace(Q, mem)
        assert span_dim(Q, mem) == 2
    # residue collinearity matches containment in a common rank-3 singular
    line_sets = {mem.bits for mem in st.line_members}
    for lm in st.line_members:
        assert is_singular(Q, lm) and span_dim(Q, lm) == 3


def test_star_of_empty_set_is_the_space(space):
    W = space("W3_2")
    st = star_space(W, [])
    assert st.residue is W
    assert len(st.members) == 15


def test_star_residue_takes_the_cap_of_its_space(monkeypatch):
    monkeypatch.setattr(polar, "DEFAULT_POINT_CAP", 10)
    st = star_space(build_preset("Q6_2", cap=63), [0])
    assert len(st.residue.points) == 15


def test_star_residual_rank_too_small(space):
    W = space("W3_2")
    with pytest.raises(GeometryError):
        star_space(W, [0])


def test_star_rejects_non_singular(space):
    Q = space("Q6_2")
    noncol = next(iter(PointSet(Q, Q.all_bits & ~Q.adj[0])))
    with pytest.raises(GeometryError):
        star_space(Q, [0, noncol])

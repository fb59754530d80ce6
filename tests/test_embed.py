import random

import pytest

from polaris import linalg, polar
from polaris.catalog import build_preset
from polaris.embed import (
    arises_from,
    hull_of_symplectic_char2,
    minimal_generating_subset,
    natural_embedding,
    preimage,
    projective_span,
    quotient_embedding,
    universal_embedding,
    validate_embedding,
)
from polaris.errors import EmbeddingError, GeometryError
from polaris.forms import polarize, radical_of_form
from polaris.polar import (
    PointSet,
    closure,
    enumerate_subspaces,
    find_partial_frame,
    frame_span,
    is_singular,
    is_subspace,
    rank_nd,
)


def grid_of(space, name="Q4_2"):
    Q = space(name)
    return Q, closure(Q, find_partial_frame(Q, Q.universe(), 2).point_set())


# ---------------------------------------------------------------------------
# natural embeddings and their tags
# ---------------------------------------------------------------------------

def test_natural_embedding_tags(space):
    assert natural_embedding(space("Q4_2")).tag == "universal"
    assert natural_embedding(space("Q4_2")).dim == 5
    assert natural_embedding(space("W3_2")).tag == "quotient"
    assert natural_embedding(space("Sp4_3")).tag == "universal"
    assert natural_embedding(space("H3_4")).tag == "universal"
    assert natural_embedding(space("Qp3_2")).tag == "unknown"
    assert natural_embedding(space("Qp3_4")).tag == "unknown"


@pytest.mark.parametrize("name", ["W3_2", "Sp4_3", "Q4_2", "Qm5_2", "Qp5_2",
                                  "H3_4", "H4_4", "Q6_2", "W5_2", "Qp3_2"])
def test_natural_embeddings_are_embeddings(name, space):
    validate_embedding(natural_embedding(space(name)))


# ---------------------------------------------------------------------------
# spans and preimages
# ---------------------------------------------------------------------------

def test_projective_span_examples(space):
    W = space("W3_2")
    emb = natural_embedding(W)
    line = PointSet.of(W, W.lines[0])
    assert len(projective_span(emb, line)) == 2
    fr = find_partial_frame(W, W.universe(), 2)
    assert len(projective_span(emb, fr.point_set())) == 4  # 2n


def test_preimage_examples(space):
    Q = space("Q4_2")
    emb = natural_embedding(Q)
    assert preimage(emb, [Q.points[3]]).indices() == (3,)
    hyper = [(0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 0, 1)]
    section = preimage(emb, hyper)
    assert len(section) == 9
    assert is_subspace(Q, section) and rank_nd(Q, section) == 2
    assert preimage(emb, list(Q.points[:7])).bits == Q.all_bits or \
        len(projective_span(emb, Q.universe())) == 5
    assert preimage(emb, projective_span(emb, Q.universe())).bits == Q.all_bits


def test_preimage_is_always_a_subspace(space):
    Q = space("Qm5_2")
    emb = natural_embedding(Q)
    rng = random.Random(2)
    for _ in range(40):
        rows = [tuple(rng.randrange(2) for _ in range(6)) for _ in range(rng.randint(1, 5))]
        assert is_subspace(Q, preimage(emb, rows))


def _preimage_by_enumeration(emb, W):
    F = emb.space.field
    span = set(linalg.subspace_points(F, W))
    return {i for i, v in enumerate(emb.vectors)
            if linalg.normalize_point(F, v) in span}


@pytest.mark.parametrize("name", ["Q4_2", "H3_4", "W5_2"])
def test_preimage_matches_span_enumeration(name, space):
    # natural embeddings of Q4_2 and H3_4, the hull embedding of W5_2
    sp = space(name)
    emb = universal_embedding(sp)
    F, d = sp.field, emb.dim
    unit = [tuple(int(i == j) for i in range(d)) for j in range(d)]
    rng = random.Random(4)

    def vec():
        return tuple(rng.randrange(F.q) for _ in range(d))

    u, v = vec(), vec()
    cases = [
        [],                                               # empty
        [u, u, v, linalg.vec_add(F, u, v)],               # duplicate, dependent
        [(0,) * d, v],                                    # zero row
        [unit[-1], unit[0]],                              # not in RREF
        unit[::-1],                                       # spans V
        [emb.vectors[i] for i in sp.lines[0]],            # a line
    ]
    cases += [[vec() for _ in range(rng.randint(1, d))] for _ in range(20)]
    for W in cases:
        got = preimage(emb, W)
        assert set(got.indices()) == _preimage_by_enumeration(emb, W)
    assert preimage(emb, []).bits == 0
    assert preimage(emb, unit).bits == sp.all_bits


# ---------------------------------------------------------------------------
# arises_from
# ---------------------------------------------------------------------------

def test_singular_subspaces_always_arise(space):
    for name in ("W3_2", "Q4_2", "H3_4"):
        sp = space(name)
        emb = natural_embedding(sp)
        for line in sp.lines[:5]:
            S = PointSet.of(sp, line)
            assert is_singular(sp, S)
            assert arises_from(emb, S).arises
        assert arises_from(emb, PointSet.of(sp, [0])).arises
        assert arises_from(emb, sp.empty()).arises


def test_grid_discrimination(space):
    # the 9-point grid arises from the quadric embedding but not from the
    # symplectic quotient embedding, whose span preimage is all 15 points
    Q, gridQ = grid_of(space)
    assert arises_from(natural_embedding(Q), gridQ).arises

    W = space("W3_2")
    hull = hull_of_symplectic_char2(W)
    gridW = PointSet.of(W, [hull.from_quad[i] for i in gridQ])
    assert is_subspace(W, gridW) and rank_nd(W, gridW) == 2
    symp = natural_embedding(W)
    verdict = arises_from(symp, gridW)
    assert not verdict.arises
    assert verdict.preimage.bits == W.all_bits
    assert verdict.witness is not None and verdict.witness not in gridW
    assert verdict.span_dim == 4
    # while the hull-composed universal embedding recovers it
    assert arises_from(hull.universal, gridW).arises


def test_arises_requires_subspace(space):
    W = space("W3_2")
    bad = list(W.lines[0])[:-1]
    with pytest.raises(GeometryError):
        arises_from(natural_embedding(W), bad)
    with pytest.raises(GeometryError):
        arises_from(natural_embedding(W), PointSet.of(W, bad))


def test_arises_invariant_under_rescaling(space):
    from polaris.embed import Embedding
    S3 = space("Sp4_3")
    emb = natural_embedding(S3)
    rng = random.Random(9)
    scaled = tuple(linalg.vec_scale(S3.field, v, rng.choice([1, 2]))
                   for v in emb.vectors)
    emb2 = Embedding(S3, emb.dim, scaled, emb.tag)
    for _ in range(25):
        S = closure(S3, rng.sample(range(40), rng.randint(2, 6)))
        assert arises_from(emb, S).arises == arises_from(emb2, S).arises


# ---------------------------------------------------------------------------
# quotient embeddings
# ---------------------------------------------------------------------------

def test_quotient_q42_to_w32(space):
    Q = space("Q4_2")
    emb = natural_embedding(Q)
    X = radical_of_form(polarize(Q.form))
    res = quotient_embedding(emb, X)
    assert res.embedding.tag == "quotient"
    assert res.embedding.dim == 4
    assert res.quotient_space.kind == "alternating"
    assert len(res.quotient_space.points) == 15
    assert sorted(res.point_map) == list(range(15))


def test_quotient_q62_to_w52(space):
    Q = space("Q6_2")
    res = quotient_embedding(natural_embedding(Q), radical_of_form(polarize(Q.form)))
    assert len(res.quotient_space.points) == 63
    assert res.quotient_space.n == 3


def test_quotient_rejects_zero_kernel(space):
    Q = space("Q4_2")
    with pytest.raises(EmbeddingError):
        quotient_embedding(natural_embedding(Q), [])
    with pytest.raises(EmbeddingError):
        quotient_embedding(natural_embedding(Q), [(0, 1, 0, 0, 0)])


def test_quotient_rejects_non_quadratic(space):
    W = space("W3_2")
    with pytest.raises(EmbeddingError):
        quotient_embedding(natural_embedding(W), [(1, 0, 0, 0)])


def test_quotient_kernel_conditions(space):
    # the kernel meets no image point and no secant line: no point vector
    # reduces to zero modulo the kernel, and distinct points stay distinct
    Q = space("Q4_2")
    res = quotient_embedding(natural_embedding(Q),
                             radical_of_form(polarize(Q.form)))
    X = res.embedding.kernel
    for v in Q.points:
        assert not linalg.in_span(Q.field, X, v)
    assert len(set(res.embedding.vectors)) == len(Q.points)


def test_quotient_transport(space):
    # whatever arises from the quotient embedding arises from the
    # universal one; exhaustive over the subspace lattice of Q(4,2)
    Q = space("Q4_2")
    uni = natural_embedding(Q)
    res = quotient_embedding(uni, radical_of_form(polarize(Q.form)))
    quo = res.embedding
    both = neither = quotient_only = 0
    for bits in enumerate_subspaces(Q):
        S = PointSet(Q, bits)
        a_uni = arises_from(uni, S).arises
        a_quo = arises_from(quo, S).arises
        if a_quo and not a_uni:
            quotient_only += 1
        both += a_quo and a_uni
        neither += not (a_quo or a_uni)
    assert quotient_only == 0
    assert both > 0 and neither > 0


# ---------------------------------------------------------------------------
# hulls
# ---------------------------------------------------------------------------

def test_hull_w32(space):
    W = space("W3_2")
    hull = hull_of_symplectic_char2(W)
    assert len(hull.quad_space.points) == 15
    assert sorted(hull.to_quad) == list(range(15))
    assert hull.universal.tag == "universal" and hull.universal.dim == 5


def test_hull_w52(space):
    W = space("W5_2")
    hull = hull_of_symplectic_char2(W)
    assert len(hull.quad_space.points) == 63
    assert hull.quad_space.n == 3


def test_hull_rejects_odd_characteristic(space):
    with pytest.raises(GeometryError):
        hull_of_symplectic_char2(space("Sp4_3"))


def test_hull_on_nonstandard_gram():
    # pairing (0,2) and (1,3) instead of the block layout: the hyperbolic
    # splitting has to discover the pairs on its own
    from polaris.field import field_make
    from polaris.forms import alternating_form
    from polaris.polar import build_polar_space, find_partial_frame
    F = field_make(2, 1)
    g = [[0] * 4 for _ in range(4)]
    g[0][2] = g[2][0] = 1
    g[1][3] = g[3][1] = 1
    W = build_polar_space(alternating_form(F, g), label="W3_2-perm")
    hull = hull_of_symplectic_char2(W)
    assert sorted(hull.to_quad) == list(range(15))
    emb = hull.universal
    fr = find_partial_frame(W, W.universe(), 2)
    span = frame_span(W, fr)
    assert span == preimage(emb, projective_span(emb, fr.point_set()))


def test_universal_embedding_helper(space):
    assert universal_embedding(space("Q4_2")).tag == "universal"
    u = universal_embedding(space("W3_2"))
    assert u.tag == "universal" and u.dim == 5
    with pytest.raises(EmbeddingError):
        universal_embedding(space("Qp3_2"))


def test_universal_embedding_is_built_once(space):
    for name in ("W3_2", "Q4_2"):
        S = space(name)
        assert universal_embedding(S) is universal_embedding(S)


def test_derived_spaces_take_the_cap_of_their_source(monkeypatch):
    # built under a cap above the default, a space's hull quadric and
    # quotient must not fall back to the default cap
    monkeypatch.setattr(polar, "DEFAULT_POINT_CAP", 10)
    W = build_preset("W3_2", cap=15)
    assert universal_embedding(W).dim == 5
    assert len(hull_of_symplectic_char2(W).quad_space.points) == 15
    Q = build_preset("Q4_2", cap=15)
    res = quotient_embedding(natural_embedding(Q), radical_of_form(Q.bilinear))
    assert len(res.quotient_space.points) == 15


# ---------------------------------------------------------------------------
# frame span equals embedded-span preimage (universal embeddings)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["W3_2", "Sp4_3", "Q4_2", "Qm5_2", "H3_4",
                                  "Q6_2", "W5_2"])
def test_frame_span_equals_preimage(name, space):
    sp = space(name)
    emb = universal_embedding(sp)
    fr = find_partial_frame(sp, sp.universe(), 2)
    span_pts = frame_span(sp, fr)
    wanted = preimage(emb, projective_span(emb, fr.point_set()))
    assert span_pts == wanted


def test_complete_generating_frame_spans_2n(space):
    # when the closure of a complete frame is the whole space, the image
    # spans exactly dimension 2n
    H = space("H3_4")
    emb = natural_embedding(H)
    fr = find_partial_frame(H, H.universe(), 2)
    assert frame_span(H, fr).bits == H.all_bits
    assert len(projective_span(emb, fr.point_set())) == 2 * H.n == emb.dim


# ---------------------------------------------------------------------------
# minimal generating subsets
# ---------------------------------------------------------------------------

def test_mingen_whole_q42(space):
    Q = space("Q4_2")
    emb = natural_embedding(Q)
    Y = minimal_generating_subset(emb, Q.universe())
    assert len(Y) == 5
    assert closure(Q, Y).bits == Q.all_bits
    for i in Y:
        rest = [j for j in Y.indices() if j != i]
        assert closure(Q, rest).bits != Q.all_bits


def test_mingen_rejects_thin_closure(space):
    Q = space("Q4_2")
    emb = natural_embedding(Q)
    with pytest.raises(GeometryError):
        minimal_generating_subset(emb, PointSet.of(Q, Q.lines[0]))


def test_mingen_on_frame_returns_frame(space):
    Q = space("Q4_2")
    emb = natural_embedding(Q)
    fr = find_partial_frame(Q, Q.universe(), 2)
    Y = minimal_generating_subset(emb, fr.point_set())
    assert Y == fr.point_set()


def test_mingen_requires_universal(space):
    W = space("W3_2")
    with pytest.raises(EmbeddingError):
        minimal_generating_subset(natural_embedding(W), W.universe())

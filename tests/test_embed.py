import random

import pytest

from polaris import linalg, polar, verify
from polaris.catalog import PRESETS, build_preset, preset_text
from polaris.embed import (
    Embedding,
    arises_from,
    hull_of_symplectic_char2,
    line_meetings,
    minimal_generating_subset,
    natural_embedding,
    preimage,
    projective_span,
    quotient_embedding,
    universal_embedding,
    validate_embedding,
)
from polaris.errors import EmbeddingError, GeometryError
from polaris.field import field_make
from polaris.forms import eval_quadratic, radical_of_form, sesquilinear_form
from polaris.polar import (
    PointSet,
    closure,
    enumerate_subspaces,
    find_partial_frame,
    is_subspace,
    rank_nd,
)
from polaris.specfile import build_space_from_spec, parse_spec

from oracles import (
    oracle_line_meetings,
    oracle_points_and_lines,
    oracle_span_points,
    oracle_subspaces,
    span_vectors,
    vec_add,
    vec_scale,
)


# W(3,2) pairing (0,2) and (1,3) instead of the presets' block layout
PERM_GRAM = ((0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0))

# Q(4,4): the parabolic quadric x0^2 + x1 x2 + x3 x4 over GF(4), 85 points
Q4_4_SPEC = """\
field p=2 k=2
form kind=quadratic dim=5
row 1 0 0 0 0
row 0 0 1 0 0
row 0 0 0 0 0
row 0 0 0 0 1
row 0 0 0 0 0
"""


def fresh_preset(name):
    # a space of its own, with no embedding cached on it
    return build_space_from_spec(parse_spec(preset_text(name)), label=name)


def w32_perm():
    form = sesquilinear_form(field_make(2, 1), PERM_GRAM, "alternating")
    return polar.build_polar_space(form, label="W3_2-perm")


def w34_twisted():
    # W(3,4) with gram entries w, w^2 and 1; over GF(2) the hull's square
    # root is the identity, over GF(4) it is not
    F = field_make(2, 2)
    w = 2
    g = [[0] * 4 for _ in range(4)]
    g[0][2] = g[2][0] = w
    g[1][3] = g[3][1] = F.mul(w, w)
    g[0][3] = g[3][0] = 1
    return polar.build_polar_space(sesquilinear_form(F, g, "alternating"), label="W3_4-twisted")


BUILT = {"W3_2-perm": w32_perm, "W3_4-twisted": w34_twisted,
         "Q4_4": lambda: build_space_from_spec(parse_spec(Q4_4_SPEC), label="Q4_4")}


UNIVERSAL_PRESETS = [name for name in sorted(PRESETS) if not build_preset(name).is_grid]


def grid_of(space, name="Q4_2"):
    Q = space(name)
    return Q, closure(Q, find_partial_frame(Q, Q.all_bits, 2).point_set())


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


@pytest.mark.parametrize("name", UNIVERSAL_PRESETS)
def test_natural_tags_match_a_greedy_generating_set(name, space):
    # a rank-n frame, then the lowest point outside the running closure
    # until the closure is the whole space: on every non-grid preset this
    # generating set has as many points as the universal embedding has
    # coordinates, so the inclusion is a proper quotient exactly when the
    # space's own dimension is smaller
    sp = space(name)
    fr = find_partial_frame(sp, sp.all_bits, sp.n)
    size, span = 2 * sp.n, closure(sp, fr.point_set()).bits
    while span != sp.all_bits:
        outside = sp.all_bits & ~span
        span = closure(sp, outside & -outside, span).bits
        size += 1
    assert size == universal_embedding(sp).dim
    assert (natural_embedding(sp).tag == "quotient") == (sp.dim < size)


@pytest.mark.parametrize("name", ["W3_2", "Sp4_3", "Q4_2", "Qm5_2", "Qp5_2",
                                  "H3_4", "H4_4", "Q6_2", "W5_2", "Qp3_2"])
def test_natural_embeddings_are_embeddings(name, space):
    validate_embedding(natural_embedding(space(name)))


@pytest.mark.parametrize("name", UNIVERSAL_PRESETS)
def test_universal_embeddings_validate(name, space):
    emb = universal_embedding(space(name))
    validate_embedding(emb)
    # the image spans, so no zero set of the dual table is the whole
    # point set, and corollary3 never meets the whole space
    assert emb.space.all_bits not in emb.duals.zero


@pytest.mark.parametrize("name", ["Q4_2", "Q6_2"])
def test_quotient_embeddings_validate(name, space):
    validate_embedding(quotient_embedding(space(name)).embedding)


def swap_far_pair(emb):
    """emb with the vectors of point 0 and the lowest point not collinear
    with it swapped: still injective and spanning, but each line through
    either point leaves its projective line, since the universal
    embedding maps no other point onto that line."""
    sp = emb.space
    far = sp.all_bits & ~sp.adj[0]
    b = (far & -far).bit_length() - 1
    vecs = list(emb.vectors)
    vecs[0], vecs[b] = vecs[b], vecs[0]
    return Embedding(sp, emb.dim, tuple(vecs), emb.tag)


@pytest.mark.parametrize("broken,message", [
    (lambda vecs: [(0,) * len(vecs[0])] + vecs[1:], "a point maps to the zero vector"),
    (lambda vecs: vecs[:1] * 2 + vecs[2:], "embedding is not injective on points"),
    (lambda vecs: [v + (0,) for v in vecs], "image does not span the ambient space"),
], ids=["zero-vector", "repeated-vector", "extra-zero-coordinate"])
def test_validate_embedding_refuses_a_broken_map(broken, message, space):
    emb = universal_embedding(space("W5_2"))
    vecs = broken(list(emb.vectors))
    with pytest.raises(EmbeddingError, match=f"^{message}$"):
        validate_embedding(Embedding(emb.space, len(vecs[0]), tuple(vecs), emb.tag))


def test_validate_embedding_refuses_a_line_off_its_projective_line(space):
    emb = universal_embedding(space("W5_2"))
    with pytest.raises(EmbeddingError, match="^a line does not map onto a projective line$"):
        validate_embedding(swap_far_pair(emb))


# ---------------------------------------------------------------------------
# spans and preimages
# ---------------------------------------------------------------------------

def test_projective_span_examples(space):
    W = space("W3_2")
    emb = natural_embedding(W)
    line = PointSet.of(W, W.lines[0])
    assert len(projective_span(emb, line)) == 2
    fr = find_partial_frame(W, W.all_bits, 2)
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
        len(projective_span(emb, Q.all_bits)) == 5
    assert preimage(emb, projective_span(emb, Q.all_bits)).bits == Q.all_bits


def test_preimage_is_always_a_subspace(space):
    Q = space("Qm5_2")
    emb = natural_embedding(Q)
    rng = random.Random(2)
    for _ in range(40):
        rows = [tuple(rng.randrange(2) for _ in range(6)) for _ in range(rng.randint(1, 5))]
        assert is_subspace(Q, preimage(emb, rows))


def _preimage_by_enumeration(emb, W):
    F = emb.space.field
    span = set(oracle_span_points(F, W))
    return {i for i, v in enumerate(emb.vectors)
            if linalg.normalize_point(F, v) in span}


def rescaled(emb, rng):
    """The same embedding with each vector scaled by a unit of GF(3)."""
    F = emb.space.field
    vectors = tuple(vec_scale(F, v, rng.choice([1, 2])) for v in emb.vectors)
    return Embedding(emb.space, emb.dim, vectors, emb.tag)


@pytest.mark.parametrize("name", ["Q4_2", "H3_4", "W5_2", "Sp4_3", "Q4_3", "H4_4",
                                  "Sp4_3-rescaled"])
def test_preimage_matches_span_enumeration(name, space):
    # natural embeddings of Q4_2, H3_4, H4_4 and the GF(3) spaces Sp4_3 and
    # Q4_3 (where sub differs from add), the hull embedding of W5_2, and
    # Sp4_3 with representative vectors that are not normalized
    sp = space(name.removesuffix("-rescaled"))
    emb = universal_embedding(sp)
    if name.endswith("-rescaled"):
        emb = rescaled(emb, random.Random(9))
    F, d = sp.field, emb.dim
    unit = [tuple(int(i == j) for i in range(d)) for j in range(d)]
    rng = random.Random(4)

    def vec():
        return tuple(rng.randrange(F.q) for _ in range(d))

    u, v = vec(), vec()
    cases = [
        [],                                               # empty
        [u, u, v, vec_add(F, u, v)],                      # duplicate, dependent
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


@pytest.mark.parametrize("name", ["W3_2", "Q4_2", "H3_4", "Q6_2", "W5_2"])
def test_projective_span_equals_rref_of_every_vector(name, space):
    # natural embeddings, and the hull embeddings of W3_2 and W5_2; every
    # subspace of the 15-point spaces, else sampled closures, plus random
    # point sets that are not subspaces
    sp = space(name)
    rng = random.Random(8)
    N = len(sp.points)
    if N <= 15:
        sets = [S.bits for S in enumerate_subspaces(sp)]
    else:
        sets = [sp.all_bits]
        sets += [closure(sp, rng.sample(range(N), rng.randint(1, 2 * sp.n + 1))).bits
                 for _ in range(40)]
    sets += [PointSet.of(sp, rng.sample(range(N), rng.randint(1, 8))).bits for _ in range(60)]
    assert any(not is_subspace(sp, bits) for bits in sets)
    for emb in {natural_embedding(sp), universal_embedding(sp)}:
        for bits in sets:
            every = [emb.vectors[i] for i in PointSet(sp, bits)]
            assert projective_span(emb, bits) == linalg.rref(sp.field, every)


def test_projective_span_reduces_a_generating_subset(space, monkeypatch):
    # the rows handed to rref are points of X, each outside the closure of
    # those before it, and together they generate the closure of X
    sp = space("Q6_2")
    emb = natural_embedding(sp)
    reduced = []
    real_rref = linalg.rref

    def rref(F, rows):
        reduced.append(list(rows))
        return real_rref(F, rows)

    rng = random.Random(9)
    N = len(sp.points)
    Xs = [sp.all_bits, closure(sp, rng.sample(range(N), 4)).bits,
          PointSet.of(sp, rng.sample(range(N), 7)).bits]
    monkeypatch.setattr(linalg, "rref", rref)
    for X in Xs:
        reduced.clear()
        projective_span(emb, X)
        gens = [sp.points.index(v) for v in reduced[0]]
        assert len(reduced) == 1 and all((X >> g) & 1 for g in gens)
        for k, g in enumerate(gens):
            assert g not in closure(sp, gens[:k])
        assert closure(sp, gens).bits == closure(sp, X).bits
        if X == sp.all_bits:
            assert len(gens) < N


# ---------------------------------------------------------------------------
# arises_from
# ---------------------------------------------------------------------------

def test_singular_subspaces_always_arise(space):
    for name in ("W3_2", "Q4_2", "H3_4"):
        sp = space(name)
        emb = natural_embedding(sp)
        for line in sp.lines[:5]:
            S = PointSet.of(sp, line)
            assert rank_nd(sp, S) == 0
            assert arises_from(emb, S).arises
        assert arises_from(emb, PointSet.of(sp, [0])).arises
        assert arises_from(emb, PointSet(sp, 0)).arises


def test_grid_discrimination(space):
    # the 9-point grid arises from the quadric embedding but not from the
    # symplectic quotient embedding, whose span preimage is all 15 points
    Q, gridQ = grid_of(space)
    assert arises_from(natural_embedding(Q), gridQ).arises

    W = space("W3_2")
    to_quad = hull_of_symplectic_char2(W).to_quad
    gridW = PointSet.of(W, [i for i, j in enumerate(to_quad) if j in gridQ])
    assert is_subspace(W, gridW) and rank_nd(W, gridW) == 2
    symp = natural_embedding(W)
    verdict = arises_from(symp, gridW)
    assert not verdict.arises
    assert verdict.preimage.bits == W.all_bits
    assert verdict.witness is not None and verdict.witness not in gridW
    rows = projective_span(symp, gridW)
    assert verdict.preimage == preimage(symp, rows) and len(rows) == 4
    # while the hull-composed universal embedding recovers it
    assert arises_from(universal_embedding(W), gridW).arises


def test_arises_requires_subspace(space):
    W = space("W3_2")
    bad = list(W.lines[0])[:-1]
    with pytest.raises(GeometryError):
        arises_from(natural_embedding(W), bad)
    with pytest.raises(GeometryError):
        arises_from(natural_embedding(W), PointSet.of(W, bad))


def test_arises_invariant_under_rescaling(space):
    S3 = space("Sp4_3")
    emb = natural_embedding(S3)
    rng = random.Random(9)
    emb2 = rescaled(emb, rng)
    for _ in range(25):
        S = closure(S3, rng.sample(range(40), rng.randint(2, 6)))
        assert arises_from(emb, S).arises == arises_from(emb2, S).arises


@pytest.mark.parametrize("name", ["Q6_2", "H4_4", "W5_2"])
def test_arises_from_agrees_with_preimage_of_projective_span(name, space):
    # arises_from reads the dual table; the verdict must match the
    # row-reduced span and preimage, on the natural and universal
    # embeddings (W5_2: the quotient and the hull)
    sp = space(name)
    rng = random.Random(11)
    N = len(sp.points)
    sets = [0, sp.all_bits]
    sets += [closure(sp, rng.sample(range(N), rng.randint(1, 2 * sp.n + 1))).bits
             for _ in range(30)]
    for emb in {natural_embedding(sp), universal_embedding(sp)}:
        for S in sets:
            rows = projective_span(emb, S)
            verdict = arises_from(emb, S)
            assert verdict.preimage == preimage(emb, rows)


def _assert_arises_matches_enumeration(emb, bits, sets):
    """arises_from(emb, S) for each S in sets, all on the point set bits,
    against the preimage of the span of every vector of bits, enumerated
    point by point."""
    F = emb.space.field
    rows = linalg.rref(F, [emb.vectors[i] for i in PointSet(emb.space, bits)])
    want = sum(1 << i for i in _preimage_by_enumeration(emb, rows))
    extra = want & ~bits
    for S in sets:
        verdict = arises_from(emb, S)
        assert verdict.preimage.bits == want
        assert verdict.arises == (want == bits)
        assert verdict.witness == ((extra & -extra).bit_length() - 1 if extra else None)


@pytest.mark.parametrize("name", ["W3_2", "Q4_2", "Qp3_2"])
def test_arises_from_matches_enumeration_on_every_subspace(name, space, preset_oracle):
    # each subspace twice: as a cold closure of itself and as a bare set
    sp = space(name)
    assert preset_oracle(name)[0] == list(sp.points)
    subs = oracle_subspaces(sp.form)
    embs = {natural_embedding(sp)}
    if not sp.is_grid:
        embs.add(universal_embedding(sp))
    for emb in embs:
        for bits in subs:
            cold = closure(sp, bits)
            assert cold.bits == bits
            _assert_arises_matches_enumeration(emb, bits, (cold, PointSet(sp, bits)))


@pytest.mark.parametrize("name", ["Q6_2", "H4_4"])
def test_arises_from_matches_enumeration_on_sampled_closures(name, space):
    sp = space(name)
    emb = universal_embedding(sp)
    rng = random.Random(16)
    N = len(sp.points)
    for _ in range(200):
        seed = rng.sample(range(N), rng.randint(2, 2 * sp.n + 2))
        cold = closure(sp, seed)
        _assert_arises_matches_enumeration(emb, cold.bits, (cold, PointSet(sp, cold.bits)))


@pytest.mark.parametrize("name", ["W3_2", "Q6_2", "H4_4", "W5_2"])
def test_arises_from_verdict_depends_on_the_points_alone(name, space):
    # a cold closure of a random seed set, a bare set with the same bits
    # and a warm closure (the rest of the seeds on top of the closure of
    # the first) get one verdict, on the natural and universal embeddings
    sp = space(name)
    rng = random.Random(24)
    N = len(sp.points)
    seen_failure = False
    for emb in dict.fromkeys((natural_embedding(sp), universal_embedding(sp))):
        for _ in range(40):
            seed = rng.sample(range(N), rng.randint(2, 2 * sp.n + 2))
            k = rng.randint(1, len(seed) - 1)
            cold = closure(sp, seed)
            warm = closure(sp, seed[k:], closure(sp, seed[:k]))
            assert warm.bits == cold.bits
            verdicts = {(v.arises, v.witness, v.preimage.bits)
                        for v in (arises_from(emb, S)
                                  for S in (cold, PointSet(sp, cold.bits), warm))}
            assert len(verdicts) == 1
            arises, _, pre = verdicts.pop()
            assert pre == preimage(emb, projective_span(emb, cold)).bits
            seen_failure |= not arises
    # the sample meets non-arising subspaces, at least on the quotient
    # embedding of W3_2 and W5_2
    assert seen_failure or natural_embedding(sp).tag != "quotient"


def _assert_duals_match_brute_force(emb):
    F = emb.space.field
    zero, kills = emb.duals
    funcs = list(linalg.projective_reps(F, emb.dim))
    assert len(zero) == len(funcs) == (F.q ** emb.dim - 1) // (F.q - 1)
    assert len(kills) == len(emb.vectors)
    for i, a in enumerate(funcs):
        want = 0
        for x, v in enumerate(emb.vectors):
            s = 0
            for aj, vj in zip(a, v):
                s = F.add(s, F.mul(aj, vj))
            killed = s == 0
            assert bool(kills[x] >> i & 1) == killed, (i, x)
            want |= killed << x
        assert zero[i] == want, i


@pytest.mark.parametrize("name", UNIVERSAL_PRESETS)
def test_duals_match_brute_force_on_universal_embeddings(name, space):
    _assert_duals_match_brute_force(universal_embedding(space(name)))


@pytest.mark.parametrize("name", ["W3_2", "W5_2"])
def test_duals_match_brute_force_on_quotient_embeddings(name, space):
    emb = natural_embedding(space(name))
    assert emb.tag == "quotient"
    _assert_duals_match_brute_force(emb)


def _zero_sets_as_points(emb):
    return [{emb.space.points[x] for x in polar._iter_bits(z)} for z in emb.duals.zero]


@pytest.mark.parametrize("name", UNIVERSAL_PRESETS)
def test_line_meetings_match_oracle(name, space, preset_oracle):
    # on the universal embedding no zero set splits a line; on the map with
    # two vectors swapped some do
    sp = space(name)
    _, lines = preset_oracle(name)
    emb = universal_embedding(sp)
    swapped = swap_far_pair(emb)
    for e in (emb, swapped):
        assert line_meetings(e) == oracle_line_meetings(lines, _zero_sets_as_points(e))
    assert line_meetings(emb)[0] == 0 != line_meetings(swapped)[0]


def test_corollary3_files_the_zero_sets_of_a_broken_embedding():
    # a fresh W5_2 whose universal slot holds the swapped map, unvalidated:
    # its zero sets that split or miss a line are bad hyperplanes, and
    # those that split one are no subspace and have no rank
    sp = fresh_preset("W5_2")
    sp._universal = emb = swap_far_pair(universal_embedding(sp))
    split, missed = oracle_line_meetings(oracle_points_and_lines(sp.form)[1],
                                         _zero_sets_as_points(emb))
    report = verify.check_corollary3(sp, verify.SamplePlan())
    assert report.consistent() and report.sampled == 127
    bad = {w["points"]: w["rank"] for w in report.witnesses}
    assert {w["kind"] for w in report.witnesses} == {"bad hyperplane"}
    for i, z in enumerate(emb.duals.zero):
        ids = tuple(polar._iter_bits(z))
        if (split >> i) & 1:
            assert bad[ids] is None
        elif (missed >> i) & 1:
            assert bad[ids] is not None
    assert split and missed and report.failed == len(bad)


# ---------------------------------------------------------------------------
# quotient embeddings
# ---------------------------------------------------------------------------

def test_quotient_q42_to_w32(space):
    Q = space("Q4_2")
    res = quotient_embedding(Q)
    assert res.embedding.tag == "quotient"
    assert res.embedding.dim == 4
    assert res.quotient_space.kind == "alternating"
    assert len(res.quotient_space.points) == 15
    assert sorted(res.point_map) == list(range(15))


def test_quotient_q62_to_w52(space):
    Q = space("Q6_2")
    res = quotient_embedding(Q)
    assert len(res.quotient_space.points) == 63
    assert res.quotient_space.n == 3


@pytest.mark.parametrize("name", ["Q4_2", "Q6_2", "Q4_4"])
def test_quotient_kernel_is_the_radical(name, space):
    # Q's values on the kernel sweep out the whole field: a quotient whose
    # form were pseudoquadratic would have more points than the quadric
    Q = BUILT[name]() if name in BUILT else space(name)
    res = quotient_embedding(Q)
    assert res.kernel == radical_of_form(Q.bilinear)
    assert len(res.kernel) == 1
    assert len(res.quotient_space.points) == len(Q.points)
    values = {eval_quadratic(Q.form, v) for v in span_vectors(Q.field, res.kernel)}
    assert values == set(Q.field.elements())


def test_quotient_refuses_a_form_that_loses_collinearity(monkeypatch, space):
    # the quotient of Q(4,2) under W(3,2)'s permuted gram is still a point
    # bijection, but the images of Q's lines are not all lines there
    from polaris import embed
    real = embed.sesquilinear_form
    monkeypatch.setattr(embed, "sesquilinear_form",
                        lambda F, gram, kind: real(F, PERM_GRAM, kind))
    with pytest.raises(EmbeddingError, match="^quotient map loses collinearity$"):
        quotient_embedding(space("Q4_2"))


def test_quotient_rejects_zero_kernel(space):
    # rad(f_Q) = 0 away from characteristic 2 and in even dimension
    for name in ("Q4_3", "Qp5_2"):
        with pytest.raises(EmbeddingError, match="rad\\(f_Q\\) = 0"):
            quotient_embedding(space(name))


def test_quotient_rejects_non_quadratic(space):
    W = space("W3_2")
    with pytest.raises(EmbeddingError):
        quotient_embedding(W)


def test_quotient_kernel_conditions(space):
    # the kernel meets no image point and no secant line: no point vector
    # reduces to zero modulo the kernel, and distinct points stay distinct
    Q = space("Q4_2")
    res = quotient_embedding(Q)
    X = res.kernel
    for v in Q.points:
        assert not linalg.in_span(Q.field, X, v)
    assert len(set(res.embedding.vectors)) == len(Q.points)


def test_quotient_transport(space):
    # whatever arises from the quotient embedding arises from the
    # universal one; exhaustive over the subspace lattice of Q(4,2)
    Q = space("Q4_2")
    uni = natural_embedding(Q)
    res = quotient_embedding(Q)
    quo = res.embedding
    both = neither = quotient_only = 0
    for S in enumerate_subspaces(Q):
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
    assert hull.quad_space.dim == 5


def test_hull_w52(space):
    W = space("W5_2")
    hull = hull_of_symplectic_char2(W)
    assert len(hull.quad_space.points) == 63
    assert hull.quad_space.n == 3


def test_hull_rejects_odd_characteristic(space):
    with pytest.raises(GeometryError, match="characteristic 3"):
        hull_of_symplectic_char2(space("Sp4_3"))


@pytest.mark.parametrize("name,kind", [("Q6_2", "quadratic"), ("H3_4", "hermitian")])
def test_hull_rejects_other_kinds(name, kind, space):
    with pytest.raises(GeometryError, match=f"this space is {kind}$"):
        hull_of_symplectic_char2(space(name))


@pytest.mark.parametrize("name", ["W3_2", "W5_2", "W3_2-perm", "W3_4-twisted"])
def test_hull_lands_where_the_universal_embedding_does(name, space):
    # the hull's point map sends each point to the quadric point that the
    # formula x -> (sqrt(Q0(x)), x) gives
    W = BUILT[name]() if name in BUILT else space(name)
    hull = hull_of_symplectic_char2(W)
    N = len(W.points)
    uni = universal_embedding(W).vectors
    assert len(hull.to_quad) == len(hull.quad_space.points) == N
    assert all(hull.quad_space.points[hull.to_quad[i]] == uni[i] for i in range(N))


def test_hull_refuses_a_quadric_whose_quotient_is_another_space(monkeypatch):
    # the hull quadric of the permuted-gram W(3,2) has a nucleus quotient
    # on the same 15 points with other lines, so some points of W(3,2)'s
    # universal embedding are not points of it; the embedding is built
    # first, so that the formula runs on the true quadric
    from polaris import embed
    W = fresh_preset("W3_2")
    universal_embedding(W)
    real = embed._hull_quadric
    perm = w32_perm()
    monkeypatch.setattr(embed, "_hull_quadric", lambda sp: real(perm))
    with pytest.raises(EmbeddingError, match="^hull map is not a point bijection$"):
        hull_of_symplectic_char2(W)


def test_hull_refuses_a_map_that_loses_collinearity(monkeypatch):
    # two non-collinear points swapped: still a bijection onto the quadric
    from polaris import embed
    W = fresh_preset("W3_2")
    swapped = swap_far_pair(universal_embedding(W))
    monkeypatch.setattr(embed, "universal_embedding", lambda sp: swapped)
    with pytest.raises(EmbeddingError, match="^hull map loses collinearity$"):
        hull_of_symplectic_char2(W)


def test_hull_builds_only_its_quadric(monkeypatch):
    # the point map comes from the universal embedding: no quotient, and
    # no second build of the symplectic space
    from polaris import embed
    W = fresh_preset("W5_2")
    universal_embedding(W)
    calls = []
    real = embed.build_polar_space
    monkeypatch.setattr(embed, "build_polar_space",
                        lambda *a, **k: calls.append(a) or real(*a, **k))
    hull = hull_of_symplectic_char2(W)
    assert len(calls) == 1 and len(hull.quad_space.points) == 63


def test_hull_on_nonstandard_gram():
    # the hull quadric follows the gram, not a fixed hyperbolic basis
    W = w32_perm()
    emb = universal_embedding(W)
    fr = find_partial_frame(W, W.all_bits, 2)
    span = closure(W, fr.point_set())
    assert span == preimage(emb, projective_span(emb, fr.point_set()))


def test_hull_over_gf4_takes_the_square_root():
    # the points over x sit at (sqrt(Q0(x)), x), not (Q0(x), x)
    from polaris.verify import SamplePlan, check_theorem1
    W = w34_twisted()
    pts, lines = oracle_points_and_lines(W.form)
    assert list(W.points) == pts
    assert {frozenset(W.points[i] for i in line) for line in W.lines} == lines
    emb = universal_embedding(W)
    assert emb.tag == "universal" and emb.dim == 5 and len(W.points) == 85
    fr = find_partial_frame(W, W.all_bits, 2)
    assert closure(W, fr.point_set()) == preimage(emb, projective_span(emb, fr.point_set()))
    report = check_theorem1(W, emb, SamplePlan(seed=0, samples=40))
    assert report.failed == 0 and report.applicable > 0


def test_universal_embedding_builds_no_quadric(monkeypatch):
    # the char-2 symplectic universal embedding is a formula on the
    # space's own points; only the `hull` command builds the quadric
    from polaris import embed
    calls = []
    real = embed.build_polar_space
    monkeypatch.setattr(embed, "build_polar_space",
                        lambda *a, **k: calls.append(a) or real(*a, **k))
    W = fresh_preset("W5_2")
    assert universal_embedding(W).dim == 7
    assert calls == []


def test_corollary3_builds_the_hull_vectors_once(monkeypatch):
    # the space keeps its universal embedding, so a caller that holds
    # only the space does not rebuild the hull on each check
    from polaris import embed
    calls = []
    real = embed._hull_vectors
    monkeypatch.setattr(embed, "_hull_vectors", lambda sp: calls.append(sp) or real(sp))
    W = fresh_preset("W5_2")
    for _ in range(2):
        assert verify.check_corollary3(W, verify.SamplePlan()).consistent()
    assert len(calls) == 1


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
    W = build_space_from_spec(parse_spec(preset_text("W3_2")), cap=15, label="W3_2")
    assert universal_embedding(W).dim == 5
    assert len(hull_of_symplectic_char2(W).quad_space.points) == 15
    Q = build_space_from_spec(parse_spec(preset_text("Q4_2")), cap=15, label="Q4_2")
    res = quotient_embedding(Q)
    assert len(res.quotient_space.points) == 15


# ---------------------------------------------------------------------------
# frame span equals embedded-span preimage (universal embeddings)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["W3_2", "Sp4_3", "Q4_2", "Qm5_2", "H3_4",
                                  "Q6_2", "W5_2"])
def test_frame_span_equals_preimage(name, space):
    sp = space(name)
    emb = universal_embedding(sp)
    fr = find_partial_frame(sp, sp.all_bits, 2)
    span_pts = closure(sp, fr.point_set())
    wanted = preimage(emb, projective_span(emb, fr.point_set()))
    assert span_pts == wanted


def test_complete_generating_frame_spans_2n(space):
    # when the closure of a complete frame is the whole space, the image
    # spans exactly dimension 2n
    H = space("H3_4")
    emb = natural_embedding(H)
    fr = find_partial_frame(H, H.all_bits, 2)
    assert closure(H, fr.point_set()).bits == H.all_bits
    assert len(projective_span(emb, fr.point_set())) == 2 * H.n == emb.dim


# ---------------------------------------------------------------------------
# minimal generating subsets
# ---------------------------------------------------------------------------

def test_mingen_whole_q42(space):
    Q = space("Q4_2")
    Y = minimal_generating_subset(Q, Q.all_bits)
    assert len(Y) == 5
    assert closure(Q, Y).bits == Q.all_bits
    for i in Y:
        rest = [j for j in Y.indices() if j != i]
        assert closure(Q, rest).bits != Q.all_bits


@pytest.mark.parametrize("name", UNIVERSAL_PRESETS)
def test_mingen_property_on_random_sets(name, space):
    # Y has dim <X> members, generates closure(X) and drops no member
    sp = space(name)
    emb = universal_embedding(sp)
    N = len(sp.points)
    rng = random.Random(41)
    done = 0
    while done < 30:
        X = rng.sample(range(N), rng.randint(2, min(N, 3 * sp.n + 3)))
        target = closure(sp, X)
        if rank_nd(sp, target) < 2:
            continue
        Y = minimal_generating_subset(sp, X).indices()
        assert set(Y) <= set(X)
        assert len(Y) == len(projective_span(emb, X)), X
        assert closure(sp, Y).bits == target.bits, X
        for i in Y:
            assert closure(sp, [j for j in Y if j != i]).bits != target.bits, X
        done += 1


def test_mingen_rejects_thin_closure(space):
    Q = space("Q4_2")
    with pytest.raises(GeometryError):
        minimal_generating_subset(Q, PointSet.of(Q, Q.lines[0]))


def test_mingen_on_frame_returns_frame(space):
    Q = space("Q4_2")
    fr = find_partial_frame(Q, Q.all_bits, 2)
    Y = minimal_generating_subset(Q, fr.point_set())
    assert Y == fr.point_set()


"""Projective embeddings of the built polar spaces.

The natural embedding sends each point to its canonical representative
vector.  Its universality tag follows the classification by form kind
and characteristic: quadratic and hermitian sources, and everything
away from characteristic 2, carry the universal embedding; the
characteristic-2 alternating inclusion is a proper quotient of the
parabolic-quadric embedding one dimension up; grids are tagged unknown
and refused by the theorem-check commands.

A subspace S "arises" from an embedding when the preimage of the
projective span of its image is S itself; `arises_from` reports a
witness point otherwise.

Embeddings are immutable after construction; all queries are read-only.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .errors import EmbeddingError, GeometryError
from .forms import (
    eval_quadratic,
    polarize,
    quadratic_form,
    radical_of_form,
    sesquilinear_form,
)
from .polar import (
    PointSet,
    PolarSpace,
    _bits,
    _iter_bits,
    _require_subspace,
    build_polar_space,
)


@dataclass(frozen=True)
class Embedding:
    """A point -> projective-point map given by representative vectors."""

    space: PolarSpace
    dim: int
    vectors: tuple
    tag: str            # universal | quotient | unknown
    kernel: tuple | None = None

    def __repr__(self):
        name = self.space.label or self.space.kind
        return f"<{self.tag} embedding of {name} in dimension {self.dim}>"


def natural_embedding(space: PolarSpace) -> Embedding:
    """The inclusion map, tagged by the universality classification."""
    if space.is_grid:
        tag = "unknown"
    elif space.kind in ("quadratic", "hermitian"):
        tag = "universal"
    elif space.kind == "alternating":
        tag = "universal" if space.field.char != 2 else "quotient"
    else:  # symmetric, necessarily char != 2 after build validation
        tag = "universal"
    return Embedding(space, space.dim, space.points, tag)


def validate_embedding(emb: Embedding) -> None:
    """Injectivity, spanning, and line-onto-projective-line, by enumeration."""
    F = emb.space.field
    vecs = emb.vectors
    norm = [linalg.normalize_point(F, v) for v in vecs]
    if any(v is None for v in norm):
        raise EmbeddingError("a point maps to the zero vector")
    if len(set(norm)) != len(norm):
        raise EmbeddingError("embedding is not injective on points")
    if len(linalg.rref(F, list(vecs))) != emb.dim:
        raise EmbeddingError("image does not span the ambient space")
    for pts in emb.space.lines:
        image = {norm[i] for i in pts}
        u, v = vecs[pts[0]], vecs[pts[1]]
        proj_line = set(linalg.subspace_points(F, [u, v]))
        if image != proj_line:
            raise EmbeddingError("a line does not map onto a projective line")


def projective_span(emb: Embedding, X) -> tuple:
    """RREF basis of the span of the representative vectors of X."""
    bits = _bits(emb.space, X)
    return linalg.rref(emb.space.field, [emb.vectors[i] for i in _iter_bits(bits)])


def preimage(emb: Embedding, W) -> PointSet:
    """All points whose representative vector lies in the span of W:
    those killed by every functional of the annihilator of W."""
    F = emb.space.field
    dot = linalg.dot
    annihilator = linalg.right_kernel(F, W, emb.dim)
    bits = 0
    for i, v in enumerate(emb.vectors):
        for a in annihilator:
            if dot(F, a, v):
                break
        else:
            bits |= 1 << i
    return PointSet(emb.space, bits)


@dataclass(frozen=True)
class ArisesVerdict:
    arises: bool
    witness: int | None
    preimage: PointSet
    span_dim: int


def arises_from(emb: Embedding, S) -> ArisesVerdict:
    """Compare S with the preimage of the span of its image."""
    Sset = _require_subspace(emb.space, S)
    rows = projective_span(emb, Sset)
    pre = preimage(emb, rows)
    extra = pre.bits & ~Sset.bits
    if extra:
        return ArisesVerdict(False, next(_iter_bits(extra)), pre, len(rows))
    return ArisesVerdict(True, None, pre, len(rows))


# ---------------------------------------------------------------------------
# quotients over the radical of the bilinearization (characteristic 2)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuotientResult:
    embedding: Embedding          # of the original space, into V/X
    quotient_space: PolarSpace    # the alternating space on V/X
    point_map: tuple              # original point index -> quotient point index


def quotient_embedding(emb: Embedding, X) -> QuotientResult:
    """Project a universal quadratic embedding from a nonzero subspace X
    of the radical of its bilinearization; over a finite field this
    forces X = rad(f_Q) and the quotient is the alternating embedding.
    The quotient space is in bijection with the given one, so it is built
    under a cap of the given point count."""
    space = emb.space
    if emb.tag != "universal" or space.kind != "quadratic":
        raise EmbeddingError("quotients are taken from the universal quadratic embedding")
    F = space.field
    Xrows = linalg.rref(F, list(X))
    if not Xrows:
        raise EmbeddingError("X must be a nonzero subspace")
    radf = radical_of_form(space.bilinear)
    for row in Xrows:
        if not linalg.in_span(F, radf, row):
            raise EmbeddingError("X is not contained in rad(f_Q)")
    if Xrows != radf:
        raise EmbeddingError("over a finite field the kernel must be all of rad(f_Q)")
    # the values Q(x) on the kernel sweep out the whole field
    values = {eval_quadratic(space.form, v)
              for v in linalg.subspace_vectors(F, Xrows)}
    if values != set(F.elements()):
        raise EmbeddingError("kernel values do not exhaust the field")  # unreachable

    piv = set(linalg.pivots(Xrows))
    keep = [j for j in range(space.dim) if j not in piv]
    comp = [tuple(1 if i == j else 0 for i in range(space.dim)) for j in keep]
    e = len(keep)
    g = [[0] * e for _ in range(e)]
    bil = space.bilinear
    for a in range(e):
        row = bil.functional(comp[a])
        for b in range(e):
            g[a][b] = linalg.dot(F, row, comp[b])
    induced = sesquilinear_form(F, g, "alternating")
    label = f"{space.label}/quotient" if space.label else None
    qspace = build_polar_space(induced, cap=len(space.points), label=label)

    qvecs = []
    qmap = []
    for v in space.points:
        red = linalg.reduce_mod(F, Xrows, v)
        proj = tuple(red[j] for j in keep)
        nrm = linalg.normalize_point(F, proj)
        if nrm is None:
            raise EmbeddingError("kernel meets an image point")  # unreachable
        qvecs.append(nrm)
        qmap.append(qspace.index[nrm])
    if len(set(qmap)) != len(qmap) or len(qmap) != len(qspace.points):
        raise EmbeddingError("quotient map is not a point bijection")
    # collinearity must transfer both ways
    N = len(space.points)
    for i in range(N):
        for j in _iter_bits(space.adj[i] >> i << i):
            if not (qspace.adj[qmap[i]] >> qmap[j]) & 1:
                raise EmbeddingError("quotient map loses collinearity")
    for i in range(N):
        if (space.adj[i]).bit_count() != (qspace.adj[qmap[i]]).bit_count():
            raise EmbeddingError("quotient map gains collinearity")
    out = Embedding(space, e, tuple(qvecs), "quotient", kernel=Xrows)
    validate_embedding(out)
    return QuotientResult(out, qspace, tuple(qmap))


# ---------------------------------------------------------------------------
# hull of a characteristic-2 symplectic space
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HullResult:
    quad_space: PolarSpace     # parabolic quadric one dimension up
    to_quad: tuple             # symplectic point index -> quadric point index
    from_quad: tuple           # inverse permutation
    universal: Embedding       # universal embedding of the symplectic space


def _symplectic_basis(space: PolarSpace):
    """Hyperbolic pairs (u1, v1, u2, v2, ...) of the alternating form,
    lowest-candidate first, pairings scaled to 1."""
    F = space.field
    form = space.form
    d = space.dim
    basis = []
    while len(basis) < d:
        kernel = linalg.right_kernel(F, [form.functional(b) for b in basis], d)
        u = None
        for coeffs in linalg.projective_reps(F, len(kernel)):
            v = linalg.combine(F, coeffs, kernel)
            if u is None:
                u = v
                continue
            pairing = linalg.dot(F, form.functional(u), v)
            if pairing:
                v = linalg.vec_scale(F, v, F.inv(pairing))
                basis.extend([u, v])
                break
        else:
            raise GeometryError("alternating form failed hyperbolic splitting")
    return basis


def hull_of_symplectic_char2(space: PolarSpace) -> HullResult:
    """Rebuild the parabolic quadric whose nucleus quotient is this
    symplectic space and return the induced point bijection.  The quadric
    is in bijection with the space, so it is built under a cap of the
    space's point count."""
    if space.kind != "alternating" or space.field.char != 2:
        raise GeometryError(
            "hull construction applies to alternating spaces in characteristic 2; "
            "elsewhere the alternating embedding is already universal")
    F = space.field
    n = space.n
    d = 2 * n + 1
    U = [[0] * d for _ in range(d)]
    U[0][0] = 1
    for i in range(n):
        U[2 * i + 1][2 * i + 2] = 1
    Q = quadratic_form(F, U)
    label = f"{space.label}/hull" if space.label else None
    qspace = build_polar_space(Q, cap=len(space.points), label=label)
    qres = quotient_embedding(natural_embedding(qspace), radical_of_form(polarize(Q)))
    sympl = _symplectic_basis(space)
    to_quad = [None] * len(space.points)
    from_quad = [None] * len(qspace.points)
    for qi, quot_idx in enumerate(qres.point_map):
        v = linalg.combine(F, qres.quotient_space.points[quot_idx], sympl)
        si = space.index[linalg.normalize_point(F, v)]
        if to_quad[si] is not None:
            raise GeometryError("hull bijection collapsed two points")
        to_quad[si] = qi
        from_quad[qi] = si
    # isomorphism check, edge by edge in both directions
    for i in range(len(space.points)):
        for j in _iter_bits(space.adj[i]):
            if not (qspace.adj[to_quad[i]] >> to_quad[j]) & 1:
                raise GeometryError("hull bijection loses collinearity")
        if space.adj[i].bit_count() != qspace.adj[to_quad[i]].bit_count():
            raise GeometryError("hull bijection gains collinearity")
    universal = Embedding(space, d,
                          tuple(qspace.points[to_quad[i]]
                                for i in range(len(space.points))),
                          "universal")
    validate_embedding(universal)
    return HullResult(qspace, tuple(to_quad), tuple(from_quad), universal)


def universal_embedding(space: PolarSpace) -> Embedding:
    """The universal embedding: natural when already tagged universal,
    hull-composed for characteristic-2 symplectic spaces.  Built once per
    space and kept in its write-once `_universal` slot."""
    if space._universal is None:
        emb = natural_embedding(space)
        if emb.tag == "quotient":
            emb = hull_of_symplectic_char2(space).universal
        elif emb.tag != "universal":
            raise EmbeddingError(
                "no designated universal embedding for this space (grid case)")
        space._universal = emb
    return space._universal


# ---------------------------------------------------------------------------
# minimal generating subsets
# ---------------------------------------------------------------------------

def minimal_generating_subset(emb: Embedding, X) -> PointSet:
    """Y inside X with closure(Y) = closure(X) and no removable member.

    Starts from the greedy vector-rank selection; if that independent
    set fails to generate (it can land on an ovoid-like set), augments
    with the first points outside the running closure, then confirms
    minimality by dropping each member.
    """
    from .polar import closure, rank_nd
    space = emb.space
    if emb.tag != "universal":
        raise EmbeddingError("minimal generating subsets use the universal embedding")
    F = space.field
    Xset = PointSet(space, _bits(space, X))
    target = closure(space, Xset)
    if rank_nd(space, target) < 2:
        raise GeometryError("closure of X has non-degenerate rank < 2")
    ids = list(Xset.indices())
    chosen = []
    span = ()
    for i in ids:
        if not linalg.in_span(F, span, emb.vectors[i]):
            chosen.append(i)
            span = linalg.rref(F, list(span) + [emb.vectors[i]])
    current = closure(space, chosen)
    while current.bits != target.bits:
        nxt = next(i for i in ids if not (current.bits >> i) & 1)
        chosen.append(nxt)
        current = closure(space, chosen)
    for i in list(chosen):
        rest = [j for j in chosen if j != i]
        if closure(space, rest).bits == target.bits:
            chosen = rest
    return PointSet.of(space, chosen)

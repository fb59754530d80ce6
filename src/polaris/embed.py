"""Projective embeddings of the built polar spaces.

The natural embedding sends each point to its canonical representative
vector.  Its universality tag follows the classification by form kind
and characteristic: quadratic and hermitian sources, and everything
away from characteristic 2, carry the universal embedding; the
characteristic-2 alternating inclusion is a proper quotient of the
parabolic-quadric embedding one dimension up, x -> (sqrt(Q0(x)), x)
with Q0 the strict upper triangle of the gram, which is the universal
one; grids are tagged unknown and have no universal embedding here.
`universal_embedding(space)` is the one place that picks the embedding
the checks and commands judge against.

The hull builds that quadric and reads its point map off the universal
embedding's vectors; the hull and the quotient certify their point
bijection with one helper, `_paired_space`.

A subspace S "arises" from an embedding when the preimage of the
projective span of its image is S itself; `arises_from` reports a
witness point otherwise.  <e(S)> is the intersection of the hyperplanes
of PG(V) that hold e(S) (the double annihilator), so `arises_from`
reads both sides off the embedding's dual table `duals`: the
functionals that kill every point of S, and the points that all of
those functionals kill.  It does no row reduction.  `projective_span`
and `preimage` are the row-reduction path to the same preimage; nothing
in the package calls them, and the benchmark's tracer spans them by
name.  Preimages and hyperplanes are zero sets of functionals
(`linalg.zero_set`).

`line_meetings` reads how every hyperplane meets every line in one pass
over the lines of the dual table: the functionals whose zero set splits
some line (meets it twice without holding it) and those whose zero set
misses some line.  Corollary3 sorts out its hyperplanes with both.
`validate_embedding` reads all four of its verdicts off the dual table:
a zero vector and a repeated point from the `kills` rows, spanning from
their AND, and lines onto projective lines from the split set.

Embeddings are immutable after construction, apart from the dual table
`duals`, a write-once cache built on first use from the vectors and
the field.  It costs one zero set per projective functional,
(q^d - 1)/(q - 1) of them, and one per point.  On an Intel Xeon under
Python 3.11 it took 4 ms on H4_4 (341 functionals), 25 ms on an
H(5, 4) spec (1,365) and 0.3 s on a Q(4, 9) spec (7,381), the most
functionals of any non-grid space under the default point cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from . import linalg
from .errors import EmbeddingError, GeometryError
from .forms import (
    eval_quadratic,
    quadratic_form,
    radical_of_form,
    sesquilinear_form,
)
from .polar import (
    PointSet,
    PolarSpace,
    _iter_bits,
    _require_subspace,
    build_polar_space,
    closure,
    generating_points,
    rank_nd,
)


class Duals(NamedTuple):
    """The incidence of the points with the projective functionals,
    indexed in `linalg.projective_reps` order."""

    zero: tuple     # zero[i]: bitset of the points the i-th functional kills
    kills: tuple    # kills[x]: bitset of the functionals that kill point x


@dataclass(frozen=True)
class Embedding:
    """A point -> projective-point map given by representative vectors."""

    space: PolarSpace
    dim: int
    vectors: tuple
    tag: str            # universal | quotient | unknown

    def __repr__(self):
        name = self.space.label or self.space.kind
        return f"<{self.tag} embedding of {name} in dimension {self.dim}>"

    @cached_property
    def duals(self) -> Duals:
        """zero[i] is the zero set of the i-th functional over the points,
        kills[x] that of point x's vector over the functionals: the sum
        of a_j v_j is symmetric in a and v, so `linalg.zero_set` builds
        both."""
        F = self.space.field
        funcs = tuple(linalg.projective_reps(F, self.dim))
        by_points = linalg.value_slices(F, self.vectors)
        zero = tuple(linalg.zero_set(F, by_points, a, self.space.all_bits)
                     for a in funcs)
        by_funcs, every = linalg.value_slices(F, funcs), (1 << len(funcs)) - 1
        kills = tuple(linalg.zero_set(F, by_funcs, v, every) for v in self.vectors)
        return Duals(zero, kills)


def natural_embedding(space: PolarSpace) -> Embedding:
    """The inclusion map, tagged by the universality classification."""
    if space.is_grid:
        tag = "unknown"
    elif space.kind == "alternating" and space.field.char == 2:
        tag = "quotient"
    else:
        tag = "universal"
    return Embedding(space, space.dim, space.points, tag)


def line_meetings(emb: Embedding) -> tuple:
    """(split, missed), two bitsets over the functionals of `duals`:
    split holds those whose zero set meets some line in two or more
    points but not in all of them, missed those whose zero set misses
    some line.  One pass over the lines: a half adder over the `kills`
    rows of a line's points gives the functionals that kill one point
    of it and those that kill two, and an AND those that kill all."""
    kills = emb.duals.kills
    every = (1 << len(emb.duals.zero)) - 1
    split, met = 0, every
    for pts in emb.space.lines:
        once = twice = 0
        full = every
        for x in pts:
            r = kills[x]
            twice |= once & r
            once |= r
            full &= r
        split |= twice & ~full
        met &= once
    return split, every & ~met


def validate_embedding(emb: Embedding) -> None:
    """No zero vector, injectivity, spanning, and line onto projective
    line, all four read off the dual table.  A zero vector is killed by
    every functional, and two nonzero vectors span one projective point
    exactly when the same functionals kill them: equal `kills` rows.
    The image spans the ambient space exactly when no functional kills
    every point: the AND of `kills` is 0.  Once the map is injective,
    the q + 1 points of a line map to q + 1 distinct projective points,
    so they fill the projective line through two of them exactly when
    their vectors span a 2-space.  That holds exactly when no functional
    kills two of them without killing all: a functional that kills two
    vectors of a 2-space kills all of it, and a vector outside the span
    of two others is spared by some functional that kills both.  So the
    check is that `line_meetings` splits no line."""
    zero, kills = emb.duals
    common = (1 << len(zero)) - 1
    if common in kills:
        raise EmbeddingError("a point maps to the zero vector")
    if len(set(kills)) != len(kills):
        raise EmbeddingError("embedding is not injective on points")
    for k in kills:
        common &= k
    if common:
        raise EmbeddingError("image does not span the ambient space")
    if line_meetings(emb)[0]:
        raise EmbeddingError("a line does not map onto a projective line")


def projective_span(emb: Embedding, X) -> tuple:
    """RREF basis of the span of the representative vectors of X; only
    the generating points of X picked by closure are row-reduced.  Lines
    map onto projective lines, so a closure adds no vector outside the
    span."""
    gens = [emb.vectors[i] for i in generating_points(emb.space, X)]
    return linalg.rref(emb.space.field, gens)


def preimage(emb: Embedding, W) -> PointSet:
    """All points whose representative vector lies in the span of W:
    the zero sets of the annihilator of W, each one narrowing the points
    the next is tested on."""
    F, bits = emb.space.field, emb.space.all_bits
    slices = linalg.value_slices(F, emb.vectors)
    for a in linalg.right_kernel(F, W, emb.dim):
        bits = linalg.zero_set(F, slices, a, bits)
    return PointSet(emb.space, bits)


@dataclass(frozen=True)
class ArisesVerdict:
    arises: bool
    witness: int | None
    preimage: PointSet


def arises_from(emb: Embedding, S) -> ArisesVerdict:
    """Compare S with P, the preimage of <e(S)>.  The functionals that
    kill e(S) are the AND of `kills` over S, and P is the AND of their
    zero sets, all points when there are none.  Each of those zero sets
    holds S, so P only shrinks towards S, and the AND stops once P is S:
    no later functional can change it."""
    s = _require_subspace(emb.space, S).bits
    zero, kills = emb.duals
    ann = (1 << len(zero)) - 1
    for x in _iter_bits(s):
        ann &= kills[x]
    pre = emb.space.all_bits
    for i in _iter_bits(ann):
        pre &= zero[i]
        if pre == s:
            break
    extra = pre & ~s
    return ArisesVerdict(not extra, next(_iter_bits(extra), None), PointSet(emb.space, pre))


# ---------------------------------------------------------------------------
# derived spaces in point bijection with their source
# ---------------------------------------------------------------------------

def _paired_space(space: PolarSpace, form, images, label, what) -> tuple:
    """(other, pmap): the space of `form`, built under a cap of the
    given point count since it is in bijection with it, and the map
    sending point i to the index of images[i] there, certified a
    bijection under which collinearity transfers both ways: each row
    maps onto the image's row."""
    other = build_polar_space(form, cap=len(space.points), label=label)
    index = {v: i for i, v in enumerate(other.points)}
    pmap = tuple(index.get(v) for v in images)
    if None in pmap or len(set(pmap)) != len(pmap) or len(pmap) != len(other.points):
        raise EmbeddingError(f"{what} is not a point bijection")
    for i, row in enumerate(space.adj):
        image = 0
        for j in _iter_bits(row):
            image |= 1 << pmap[j]
        # Q(2n,q) and W(2n-1,q) rows have one size: a row that differs lost a point
        if image != other.adj[pmap[i]]:
            raise EmbeddingError(f"{what} loses collinearity")
    return other, pmap


# ---------------------------------------------------------------------------
# quotients over the radical of the bilinearization (characteristic 2)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuotientResult:
    embedding: Embedding          # of the original space, into V/X
    quotient_space: PolarSpace    # the alternating space on V/X
    point_map: tuple              # original point index -> quotient point index
    kernel: tuple                 # RREF basis of rad(f_Q)


def quotient_embedding(space: PolarSpace) -> QuotientResult:
    """Project the universal embedding of a quadric from X = rad(f_Q),
    the radical of its bilinearization, which over a finite field is the
    only kernel a quotient can have; the quotient is the alternating
    space of f_Q on the coordinates off the pivots of X, onto which
    `_paired_space` certifies the projected, normalized vectors a point
    bijection that keeps collinearity."""
    if space.kind != "quadratic":
        raise EmbeddingError("quotients are taken from the universal quadratic embedding")
    X = radical_of_form(space.bilinear)
    if not X:
        raise EmbeddingError("rad(f_Q) = 0: the bilinearization is non-degenerate, "
                             "so there is no quotient")
    F = space.field
    piv = set(linalg.pivots(X))
    keep = [j for j in range(space.dim) if j not in piv]
    gram = space.bilinear.gram
    induced = sesquilinear_form(F, [[gram[a][b] for b in keep] for a in keep],
                                "alternating")
    label = f"{space.label}/quotient" if space.label else None
    qvecs = []
    for v in space.points:
        red = linalg.reduce_mod(F, X, v)
        qvecs.append(linalg.normalize_point(F, tuple(red[j] for j in keep)))
    qspace, qmap = _paired_space(space, induced, qvecs, label, "quotient map")
    out = Embedding(space, len(keep), tuple(qvecs), "quotient")
    validate_embedding(out)
    return QuotientResult(out, qspace, qmap, X)


# ---------------------------------------------------------------------------
# hull of a characteristic-2 symplectic space
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HullResult:
    quad_space: PolarSpace     # parabolic quadric one dimension up
    to_quad: tuple             # symplectic point index -> quadric point index


def _hull_quadric(space: PolarSpace):
    """The quadric x0^2 + Q0(x) one dimension up, where Q0 is the strict
    upper triangle of the alternating gram, so Q0 polarizes to the form
    and the nucleus is the first coordinate vector."""
    d, gram = space.dim, space.form.gram
    upper = [[0] * (d + 1) for _ in range(d + 1)]
    upper[0][0] = 1
    for i in range(d):
        upper[i + 1][i + 2:] = gram[i][i + 1:]
    return quadratic_form(space.field, upper)


def _hull_vectors(space: PolarSpace) -> tuple:
    """x -> (sqrt(Q0(x)), x), normalized: the point of the hull quadric
    that projects from the nucleus onto x."""
    F = space.field
    Q = _hull_quadric(space)
    return tuple(
        linalg.normalize_point(F, (F.sqrt_char2(eval_quadratic(Q, (0,) + x)),) + x)
        for x in space.points)


def hull_of_symplectic_char2(space: PolarSpace) -> HullResult:
    """The parabolic quadric whose nucleus quotient is this symplectic
    space, and the point map of the universal embedding into it,
    certified by `_paired_space` a bijection that keeps collinearity."""
    if space.kind != "alternating":
        raise GeometryError(
            f"hull construction takes an alternating space, and this space is "
            f"{space.kind}")
    if space.field.char != 2:
        raise GeometryError(
            f"hull construction applies in characteristic 2; in characteristic "
            f"{space.field.char} the alternating embedding is already universal")
    label = f"{space.label}/hull" if space.label else None
    qspace, to_quad = _paired_space(space, _hull_quadric(space),
                                    universal_embedding(space).vectors, label, "hull map")
    return HullResult(qspace, to_quad)


def universal_embedding(space: PolarSpace) -> Embedding:
    """The universal embedding: natural when already tagged universal,
    x -> (sqrt(Q0(x)), x) into the hull quadric for characteristic-2
    symplectic spaces.  Built once per space and kept in its write-once
    `_universal` slot."""
    if space._universal is None:
        emb = natural_embedding(space)
        if emb.tag == "quotient":
            emb = Embedding(space, space.dim + 1, _hull_vectors(space), "universal")
            validate_embedding(emb)
        elif emb.tag != "universal":
            raise EmbeddingError(
                "no designated universal embedding for this space (grid case)")
        space._universal = emb
    return space._universal


# ---------------------------------------------------------------------------
# minimal generating subsets
# ---------------------------------------------------------------------------

def minimal_generating_subset(space: PolarSpace, X) -> PointSet:
    """Y inside X with closure(Y) = closure(X) and no removable member:
    the generating points of X picked by closure, then one pass that
    drops each member whose removal still generates closure(X)."""
    target = closure(space, X)
    if rank_nd(space, target) < 2:
        raise GeometryError("closure of X has non-degenerate rank < 2")
    chosen = generating_points(space, X)
    for i in list(chosen):
        rest = [j for j in chosen if j != i]
        if closure(space, rest).bits == target.bits:
            chosen = rest
    return PointSet.of(space, chosen)

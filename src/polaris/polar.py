"""Finite classical polar spaces as explicit point-line geometries.

A space is built from a non-degenerate reflexive sesquilinear or
quadratic form: its points are the isotropic/singular projective points
(normalized so the leftmost nonzero coordinate is 1, sorted
lexicographically by coordinate codes) and its lines are the totally
isotropic/singular 2-dimensional vector subspaces, stored as full
point-index tuples.  Collinearity lives in per-point bitsets, with
p in perp(p) by convention, so closure and perp are pure integer
bitset work.

Spaces are immutable after construction, apart from the write-once
`_universal` slot that `embed.universal_embedding` fills; PointSet
caches are write-once too.  Everything here is safe to query
concurrently: two threads filling one cache write equal values.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from . import linalg
from .errors import FrameError, GeometryError
from .field import Field
from .forms import (
    QuadraticForm,
    SesquilinearForm,
    eval_form,
    eval_quadratic,
    isotropic_vector_test,
    polarize,
    radical_of_form,
    radical_of_quadratic,
    trace_valued_check,
    witt_index,
)

DEFAULT_POINT_CAP = 1000
ENUM_GUARD = 2_000_000  # refuse ambients with more projective points than this


def _iter_bits(bits):
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def _popcount(bits):
    return bits.bit_count()


class PolarSpace:
    """Points, lines and collinearity of the polar space of a form."""

    __slots__ = ("field", "form", "kind", "bilinear", "dim", "q", "n",
                 "points", "index", "adj", "lines", "line_bits", "lines_at",
                 "all_bits", "is_grid", "label", "_universal")

    def __init__(self, field, form, kind, bilinear, dim, n, points, index,
                 adj, lines, line_bits, lines_at, is_grid, label):
        self.field = field
        self.form = form
        self.kind = kind
        self.bilinear = bilinear
        self.dim = dim
        self.q = field.q
        self.n = n
        self.points = points
        self.index = index
        self.adj = adj
        self.lines = lines
        self.line_bits = line_bits
        self.lines_at = lines_at
        self.all_bits = (1 << len(points)) - 1
        self.is_grid = is_grid
        self.label = label
        self._universal = None   # write-once cache of embed.universal_embedding

    def __len__(self):
        return len(self.points)

    def __repr__(self):
        name = self.label or f"{self.kind} space"
        return f"<{name}: {len(self.points)} points, {len(self.lines)} lines, rank {self.n}>"

    def point_set(self, ids) -> "PointSet":
        return PointSet.of(self, ids)

    def universe(self) -> "PointSet":
        return PointSet(self, self.all_bits)

    def empty(self) -> "PointSet":
        return PointSet(self, 0)


def build_polar_space(form, cap: int | None = None, label: str | None = None) -> PolarSpace:
    """Enumerate the polar space of a non-degenerate form of rank >= 2."""
    cap = DEFAULT_POINT_CAP if cap is None else cap
    if isinstance(form, QuadraticForm):
        kind = "quadratic"
        if radical_of_quadratic(form):
            raise GeometryError("degenerate quadratic form (rad(Q) != 0)")
        bilinear = polarize(form)
    elif isinstance(form, SesquilinearForm):
        kind = form.kind
        if radical_of_form(form):
            raise GeometryError("degenerate sesquilinear form (rad(f) != 0)")
        if not trace_valued_check(form):
            raise GeometryError(
                "isotropic vectors do not span the ambient space; "
                "the geometry would be degenerate and admits no inclusion embedding"
            )
        bilinear = form
    else:
        raise GeometryError(f"not a form: {form!r}")

    F: Field = form.field
    d = form.dim
    q = F.q
    if (q**d - 1) // (q - 1) > ENUM_GUARD:
        raise GeometryError("ambient projective space too large to enumerate")

    n = witt_index(form)
    if n < 2:
        raise GeometryError(f"rank {n} < 2: not a polar space with lines")

    singular = isotropic_vector_test(form)
    points = []
    for v in linalg.projective_reps(F, d):
        if singular(v):
            points.append(v)
            if len(points) > cap:
                raise GeometryError(
                    f"point count exceeds the cap ({cap}); "
                    "raise POLARIS_POINT_CAP to allow larger spaces"
                )
    points = tuple(points)
    N = len(points)
    index = {v: i for i, v in enumerate(points)}

    adj = [0] * N
    for i in range(N):
        row = bilinear.functional(points[i])
        for j in range(i, N):
            v = points[j]
            acc = 0
            for c, x in zip(row, v):
                if c and x:
                    acc = F.add(acc, F.mul(c, x))
            if acc == 0:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    for i in range(N):
        if not (adj[i] >> i) & 1:
            raise GeometryError("point not collinear with itself")  # unreachable
    all_bits = (1 << N) - 1
    for i in range(N):
        if adj[i] == all_bits:
            raise GeometryError("a point is collinear with every point")  # unreachable

    lines = []
    covered = [0] * N
    for i in range(N):
        todo = (adj[i] >> (i + 1)) << (i + 1)
        todo &= ~covered[i]
        while todo:
            j = (todo & -todo).bit_length() - 1
            pts = _line_points(F, points, index, i, j)
            lines.append(pts)
            lb = 0
            for a in pts:
                lb |= 1 << a
            for a in pts:
                covered[a] |= lb
            todo &= ~covered[i]
    lines.sort()
    lines = tuple(lines)
    line_bits = tuple(reduce(lambda acc, a: acc | (1 << a), pts, 0) for pts in lines)
    lines_at_mut = [[] for _ in range(N)]
    for li, pts in enumerate(lines):
        for a in pts:
            lines_at_mut[a].append(li)
    lines_at = tuple(tuple(ls) for ls in lines_at_mut)

    is_grid = n == 2 and N > 0 and all(len(ls) == 2 for ls in lines_at)
    return PolarSpace(F, form, kind, bilinear, d, n, points, index,
                      tuple(adj), lines, line_bits, lines_at, is_grid, label)


def _line_points(F, points, index, i, j):
    u, v = points[i], points[j]
    ids = [j]
    for t in F.elements():
        w = linalg.vec_add(F, u, linalg.vec_scale(F, v, t))
        nw = linalg.normalize_point(F, w)
        pid = index.get(nw)
        if pid is None:
            raise GeometryError("line through collinear points left the point set")
        ids.append(pid)
    ids = tuple(sorted(set(ids)))
    if len(ids) != F.q + 1:
        raise GeometryError(f"line has {len(ids)} points, expected {F.q + 1}")
    return ids


# ---------------------------------------------------------------------------
# point sets
# ---------------------------------------------------------------------------

class PointSet:
    """A set of point indices of one space, as a bitset, with write-once
    caches for the subspace/singularity flags, radical and ranks."""

    __slots__ = ("space", "bits", "_subspace", "_singular", "_radical",
                 "_rank", "_rank_nd")

    def __init__(self, space: PolarSpace, bits: int):
        self.space = space
        self.bits = bits
        self._subspace = None
        self._singular = None
        self._radical = None
        self._rank = None
        self._rank_nd = None

    @classmethod
    def of(cls, space: PolarSpace, ids) -> "PointSet":
        bits = 0
        for i in ids:
            if not 0 <= i < len(space.points):
                raise GeometryError(f"point index {i} out of range")
            bits |= 1 << i
        return cls(space, bits)

    def indices(self):
        return tuple(_iter_bits(self.bits))

    def __iter__(self):
        return _iter_bits(self.bits)

    def __len__(self):
        return _popcount(self.bits)

    def __contains__(self, i):
        return bool((self.bits >> i) & 1)

    def __eq__(self, other):
        return isinstance(other, PointSet) and other.space is self.space \
            and other.bits == self.bits

    def __hash__(self):
        return hash((id(self.space), self.bits))

    def __or__(self, other):
        return PointSet(self.space, self.bits | other.bits)

    def __and__(self, other):
        return PointSet(self.space, self.bits & other.bits)

    def __sub__(self, other):
        return PointSet(self.space, self.bits & ~other.bits)

    def __repr__(self):
        return f"PointSet({list(self.indices())})"

    @property
    def is_subspace(self) -> bool:
        if self._subspace is None:
            self._subspace = is_subspace(self.space, self)
        return self._subspace

    @property
    def is_singular(self) -> bool:
        if self._singular is None:
            self._singular = is_singular(self.space, self)
        return self._singular

    @property
    def radical(self) -> "PointSet":
        if self._radical is None:
            self._radical = radical_of_subspace(self.space, self)
        return self._radical

    @property
    def rank(self) -> int:
        if self._rank is None:
            self._rank = rank_of(self.space, self)
        return self._rank

    @property
    def rank_nd(self) -> int:
        if self._rank_nd is None:
            self._rank_nd = rank_nd(self.space, self)
        return self._rank_nd


def _bits(space, X) -> int:
    if isinstance(X, PointSet):
        if X.space is not space:
            raise GeometryError("PointSet belongs to a different space")
        return X.bits
    if isinstance(X, int):
        return X
    return PointSet.of(space, X).bits


def perp(space: PolarSpace, X) -> PointSet:
    """Intersection of the collinearity sets of the members; everything
    for the empty set."""
    bits = _bits(space, X)
    acc = space.all_bits
    for i in _iter_bits(bits):
        acc &= space.adj[i]
        if not acc:
            break
    return PointSet(space, acc)


def closure(space: PolarSpace, X, closed=0) -> PointSet:
    """Least subspace containing X and `closed`.

    `closed` must already be a subspace; this is assumed, not checked.
    Every line meeting the set in two points but not contained in it
    then passes through a point outside `closed`, so a worklist of the
    added points visits only their lines (`space.lines_at`), saturating
    each line met twice and queueing the points it adds.  The result is
    marked as a subspace.
    """
    closed = _bits(space, closed)
    bits = closed | _bits(space, X)
    todo = bits & ~closed
    all_bits = space.all_bits
    line_bits, lines_at = space.line_bits, space.lines_at
    while todo and bits != all_bits:
        low = todo & -todo
        todo ^= low
        for li in lines_at[low.bit_length() - 1]:
            lb = line_bits[li]
            inter = lb & bits
            if inter != lb and inter & (inter - 1):
                todo |= lb & ~bits
                bits |= lb
    out = PointSet(space, bits)
    out._subspace = True
    return out


def is_subspace(space: PolarSpace, X) -> bool:
    bits = _bits(space, X)
    for lb in space.line_bits:
        inter = lb & bits
        if inter != lb and inter & (inter - 1):
            return False
    return True


def is_singular(space: PolarSpace, X) -> bool:
    bits = _bits(space, X)
    return bits & ~perp(space, bits).bits == 0


def _require_subspace(space, X) -> PointSet:
    S = X if isinstance(X, PointSet) and X.space is space else PointSet(space, _bits(space, X))
    if not S.is_subspace:
        raise GeometryError("point set is not a subspace")
    return S


def radical_of_subspace(space: PolarSpace, S) -> PointSet:
    """rad(S) = perp(S) intersect S."""
    S = _require_subspace(space, S)
    return PointSet(space, perp(space, S.bits).bits & S.bits)


def span_dim(space: PolarSpace, X) -> int:
    """Vector dimension of the span of the representative vectors."""
    vecs = [space.points[i] for i in _iter_bits(_bits(space, X))]
    return len(linalg.rref(space.field, vecs))


def rank_of(space: PolarSpace, S) -> int:
    """Polar rank of a subspace: the common vector dimension of its
    maximal singular subspaces, found by greedy chain growth with
    lowest-index tie-breaking."""
    S = _require_subspace(space, S)
    F = space.field
    chain_perp = space.all_bits
    span = ()
    size = 0
    while True:
        found = None
        for i in _iter_bits(S.bits & chain_perp):
            if not linalg.in_span(F, span, space.points[i]):
                found = i
                break
        if found is None:
            return size
        chain_perp &= space.adj[found]
        span = linalg.rref(F, list(span) + [space.points[found]])
        size += 1


def rank_nd(space: PolarSpace, S) -> int:
    """rank(S) minus the rank of its radical (0 exactly when S is singular)."""
    S = _require_subspace(space, S)
    rad = radical_of_subspace(space, S)
    return rank_of(space, S) - span_dim(space, rad.bits)


# ---------------------------------------------------------------------------
# hyperplanes and maximality
# ---------------------------------------------------------------------------

def _require_proper_subspace(space, X) -> PointSet:
    S = _require_subspace(space, X)
    if S.bits == space.all_bits:
        raise GeometryError("subspace is improper (the whole point set)")
    return S


def is_hyperplane(space: PolarSpace, S) -> bool:
    """True iff the proper subspace S meets every line."""
    S = _require_proper_subspace(space, S)
    return all(lb & S.bits for lb in space.line_bits)


def singular_hyperplane(space: PolarSpace, p: int) -> PointSet:
    """perp(p), checked to meet every line."""
    H = perp(space, 1 << p)
    if not is_hyperplane(space, H):
        raise GeometryError("perp of a point failed the hyperplane scan")  # unreachable
    return H


def is_maximal_subspace(space: PolarSpace, S) -> bool:
    """True iff adding any outside point generates the whole space."""
    S = _require_proper_subspace(space, S)
    for p in _iter_bits(space.all_bits & ~S.bits):
        if closure(space, 1 << p, S.bits).bits != space.all_bits:
            return False
    return True


# ---------------------------------------------------------------------------
# frames
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PartialFrame:
    """Two singular k-sets matched so a_i is collinear with b_j iff i != j."""

    space: PolarSpace
    a: tuple
    b: tuple

    @property
    def rank(self) -> int:
        return len(self.a)

    def point_set(self) -> PointSet:
        return PointSet.of(self.space, self.a + self.b)


def check_partial_frame(space: PolarSpace, A, B) -> PartialFrame:
    """Validate F1/F2, match B to A, and confirm the derived basis and
    empty-perp-intersection facts."""
    A, B = tuple(A), tuple(B)
    k = len(A)
    if k != len(B):
        raise FrameError(f"|A| = {k} != |B| = {len(B)}")
    if k < 2:
        raise FrameError(f"rank {k} < 2")
    if len(set(A)) != k or len(set(B)) != k or set(A) & set(B):
        raise FrameError("A and B must be disjoint sets of distinct points")
    for side, S in (("A", A), ("B", B)):
        for i in range(k):
            for j in range(i + 1, k):
                if not (space.adj[S[i]] >> S[j]) & 1:
                    raise FrameError(
                        f"F1 violated: points {S[i]} and {S[j]} of {side} are not collinear")
    matched = []
    used = set()
    for a in A:
        nono = [b for b in B if not (space.adj[a] >> b) & 1]
        if len(nono) != 1:
            raise FrameError(
                f"F2 violated: point {a} of A is non-collinear with "
                f"{len(nono)} points of B, expected exactly 1")
        if nono[0] in used:
            raise FrameError(
                f"F2 violated: point {nono[0]} of B is non-collinear with "
                f"two points of A")
        used.add(nono[0])
        matched.append(nono[0])
    for b in B:
        nono = [a for a in A if not (space.adj[b] >> a) & 1]
        if len(nono) != 1:
            raise FrameError(
                f"F2 violated: point {b} of B is non-collinear with "
                f"{len(nono)} points of A, expected exactly 1")
    F = space.field
    for side, S in (("A", A), ("B", B)):
        if linalg.rank(F, [space.points[i] for i in S]) != k:
            raise FrameError(f"F3 violated: {side} is not an independent set")
    spanA, spanB = closure(space, A), closure(space, B)
    if perp(space, A).bits & spanB.bits:
        w = next(_iter_bits(perp(space, A).bits & spanB.bits))
        raise FrameError(f"F4 violated: point {w} lies in perp(A) and in <B>")
    if perp(space, B).bits & spanA.bits:
        w = next(_iter_bits(perp(space, B).bits & spanA.bits))
        raise FrameError(f"F4 violated: point {w} lies in perp(B) and in <A>")
    return PartialFrame(space, A, tuple(matched))


def _greedy_maximal_singular(space: PolarSpace, seed_ids):
    """Extend a singular independent chain to a maximal singular subspace."""
    F = space.field
    chain = list(seed_ids)
    span = linalg.rref(F, [space.points[i] for i in chain])
    collin = space.all_bits
    for i in chain:
        collin &= space.adj[i]
    while True:
        found = None
        for p in _iter_bits(collin):
            if not linalg.in_span(F, span, space.points[p]):
                found = p
                break
        if found is None:
            return span
        chain.append(found)
        collin &= space.adj[found]
        span = linalg.rref(F, list(span) + [space.points[found]])


def _points_in_span(space, span_rows) -> int:
    F = space.field
    bits = 0
    for i, v in enumerate(space.points):
        if linalg.in_span(F, span_rows, v):
            bits |= 1 << i
    return bits


def _dfs_disjoint_maximal(space, seed_ids, avoid_bits):
    """First (lowest-index) maximal singular subspace containing the seed
    chain and meeting avoid_bits in no point."""
    F = space.field
    n = space.n
    avoid_ids = list(_iter_bits(avoid_bits))

    def rec(chain, span, collin):
        if len(span) == n:
            return span
        start = chain[-1] + 1 if len(chain) > len(seed_ids) else 0
        for p in _iter_bits(collin >> start << start if start else collin):
            if (avoid_bits >> p) & 1:
                continue
            if linalg.in_span(F, span, space.points[p]):
                continue
            new_span = linalg.rref(F, list(span) + [space.points[p]])
            if any(linalg.in_span(F, new_span, space.points[m]) for m in avoid_ids):
                continue
            got = rec(chain + [p], new_span, collin & space.adj[p])
            if got is not None:
                return got
        return None

    span = linalg.rref(F, [space.points[i] for i in seed_ids])
    collin = space.all_bits
    for i in seed_ids:
        collin &= space.adj[i]
    got = rec(list(seed_ids), span, collin)
    if got is None:
        raise GeometryError("no maximal singular subspace avoids the given one")
    return got


def _solve_in_subspace(F, basis, constraint_rows):
    """Coefficient-space kernel basis for 'x in span(basis), rows(x) = 0'."""
    mat = [tuple(linalg.dot(F, r, bv) for bv in basis) for r in constraint_rows]
    return linalg.right_kernel(F, mat, len(basis))


def _coeff_points(F, kernel, basis):
    """Vectors of the coefficient-kernel subspace, in projective lex order."""
    for coeffs in linalg.projective_reps(F, len(kernel)):
        yield linalg.combine(F, linalg.combine(F, coeffs, kernel), basis)


def extend_frame(space: PolarSpace, fr: PartialFrame) -> PartialFrame:
    """Complete a partial frame to rank n: grow <A> to a maximal singular
    subspace M, find one through <B> disjoint from M, then complete both
    bases by biorthogonal pair chasing with lowest-index tie-breaking."""
    if fr.space is not space:
        raise GeometryError("frame belongs to a different space")
    n = space.n
    if fr.rank == n:
        return fr
    F = space.field
    bil = space.bilinear
    M = _greedy_maximal_singular(space, fr.a)
    M_bits = _points_in_span(space, M)
    N = _dfs_disjoint_maximal(space, fr.b, M_bits)
    a_vecs = [space.points[i] for i in fr.a]
    b_vecs = [space.points[i] for i in fr.b]
    while len(a_vecs) < n:
        w_kernel = _solve_in_subspace(F, M, [bil.functional(bv) for bv in b_vecs])
        x = next(_coeff_points(F, w_kernel, M))
        u_kernel = _solve_in_subspace(F, N, [bil.functional(av) for av in a_vecs])
        y = None
        fx = bil.functional(x)
        for cand in _coeff_points(F, u_kernel, N):
            if linalg.dot(F, fx, cand) != 0:
                y = cand
                break
        if y is None:
            raise GeometryError("biorthogonal completion failed")  # unreachable
        a_vecs.append(x)
        b_vecs.append(y)
    a_ids = tuple(space.index[linalg.normalize_point(F, v)] for v in a_vecs)
    b_ids = tuple(space.index[linalg.normalize_point(F, v)] for v in b_vecs)
    return check_partial_frame(space, a_ids, b_ids)


def find_partial_frame(space: PolarSpace, S, k: int) -> PartialFrame:
    """Lexicographically first rank-k partial frame inside the
    non-degenerate subspace S."""
    S = _require_subspace(space, S)
    if k < 2:
        raise FrameError(f"rank {k} < 2")
    if radical_of_subspace(space, S).bits:
        raise GeometryError("subspace is degenerate: it has a nonempty radical")
    if rank_of(space, S) < k:
        raise GeometryError(f"subspace rank {rank_of(space, S)} < requested {k}")
    F = space.field

    def rec(a_ids, b_ids, spanA, spanB, common_perp):
        if len(a_ids) == k:
            return a_ids, b_ids
        for a in _iter_bits(S.bits & common_perp):
            if linalg.in_span(F, spanA, space.points[a]):
                continue
            for b in _iter_bits(S.bits & common_perp & ~space.adj[a]):
                if linalg.in_span(F, spanB, space.points[b]):
                    continue
                got = rec(a_ids + [a], b_ids + [b],
                          linalg.rref(F, list(spanA) + [space.points[a]]),
                          linalg.rref(F, list(spanB) + [space.points[b]]),
                          common_perp & space.adj[a] & space.adj[b])
                if got is not None:
                    return got
        return None

    got = rec([], [], (), (), space.all_bits)
    if got is None:
        raise GeometryError("no partial frame of the requested rank exists in S")
    return check_partial_frame(space, got[0], got[1])


def sample_partial_frame(space: PolarSpace, k: int, rng) -> PartialFrame | None:
    """One random hyperbolic-chain draw from the whole space; None when
    the draw dead-ends.  Deterministic given the rng state."""
    F = space.field
    a_ids, b_ids = [], []
    spanA, spanB = (), ()
    common = space.all_bits
    for _ in range(k):
        cand_a = [i for i in _iter_bits(common)
                  if not linalg.in_span(F, spanA, space.points[i])]
        if not cand_a:
            return None
        a = rng.choice(cand_a)
        cand_b = [i for i in _iter_bits(common & ~space.adj[a])
                  if not linalg.in_span(F, spanB, space.points[i])]
        if not cand_b:
            return None
        b = rng.choice(cand_b)
        a_ids.append(a)
        b_ids.append(b)
        spanA = linalg.rref(F, list(spanA) + [space.points[a]])
        spanB = linalg.rref(F, list(spanB) + [space.points[b]])
        common &= space.adj[a] & space.adj[b]
    return check_partial_frame(space, a_ids, b_ids)


def frame_span(space: PolarSpace, fr: PartialFrame) -> PointSet:
    """closure(A u B); confirmed non-degenerate of rank = frame rank."""
    if fr.space is not space:
        raise GeometryError("frame belongs to a different space")
    out = closure(space, fr.point_set())
    if radical_of_subspace(space, out).bits:
        raise GeometryError("frame span has a nonempty radical")  # unreachable
    r = rank_of(space, out)
    if r != fr.rank:
        raise GeometryError(f"frame span has rank {r}, expected {fr.rank}")  # unreachable
    return out


# ---------------------------------------------------------------------------
# stars (residues)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StarSpace:
    """The polar space of singular subspaces through a fixed singular R,
    realized as the quotient geometry, with each residue point and line
    mapped back to its point set in the parent space."""

    base: PointSet
    residue: PolarSpace
    members: tuple
    line_members: tuple


def star_space(space: PolarSpace, R) -> StarSpace:
    """The star of the singular subspace R; its residue is smaller than the
    space, so it is built under a cap of the space's point count."""
    Rset = PointSet(space, _bits(space, R))
    if Rset.bits == 0:
        members = tuple(PointSet(space, 1 << i) for i in range(len(space.points)))
        line_members = tuple(PointSet(space, lb) for lb in space.line_bits)
        return StarSpace(Rset, space, members, line_members)
    if not Rset.is_subspace or not Rset.is_singular:
        raise GeometryError("R must be a singular subspace")
    F = space.field
    W = linalg.rref(F, [space.points[i] for i in Rset])
    r = len(W)
    if space.n - r < 2:
        raise GeometryError(f"residual rank {space.n - r} < 2")
    rows = [space.bilinear.functional(w) for w in W]
    wperp = linalg.right_kernel(F, rows, space.dim)
    comp = []
    span = W
    for v in wperp:
        if not linalg.in_span(F, span, v):
            comp.append(v)
            span = linalg.rref(F, list(span) + [v])
    e = len(comp)
    if space.kind == "quadratic":
        U = [[0] * e for _ in range(e)]
        for i in range(e):
            U[i][i] = eval_quadratic(space.form, comp[i])
            for j in range(i + 1, e):
                U[i][j] = eval_form(space.bilinear, comp[i], comp[j])
        from .forms import quadratic_form
        induced = quadratic_form(F, U)
    else:
        g = [[eval_form(space.form, comp[i], comp[j]) for j in range(e)]
             for i in range(e)]
        from .forms import sesquilinear_form
        induced = sesquilinear_form(F, g, space.kind, pair=space.form.pair)
    label = f"{space.label}/star" if space.label else None
    residue = build_polar_space(induced, cap=len(space.points), label=label)
    if residue.n != space.n - r:
        raise GeometryError("residue rank mismatch")  # unreachable
    members = []
    for pvec in residue.points:
        x = linalg.combine(F, pvec, comp)
        bits = 0
        for pt in linalg.subspace_points(F, list(W) + [x]):
            bits |= 1 << space.index[pt]
        members.append(PointSet(space, bits))
    members = tuple(members)
    line_members = tuple(
        PointSet(space, reduce(lambda acc, pid: acc | members[pid].bits, pts, 0))
        for pts in residue.lines
    )
    return StarSpace(Rset, residue, members, line_members)


# ---------------------------------------------------------------------------
# axiom scans and exhaustive subspace enumeration (small spaces)
# ---------------------------------------------------------------------------

def check_one_or_all(space: PolarSpace):
    """First (point, line) pair violating the one-or-all axiom, or None."""
    for li, lb in enumerate(space.line_bits):
        for p in range(len(space.points)):
            if (lb >> p) & 1:
                continue
            c = _popcount(space.adj[p] & lb)
            if c != 1 and c != space.q + 1:
                return (p, li)
    return None


def enumerate_subspaces(space: PolarSpace, limit: int = 2**20):
    """All subspaces as bitsets, by brute force over every point subset."""
    N = len(space.points)
    if 1 << N > limit:
        raise GeometryError(f"2^{N} subsets exceed the enumeration limit")
    line_bits = space.line_bits
    out = []
    for bits in range(1 << N):
        ok = True
        for lb in line_bits:
            inter = lb & bits
            if inter != lb and inter & (inter - 1):
                ok = False
                break
        if ok:
            out.append(bits)
    return out

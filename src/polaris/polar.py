"""Finite classical polar spaces as explicit point-line geometries.

A space is built from a non-degenerate reflexive sesquilinear or
quadratic form: its points are the isotropic/singular projective points
(normalized so the leftmost nonzero coordinate is 1, sorted
lexicographically by coordinate codes) and its lines are the totally
isotropic/singular 2-dimensional vector subspaces, stored as full
point-index tuples.  Collinearity lives in per-point bitsets, with
p in perp(p) by convention, and each point p keeps the bitset of each
line through it less p, so closure, perp and the subspace and
hyperplane tests are pure integer bitset work.
Each collinearity row is the zero set of one functional over all
points (`linalg.zero_set`), and each line is {p, q}^perp^perp of two
of its points, so building a space takes no pairwise vector
arithmetic.  Closure adds nothing from a point whose perp is already in
the set, and can stop at the first point of a set it must avoid.  The
subspace lattice is walked by in/out branching on the highest free
point; its class of outside points joined by lines that meet the
subspace prunes the in-branch before any closure runs, its walk
stopping at the first point already ruled out, and one closure decides
the whole class.  A subspace's out-branches run in one loop and its
in-branches pop lowest first, so the subspaces come out in ascending
order with no sort.  Maximality walks the class first and needs no
closure when S and the class cover the space.  A hyperplane is told by
a double count of point-line incidences over its own points.  Ranks
and frames come from the collinearity bitsets alone: a subspace's rank
is the point count of one greedy clique inside it, and the frame search
and frame check track no spans.

Every point perp is a maximal subspace (Cohen-Shult), so a closure
that holds p^perp and one point off it is the whole space, and closure
stops there.  Each point's fact is certified on its first use, by one
`_line_class` walk of the complement of p^perp, and kept.

Spaces are immutable after construction, apart from two write-once
slots: `_universal`, which `embed.universal_embedding` fills, and the
bitset `_perp_maximal` of the points whose perp is certified maximal,
which only gains bits; a PointSet's subspace flag is write-once too.  A
closure comes out marked as a subspace, and `generating_points` picks a
generating subset of any set on demand.  Everything here is safe to
query concurrently: two threads filling one cache write equal values,
and a certificate bit lost to a concurrent `|=` is only certified again.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .errors import FrameError, GeometryError
from .field import Field
from .forms import (
    QuadraticForm,
    SesquilinearForm,
    isotropic_vector_test,
    polarize,
    radical_of_form,
    radical_of_quadratic,
    sesquilinear_form,
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


class PolarSpace:
    """Points, lines and collinearity of the polar space of a form."""

    __slots__ = ("field", "form", "kind", "bilinear", "dim", "q", "n",
                 "points", "adj", "lines", "lines_at",
                 "all_bits", "is_grid", "label", "_universal", "_perp_maximal")

    def __init__(self, field, form, kind, bilinear, dim, n, points,
                 adj, lines, lines_at, is_grid, label):
        self.field = field
        self.form = form
        self.kind = kind
        self.bilinear = bilinear
        self.dim = dim
        self.q = field.q
        self.n = n
        self.points = points
        self.adj = adj
        self.lines = lines
        self.lines_at = lines_at      # per point p: each line through p, less p
        self.all_bits = (1 << len(points)) - 1
        self.is_grid = is_grid
        self.label = label
        self._universal = None   # write-once cache of embed.universal_embedding
        self._perp_maximal = 0   # points whose perp `_perp_is_maximal` certified

    def __len__(self):
        return len(self.points)

    def __repr__(self):
        name = self.label or f"{self.kind} space"
        return f"<{name}: {len(self.points)} points, {len(self.lines)} lines, rank {self.n}>"


def build_polar_space(form, cap: int | None = None, label: str | None = None) -> PolarSpace:
    """Enumerate the polar space of a non-degenerate form of rank >= 2.

    Collinearity row i is the zero set of f(p_i, -) over all points, and
    the line through collinear p, q is {p, q}^perp^perp, the points
    collinear with every point collinear with both (Buekenhout-Shult),
    so lines take only bitset work."""
    cap = DEFAULT_POINT_CAP if cap is None else cap
    if not isinstance(form, (QuadraticForm, SesquilinearForm)):
        raise GeometryError(f"not a form: {form!r}")
    F: Field = form.field
    d = form.dim
    q = F.q
    if (q**d - 1) // (q - 1) > ENUM_GUARD:
        raise GeometryError("ambient projective space too large to enumerate")
    if isinstance(form, QuadraticForm):
        kind = "quadratic"
        if radical_of_quadratic(form):
            raise GeometryError("degenerate quadratic form (rad(Q) != 0)")
        bilinear = polarize(form)
    else:
        if radical_of_form(form):
            raise GeometryError("degenerate sesquilinear form (rad(f) != 0)")
        if not trace_valued_check(form):
            raise GeometryError(
                "isotropic vectors do not span the ambient space; "
                "the geometry would be degenerate and admits no inclusion embedding"
            )
        if form.kind == "symmetric" and F.char == 2:
            # trace-valued means a zero diagonal here, and (id, 1) is
            # (id, -1): the form is alternating
            form = sesquilinear_form(F, form.gram, "alternating")
        kind = form.kind
        bilinear = form

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
    all_bits = (1 << N) - 1

    slices = linalg.value_slices(F, points)
    adj = tuple(linalg.zero_set(F, slices, bilinear.functional(v), all_bits)
                for v in points)
    for i in range(N):
        if not (adj[i] >> i) & 1:
            raise GeometryError("point not collinear with itself")  # unreachable
        if adj[i] == all_bits:
            raise GeometryError("a point is collinear with every point")  # unreachable

    lines = []
    covered = [0] * N
    for i in range(N):
        todo = (adj[i] >> (i + 1)) << (i + 1)
        todo &= ~covered[i]
        while todo:
            j = (todo & -todo).bit_length() - 1
            lb = all_bits                     # {i, j}^perp^perp
            for x in _iter_bits(adj[i] & adj[j]):
                lb &= adj[x]
            if lb.bit_count() != q + 1:
                raise GeometryError(f"line has {lb.bit_count()} points, expected {q + 1}")
            pts = tuple(_iter_bits(lb))
            lines.append((pts, lb))
            for a in pts:
                covered[a] |= lb
            todo &= ~covered[i]
    lines.sort()   # by point tuple, which no two lines share
    lines_at_mut = [[] for _ in range(N)]
    for pts, lb in lines:
        for a in pts:
            lines_at_mut[a].append(lb & ~(1 << a))
    lines_at = tuple(tuple(ls) for ls in lines_at_mut)
    lines = tuple(pts for pts, _ in lines)

    is_grid = n == 2 and N > 0 and all(len(ls) == 2 for ls in lines_at)
    return PolarSpace(F, form, kind, bilinear, d, n, points,
                      adj, lines, lines_at, is_grid, label)


# ---------------------------------------------------------------------------
# point sets
# ---------------------------------------------------------------------------

class PointSet:
    """A set of point indices of one space, as a bitset, with a
    write-once subspace flag."""

    __slots__ = ("space", "bits", "_subspace")

    def __init__(self, space: PolarSpace, bits: int):
        self.space = space
        self.bits = bits
        self._subspace = None

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
        return self.bits.bit_count()

    def __contains__(self, i):
        return bool((self.bits >> i) & 1)

    def __eq__(self, other):
        return isinstance(other, PointSet) and other.space is self.space \
            and other.bits == self.bits

    def __hash__(self):
        return hash((id(self.space), self.bits))

    def __repr__(self):
        return f"PointSet({list(self.indices())})"

    @property
    def is_subspace(self) -> bool:
        if self._subspace is None:
            self._subspace = is_subspace(self.space, self)
        return self._subspace


def _bits(space, X) -> int:
    if type(X) is int:
        return X
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


def closure(space: PolarSpace, X, closed=0, avoid=0) -> PointSet | None:
    """Least subspace containing X and `closed`, or None when it meets
    the point set `avoid`.

    `closed` must already be a subspace; this is assumed, not checked.
    Every line meeting the set in two points but not contained in it
    then passes through a point outside `closed`, so a worklist of the
    added points visits only their lines (`space.lines_at`).  A popped
    point p whose perp is already in the set adds nothing, since its
    lines lie in its perp; otherwise each line through p that meets the
    set again adds its points of p^perp outside the set.  Lines through
    p meet only at p, so one snapshot of that outside part serves them
    all.  The set only grows, so the starting set and each batch of
    added points are tested against `avoid`, and the walk stops at the
    first that meets it.

    Once the set holds p^perp, whether it did when p was popped or p's
    batch filled it, and also a point off p^perp, the closure is the
    whole space if p's perp is certified maximal (`_perp_is_maximal`):
    the walk stops there and returns the whole space, or None when
    `avoid` is nonempty.  The result is marked as a subspace.
    """
    closed = _bits(space, closed)
    bits = closed | _bits(space, X)
    if bits & avoid:
        return None
    todo = bits & ~closed
    all_bits = space.all_bits
    adj = space.adj
    lines_at = space.lines_at
    while todo and bits != all_bits:
        low = todo & -todo
        todo ^= low
        p = low.bit_length() - 1
        outside = adj[p] & ~bits
        if outside:
            new = 0
            for rest in lines_at[p]:
                if rest & bits:
                    new |= rest & outside
            if not new:
                continue
            if new & avoid:
                return None
            todo |= new
            bits |= new
            if new != outside:
                continue
        if bits & ~adj[p] and _perp_is_maximal(space, p):
            if avoid:
                return None
            bits = all_bits
    out = PointSet(space, bits)
    out._subspace = True
    return out


def generating_points(space: PolarSpace, X) -> list:
    """Indices of a generating subset of X, ascending: the lowest point
    of X outside the running closure, again and again."""
    bits = _bits(space, X)
    gens, span, todo = [], 0, bits
    while todo:
        low = todo & -todo
        gens.append(low.bit_length() - 1)
        span = closure(space, low, span).bits
        todo = bits & ~span
    return gens


def is_subspace(space: PolarSpace, X) -> bool:
    """True iff X is its own closure."""
    bits = _bits(space, X)
    return closure(space, bits).bits == bits


def _require_subspace(space, X) -> PointSet:
    S = X if isinstance(X, PointSet) and X.space is space else PointSet(space, _bits(space, X))
    if not S.is_subspace:
        raise GeometryError("point set is not a subspace")
    return S


def _radical(space: PolarSpace, s: int) -> int:
    """rad(S) = perp(S) intersect S for the subspace bits s: the AND of
    the members' collinearity rows, started at S and stopped once it is
    empty."""
    acc = s
    adj = space.adj
    for i in _iter_bits(s):
        acc &= adj[i]
        if not acc:
            break
    return acc


def radical_of_subspace(space: PolarSpace, S) -> PointSet:
    """rad(S), a singular subspace."""
    return PointSet(space, _radical(space, _require_subspace(space, S).bits))


def _vector_dim(q: int, m: int) -> int:
    """The vector dimension k of a singular subspace of m points, the k
    with m = (q^k - 1)/(q - 1)."""
    k, size, qk = 0, 0, 1
    while size < m:
        size += qk
        qk *= q
        k += 1
    return k


def _greedy_clique(space: PolarSpace, bits: int) -> int:
    """A maximal clique of the collinearity graph inside `bits`, grown
    from the lowest point."""
    clique, allowed = 0, bits
    while allowed:
        low = allowed & -allowed
        clique |= low
        allowed &= space.adj[low.bit_length() - 1] & ~low
    return clique


def rank_of(space: PolarSpace, S) -> int:
    """Polar rank of a subspace: the common vector dimension of its
    maximal singular subspaces, read off the point count of one maximal
    clique of the collinearity graph inside S, grown from the lowest
    point.  Pairwise collinear points of a subspace span a totally
    singular subspace of it, so a maximal clique is a maximal singular
    subspace (Buekenhout-Shult 1974)."""
    clique = _greedy_clique(space, _require_subspace(space, S).bits)
    return _vector_dim(space.q, clique.bit_count())


def rank_nd(space: PolarSpace, S) -> int:
    """rank(S) minus the rank of its radical (0 exactly when S is
    singular); the radical is a singular subspace.  S is validated
    once, and one greedy clique gives its rank: a clique that is all of
    S makes S singular, its own radical, and the result 0 with no
    radical walk."""
    s = _require_subspace(space, S).bits
    clique = _greedy_clique(space, s)
    if clique == s:
        return 0
    return _vector_dim(space.q, clique.bit_count()) \
        - _vector_dim(space.q, _radical(space, s).bit_count())


# ---------------------------------------------------------------------------
# hyperplanes and maximality
# ---------------------------------------------------------------------------

def _require_proper_subspace(space, X) -> PointSet:
    S = _require_subspace(space, X)
    if S.bits == space.all_bits:
        raise GeometryError("subspace is improper (the whole point set)")
    return S


def is_hyperplane(space: PolarSpace, S) -> bool:
    """True iff the proper subspace S meets every line, by a double
    count over the points of S.  A line through a point p outside S
    meets S at most once (see `_line_class`), so p^perp n S has at most
    as many points as there are lines through p, with equality for
    every p exactly when S is a hyperplane.  Counting the collinear
    pairs across S from S's side, and adding the incidences of S's own
    points, gives at most the space's point-line incidences,
    len(lines) * (q + 1), and exactly that for a hyperplane."""
    s = _require_proper_subspace(space, S).bits
    adj, lines_at = space.adj, space.lines_at
    out = ~s
    total = 0
    for x in _iter_bits(s):
        total += (adj[x] & out).bit_count() + len(lines_at[x])
    return total == len(space.lines) * (space.q + 1)


def _line_class(space: PolarSpace, s_bits: int, p: int, avoid=0) -> int:
    """The points outside the subspace S reached from the outside point p
    along lines that meet S, p included.  If p and x lie outside S on a
    line that meets S at h, that line is <p, h> = <x, h>, so
    closure(S u p) = closure(S u x): one closure decides the whole class.

    A line through a point f outside a subspace S meets S at most once,
    so each point of m = f^perp n S lies on exactly one line through f,
    and m counts the lines through f that meet S.  When it counts them
    all, the points f reaches are f^perp outside S, the union of its
    lines: one AND.  Otherwise only the lines through f that meet m are
    walked.  m is never empty: a start point that sees no point of S is
    its own class and returns at once, and every later point was reached
    along a line that meets S, so it sees that line's point of S.  The
    walk ends once no outside point is left to reach.

    With `avoid`, the walk stops at the first batch of reached points
    that meets it and returns what it has reached, that batch included:
    a part of the class that holds p.  Each member x has p in
    closure(S u x), so such a part meets `avoid` exactly when the whole
    class does, and can be ruled out together with p."""
    adj = space.adj
    if not adj[p] & s_bits:
        return 1 << p
    lines_at = space.lines_at
    cls = frontier = 1 << p
    within = space.all_bits & ~s_bits & ~cls
    while frontier and within:
        low = frontier & -frontier
        frontier ^= low
        f = low.bit_length() - 1
        m = adj[f] & s_bits
        through = lines_at[f]
        if m.bit_count() == len(through):
            new = adj[f] & within
        else:
            new = 0
            for lb in through:
                if lb & m:
                    new |= lb & within
        if new:
            cls |= new
            if new & avoid:
                return cls
            frontier |= new
            within ^= new
    return cls


def _perp_is_maximal(space: PolarSpace, p: int) -> bool:
    """Whether p's perp is certified maximal: closure(p^perp u y) is the
    whole space for every point y off p^perp.  The certificate runs on
    the first call for p and is remembered in the write-once bitset
    `space._perp_maximal`.  Only a `PolarSpace` is certified; any other
    geometry gets False.

    Every p^perp is a maximal subspace, a geometric hyperplane with a
    connected complement (A. M. Cohen, E. E. Shult, "Affine polar
    spaces", Geom. Dedicata 1990).  The certificate checks this for p:
    every line meets p^perp, since a line is a totally singular 2-space
    and p^perp the zero set of one functional, so p^perp is a hyperplane,
    and the `_line_class` of the lowest point x off it lies in
    closure(p^perp u x).  When that class covers the complement, every y
    off p^perp is in it and has closure(p^perp u y) = closure(p^perp u x),
    which holds p^perp and the whole class: the whole space.  A point
    whose class fell short would never be certified, and closure would
    take no shortcut there.  A `|=` lost to a concurrent one drops a bit,
    never adds one, so that point is only certified again later."""
    if not isinstance(space, PolarSpace):
        return False
    if space._perp_maximal >> p & 1:
        return True
    h = space.adj[p]
    off = space.all_bits & ~h
    if h | _line_class(space, h, (off & -off).bit_length() - 1) != space.all_bits:
        return False
    space._perp_maximal |= 1 << p
    return True


def is_maximal_subspace(space: PolarSpace, S) -> bool:
    """True iff closure(S u p) is the whole space for the lowest point p
    of each `_line_class` of S.  Every subspace T above S contains one
    of these closures: closure(S u p) lies in T for p in T - S.

    Each class member x has closure(S u x) = closure(S u p), so that
    closure holds S and the whole class, and equals closure(S u class).
    The class is walked first, and a closure runs only when S and the
    class leave points outside.  For a hyperplane S, S u class(p) is
    itself a subspace, since a line off S meets S once and its q >= 2
    outside points share a class; so a hyperplane is maximal exactly
    when its outside is one class, and no closure runs."""
    s = _require_proper_subspace(space, S).bits
    all_bits = space.all_bits
    todo = all_bits & ~s
    while todo:
        p = (todo & -todo).bit_length() - 1
        cls = _line_class(space, s, p)
        if s | cls != all_bits and closure(space, cls, s).bits != all_bits:
            return False
        todo &= ~cls
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
    """Validate F1/F2 and match B to A.

    Once each a is non-collinear with exactly one b, and no b with two
    points of A, a -> b is a bijection, so each b is non-collinear with
    exactly one a.  F3 and F4 follow: a vector sum c_i a_i orthogonal to
    every b_j has f(sum c_i a_i, b_j) = sigma(c_j) f(a_j, b_j) = 0 with
    f(a_j, b_j) != 0, so every c_j is 0.  Hence A is independent and
    perp(B) misses <A>, and likewise with A and B swapped."""
    A, B = tuple(A), tuple(B)
    PointSet.of(space, A + B)   # the point-index range check
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
    return PartialFrame(space, A, tuple(matched))


def _frame_search(space: PolarSpace, within: int, k: int, a_ids=(), b_ids=()):
    """Lexicographically first rank-k chain of pairs inside the
    non-degenerate subspace `within` that extends the partial frame
    (a_ids, b_ids), as (A, B) lists.

    Each step takes the lowest a in the common perp, then the lowest b
    there not collinear with a.  The common perp never meets <A> or <B>
    (see `check_partial_frame`), so no span needs tracking.  It never
    backtracks: in a non-degenerate polar space of rank r the perp of a
    non-collinear pair is non-degenerate of rank r - 1 (Buekenhout-Shult
    1974), so while fewer than rank(within) pairs are taken the common
    perp is non-degenerate and non-empty, and its lowest point has a
    non-collinear partner there."""
    a_ids, b_ids = list(a_ids), list(b_ids)
    common = within & perp(space, a_ids + b_ids).bits
    while len(a_ids) < k:
        a = (common & -common).bit_length() - 1
        far = common & ~space.adj[a]   # also 0 when common is empty
        if not far:
            raise GeometryError(f"no rank-{k} partial frame here")  # unreachable
        b = (far & -far).bit_length() - 1
        a_ids.append(a)
        b_ids.append(b)
        common &= space.adj[a] & space.adj[b]
    return a_ids, b_ids


def extend_frame(space: PolarSpace, fr: PartialFrame) -> PartialFrame:
    """Complete a partial frame to rank n: the lexicographically first
    rank-n frame of the space whose first pairs are fr's, found by the
    search of `find_partial_frame` started from fr's pairs."""
    if fr.space is not space:
        raise GeometryError("frame belongs to a different space")
    if fr.rank == space.n:
        return fr
    return check_partial_frame(
        space, *_frame_search(space, space.all_bits, space.n, fr.a, fr.b))


def find_partial_frame(space: PolarSpace, S, k: int) -> PartialFrame:
    """Lexicographically first rank-k partial frame inside the
    non-degenerate subspace S."""
    S = _require_subspace(space, S)
    if k < 2:
        raise FrameError(f"rank {k} < 2")
    if radical_of_subspace(space, S).bits:
        raise GeometryError("subspace is degenerate: it has a nonempty radical")
    r = rank_of(space, S)
    if r < k:
        raise GeometryError(f"subspace rank {r} < requested {k}")
    return check_partial_frame(space, *_frame_search(space, S.bits, k))


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
# the subspace lattice, walked by in/out branching
# ---------------------------------------------------------------------------

def enumerate_subspaces(space: PolarSpace) -> list:
    """Every subspace, ascending by bits.

    A stack holds pairs (S, E): S is a subspace and E the points ruled
    out, disjoint from S; the pair stands for the subspaces above S that
    miss E.  The highest point p outside S u E splits them by whether
    they hold p.  Those without p miss the whole `_line_class` of p,
    since each member x has p in closure(S u x), so any part of the
    class that holds p may join E; those with p contain closure(S u p),
    which holds the class, so they exist only when the class misses E.
    The class is walked first, stopping at the first batch of its points
    that meets E, and only a class that misses E is closed with S,
    again stopping at the first batch of points that meets E.  The two
    branches split the subspaces above S, so each is reached exactly
    once: the in/out branching behind prefix-preserving closure
    extension (T. Uno, M. Kiyomi, H. Arimura, "LCM ver. 2", FIMI 2004).

    The out-branch keeps S and only grows E, so a popped pair runs its
    out-branches in one loop: S is listed at once, and the loop splits
    on the highest free point again until none is left, pushing each
    in-branch.  Every point above p is in S or E, so each subspace
    without p lies below each one with p; the in-branch pushed last
    pops first, and the subspaces come out ascending with no sort.  The
    members are `closure` results, so they come marked as subspaces."""
    all_bits = space.all_bits
    found, todo = [], [(closure(space, 0), 0)]
    while todo:
        S, E = todo.pop()
        found.append(S)
        s = S.bits
        free = all_bits & ~s & ~E
        while free:
            cls = _line_class(space, s, free.bit_length() - 1, E)
            if not cls & E:
                T = closure(space, cls, s, E)
                if T is not None:
                    todo.append((T, E))
            E |= cls
            free &= ~cls
    return found

"""Independent brute-force oracles shared by the unit and acceptance tests.

These deliberately avoid the library's adjacency bitsets, normalized-rep
enumeration and line construction: points come from a full vector sweep,
lines from checking every vector of every candidate 2-space, ranks
from orthogonality evaluated on the form, subspaces from a scan of every
point subset, and closures from sweeping lines until nothing changes.
Form values come from the stored gram or upper-triangular matrix by
field operations alone; of the library only `linalg.rref` (for vector
ranks) and `linalg.normalize_point` are used.
"""

from itertools import combinations, product

from polaris import linalg


def vec_add(F, u, v):
    return tuple(F.add(a, b) for a, b in zip(u, v))


def vec_scale(F, u, t):
    return tuple(F.mul(a, t) for a in u)


def span_vectors(F, basis):
    """All vectors of the row span of basis, zero included: one linear
    combination per coefficient tuple."""
    if not basis:
        return [()]
    out = []
    for coeffs in product(range(F.q), repeat=len(basis)):
        v = [0] * len(basis[0])
        for c, row in zip(coeffs, basis):
            v = [F.add(a, F.mul(c, b)) for a, b in zip(v, row)]
        out.append(tuple(v))
    return out


def form_value(form, x, y):
    """f(x, y) = sum_ij sigma(x_i) G_ij y_j of a sesquilinear form, from
    its gram matrix G; sigma is t -> t^sqrt(q) for hermitian forms and
    the identity otherwise.  Zero terms are skipped."""
    F = form.field
    e = F.p ** (F.k // 2) if form.kind == "hermitian" else 1
    acc = 0
    for xi, row in zip(x, form.gram):
        if xi:
            sx = F.pow(xi, e)
            for g, yj in zip(row, y):
                if g and yj:
                    acc = F.add(acc, F.mul(F.mul(sx, g), yj))
    return acc


def quadratic_value(form, x):
    """Q(x) = sum_{i <= j} x_i U_ij x_j of a quadratic form, from its
    upper-triangular matrix U.  Zero terms are skipped."""
    F = form.field
    acc = 0
    for i, xi in enumerate(x):
        if xi:
            row = form.upper[i]
            for j in range(i, len(x)):
                if row[j] and x[j]:
                    acc = F.add(acc, F.mul(F.mul(xi, row[j]), x[j]))
    return acc


def is_singular(form, v):
    """Q(v) = 0 for a quadratic form, f(v, v) = 0 for a sesquilinear one."""
    if hasattr(form, "upper"):
        return quadratic_value(form, v) == 0
    return form_value(form, v, v) == 0


def is_orthogonal(form, u, v):
    """f(u, v) = 0; a quadratic form's f is Q(u + v) - Q(u) - Q(v)."""
    if hasattr(form, "upper"):
        F = form.field
        return quadratic_value(form, vec_add(F, u, v)) == \
            F.add(quadratic_value(form, u), quadratic_value(form, v))
    return form_value(form, u, v) == 0


def oracle_points_and_lines(form):
    F, d = form.field, form.dim
    quadratic = hasattr(form, "upper")
    pts = set()
    for v in product(range(F.q), repeat=d):
        if any(v) and is_singular(form, v):
            pts.add(linalg.normalize_point(F, v))
    pts = sorted(pts)
    lines = set()
    for u, v in combinations(pts, 2):
        if len(linalg.rref(F, [u, v])) != 2:
            continue
        vecs = span_vectors(F, [u, v])
        if quadratic:
            totally = all(is_singular(form, w) for w in vecs)
        else:
            totally = all(form_value(form, x, y) == 0 for x in vecs for y in vecs)
        if totally:
            line = frozenset(linalg.normalize_point(F, w) for w in vecs if any(w))
            lines.add(line)
    return pts, lines



def oracle_line_meetings(lines, zeros):
    """(split, missed) as bitsets over the indices of `zeros`, each a set
    of point vectors: bit i of split is set when zeros[i] meets some line
    in two or more points without holding it, bit i of missed when it
    meets some line in no point.  Every line is intersected with every
    set; `lines` takes the shape `oracle_points_and_lines` returns."""
    split = missed = 0
    for i, zero in enumerate(zeros):
        for line in lines:
            met = len(line & zero)
            if 2 <= met < len(line):
                split |= 1 << i
            if not met:
                missed |= 1 << i
    return split, missed

def oracle_span_points(F, basis):
    """Sorted normalized projective points of the row span of basis, by
    enumerating every vector of the span."""
    pts = set()
    for v in span_vectors(F, basis):
        nv = linalg.normalize_point(F, v)
        if nv is not None:
            pts.add(nv)
    return sorted(pts)


def oracle_trace_valued(form):
    """Whether f(x, x) is a trace t + sigma(t) epsilon for every vector
    x, by evaluating f(x, x) on every vector.  The pair comes from the
    kind alone: sigma is t -> t^(p^(k/2)) for hermitian forms and the
    identity otherwise, epsilon is -1 for alternating forms and 1
    otherwise."""
    F = form.field
    e = F.p ** (F.k // 2) if form.kind == "hermitian" else 1
    eps = F.neg(1) if form.kind == "alternating" else 1
    traces = {F.add(t, F.mul(F.pow(t, e), eps)) for t in F.elements()}
    return all(form_value(form, x, x) in traces
               for x in product(range(F.q), repeat=form.dim))


def oracle_subspaces(form):
    """Every subspace as a bitset over the oracle's points, ascending, by
    testing each of the 2^N point subsets against every oracle line."""
    pts, lines = oracle_points_and_lines(form)
    pos = {p: i for i, p in enumerate(pts)}
    line_bits = [sum(1 << pos[p] for p in line) for line in lines]
    out = []
    for bits in range(1 << len(pts)):
        for lb in line_bits:
            inter = lb & bits
            if inter != lb and inter & (inter - 1):
                break
        else:
            out.append(bits)
    return out


def line_bits(space):
    """The bitset of each line of a library space, in its line order."""
    return [sum(1 << p for p in pts) for pts in space.lines]


def oracle_closure(line_bits, bits):
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


def oracle_grow_to_maximal(line_bits, all_bits, bits):
    """Grow the proper subspace `bits` by closure steps, each time by the
    lowest outside point whose closure stays proper, restarting the scan
    from the lowest point after every step, until no point is left."""
    while True:
        for p in range(all_bits.bit_length()):
            if not (bits >> p) & 1:
                grown = oracle_closure(line_bits, bits | 1 << p)
                if grown != all_bits:
                    bits = grown
                    break
        else:
            return bits


def oracle_line_class(line_bits, all_bits, s_bits, p):
    """The points outside S reached from the outside point p, p included,
    by a breadth-first search that steps along every line meeting S."""
    meeting = [lb for lb in line_bits if lb & s_bits]
    cls, queue = 1 << p, [p]
    while queue:
        x = queue.pop(0)
        for lb in meeting:
            if (lb >> x) & 1:
                new = lb & all_bits & ~s_bits & ~cls
                cls |= new
                queue += [y for y in range(all_bits.bit_length()) if (new >> y) & 1]
    return cls


def oracle_saturation(orth, p):
    """Maximal set of pairwise non-orthogonal points grown from p, each
    time by the lowest point orthogonal to no chosen point, rescanning
    every point after each step.  orth[i] contains i."""
    masks = [sum(1 << j for j in o) for o in orth]
    bits = 1 << p
    while True:
        free = [j for j in range(len(orth)) if not masks[j] & bits]
        if not free:
            return bits
        bits |= 1 << free[0]


def oracle_orthogonality(form, points):
    """orth[i]: the indices j with points i and j orthogonal, by direct
    evaluation of `is_orthogonal`."""
    return [{j for j, v in enumerate(points) if is_orthogonal(form, u, v)}
            for u in points]


def oracle_noncollinear_sets(orth, k):
    """Every k-set of pairwise non-orthogonal points, as ascending index
    tuples, by testing every pair of every k-subset; two distinct points
    are collinear exactly when they are orthogonal.  `orth` takes the
    shape `oracle_orthogonality` returns."""
    return [c for c in combinations(range(len(orth)), k)
            if all(j not in orth[i] for i, j in combinations(c, 2))]


def oracle_one_or_all(form, points, lines):
    """First (point, line) pair breaking the one-or-all axiom, or None: a
    point off a line is orthogonal to exactly one of its points or to all
    of them.  `points` and `lines` take the shape `oracle_points_and_lines`
    returns, lines as sets of point vectors; orthogonality comes from
    `oracle_orthogonality`."""
    orth = oracle_orthogonality(form, points)
    pos = {v: i for i, v in enumerate(points)}
    q = form.field.q
    for line in lines:
        on = {pos[v] for v in line}
        for p in range(len(points)):
            c = len(on & orth[p])
            if p not in on and c != 1 and c != q + 1:
                return points[p], line
    return None


def oracle_rank(F, points, orth, ids):
    """(rank, rank_nd) of the subspace on `ids`: the largest vector rank
    of a pairwise-orthogonal subset, by a search over all such subsets
    (ranks taken at the maximal ones), minus that of its radical, the
    members orthogonal to every member."""
    def largest(members):
        best = 0

        def grow(clique, common):
            nonlocal best
            if common == set(clique):
                best = max(best, len(linalg.rref(F, [points[i] for i in clique])))
            for j in sorted(common):
                if not clique or j > clique[-1]:
                    grow(clique + [j], common & orth[j])

        grow([], set(members))
        return best

    ids = set(ids)
    radical = {i for i in ids if ids <= orth[i]}
    rank = largest(ids)
    return rank, rank - largest(radical)


def oracle_coatoms(subspaces, all_bits):
    """The maximal proper subspaces, by definition: the proper members of
    `subspaces` (which must list every subspace) that no other proper
    member strictly contains."""
    proper = [s for s in subspaces if s != all_bits]
    return {s for s in proper
            if not any(t != s and t & s == s for t in proper)}


def oracle_is_frame(F, points, orth, A, B):
    """Whether (A, B), with a_i opposite b_i, passes the frame axioms
    F1-F4, checked directly on the vectors and orthogonality."""
    def span_points(ids):
        basis = [points[i] for i in ids]
        r = len(linalg.rref(F, basis))
        return {j for j, v in enumerate(points) if len(linalg.rref(F, basis + [v])) == r}

    k = len(A)
    if len(set(A) | set(B)) != 2 * k:
        return False
    # F1: each side pairwise orthogonal
    if any(j not in orth[i] for S in (A, B) for i in S for j in S):
        return False
    # F2: a_i orthogonal to b_j exactly when i != j
    if any((B[j] in orth[A[i]]) != (i != j) for i in range(k) for j in range(k)):
        return False
    # F3: each side independent
    if any(len(linalg.rref(F, [points[i] for i in S])) != k for S in (A, B)):
        return False
    # F4: perp(A) misses <B> and perp(B) misses <A>
    for S, T in ((A, B), (B, A)):
        if set.intersection(*(orth[i] for i in S)) & span_points(T):
            return False
    return True


def oracle_frame_completion(F, points, orth, n, a_ids, b_ids, within=None):
    """The lexicographically first rank-n partial frame whose first pairs
    are (a_ids, b_ids) and whose other points lie in `within` (default:
    every point), as (A, B) tuples with a_i opposite b_i, or None.  Pairs
    (a, b) are tried in lexicographic order of point index, and a pair is
    kept while the extended sets pass `oracle_is_frame`; dead ends
    backtrack."""
    within = sorted(range(len(points)) if within is None else within)

    def rec(A, B):
        if len(A) == n:
            return A, B
        for a in within:
            for b in within:
                if oracle_is_frame(F, points, orth, A + (a,), B + (b,)):
                    got = rec(A + (a,), B + (b,))
                    if got is not None:
                        return got
        return None

    return rec(tuple(a_ids), tuple(b_ids))


def oracle_witt(form):
    """Largest vector rank of a totally isotropic/singular subspace, by a
    search over every ascending chain of singular points that stay
    pairwise orthogonal (under the polarization of a quadratic form) and
    independent.  Points come from a sweep of every vector.  The search
    stops once a chain reaches d // 2, which no totally isotropic/singular
    subspace of a non-degenerate form exceeds."""
    F, d = form.field, form.dim
    reps = sorted({linalg.normalize_point(F, v) for v in product(range(F.q), repeat=d)
                   if any(v) and is_singular(form, v)})
    best = 0

    def extend(chain, start):
        nonlocal best
        best = max(best, len(chain))
        for idx in range(start, len(reps)):
            if best == d // 2:
                return
            v = reps[idx]
            if all(is_orthogonal(form, u, v) for u in chain) \
                    and len(linalg.rref(F, chain + [v])) > len(chain):
                extend(chain + [v], idx + 1)

    extend([], 0)
    return best

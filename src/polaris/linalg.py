"""Dense exact linear algebra over a Field.

Vectors are tuples of element codes; matrices are tuples of row
vectors.  Everything is deterministic: reduced row echelon form uses
leftmost pivots and unit pivot entries, so bases are bit-exact.
"""

from __future__ import annotations

from .field import Field


def vec_add(F: Field, u, v):
    return tuple(F.add(a, b) for a, b in zip(u, v))


def vec_sub(F: Field, u, v):
    return tuple(F.sub(a, b) for a, b in zip(u, v))


def vec_scale(F: Field, u, t: int):
    return tuple(F.mul(a, t) for a in u)


def dot(F: Field, u, v) -> int:
    """Sum of the products u_i v_i."""
    acc = 0
    for a, b in zip(u, v):
        if a and b:
            acc = F.add(acc, F.mul(a, b))
    return acc


def combine(F: Field, coeffs, rows):
    """Sum of c * row over paired coefficients and rows; rows must be nonempty."""
    v = (0,) * len(rows[0])
    for c, row in zip(coeffs, rows):
        if c:
            v = vec_add(F, v, vec_scale(F, row, c))
    return v


def is_zero_vec(v) -> bool:
    return all(a == 0 for a in v)


def rref(F: Field, rows):
    """Reduced row echelon form; zero rows dropped, rows in pivot order."""
    work = [list(r) for r in rows if not is_zero_vec(r)]
    if not work:
        return ()
    ncols = len(work[0])
    r = 0
    for col in range(ncols):
        piv = None
        for i in range(r, len(work)):
            if work[i][col]:
                piv = i
                break
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        t = F.inv(work[r][col])
        if t != 1:
            work[r] = [F.mul(a, t) for a in work[r]]
        for i in range(len(work)):
            if i != r and work[i][col]:
                c = work[i][col]
                work[i] = [F.sub(a, F.mul(b, c)) for a, b in zip(work[i], work[r])]
        r += 1
        if r == len(work):
            break
    return tuple(tuple(row) for row in work[:r] if not is_zero_vec(row))


def pivots(rows):
    """Pivot column of each row of an RREF matrix."""
    out = []
    for row in rows:
        for j, a in enumerate(row):
            if a:
                out.append(j)
                break
    return tuple(out)


def reduce_mod(F: Field, rref_rows, v):
    """Eliminate the pivot coordinates of v against an RREF basis."""
    w = list(v)
    for row in rref_rows:
        for j, a in enumerate(row):
            if a:
                break
        c = w[j]
        if c:
            w = [F.sub(x, F.mul(y, c)) for x, y in zip(w, row)]
    return tuple(w)


def in_span(F: Field, rref_rows, v) -> bool:
    return is_zero_vec(reduce_mod(F, rref_rows, v))


def rank(F: Field, rows) -> int:
    return len(rref(F, rows))


def transpose(rows):
    return tuple(zip(*rows)) if rows else ()


def right_kernel(F: Field, rows, ncols: int):
    """RREF basis of {x : A x = 0}, one vector per free column."""
    R = rref(F, rows)
    piv = pivots(R)
    pivset = set(piv)
    basis = []
    for free in range(ncols):
        if free in pivset:
            continue
        x = [0] * ncols
        x[free] = 1
        for i, pc in enumerate(piv):
            x[pc] = F.neg(R[i][free])
        basis.append(tuple(x))
    return tuple(basis)


def left_kernel(F: Field, rows):
    """Basis of {w : w A = 0} for an m x n matrix given as m rows."""
    if not rows:
        return ()
    return right_kernel(F, transpose(rows), len(rows))


def normalize_point(F: Field, v):
    """Scale so the leftmost nonzero coordinate is 1; None for the zero vector."""
    for a in v:
        if a:
            if a == 1:
                return tuple(v)
            t = F.inv(a)
            return tuple(F.mul(x, t) for x in v)
    return None


def projective_reps(F: Field, dim: int):
    """All normalized projective representatives, in ascending lex order."""
    from itertools import product
    q = F.q
    for lead in range(dim - 1, -1, -1):
        head = (0,) * lead + (1,)
        for tail in product(range(q), repeat=dim - 1 - lead):
            yield head + tail


def subspace_vectors(F: Field, basis):
    """All vectors of the row span of basis (including zero)."""
    from itertools import product
    if not basis:
        return [()]
    return [combine(F, coeffs, basis)
            for coeffs in product(range(F.q), repeat=len(basis))]


def subspace_points(F: Field, basis):
    """Sorted normalized projective points of the row span of basis."""
    pts = set()
    for v in subspace_vectors(F, basis):
        nv = normalize_point(F, v)
        if nv is not None:
            pts.add(nv)
    return sorted(pts)

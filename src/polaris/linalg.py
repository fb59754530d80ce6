"""Dense exact linear algebra over a Field.

Vectors are tuples of element codes; matrices are tuples of row
vectors.  Everything is deterministic: reduced row echelon form uses
leftmost pivots and unit pivot entries, so bases are bit-exact.

Every "which of these vectors does a functional kill" question goes
through one bitset kernel: `value_slices` indexes a vector list once by
coordinate value, and `zero_set` answers the question for all of them
at once.  Polar spaces use it for collinearity rows, embeddings for
preimages and for their dual table of hyperplanes.
"""

from __future__ import annotations

from .field import Field


def combine(F: Field, coeffs, rows):
    """Sum of c * row over paired coefficients and rows; rows must be nonempty."""
    v = [0] * len(rows[0])
    for c, row in zip(coeffs, rows):
        if c:
            v = [F.add(a, F.mul(b, c)) for a, b in zip(v, row)]
    return tuple(v)


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
                work[i] = [F.sub(a, F.mul(b, c)) if b else a
                           for a, b in zip(work[i], work[r])]
        r += 1
        if r == len(work):
            break
    return tuple(tuple(row) for row in work[:r])


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
    for row, j in zip(rref_rows, pivots(rref_rows)):
        c = w[j]
        if c:
            w = [F.sub(x, F.mul(y, c)) for x, y in zip(w, row)]
    return tuple(w)


def in_span(F: Field, rref_rows, v) -> bool:
    return is_zero_vec(reduce_mod(F, rref_rows, v))


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


def value_slices(F: Field, vectors) -> tuple:
    """slices[j][c]: the bitset of the vectors whose coordinate j is c."""
    table = [[0] * F.q for _ in range(len(vectors[0]))]
    for i, v in enumerate(vectors):
        bit = 1 << i
        for row, c in zip(table, v):
            row[c] |= bit
    return tuple(tuple(row) for row in table)


def zero_set(F: Field, slices, a, within: int) -> int:
    """Bitset of the vectors of `within` that the functional a kills, for
    every vector at once, given their `value_slices`.

    cls[s] holds the vectors whose partial sum of a_j v_j over the
    coordinates seen so far is s; each nonzero a_j moves the vectors with
    v_j = c from class s to class s + a_j c.  Only the field's addition
    table and multiplication are used, so every GF(q) takes this path."""
    q, add = F.q, F._add
    cls = [0] * q
    cls[0] = within
    for j, aj in enumerate(a):
        if not aj:
            continue
        new = [0] * q
        for c, sl in enumerate(slices[j]):
            if not sl:
                continue
            t = F.mul(aj, c)
            for s, members in enumerate(cls):
                hit = members & sl
                if hit:
                    new[add[s * q + t]] |= hit
        cls = new
    return cls[0]

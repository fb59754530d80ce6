"""Reflexive sesquilinear and quadratic forms over small finite fields.

A sesquilinear form is stored as a d x d gram matrix G and its kind,
which fixes the admissible pair (sigma, epsilon) (`kind_pair`):

    f(x, y) = sum_ij sigma(x_i) * G[i][j] * y_j

and reflexivity means G[j][i] = sigma(G[i][j]) * epsilon.  A quadratic
form is stored as an upper-triangular matrix U (entries strictly below
the diagonal are zero) with

    Q(x) = sum_{i <= j} x_i * U[i][j] * x_j.

Upper-triangular storage keeps characteristic-2 data unambiguous: a
symmetric gram matrix cannot represent a quadratic form there.

All form objects are immutable after validation and freely shareable.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .errors import FormError
from .field import Field

KINDS = ("alternating", "symmetric", "hermitian")


def kind_pair(F: Field, kind: str) -> tuple:
    """The admissible pair (m, epsilon), sigma: t -> t^(p^m), of a form of
    the given kind over F.  Up to a scalar a reflexive form over a finite
    field is one of three kinds, and each kind has one pair (Taylor 1992):
    (0, -1) alternating, (k/2, 1) hermitian, i.e. t -> t^sqrt(q), and
    (0, 1) otherwise: symmetric, and the unused pair of quadratic specs."""
    if kind == "alternating":
        return 0, F.minus_one
    if kind != "hermitian":
        return 0, 1
    if F.k % 2 != 0:
        raise FormError(f"GF({F.q}) admits no hermitian involution")
    return F.k // 2, 1


@dataclass(frozen=True)
class SesquilinearForm:
    field: Field
    dim: int
    sigma: int  # the exponent m of sigma: t -> t^(p^m)
    gram: tuple
    kind: str

    @property
    def epsilon(self) -> int:
        return kind_pair(self.field, self.kind)[1]

    def functional(self, u):
        """Row c with f(u, y) = sum_j c[j] y_j (linear in y)."""
        F, m = self.field, self.sigma
        su = [F.frob(x, m) for x in u]
        return tuple(_dot(F, su, col) for col in zip(*self.gram))

    def __repr__(self):
        return f"<{self.kind} form on GF({self.field.q})^{self.dim}>"


def _dot(F, row, v) -> int:
    acc = 0
    for a, b in zip(row, v):
        if a and b:
            acc = F.add(acc, F.mul(a, b))
    return acc


def sesquilinear_form(F: Field, gram, kind: str) -> SesquilinearForm:
    """Validate and freeze a reflexive sesquilinear form of the given kind."""
    if kind not in KINDS:
        raise FormError(f"unknown sesquilinear kind {kind!r}")
    d = len(gram)
    gram = tuple(tuple(F.check_code(x) for x in row) for row in gram)
    if any(len(row) != d for row in gram):
        raise FormError("gram matrix is not square")
    m, eps = kind_pair(F, kind)
    if kind == "alternating":
        for i in range(d):
            if gram[i][i] != 0:
                raise FormError(f"alternating form has nonzero diagonal entry at ({i},{i})")
    for i in range(d):
        for j in range(d):
            want = F.mul(F.frob(gram[i][j], m), eps)
            if gram[j][i] != want:
                raise FormError(
                    f"reflexivity fails at ({j},{i}): have {gram[j][i]}, need {want}"
                )
    return SesquilinearForm(F, d, m, gram, kind)


def eval_form(f: SesquilinearForm, x, y) -> int:
    F = f.field
    if len(x) != f.dim or len(y) != f.dim:
        raise FormError(f"vector length != dim {f.dim}")
    m = f.sigma
    acc = 0
    for i, xi in enumerate(x):
        if not xi:
            continue
        sxi = F.frob(xi, m)
        row = f.gram[i]
        for j, yj in enumerate(y):
            if yj and row[j]:
                acc = F.add(acc, F.mul(F.mul(sxi, row[j]), yj))
    return acc


@dataclass(frozen=True)
class QuadraticForm:
    field: Field
    dim: int
    upper: tuple

    def __repr__(self):
        return f"<quadratic form on GF({self.field.q})^{self.dim}>"


def quadratic_form(F: Field, upper) -> QuadraticForm:
    d = len(upper)
    upper = tuple(tuple(F.check_code(x) for x in row) for row in upper)
    if any(len(row) != d for row in upper):
        raise FormError("coefficient matrix is not square")
    for i in range(d):
        for j in range(i):
            if upper[i][j] != 0:
                raise FormError(f"nonzero entry below the diagonal at ({i},{j})")
    return QuadraticForm(F, d, upper)


def eval_quadratic(Q: QuadraticForm, x) -> int:
    F = Q.field
    if len(x) != Q.dim:
        raise FormError(f"vector length != dim {Q.dim}")
    acc = 0
    for i, xi in enumerate(x):
        if not xi:
            continue
        row = Q.upper[i]
        for j in range(i, Q.dim):
            if row[j] and x[j]:
                acc = F.add(acc, F.mul(F.mul(xi, row[j]), x[j]))
    return acc


def polarize(Q: QuadraticForm) -> SesquilinearForm:
    """The bilinear form f(x,y) = Q(x+y) - Q(x) - Q(y), gram U + U^T.

    Alternating in characteristic 2 (the diagonal doubles away),
    symmetric otherwise.
    """
    F, d = Q.field, Q.dim
    g = [[0] * d for _ in range(d)]
    for i in range(d):
        for j in range(d):
            g[i][j] = F.add(Q.upper[i][j] if j >= i else 0,
                            Q.upper[j][i] if i >= j else 0)
    kind = "alternating" if F.char == 2 else "symmetric"
    return sesquilinear_form(F, g, kind)


def radical_of_form(f: SesquilinearForm):
    """RREF basis of {v : f(v, x) = 0 for all x}; empty iff non-degenerate."""
    F = f.field
    # the w with w G = 0: the kernel of the transposed gram matrix
    w_basis = linalg.right_kernel(F, tuple(zip(*f.gram)), f.dim)
    minv = (F.k - f.sigma) % F.k
    vecs = [tuple(F.frob(a, minv) for a in w) for w in w_basis]
    return linalg.rref(F, vecs)


def radical_of_quadratic(Q: QuadraticForm):
    """RREF basis of rad(Q) = {v in rad(f_Q) : Q(v) = 0}."""
    F = Q.field
    radf = radical_of_form(polarize(Q))
    if not radf:
        return ()
    if F.char != 2:
        # f(v,v) = 2 Q(v) forces Q(v) = 0 on the radical
        return radf
    # On rad(f_Q), Q is additive and Q(vt) = t^2 Q(v); writing
    # Q(sum t_i u_i) = (sum t_i sqrt(Q(u_i)))^2 reduces membership to one
    # linear equation in the coefficients.
    roots = [F.sqrt_char2(eval_quadratic(Q, u)) for u in radf]
    coeff_basis = linalg.right_kernel(F, (tuple(roots),), len(radf))
    return linalg.rref(F, [linalg.combine(F, coeffs, radf) for coeffs in coeff_basis])


def isotropic_vector_test(form) -> callable:
    """Predicate deciding whether a vector is isotropic/singular for the form."""
    if isinstance(form, QuadraticForm):
        return lambda v: eval_quadratic(form, v) == 0
    return lambda v: eval_form(form, v, v) == 0


def trace_valued_check(f: SesquilinearForm) -> bool:
    """True iff f(x, x) is a trace t + sigma(t) epsilon for every x.

    f(x, x) is the sum of the sigma(x_i) g_ii x_i and of traces
    u + sigma(u) epsilon with u = sigma(x_i) g_ij x_j for i < j, so this holds
    exactly when every diagonal entry is a trace: always away from
    characteristic 2 or with sigma != id, and only for a zero diagonal
    with sigma = id in characteristic 2, where the isotropic vectors of
    a non-alternating form lie in the hyperplane sum sqrt(g_ii) x_i = 0.
    """
    F, m, eps = f.field, f.sigma, f.epsilon
    traces = {F.add(t, F.mul(F.frob(t, m), eps)) for t in F.elements()}
    return all(f.gram[i][i] in traces for i in range(f.dim))


def witt_index(form) -> int:
    """Common dimension of maximal totally isotropic/singular subspaces.

    One ascending pass over the projective points keeps each singular
    vector that is orthogonal to every kept vector (under the
    polarization of a quadratic form) and outside their span.  The kept
    set only grows, so a vector rejected once stays rejected, and the
    final span is a maximal totally singular subspace; all of those share
    one dimension (Witt's theorem; D. E. Taylor, The Geometry of the
    Classical Groups, 1992).  A non-degenerate form allows at most
    floor(d/2), so the pass stops there.
    """
    if isinstance(form, QuadraticForm):
        if radical_of_quadratic(form):
            raise FormError("degenerate quadratic form has no Witt index here")
        bil = polarize(form)
    else:
        if radical_of_form(form):
            raise FormError("degenerate sesquilinear form has no Witt index here")
        bil = form
    F, dim = form.field, form.dim
    singular = isotropic_vector_test(form)
    rows, span = [], ()   # f(u, -) of each kept u, and their span
    for v in linalg.projective_reps(F, dim):
        if len(rows) == dim // 2:
            break
        if singular(v) and not any(_dot(F, row, v) for row in rows) \
                and not linalg.in_span(F, span, v):
            rows.append(bil.functional(v))
            span = linalg.rref(F, span + (v,))
    return len(rows)

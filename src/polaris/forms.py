"""Reflexive sesquilinear and quadratic forms over small finite fields.

A sesquilinear form is stored as a d x d gram matrix G together with an
admissible pair (sigma, epsilon):

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
from .field import Automorphism, Field, apply_automorphism

VECTOR_ENUM_CAP = 2**21  # refuse blind vector sweeps beyond this many candidates


@dataclass(frozen=True)
class AdmissiblePair:
    """An automorphism sigma with a unit epsilon satisfying
    sigma(epsilon) * epsilon = 1 and sigma^2 = id."""

    sigma: Automorphism
    epsilon: int


def validate_admissible_pair(F: Field, sigma: Automorphism, epsilon: int) -> AdmissiblePair:
    """Check both admissibility identities; raises with a witness on failure."""
    F.check_code(epsilon)
    if epsilon == 0:
        raise FormError("epsilon must be nonzero")
    if not 0 <= sigma.m < F.k:
        raise FormError(f"sigma exponent {sigma.m} out of range [0, {F.k})")
    lhs = F.mul(apply_automorphism(F, sigma, epsilon), epsilon)
    if lhs != 1:
        raise FormError(
            f"sigma(epsilon)*epsilon = {lhs} != 1 for epsilon={epsilon}"
        )
    if not sigma.is_involution(F.k):
        # over a field sigma^2 = id must hold; exhibit a moved element
        for t in F.elements():
            if F.frob(t, (2 * sigma.m) % F.k) != t:
                raise FormError(
                    f"sigma^2 is not the identity: witness t={t} maps to "
                    f"{F.frob(t, (2 * sigma.m) % F.k)}"
                )
    return AdmissiblePair(sigma, epsilon)


def pair_family(F: Field, pair: AdmissiblePair) -> str:
    """Which form family the pair parameterizes."""
    if pair.sigma.m % F.k == 0:
        return "alternating" if pair.epsilon == F.minus_one else "symmetric"
    return "hermitian" if pair.epsilon == 1 else "sesquilinear"


KINDS = ("alternating", "symmetric", "hermitian")


@dataclass(frozen=True)
class SesquilinearForm:
    field: Field
    dim: int
    pair: AdmissiblePair
    gram: tuple
    kind: str

    def functional(self, u):
        """Row c with f(u, y) = sum_j c[j] y_j (linear in y)."""
        F, m = self.field, self.pair.sigma.m
        d = self.dim
        su = [F.frob(x, m) for x in u]
        return tuple(
            _dot_col(F, su, self.gram, j, d) for j in range(d)
        )

    def __repr__(self):
        return f"<{self.kind} form on GF({self.field.q})^{self.dim}>"


def _dot_col(F, su, gram, j, d):
    acc = 0
    for i in range(d):
        gij = gram[i][j]
        if gij and su[i]:
            acc = F.add(acc, F.mul(su[i], gij))
    return acc


def sesquilinear_form(F: Field, gram, kind: str, pair: AdmissiblePair | None = None) -> SesquilinearForm:
    """Validate and freeze a reflexive sesquilinear form of the given kind."""
    if kind not in KINDS:
        raise FormError(f"unknown sesquilinear kind {kind!r}")
    d = len(gram)
    gram = tuple(tuple(F.check_code(x) for x in row) for row in gram)
    if any(len(row) != d for row in gram):
        raise FormError("gram matrix is not square")
    if pair is None:
        if kind == "alternating":
            pair = AdmissiblePair(Automorphism(0), F.minus_one)
        elif kind == "symmetric":
            pair = AdmissiblePair(Automorphism(0), 1)
        else:
            if F.k % 2 != 0:
                raise FormError(f"GF({F.q}) admits no hermitian involution")
            pair = AdmissiblePair(Automorphism(F.k // 2), 1)
    pair = validate_admissible_pair(F, pair.sigma, pair.epsilon)
    m, eps = pair.sigma.m, pair.epsilon
    if kind == "alternating":
        if m % F.k != 0 or eps != F.minus_one:
            raise FormError("alternating kind requires sigma = id, epsilon = -1")
        for i in range(d):
            if gram[i][i] != 0:
                raise FormError(f"alternating form has nonzero diagonal entry at ({i},{i})")
    elif kind == "symmetric":
        if m % F.k != 0 or eps != 1:
            raise FormError("symmetric kind requires sigma = id, epsilon = 1")
    else:
        if m % F.k == 0 or eps != 1:
            raise FormError("hermitian kind requires sigma != id, epsilon = 1")
    for i in range(d):
        for j in range(d):
            want = F.mul(F.frob(gram[i][j], m), eps)
            if gram[j][i] != want:
                raise FormError(
                    f"reflexivity fails at ({j},{i}): have {gram[j][i]}, need {want}"
                )
    return SesquilinearForm(F, d, pair, gram, kind)


def alternating_form(F: Field, gram) -> SesquilinearForm:
    return sesquilinear_form(F, gram, "alternating")


def symmetric_form(F: Field, gram) -> SesquilinearForm:
    return sesquilinear_form(F, gram, "symmetric")


def hermitian_form(F: Field, gram) -> SesquilinearForm:
    return sesquilinear_form(F, gram, "hermitian")


def standard_alternating_gram(F: Field, n: int):
    """Block-diagonal hyperbolic gram for a rank-n alternating form on F^(2n)."""
    d = 2 * n
    g = [[0] * d for _ in range(d)]
    for i in range(n):
        g[2 * i][2 * i + 1] = 1
        g[2 * i + 1][2 * i] = F.minus_one
    return tuple(tuple(row) for row in g)


def eval_form(f: SesquilinearForm, x, y) -> int:
    F = f.field
    if len(x) != f.dim or len(y) != f.dim:
        raise FormError(f"vector length != dim {f.dim}")
    m = f.pair.sigma.m
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
    w_basis = linalg.left_kernel(F, f.gram)
    minv = (F.k - f.pair.sigma.m) % F.k
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


@dataclass(frozen=True)
class ScalarGroup:
    """The additive groups {t - sigma(t) epsilon} and {t : t + sigma(t) epsilon = 0}."""

    pair: AdmissiblePair
    K_se: tuple
    K_upper: tuple


def scalar_group(pair: AdmissiblePair, F: Field) -> ScalarGroup:
    m, eps = pair.sigma.m, pair.epsilon
    lower = sorted({F.sub(t, F.mul(F.frob(t, m), eps)) for t in F.elements()})
    upper = sorted(t for t in F.elements()
                   if F.add(t, F.mul(F.frob(t, m), eps)) == 0)
    for name, grp in (("K_se", lower), ("K_upper", upper)):
        gs = set(grp)
        for t in grp:
            for s in F.elements():
                conj = F.mul(F.mul(F.frob(s, m), t), s)
                if conj not in gs:
                    raise FormError(f"{name} not closed under t -> sigma(s) t s "
                                    f"(t={t}, s={s})")
    if not set(lower) <= set(upper):
        raise FormError("K_se is not contained in K_upper")
    return ScalarGroup(pair, tuple(lower), tuple(upper))


def proportional_check(f: SesquilinearForm, g: SesquilinearForm):
    """The scalar kappa with g = kappa * f entrywise, or None."""
    if f.field is not g.field or f.dim != g.dim:
        raise FormError("forms live on different spaces")
    F, d = f.field, f.dim
    kappa = None
    for i in range(d):
        for j in range(d):
            if f.gram[i][j]:
                kappa = F.div(g.gram[i][j], f.gram[i][j])
                break
        if kappa is not None:
            break
    if kappa is None:
        # f is the zero form: proportional only to the zero form
        return 1 if all(x == 0 for row in g.gram for x in row) else None
    if kappa == 0:
        return None
    for i in range(d):
        for j in range(d):
            if g.gram[i][j] != F.mul(kappa, f.gram[i][j]):
                return None
    # the scaled form carries the transformed pair (sigma, kappa*sigma(kappa)^-1*eps)
    m = f.pair.sigma.m
    eta = F.mul(F.mul(kappa, F.inv(F.frob(kappa, m))), f.pair.epsilon)
    if g.pair.sigma.m % F.k != m % F.k or g.pair.epsilon != eta:
        raise FormError(
            f"proportional gram but mismatched pair: expected epsilon {eta}, "
            f"form declares {g.pair.epsilon}"
        )
    return kappa


def isotropic_vector_test(form) -> callable:
    """Predicate deciding whether a vector is isotropic/singular for the form."""
    if isinstance(form, QuadraticForm):
        return lambda v: eval_quadratic(form, v) == 0
    return lambda v: eval_form(form, v, v) == 0


def trace_valued_check(f: SesquilinearForm) -> bool:
    """True iff the isotropic vectors span the whole space.

    Always true away from characteristic 2; there the span is computed
    by sweeping projective representatives with an early exit.
    """
    F = f.field
    if F.char != 2:
        return True
    if f.kind == "alternating":
        return True
    span = ()
    for v in linalg.projective_reps(F, f.dim):
        if eval_form(f, v, v) == 0 and not linalg.in_span(F, span, v):
            span = linalg.rref(F, list(span) + [v])
            if len(span) == f.dim:
                return True
    return len(span) == f.dim


def _orthogonality_rows(form, vectors):
    """Linear conditions 'y is orthogonal to each of vectors'."""
    if isinstance(form, QuadraticForm):
        bil = polarize(form)
        return [bil.functional(u) for u in vectors]
    return [form.functional(u) for u in vectors]


def _iter_constrained(F, form, basis_rows, dim):
    """Candidate vectors in the solution space of the orthogonality rows."""
    kernel = linalg.right_kernel(F, basis_rows, dim)
    e = len(kernel)
    if (F.q**e - 1) // (F.q - 1) > VECTOR_ENUM_CAP:
        raise FormError("ambient space too large for isotropic enumeration")
    for coeffs in linalg.projective_reps(F, e):
        yield linalg.combine(F, coeffs, kernel)


def witt_index(form) -> int:
    """Common dimension of maximal totally isotropic/singular subspaces.

    Greedy chain extension with lowest-candidate tie-breaking; all
    maximal totally isotropic subspaces share one dimension, so the
    greedy endpoint is the index.
    """
    if isinstance(form, QuadraticForm):
        if radical_of_quadratic(form):
            raise FormError("degenerate quadratic form has no Witt index here")
        F, dim = form.field, form.dim
    else:
        if radical_of_form(form):
            raise FormError("degenerate sesquilinear form has no Witt index here")
        F, dim = form.field, form.dim
    singular = isotropic_vector_test(form)
    chain = []
    span = ()
    while True:
        rows = _orthogonality_rows(form, chain)
        found = None
        for v in _iter_constrained(F, form, rows, dim):
            if singular(v) and not linalg.in_span(F, span, v):
                found = v
                break
        if found is None:
            return len(chain)
        chain.append(found)
        span = linalg.rref(F, list(span) + [found])

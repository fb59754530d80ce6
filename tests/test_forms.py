import random
from itertools import product

import pytest

from polaris.errors import FormError
from polaris.field import Automorphism, field_make
from polaris import linalg
from polaris.forms import (
    AdmissiblePair,
    alternating_form,
    eval_form,
    eval_quadratic,
    hermitian_form,
    isotropic_vector_test,
    pair_family,
    polarize,
    proportional_check,
    quadratic_form,
    radical_of_form,
    radical_of_quadratic,
    scalar_group,
    sesquilinear_form,
    standard_alternating_gram,
    symmetric_form,
    trace_valued_check,
    validate_admissible_pair,
    witt_index,
)

F2 = field_make(2, 1)
F3 = field_make(3, 1)
F4 = field_make(2, 2)


def all_vectors(F, d):
    return [tuple(v) for v in product(range(F.q), repeat=d)]


def w32_form():
    return alternating_form(F2, standard_alternating_gram(F2, 2))


def q42_form():
    # x0^2 + x1 x2 + x3 x4
    U = [[0] * 5 for _ in range(5)]
    U[0][0] = 1
    U[1][2] = 1
    U[3][4] = 1
    return quadratic_form(F2, U)


def h34_gram(d):
    return [[1 if i == j else 0 for j in range(d)] for i in range(d)]


# ---------------------------------------------------------------------------
# admissible pairs
# ---------------------------------------------------------------------------

def test_admissible_pair_examples():
    p = validate_admissible_pair(F3, Automorphism(0), 2)
    assert pair_family(F3, p) == "alternating"
    p = validate_admissible_pair(F4, Automorphism(1), 1)
    assert pair_family(F4, p) == "hermitian"
    with pytest.raises(FormError):
        validate_admissible_pair(F4, Automorphism(0), 2)  # omega != omega^-1


def test_admissible_pair_zero_epsilon():
    with pytest.raises(FormError):
        validate_admissible_pair(F2, Automorphism(0), 0)


def test_admissible_pair_involution_required():
    F64 = field_make(2, 6)
    with pytest.raises(FormError):
        validate_admissible_pair(F64, Automorphism(1), 1)  # sigma^2 != id
    validate_admissible_pair(F64, Automorphism(3), 1)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_eval_alternating_examples():
    f = w32_form()
    e = [tuple(1 if i == j else 0 for i in range(4)) for j in range(4)]
    assert eval_form(f, e[0], e[1]) == 1
    assert eval_form(f, e[0], e[2]) == 0


def test_eval_hermitian_example():
    f = hermitian_form(F4, h34_gram(3))
    x = (1, 2, 0)  # (1, omega, 0)
    # 1*1 + omega^2 * omega = 1 + 1 = 0
    assert eval_form(f, x, x) == 0


def test_eval_quadratic_examples():
    Q = q42_form()
    assert eval_quadratic(Q, (1, 0, 0, 0, 0)) == 1
    assert eval_quadratic(Q, (0, 1, 1, 0, 0)) == 1
    assert eval_quadratic(Q, (1, 1, 1, 0, 0)) == 0


def test_eval_dimension_mismatch():
    with pytest.raises(FormError):
        eval_form(w32_form(), (1, 0), (0, 1))
    with pytest.raises(FormError):
        eval_quadratic(q42_form(), (1, 0))


def test_reflexivity_exhaustive_small():
    # f(y, x) = sigma(f(x, y)) * epsilon on every pair, dim <= 4, q <= 4
    cases = [
        w32_form(),
        alternating_form(F3, standard_alternating_gram(F3, 2)),
        hermitian_form(F4, h34_gram(3)),
        symmetric_form(F3, [[1, 0, 0], [0, 1, 0], [0, 0, 2]]),
    ]
    for f in cases:
        F, m, eps = f.field, f.pair.sigma.m, f.pair.epsilon
        for x in all_vectors(F, f.dim):
            for y in all_vectors(F, f.dim):
                assert eval_form(f, y, x) == F.mul(F.frob(eval_form(f, x, y), m), eps)


def test_reflexivity_randomized_larger():
    F9 = field_make(3, 2)
    f = hermitian_form(F9, h34_gram(4))
    rng = random.Random(7)
    for _ in range(300):
        x = tuple(rng.randrange(9) for _ in range(4))
        y = tuple(rng.randrange(9) for _ in range(4))
        assert eval_form(f, y, x) == F9.frob(eval_form(f, x, y), 1)


def test_sesquilinearity():
    f = hermitian_form(F4, h34_gram(3))
    rng = random.Random(3)
    for _ in range(200):
        x = tuple(rng.randrange(4) for _ in range(3))
        y = tuple(rng.randrange(4) for _ in range(3))
        z = tuple(rng.randrange(4) for _ in range(3))
        s, t = rng.randrange(4), rng.randrange(4)
        lhs = eval_form(f, z, linalg.vec_add(F4, linalg.vec_scale(F4, x, s),
                                             linalg.vec_scale(F4, y, t)))
        rhs = F4.add(F4.mul(eval_form(f, z, x), s), F4.mul(eval_form(f, z, y), t))
        assert lhs == rhs


# ---------------------------------------------------------------------------
# polarization and radicals
# ---------------------------------------------------------------------------

def test_polarize_hyperbolic_plane():
    Q = quadratic_form(F2, [[0, 1], [0, 0]])
    f = polarize(Q)
    assert eval_form(f, (1, 0), (0, 1)) == 1
    assert eval_form(f, (1, 0), (1, 0)) == 0
    assert f.kind == "alternating"


def test_polarize_char2_diagonal_vanishes():
    Q = quadratic_form(F2, [[1]])
    f = polarize(Q)
    assert f.gram == ((0,),)
    assert radical_of_form(f) == ((1,),)


def test_polarization_identity_exhaustive():
    for Q in [q42_form(), quadratic_form(F3, [[1, 1, 0], [0, 2, 1], [0, 0, 1]])]:
        F, f = Q.field, polarize(Q)
        for x in all_vectors(F, Q.dim):
            for y in all_vectors(F, Q.dim):
                lhs = eval_quadratic(Q, linalg.vec_add(F, x, y))
                rhs = F.add(F.add(eval_quadratic(Q, x), eval_quadratic(Q, y)),
                            eval_form(f, x, y))
                assert lhs == rhs


def test_radical_of_form_examples():
    assert radical_of_form(w32_form()) == ()
    fq = polarize(q42_form())
    assert radical_of_form(fq) == ((1, 0, 0, 0, 0),)
    zero = symmetric_form(F2, [[0, 0], [0, 0]])
    assert len(radical_of_form(zero)) == 2


def test_radical_of_form_hermitian_degenerate():
    # last basis vector orthogonal to everything
    g = [[1, 0, 0], [0, 1, 0], [0, 0, 0]]
    f = hermitian_form(F4, g)
    assert radical_of_form(f) == ((0, 0, 1),)


def oracle_quadratic_radical(Q):
    """Enumerate rad(f_Q) and keep the Q-zero vectors; full sweep."""
    F = Q.field
    radf = radical_of_form(polarize(Q))
    hits = [v for v in linalg.subspace_vectors(F, radf)
            if eval_quadratic(Q, v) == 0]
    return linalg.rref(F, [v for v in hits if any(v)])


def test_right_kernel_of_no_rows_is_the_identity():
    # constrained enumerations rely on this instead of special-casing
    # an empty constraint list
    for p, k in ((2, 1), (3, 1), (2, 2)):
        F = field_make(p, k)
        for d in range(1, 6):
            assert linalg.right_kernel(F, (), d) == \
                tuple(tuple(int(i == j) for i in range(d)) for j in range(d))
        assert list(linalg.projective_reps(F, 0)) == []


def test_radical_of_quadratic_examples():
    assert radical_of_quadratic(q42_form()) == ()
    Q = quadratic_form(F2, [[0, 1, 0], [0, 0, 0], [0, 0, 0]])  # x0 x1 on GF(2)^3
    assert radical_of_quadratic(Q) == ((0, 0, 1),)


def test_catalog_quadratics_are_nondegenerate():
    from polaris.catalog import PRESETS, preset_text
    from polaris.specfile import build_form, parse_spec
    for name in sorted(PRESETS):
        spec = parse_spec(preset_text(name))
        if spec.kind == "quadratic":
            assert radical_of_quadratic(build_form(spec)) == (), name
        else:
            assert radical_of_form(build_form(spec)) == (), name


def test_radical_of_quadratic_matches_enumeration():
    cases = [
        q42_form(),
        quadratic_form(F2, [[0, 1, 0], [0, 0, 0], [0, 0, 0]]),
        quadratic_form(F2, [[1, 0, 0], [0, 1, 0], [0, 0, 0]]),
        quadratic_form(F4, [[0, 1, 0], [0, 0, 0], [0, 0, 1]]),
        quadratic_form(F3, [[1, 0, 0], [0, 0, 0], [0, 0, 0]]),
    ]
    for Q in cases:
        assert radical_of_quadratic(Q) == oracle_quadratic_radical(Q)


# ---------------------------------------------------------------------------
# scalar groups
# ---------------------------------------------------------------------------

def test_scalar_group_examples():
    g = scalar_group(AdmissiblePair(Automorphism(1), 1), F4)
    assert g.K_se == (0, 1)
    assert g.K_upper == (0, 1)
    g = scalar_group(AdmissiblePair(Automorphism(0), 1), F3)
    assert g.K_se == (0,)
    g = scalar_group(AdmissiblePair(Automorphism(0), 1), F2)
    assert g.K_se == (0,)
    assert g.K_upper == (0, 1)


def test_scalar_group_gf9_hermitian():
    F9 = field_make(3, 2)
    g = scalar_group(AdmissiblePair(Automorphism(1), 1), F9)
    # the trace-zero elements of GF(9) over GF(3) form a 1-dim GF(3)-line
    assert len(g.K_upper) == 3
    assert set(g.K_se) == set(g.K_upper)


def test_scalar_groups_are_additive_subgroups():
    for F, m, eps in [(F4, 1, 1), (field_make(3, 2), 1, 1), (F3, 0, 1),
                      (F3, 0, 2), (F2, 0, 1)]:
        g = scalar_group(AdmissiblePair(Automorphism(m), eps), F)
        for grp in (set(g.K_se), set(g.K_upper)):
            assert 0 in grp
            for a in grp:
                assert F.neg(a) in grp
                for b in grp:
                    assert F.add(a, b) in grp


def test_hermitian_pseudoquadratic_matches_sesquilinear_points():
    # the hermitian polar space is built from the sesquilinear form, which
    # is sound because the singular points of the associated pseudoquadratic
    # form coincide with the isotropic ones: with upper-triangular split T
    # of the identity gram (diagonal d satisfying d + sigma(d) = 1), a
    # vector is pseudoquadratically singular iff its value lies in
    # K_se = {t - sigma(t)}, and that matches f(v, v) = 0 on all of GF(4)^3.
    F = F4
    d = 2  # omega: omega + omega^2 = 1
    assert F.add(d, F.frob(d, 1)) == 1
    g = scalar_group(AdmissiblePair(Automorphism(1), 1), F)
    f = hermitian_form(F, h34_gram(3))

    def pseudo_value(v):
        acc = 0
        for i in range(3):
            acc = F.add(acc, F.mul(F.mul(F.frob(v[i], 1), d), v[i]))
        return acc  # strict upper part of the identity gram is zero

    for v in all_vectors(F, 3):
        assert (eval_form(f, v, v) == 0) == (pseudo_value(v) in set(g.K_se))


# ---------------------------------------------------------------------------
# proportionality
# ---------------------------------------------------------------------------

def test_proportional_examples():
    f = alternating_form(F3, standard_alternating_gram(F3, 2))
    g2 = alternating_form(F3, [[F3.mul(2, x) for x in row] for row in f.gram])
    assert proportional_check(f, g2) == 2
    assert proportional_check(f, f) == 1
    a = w32_form()
    # pair up (0,2) and (1,3) instead of (0,1) and (2,3)
    g = [[0] * 4 for _ in range(4)]
    g[0][2] = g[2][0] = 1
    g[1][3] = g[3][1] = 1
    b = alternating_form(F2, g)
    assert proportional_check(a, b) is None


def test_proportional_forms_share_isotropic_sets():
    F9 = field_make(3, 2)
    g = [[1, 0, 0], [0, 2, 0], [0, 0, 1]]
    f = hermitian_form(F9, g)
    # scale by a norm-one unit: kappa * sigma(kappa)^-1 * 1 must stay 1,
    # so kappa must be fixed by sigma, i.e. lie in GF(3)
    g2 = hermitian_form(F9, [[F9.mul(2, x) for x in row] for row in g])
    assert proportional_check(f, g2) == 2
    iso_f = {v for v in all_vectors(F9, 3) if eval_form(f, v, v) == 0}
    iso_g = {v for v in all_vectors(F9, 3) if eval_form(g2, v, v) == 0}
    assert iso_f == iso_g


# ---------------------------------------------------------------------------
# trace-valuedness
# ---------------------------------------------------------------------------

def test_trace_valued_examples():
    assert trace_valued_check(w32_form())
    bad = symmetric_form(F2, [[1, 0], [0, 1]])
    # isotropic vectors are 0 and e0+e1 only
    assert {v for v in all_vectors(F2, 2) if eval_form(bad, v, v) == 0} == \
        {(0, 0), (1, 1)}
    assert not trace_valued_check(bad)
    assert trace_valued_check(hermitian_form(F4, h34_gram(2)))
    assert trace_valued_check(symmetric_form(F3, [[1, 0], [0, 1]]))


# ---------------------------------------------------------------------------
# Witt index, cross-checked by full backtracking enumeration
# ---------------------------------------------------------------------------

def oracle_witt(form):
    """Largest totally isotropic/singular subspace by exhaustive DFS."""
    F = form.field
    dim = form.dim
    singular = isotropic_vector_test(form)
    if hasattr(form, "upper"):
        bil = polarize(form)
    else:
        bil = form
    reps = [v for v in linalg.projective_reps(F, dim) if singular(v)]
    best = 0

    def extend(chain, span, start):
        nonlocal best
        best = max(best, len(chain))
        for idx in range(start, len(reps)):
            v = reps[idx]
            if linalg.in_span(F, span, v):
                continue
            if all(eval_form(bil, u, v) == 0 for u in chain):
                extend(chain + [v], linalg.rref(F, list(span) + [v]), idx + 1)

    extend([], (), 0)
    return best


def elliptic_q52():
    U = [[0] * 6 for _ in range(6)]
    U[0][0] = U[0][1] = U[1][1] = 1
    U[2][3] = 1
    U[4][5] = 1
    return quadratic_form(F2, U)


def test_witt_index_examples():
    assert witt_index(w32_form()) == 2
    assert witt_index(q42_form()) == 2
    assert witt_index(elliptic_q52()) == 2


def test_witt_index_degenerate_rejected():
    with pytest.raises(FormError):
        witt_index(symmetric_form(F2, [[0, 0], [0, 0]]))
    with pytest.raises(FormError):
        witt_index(quadratic_form(F2, [[0, 1, 0], [0, 0, 0], [0, 0, 0]]))


def test_witt_index_matches_exhaustive_search():
    hyper4 = quadratic_form(F2, [[0, 1, 0, 0], [0, 0, 0, 0],
                                 [0, 0, 0, 1], [0, 0, 0, 0]])
    cases = [
        w32_form(),
        q42_form(),
        elliptic_q52(),
        hyper4,
        alternating_form(F3, standard_alternating_gram(F3, 2)),
        hermitian_form(F4, h34_gram(3)),
        hermitian_form(F4, h34_gram(4)),
        alternating_form(F2, standard_alternating_gram(F2, 3)),
        symmetric_form(F3, [[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]),
    ]
    for form in cases:
        assert witt_index(form) == oracle_witt(form)


def test_witt_index_anisotropic():
    # x0^2 + x0 x1 + x1^2 has no nonzero singular vectors over GF(2)
    Q = quadratic_form(F2, [[1, 1], [0, 1]])
    assert witt_index(Q) == 0


# ---------------------------------------------------------------------------
# construction validation
# ---------------------------------------------------------------------------

def test_quadratic_rejects_subdiagonal():
    with pytest.raises(FormError):
        quadratic_form(F2, [[0, 0], [1, 0]])


def test_sesquilinear_rejects_nonreflexive():
    with pytest.raises(FormError):
        symmetric_form(F3, [[0, 1], [2, 0]])
    with pytest.raises(FormError):
        alternating_form(F3, [[1, 1], [2, 0]])


def test_hermitian_requires_even_degree():
    with pytest.raises(FormError):
        hermitian_form(F3, [[1]])

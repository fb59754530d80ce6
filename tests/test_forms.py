import random
from itertools import product

import pytest

from polaris.errors import FormError
from polaris.field import field_make
from polaris import linalg
from polaris.forms import (
    eval_form,
    eval_quadratic,
    kind_pair,
    polarize,
    quadratic_form,
    radical_of_form,
    radical_of_quadratic,
    sesquilinear_form,
    trace_valued_check,
    witt_index,
)

from oracles import (
    oracle_trace_valued,
    oracle_witt,
    span_vectors,
    vec_add,
    vec_scale,
)

F2 = field_make(2, 1)
F3 = field_make(3, 1)
F4 = field_make(2, 2)


def all_vectors(F, d):
    return [tuple(v) for v in product(range(F.q), repeat=d)]


def w32_form():
    return sesquilinear_form(F2, standard_alternating_gram(F2, 2), "alternating")


def q42_form():
    # x0^2 + x1 x2 + x3 x4
    U = [[0] * 5 for _ in range(5)]
    U[0][0] = 1
    U[1][2] = 1
    U[3][4] = 1
    return quadratic_form(F2, U)


def h34_gram(d):
    return [[1 if i == j else 0 for j in range(d)] for i in range(d)]


def standard_alternating_gram(F, n):
    """Block-diagonal hyperbolic gram of a rank-n alternating form on F^(2n)."""
    g = [[0] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        g[2 * i][2 * i + 1] = 1
        g[2 * i + 1][2 * i] = F.minus_one
    return g


# ---------------------------------------------------------------------------
# admissible pairs
# ---------------------------------------------------------------------------

def test_admissible_pair_examples():
    assert kind_pair(F3, "alternating") == (0, 2)
    assert kind_pair(F4, "hermitian") == (1, 1)  # t -> t^2 = t^sqrt(4)
    f = sesquilinear_form(F3, standard_alternating_gram(F3, 1), "alternating")
    assert (f.sigma, f.epsilon) == (0, 2)
    # (id, omega) over GF(4) is not admissible (omega != omega^-1); no kind gives it
    assert {kind_pair(F4, kind)[1] for kind in ("alternating", "symmetric", "hermitian")} == {1}


def test_admissible_pair_zero_epsilon():
    for F in (F2, F3, F4, field_make(3, 2), field_make(5, 1)):
        kinds = ("alternating", "symmetric") + (("hermitian",) if F.k % 2 == 0 else ())
        for kind in kinds:
            m, eps = kind_pair(F, kind)
            assert eps != 0
            assert F.mul(F.frob(eps, m), eps) == 1  # sigma(epsilon) * epsilon = 1


def test_admissible_pair_involution_required():
    F64 = field_make(2, 6)
    assert kind_pair(F64, "hermitian") == (3, 1)  # t -> t^8 = t^sqrt(64)
    assert sesquilinear_form(F64, h34_gram(2), "hermitian").sigma == 3
    assert all(F64.frob(F64.frob(t, 3), 3) == t for t in F64.elements())  # sigma^2 = id
    with pytest.raises(FormError, match="admits no hermitian involution"):
        kind_pair(field_make(2, 3), "hermitian")


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_eval_alternating_examples():
    f = w32_form()
    e = [tuple(1 if i == j else 0 for i in range(4)) for j in range(4)]
    assert eval_form(f, e[0], e[1]) == 1
    assert eval_form(f, e[0], e[2]) == 0


def test_eval_hermitian_example():
    f = sesquilinear_form(F4, h34_gram(3), "hermitian")
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
        sesquilinear_form(F3, standard_alternating_gram(F3, 2), "alternating"),
        sesquilinear_form(F4, h34_gram(3), "hermitian"),
        sesquilinear_form(F3, [[1, 0, 0], [0, 1, 0], [0, 0, 2]], "symmetric"),
    ]
    for f in cases:
        F, m, eps = f.field, f.sigma, f.epsilon
        for x in all_vectors(F, f.dim):
            for y in all_vectors(F, f.dim):
                assert eval_form(f, y, x) == F.mul(F.frob(eval_form(f, x, y), m), eps)


def test_reflexivity_randomized_larger():
    F9 = field_make(3, 2)
    f = sesquilinear_form(F9, h34_gram(4), "hermitian")
    rng = random.Random(7)
    for _ in range(300):
        x = tuple(rng.randrange(9) for _ in range(4))
        y = tuple(rng.randrange(9) for _ in range(4))
        assert eval_form(f, y, x) == F9.frob(eval_form(f, x, y), 1)


def test_sesquilinearity():
    f = sesquilinear_form(F4, h34_gram(3), "hermitian")
    rng = random.Random(3)
    for _ in range(200):
        x = tuple(rng.randrange(4) for _ in range(3))
        y = tuple(rng.randrange(4) for _ in range(3))
        z = tuple(rng.randrange(4) for _ in range(3))
        s, t = rng.randrange(4), rng.randrange(4)
        lhs = eval_form(f, z, vec_add(F4, vec_scale(F4, x, s), vec_scale(F4, y, t)))
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
                lhs = eval_quadratic(Q, vec_add(F, x, y))
                rhs = F.add(F.add(eval_quadratic(Q, x), eval_quadratic(Q, y)),
                            eval_form(f, x, y))
                assert lhs == rhs


def test_radical_of_form_examples():
    assert radical_of_form(w32_form()) == ()
    fq = polarize(q42_form())
    assert radical_of_form(fq) == ((1, 0, 0, 0, 0),)
    zero = sesquilinear_form(F2, [[0, 0], [0, 0]], "symmetric")
    assert len(radical_of_form(zero)) == 2


def test_radical_of_form_hermitian_degenerate():
    # last basis vector orthogonal to everything
    g = [[1, 0, 0], [0, 1, 0], [0, 0, 0]]
    f = sesquilinear_form(F4, g, "hermitian")
    assert radical_of_form(f) == ((0, 0, 1),)


def oracle_quadratic_radical(Q):
    """Enumerate rad(f_Q) and keep the Q-zero vectors; full sweep."""
    F = Q.field
    radf = radical_of_form(polarize(Q))
    hits = [v for v in span_vectors(F, radf)
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
# hermitian and proportional forms
# ---------------------------------------------------------------------------

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
    k_se = {F.sub(t, F.frob(t, 1)) for t in F.elements()}
    f = sesquilinear_form(F, h34_gram(3), "hermitian")

    def pseudo_value(v):
        acc = 0
        for i in range(3):
            acc = F.add(acc, F.mul(F.mul(F.frob(v[i], 1), d), v[i]))
        return acc  # strict upper part of the identity gram is zero

    for v in all_vectors(F, 3):
        assert (eval_form(f, v, v) == 0) == (pseudo_value(v) in k_se)


def test_proportional_forms_share_isotropic_sets():
    F9 = field_make(3, 2)
    g = [[1, 0, 0], [0, 2, 0], [0, 0, 1]]
    f = sesquilinear_form(F9, g, "hermitian")
    # scale by a norm-one unit: kappa * sigma(kappa)^-1 * 1 must stay 1,
    # so kappa must be fixed by sigma, i.e. lie in GF(3)
    g2 = sesquilinear_form(F9, [[F9.mul(2, x) for x in row] for row in g], "hermitian")
    iso_f = {v for v in all_vectors(F9, 3) if eval_form(f, v, v) == 0}
    iso_g = {v for v in all_vectors(F9, 3) if eval_form(g2, v, v) == 0}
    assert iso_f == iso_g


# ---------------------------------------------------------------------------
# trace-valuedness
# ---------------------------------------------------------------------------

def test_trace_valued_examples():
    assert trace_valued_check(w32_form())
    bad = sesquilinear_form(F2, [[1, 0], [0, 1]], "symmetric")
    # isotropic vectors are 0 and e0+e1 only
    assert {v for v in all_vectors(F2, 2) if eval_form(bad, v, v) == 0} == \
        {(0, 0), (1, 1)}
    assert not trace_valued_check(bad)
    assert trace_valued_check(sesquilinear_form(F4, h34_gram(2), "hermitian"))
    assert trace_valued_check(sesquilinear_form(F3, [[1, 0], [0, 1]], "symmetric"))


def test_trace_valued_check_sweeps_no_vectors(monkeypatch):
    # GF(16)^6 has 1,118,481 projective points; the diagonal decides
    def no_sweep(*args):
        raise AssertionError("trace_valued_check enumerated vectors")

    F16 = field_make(2, 4)
    monkeypatch.setattr(linalg, "projective_reps", no_sweep)
    assert not trace_valued_check(sesquilinear_form(F16, h34_gram(6), "symmetric"))
    assert trace_valued_check(sesquilinear_form(F16, [[0, 1], [1, 0]], "symmetric"))


def _random_reflexive_form(rng, F, kind, d):
    """A random (possibly degenerate) form of the given kind and dimension."""
    m = F.k // 2 if kind == "hermitian" else 0
    fixed = [t for t in F.elements() if F.frob(t, m) == t]
    g = [[0] * d for _ in range(d)]
    for i in range(d):
        if kind == "symmetric":
            g[i][i] = rng.randrange(F.q)
        elif kind == "hermitian":
            g[i][i] = rng.choice(fixed)
        for j in range(i + 1, d):
            g[i][j] = rng.randrange(F.q)
            g[j][i] = {"alternating": F.neg(g[i][j]), "symmetric": g[i][j],
                       "hermitian": F.frob(g[i][j], m)}[kind]
    return sesquilinear_form(F, g, kind)


@pytest.mark.parametrize("pk", [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2)],
                         ids=lambda pk: f"GF{pk[0] ** pk[1]}")
def test_trace_valued_check_matches_brute_force(pk):
    # the diagonal test against "f(x, x) is a trace for every x"
    F = field_make(*pk)
    kinds = ("alternating", "symmetric") + (("hermitian",) if F.k % 2 == 0 else ())
    rng = random.Random(pk[0] ** pk[1])
    seen = set()
    for kind in kinds:
        for d in (1, 2, 3):
            for _ in range(25):
                f = _random_reflexive_form(rng, F, kind, d)
                want = oracle_trace_valued(f)
                assert trace_valued_check(f) == want, (kind, f.gram)
                seen.add(want)
    assert seen == ({True, False} if F.char == 2 else {True})


# ---------------------------------------------------------------------------
# Witt index, cross-checked by full backtracking enumeration
# ---------------------------------------------------------------------------

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
        witt_index(sesquilinear_form(F2, [[0, 0], [0, 0]], "symmetric"))
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
        sesquilinear_form(F3, standard_alternating_gram(F3, 2), "alternating"),
        sesquilinear_form(F4, h34_gram(3), "hermitian"),
        sesquilinear_form(F4, h34_gram(4), "hermitian"),
        sesquilinear_form(F2, standard_alternating_gram(F2, 3), "alternating"),
        sesquilinear_form(F3, [[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
                          "symmetric"),
        quadratic_form(F2, [[1, 1], [0, 1]]),   # anisotropic
        quadratic_form(F2, [[1, 1, 0, 0], [0, 1, 0, 0],
                            [0, 0, 0, 1], [0, 0, 0, 0]]),   # elliptic, Q-(3,2)
    ]
    want = [oracle_witt(form) for form in cases]
    assert [witt_index(form) for form in cases] == want
    assert set(want) == {0, 1, 2, 3}


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
        sesquilinear_form(F3, [[0, 1], [2, 0]], "symmetric")
    with pytest.raises(FormError):
        sesquilinear_form(F3, [[1, 1], [2, 0]], "alternating")


def test_hermitian_requires_even_degree():
    with pytest.raises(FormError):
        sesquilinear_form(F3, [[1]], "hermitian")


@pytest.mark.parametrize("build,message", [
    (lambda: sesquilinear_form(F3, [[0, 1], [2, 0]], "orthogonal"),
     "unknown sesquilinear kind 'orthogonal'"),
    (lambda: sesquilinear_form(F3, [[0, 1], [2]], "alternating"), "gram matrix is not square"),
    (lambda: quadratic_form(F2, [[0, 1], [0]]), "coefficient matrix is not square"),
], ids=["kind", "gram", "upper"])
def test_form_constructors_name_what_is_wrong(build, message):
    with pytest.raises(FormError) as err:
        build()
    assert str(err.value) == message

import re

import pytest

from polaris import field
from polaris.errors import FieldError
from polaris.field import CONWAY, DEFAULT_ORDER_CAP, Field, field_make


# ---------------------------------------------------------------------------
# independent oracle: list-of-coefficients polynomial arithmetic, no tables
# ---------------------------------------------------------------------------

def poly_mul_mod(p, mod, a, b):
    """Multiply two little-endian coefficient lists mod a monic polynomial."""
    k = len(mod) - 1
    prod = [0] * (2 * k - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] = (prod[i + j] + x * y) % p
    for deg in range(2 * k - 2, k - 1, -1):
        c = prod[deg]
        if c:
            prod[deg] = 0
            for j in range(k):
                prod[deg - k + j] = (prod[deg - k + j] - c * mod[j]) % p
    return prod[:k]


def decode(F, code):
    digits = []
    for _ in range(F.k):
        digits.append(code % F.p)
        code //= F.p
    return digits


def encode(F, digits):
    code = 0
    for d in reversed(digits):
        code = code * F.p + d
    return code


def oracle_mul(F, a, b):
    return encode(F, poly_mul_mod(F.p, list(F.conway), decode(F, a), decode(F, b)))


def oracle_add(F, a, b):
    return encode(F, [(x + y) % F.p for x, y in zip(decode(F, a), decode(F, b))])


SMALL_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (2, 4)]


def test_gf2_codes():
    F = field_make(2, 1)
    assert list(F.elements()) == [0, 1]
    assert F.add(1, 1) == 0 and F.mul(1, 1) == 1


def test_gf4_product_of_generators():
    # 2 * 2 = 3 under the Conway polynomial x^2 + x + 1
    F = field_make(2, 2)
    assert list(F.elements()) == [0, 1, 2, 3]
    assert oracle_mul(F, 2, 2) == 3
    assert F.mul(2, 2) == 3


def test_gf3_squares():
    F = field_make(3, 1)
    assert F.mul(2, 2) == 1


@pytest.mark.parametrize("p,k", SMALL_FIELDS)
def test_tables_match_polynomial_oracle(p, k):
    F = field_make(p, k)
    for a in F.elements():
        for b in F.elements():
            assert F.mul(a, b) == oracle_mul(F, a, b)
            assert F.add(a, b) == oracle_add(F, a, b)


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1),
                                 (2, 3), (3, 2), (11, 1), (13, 1), (2, 4)])
def test_field_axioms_exhaustive(p, k):
    # full triple loops for every shipped field of order <= 16
    F = field_make(p, k)
    q = F.q
    assert q <= 16
    for a in range(q):
        assert F.add(a, 0) == a
        assert F.mul(a, 1) == a
        assert F.mul(a, 0) == 0
        assert F.add(a, F.neg(a)) == 0
        if a:
            assert F.mul(a, F.inv(a)) == 1
        for b in range(q):
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
            for c in range(q):
                assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
                assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


def test_larger_fields_construct():
    for p, k in [(5, 2), (3, 3), (7, 2), (2, 6), (3, 4)]:
        F = field_make(p, k)
        assert F.q == p**k
        # spot-check inverses against the polynomial oracle
        for a in range(1, 13):
            assert oracle_mul(F, a, F.inv(a)) == 1


def test_frobenius_examples():
    F4 = field_make(2, 2)
    omega = 2
    assert F4.frob(omega, 1) == 3  # omega^2
    assert F4.frob(omega, 0) == omega
    F9 = field_make(3, 2)
    assert F9.frob(0, 1) == 0


@pytest.mark.parametrize("p,k", [(2, 2), (3, 2), (2, 3), (2, 4), (3, 3)])
def test_frobenius_is_ring_homomorphism(p, k):
    F = field_make(p, k)
    for m in range(F.k):
        for x in F.elements():
            for y in F.elements():
                fx, fy = F.frob(x, m), F.frob(y, m)
                assert F.frob(F.add(x, y), m) == F.add(fx, fy)
                assert F.frob(F.mul(x, y), m) == F.mul(fx, fy)


@pytest.mark.parametrize("p,k", [(2, 2), (3, 2), (2, 3), (2, 4), (3, 3)])
def test_frobenius_inverse_and_order(p, k):
    F = field_make(p, k)
    for m in range(F.k):
        minv = (F.k - m) % F.k
        for x in F.elements():
            assert F.frob(F.frob(x, m), minv) == x
    for x in F.elements():
        y = x
        for _ in range(F.k):
            y = F.frob(y, 1)
        assert y == x


def test_automorphism_composition():
    # x -> x^2 and x -> x^8 undo each other on GF(16)
    F = field_make(2, 4)
    for x in F.elements():
        assert F.frob(F.frob(x, 3), 1) == x
    # x -> x^4 is an involution and x -> x^2 is not
    assert all(F.frob(F.frob(x, 2), 2) == x for x in F.elements())
    assert not all(F.frob(F.frob(x, 1), 1) == x for x in F.elements())


def test_division_by_zero_is_hard_error():
    F = field_make(3, 1)
    with pytest.raises(ZeroDivisionError):
        F.pow(0, -1)
    with pytest.raises(ZeroDivisionError):
        F.inv(0)
    assert F.pow(0, 0) == 1 and F.pow(0, 2) == 0


@pytest.mark.parametrize("code", [3, -1, "1", 1.0])
def test_check_code_names_the_code_and_the_field(code):
    F = field_make(3, 1)
    assert F.check_code(2) == 2
    with pytest.raises(FieldError) as err:
        F.check_code(code)
    assert str(err.value) == f"invalid element code {code!r} for GF(3)"


def test_conway_str_skips_zero_coefficients():
    # x^3 + x + 1 over GF(2) has no x^2 term
    assert field_make(2, 3).conway_str() == "x^3 + x + 1"
    assert field_make(3, 4).conway_str() == "x^4 + 2*x^3 + 2"


def test_field_make_rejections():
    with pytest.raises(FieldError):
        field_make(4, 1)
    with pytest.raises(FieldError):
        field_make(1, 1)
    with pytest.raises(FieldError):
        field_make(3, 5)  # 243 > 81
    with pytest.raises(FieldError):
        field_make(2, 5)  # no embedded Conway polynomial for 32


def test_field_make_refuses_orders_above_the_cap():
    assert DEFAULT_ORDER_CAP == 81
    assert field_make(3, 4).q == 81
    with pytest.raises(FieldError, match=r"^field order 83\^1 = 83 exceeds the cap 81$"):
        field_make(83, 1)


@pytest.mark.parametrize("p,k,order", [
    (83, 1, "83^1 = 83"),
    (100000000000000000039, 1, "100000000000000000039^1 = 100000000000000000039"),
    (2, 100000000, "2^100000000 >= 128"),
], ids=["83", "huge-p", "huge-k"])
def test_field_order_cap_comes_before_the_primality_test(p, k, order, monkeypatch):
    # trial division to sqrt(p) never runs for an order above the cap,
    # and p^k is never formed for a huge k
    def refuse(n):
        raise AssertionError(f"primality of {n} tested for an order above the cap")
    monkeypatch.setattr(field, "is_prime", refuse)
    with pytest.raises(FieldError, match=rf"^field order {re.escape(order)} exceeds the cap 81$"):
        field_make(p, k)


def brute_primitive_root(p):
    """Smallest r in [1, p) whose multiplicative order mod p is p - 1."""
    for r in range(1, p):
        x, order = r, 1
        while x != 1:
            x, order = x * r % p, order + 1
        if order == p - 1:
            return r


@pytest.mark.parametrize("p", [p for p in range(2, DEFAULT_ORDER_CAP + 1)
                               if all(p % d for d in range(2, p))])
def test_degree_one_conway_is_x_minus_the_smallest_primitive_root(p):
    r = brute_primitive_root(p)
    F = field_make(p, 1)
    assert F.conway == ((p - r) % p, 1)
    assert F.exp[1] == r


@pytest.mark.parametrize("p,k", sorted(CONWAY))
def test_embedded_conway_polynomials_are_primitive(p, k):
    # the class of x has multiplicative order q - 1 modulo the polynomial
    q, mod = p**k, list(CONWAY[(p, k)])
    x, one = [0, 1] + [0] * (k - 2), [1] + [0] * (k - 1)
    val, order = x, 1
    while val != one and order < q:
        val, order = poly_mul_mod(p, mod, val, x), order + 1
    assert order == q - 1


def test_fields_are_cached_and_deterministic():
    a = field_make(3, 2)
    b = field_make(3, 2)
    assert a is b
    c = Field(3, 2)
    assert c.exp == a.exp and c.log == a.log and c._add == a._add

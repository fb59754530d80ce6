"""Exact arithmetic in small finite fields GF(p^k).

Elements are integer codes in [0, q).  The code of an element is the
base-p little-endian reading of its coefficient vector over the power
basis 1, x, ..., x^(k-1) modulo a fixed Conway polynomial, so code 0 is
the zero element and code 1 is the one element of every field.  Conway
polynomials pin the representation, which keeps element codes bit-exact
across runs and machines.

Multiplication, inversion and powering go through discrete-log tables
over a fixed primitive element: the class of x when k > 1 (Conway
polynomials are primitive), the smallest primitive root mod p when
k = 1.  Addition is a precomputed q x q digit-wise table.

Field objects are immutable after construction and safe to share
between threads.
"""

from __future__ import annotations

from .errors import FieldError

DEFAULT_ORDER_CAP = 81

# Conway polynomials for the extension degrees the package ships with,
# little-endian monic coefficient vectors: CONWAY[(p, k)][i] is the
# coefficient of x^i.  Degree-1 polynomials x - r (r the smallest
# primitive root mod p) are computed on the fly for any prime p.
CONWAY = {
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (2, 6): (1, 1, 0, 1, 1, 0, 1),
    (3, 2): (2, 2, 1),
    (3, 3): (1, 2, 0, 1),
    (3, 4): (2, 0, 0, 2, 1),
    (5, 2): (2, 4, 1),
    (7, 2): (3, 6, 1),
}


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class Field:
    """GF(p^k) with canonical integer element codes."""

    __slots__ = ("p", "k", "q", "char", "conway", "exp", "log",
                 "_add", "_neg", "_inv", "minus_one")

    def __init__(self, p: int, k: int):
        q = p**k
        self.p = p
        self.k = k
        self.q = q
        self.char = p
        if k == 1:
            # x - r for r = 1, 2, ...: the first r whose powers cover the
            # p - 1 nonzero elements is the smallest primitive root mod p
            tries = [((p - r, 1), r) for r in range(1, p)]
        elif (p, k) in CONWAY:
            # the class of x, code p, is primitive by the Conway property
            tries = [(CONWAY[(p, k)], p)]
        else:
            raise FieldError(f"no Conway polynomial embedded for GF({p}^{k})")

        for conway, alpha in tries:
            self.conway = conway
            # the powers of alpha until one repeats; alpha is primitive when
            # they return to 1 after q - 1 distinct elements
            exp = []
            log = [-1] * q
            val = 1
            while log[val] == -1:
                log[val] = len(exp)
                exp.append(val)
                val = self._mul_raw(val, alpha)
            if val == 1 and len(exp) == q - 1:
                break
        # exp is doubled so products of two logs never need a modular reduction
        self.exp = tuple(exp + exp)
        self.log = tuple(log)

        add = [0] * (q * q)
        for a in range(q):
            da = self._decode(a)
            for b in range(a, q):
                db = self._decode(b)
                s = self._encode([(x + y) % p for x, y in zip(da, db)])
                add[a * q + b] = s
                add[b * q + a] = s
        self._add = tuple(add)
        self._neg = tuple(self._encode([(-x) % p for x in self._decode(a)])
                          for a in range(q))
        inv = [0] * q
        for a in range(1, q):
            inv[a] = self.exp[(q - 1) - self.log[a]]
        self._inv = tuple(inv)
        self.minus_one = self._neg[1]

    # -- construction helpers -------------------------------------------

    def _decode(self, code: int) -> list:
        digits = []
        for _ in range(self.k):
            digits.append(code % self.p)
            code //= self.p
        return digits

    def _encode(self, digits) -> int:
        code = 0
        for d in reversed(digits):
            code = code * self.p + d
        return code

    def _mul_raw(self, a: int, b: int) -> int:
        """Schoolbook polynomial product reduced mod the Conway polynomial."""
        p, k = self.p, self.k
        da, db = self._decode(a), self._decode(b)
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] = (prod[i + j] + x * y) % p
        for deg in range(2 * k - 2, k - 1, -1):
            c = prod[deg]
            if c:
                prod[deg] = 0
                for j in range(k):
                    prod[deg - k + j] = (prod[deg - k + j] - c * self.conway[j]) % p
        return self._encode(prod[:k])

    # -- arithmetic ------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return self._add[a * self.q + b]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def sub(self, a: int, b: int) -> int:
        return self._add[a * self.q + self._neg[b]]

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp[self.log[a] + self.log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no inverse")
        return self._inv[a]

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("zero to a negative power")
            return 0
        return self.exp[(self.log[a] * e) % (self.q - 1)]

    def frob(self, a: int, m: int = 1) -> int:
        """a^(p^m), the m-fold Frobenius."""
        return self.pow(a, self.p ** (m % self.k))

    def sqrt_char2(self, a: int) -> int:
        """The unique square root, valid only in characteristic 2."""
        return self.pow(a, self.q // 2) if a else 0

    # -- structure -------------------------------------------------------

    def elements(self) -> range:
        return range(self.q)

    def check_code(self, code: int) -> int:
        if not isinstance(code, int) or not 0 <= code < self.q:
            raise FieldError(f"invalid element code {code!r} for GF({self.q})")
        return code

    def conway_str(self) -> str:
        terms = []
        for i in range(self.k, -1, -1):
            c = self.conway[i]
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append("x" if c == 1 else f"{c}*x")
            else:
                terms.append(f"x^{i}" if c == 1 else f"{c}*x^{i}")
        return " + ".join(terms)

    def __repr__(self):
        return f"GF({self.q})"


_CACHE: dict = {}


def field_make(p: int, k: int) -> Field:
    """Construct (or fetch the cached) GF(p^k); rejects non-prime p and
    q > DEFAULT_ORDER_CAP."""
    if not isinstance(k, int) or k < 1:
        raise FieldError(f"k = {k!r} is not a positive integer")
    # the order grows one factor p >= 2 at a time until it passes the cap,
    # so a huge k stops within the cap's bit length and a huge p after one
    # step, before p's trial division
    order, e = 1, 0
    while isinstance(p, int) and p > 1 and e < k and order <= DEFAULT_ORDER_CAP:
        order, e = order * p, e + 1
    if order > DEFAULT_ORDER_CAP:
        rel = "=" if e == k else ">="
        raise FieldError(
            f"field order {p}^{k} {rel} {order} exceeds the cap {DEFAULT_ORDER_CAP}")
    if not isinstance(p, int) or not is_prime(p):
        raise FieldError(f"p = {p!r} is not prime")
    key = (p, k)
    if key not in _CACHE:
        _CACHE[key] = Field(p, k)
    return _CACHE[key]


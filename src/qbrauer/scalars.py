"""
Exact coefficient arithmetic in the localization Z[q^{±1}, r^{±1}, (q-1)^{-1}, (r-1)^{-1}].

A scalar is a fraction

    num / (q^a * r^c * (q-1)^u * (r-1)^v)

where ``num`` is a polynomial in Z[q, r] and the denominator is a monomial in
the four prime elements q, r, q-1, r-1 of Z[q, r].  Scalars are kept in
canonical form: whenever a denominator exponent is positive, ``num`` is not
divisible by the corresponding prime.  Since the four primes are pairwise
non-associated irreducibles of the UFD Z[q, r], the canonical form is unique
and equality of ring elements is structural equality.

The four primes are defined once, in ``PRIMES``: each entry holds the
polynomial, the key of its exponent in the JSON ``"den"`` object and its
printed symbol.  A ``Scalar`` stores ``num`` and ``den``, the tuple of the
four exponents (a, c, u, v) in the order of ``PRIMES``, and every operation
on the denominator is one loop over ``PRIMES`` and ``den``; no other module
reads the exponents.

Scalars are hash-consed: the constructor canonicalizes and then returns the
one object kept for that canonical form, so equal values are the same object
and ``==`` and ``hash`` are identity.  The results of ``*`` and ``+`` are kept
by their operand pair, and ``str`` caches its text; ``inv`` is computed on
each call.  Hence no ``Scalar`` and no ``IntPoly.terms`` may be changed in
place, and a ``Scalar`` cannot be copied or pickled.  The tables are
process-global and never shrink.

No floating point is used anywhere; specialization targets are exact fields
(``fractions.Fraction`` or the prime fields provided here).

``classical_limit`` maps R0 = Z[q^{±1}, r^{±1}, δ], δ = (r-1)/(q-1), the ring
the defining relations need, onto Z[δ] by q = r = 1.  ``brauer_limit(s, N)``
is its value at δ = N, so it raises outside R0 even where a limit along
r = q^N exists, as for (r - q^2)/(q-1)^2 at N = 2; no structure constant is.

>>> b = Scalar(PRIMES[3].poly, 0, 0, 1)  # (r-1)/(q-1), the loop value
>>> print(b)
(r-1) / (q-1)
>>> b * QM1 is r_scalar() - ONE
True
>>> classical_limit(b * b - r_scalar() * b), brauer_limit(b, 3)  # δ^2 - δ, and δ = 3
({1: -1, 2: 1}, 3)
"""

from __future__ import annotations

from math import comb
from operator import add, sub
from typing import NamedTuple


class NotAUnit(ArithmeticError):
    """Raised when inverting a scalar that is not a unit of the localization."""


class PoleAtSpecialization(ArithmeticError):
    """Raised when a denominator factor vanishes at the specialization point."""


# ---------------------------------------------------------------------------
# polynomials in Z[q, r], sparse: {(deg_q, deg_r): coefficient}
# ---------------------------------------------------------------------------

class IntPoly:
    """Sparse polynomial in Z[q, r] with arbitrary-precision coefficients.

    Invariant: no stored coefficient is zero; the zero polynomial is the
    empty map.  ``IntPoly(terms)`` drops zeros from any dict; the ring
    operations build zero-free dicts and wrap them with ``_adopt``.
    """

    __slots__ = ("terms", "_hash")

    def __init__(self, terms=None):
        if terms is None:
            terms = {}
        self.terms = {m: c for m, c in terms.items() if c}
        self._hash = None

    @classmethod
    def _adopt(cls, terms: dict) -> "IntPoly":
        """Wrap a fresh dict that holds no zero coefficient."""
        p = cls.__new__(cls)
        p.terms, p._hash = terms, None
        return p

    @classmethod
    def const(cls, c: int) -> "IntPoly":
        return cls({(0, 0): c} if c else {})

    @classmethod
    def monomial(cls, c: int, eq: int, er: int) -> "IntPoly":
        return cls({(eq, er): c} if c else {})

    def __add__(self, other: "IntPoly") -> "IntPoly":
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, 0) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return IntPoly._adopt(out)

    def __neg__(self) -> "IntPoly":
        return IntPoly._adopt({m: -c for m, c in self.terms.items()})

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        out: dict = {}
        for (e1, f1), c1 in self.terms.items():
            for (e2, f2), c2 in other.terms.items():
                m = (e1 + e2, f1 + f2)
                s = out.get(m, 0) + c1 * c2
                if s:
                    out[m] = s
                else:
                    del out[m]
        return IntPoly._adopt(out)

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPoly) and self.terms == other.terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(tuple(sorted(self.terms.items())))
        return self._hash

    def divide(self, i: int):
        """Exact division by the prime ``PRIMES[i]``, x - a, or None.

        Viewing the polynomial in x with coefficients in the other variable,
        synthetic division gives the quotient coefficients from the top,
        b_{k-1} = c_k + a b_k; the remainder, the value at x = a, must vanish.
        """
        x, a = PRIMES[i].var, PRIMES[i].root
        cols: dict = {}
        for m, c in self.terms.items():
            cols.setdefault(m[1 - x], {})[m[x]] = c
        out: dict = {}
        for y, col in cols.items():
            acc = 0
            for d in range(max(col), 0, -1):
                acc = col.get(d, 0) + a * acc
                if acc:
                    out[(d - 1, y) if x == 0 else (y, d - 1)] = acc
            if col.get(0, 0) + a * acc:
                return None
        return IntPoly._adopt(out)

    def evaluate(self, q0, r0):
        """Evaluate at field elements q0, r0 (exact field arithmetic)."""
        acc = 0 * q0
        for (eq, er), c in self.terms.items():
            acc = acc + c * q0 ** eq * r0 ** er
        return acc

    def __repr__(self) -> str:
        return f"IntPoly({self.terms!r})"

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (eq, er) in sorted(self.terms, reverse=True):
            c = self.terms[(eq, er)]
            factors = []
            if eq:
                factors.append("q" if eq == 1 else f"q^{eq}")
            if er:
                factors.append("r" if er == 1 else f"r^{er}")
            body = "*".join(factors)
            if not body:
                parts.append(f"{c:+d}")
            elif c == 1:
                parts.append(f"+{body}")
            elif c == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{c:+d}*{body}")
        s = "".join(parts)
        return s[1:] if s.startswith("+") else s


class Prime(NamedTuple):
    """A prime x - a of the denominator, for x = q or r and a = 0 or 1."""

    poly: IntPoly  # x - a
    var: int  # the position of x's degree in a monomial (deg_q, deg_r)
    root: int  # a
    key: str  # the key of its exponent in the JSON "den" object
    symbol: str  # how ``str`` prints it


# the four primes of the localization, in the order of ``Scalar.den``
PRIMES = (
    Prime(IntPoly({(1, 0): 1}), 0, 0, "q", "q"),
    Prime(IntPoly({(0, 1): 1}), 1, 0, "r", "r"),
    Prime(IntPoly({(1, 0): 1, (0, 0): -1}), 0, 1, "qm1", "(q-1)"),
    Prime(IntPoly({(0, 1): 1, (0, 0): -1}), 1, 1, "rm1", "(r-1)"),
)
_P_ZERO = IntPoly()
_P_ONE = IntPoly.const(1)


def _power_product(exps) -> IntPoly:
    """The product of ``PRIMES[i].poly ** exps[i]``."""
    out = _P_ONE
    for p, e in zip(PRIMES, exps):
        for _ in range(e):
            out = out * p.poly
    return out


# ---------------------------------------------------------------------------
# scalars: canonical fractions num / q^a r^c (q-1)^u (r-1)^v
# ---------------------------------------------------------------------------

class Scalar:
    """Element of Z[q^{±1}, r^{±1}, (q-1)^{-1}, (r-1)^{-1}] in canonical form:
    ``num`` over the product of ``PRIMES[i].poly ** den[i]``.

    ``den`` is the tuple of the four exponents (a, c, u, v) of q, r, q-1 and
    r-1, the order of ``PRIMES``; ``Scalar(num, a, c, u, v)`` builds one.

    Hash-consed: each value is one object, so ``==`` and ``hash`` are the
    object defaults (identity), and ``*``, ``+`` and ``str`` are computed
    once per operand and then looked up.
    """

    __slots__ = ("num", "den", "_str")

    def __new__(cls, num: IntPoly, a: int = 0, c: int = 0, u: int = 0, v: int = 0):
        # divide each prime out of num while its exponent is positive; zero
        # ends with every exponent 0
        den = [a, c, u, v]
        for i, e in enumerate(den):
            while e > 0:
                d = num.divide(i)
                if d is None:
                    break
                num, e = d, e - 1
            den[i] = e
        den = tuple(den)
        key = (num, den)
        self = _INTERN.get(key)
        if self is None:
            self = object.__new__(cls)
            self.num, self.den, self._str = num, den, None
            _INTERN[key] = self
        return self

    def __add__(self, other: "Scalar") -> "Scalar":
        key = (self, other)
        out = _ADD.get(key)
        if out is None:
            den = self.den
            if den == other.den:
                num = self.num + other.num
            else:
                # least common denominator monomial: pointwise max of exponents
                den = tuple(map(max, den, other.den))
                num = _lift(self, den) + _lift(other, den)
            out = _ADD[key] = Scalar(num, *den)
        return out

    def __sub__(self, other: "Scalar") -> "Scalar":
        return self + (-other)

    def __neg__(self) -> "Scalar":
        return Scalar(-self.num, *self.den)

    def __mul__(self, other: "Scalar") -> "Scalar":
        key = (self, other)
        out = _MUL.get(key)
        if out is None:
            out = _MUL[key] = Scalar(self.num * other.num, *map(add, self.den, other.den))
        return out

    def __pow__(self, k: int) -> "Scalar":
        if k < 0:
            return self.inv() ** (-k)
        out = ONE
        for _ in range(k):
            out = out * self
        return out

    def inv(self) -> "Scalar":
        """Inverse; the numerator must be, up to sign, a monomial in the
        four primes q, r, q-1, r-1.
        """
        if self is ZERO:
            raise NotAUnit("zero is not invertible")
        num, exps = self.num, []
        for i in range(len(PRIMES)):
            e = 0
            while (d := num.divide(i)) is not None:
                num, e = d, e + 1
            exps.append(e)
        if num.terms not in ({(0, 0): 1}, {(0, 0): -1}):
            raise NotAUnit(f"numerator {self.num} has a non-monomial factor")
        # num is the sign left over
        return Scalar(num * _power_product(self.den), *exps)

    def __repr__(self) -> str:
        return f"Scalar({self})"

    def __str__(self) -> str:
        if self._str is None:
            den = []
            for p, e in zip(PRIMES, self.den):
                if e == 1:
                    den.append(p.symbol)
                elif e > 1:
                    den.append(f"{p.symbol}^{e}")
            num = str(self.num)
            if den and len(self.num.terms) > 1:
                num = f"({num})"
            self._str = f"{num} / {'*'.join(den)}" if den else num
        return self._str


# Process-global tables: every Scalar by its canonical form (num, den), and
# the results of * and + by their operand objects.  Entries are never
# removed.
_INTERN: dict = {}
_MUL: dict = {}
_ADD: dict = {}


def _lift(s: Scalar, den: tuple) -> IntPoly:
    """Numerator of ``s`` over the denominator with the exponents ``den``."""
    f = _power_product(map(sub, den, s.den))
    return s.num if f is _P_ONE else s.num * f


ZERO = Scalar(_P_ZERO)
ONE = Scalar(_P_ONE)


def q_scalar() -> Scalar:
    return Scalar(PRIMES[0].poly)


def r_scalar() -> Scalar:
    return Scalar(PRIMES[1].poly)


def qm1_scalar() -> Scalar:
    return Scalar(PRIMES[2].poly)


# the coefficients of the generator rules, shared by the hot loops
Q = q_scalar()
QM1 = qm1_scalar()
Q_INV = Q.inv()
Q_INV_M1 = Q_INV - ONE


def r_power(N: int) -> Scalar:
    """q^N as a scalar (used when r is specialized to q^N symbolically)."""
    if N >= 0:
        return Scalar(IntPoly.monomial(1, N, 0))
    return Scalar(_P_ONE, -N)


def involves_r(s: Scalar) -> bool:
    """Whether r occurs in ``s``, in its numerator or in its denominator."""
    return any(er for _, er in s.num.terms) or any(
        e and p.var == 1 for p, e in zip(PRIMES, s.den))


# ---------------------------------------------------------------------------
# specialization to a field and the classical q -> 1 limit
# ---------------------------------------------------------------------------

def specialize(s: Scalar, q0, r0):
    """Evaluate ``s`` at field elements q0, r0.

    Raises PoleAtSpecialization when a denominator factor vanishes there.
    """
    zero = 0 * q0
    if q0 == zero or r0 == zero:
        raise PoleAtSpecialization("q and r must be nonzero")
    den = q0 ** 0
    for p, e in zip(PRIMES, s.den):
        if e:
            f = p.poly.evaluate(q0, r0)
            if f == zero:
                raise PoleAtSpecialization(f"{p.symbol} vanishes at the specialization")
            den = den * f ** e
    return s.num.evaluate(q0, r0) / den


def classical_limit(s: Scalar) -> dict:
    """The image of ``s`` in Z[δ] under q = r = 1, as a zero-free
    ``{degree: coefficient}`` dict; PoleAtSpecialization if ``s`` is not in R0.

    With x = q - 1 and y = r - 1 = x δ, num / (q^a r^c x^u y^v) is in R0 iff
    v = 0 and num(x+1, y+1) has no monomial x^i y^j with i + j < u; the
    image is the part with i + j = u, as x^i y^j / x^u = x^(i+j-u) δ^j.
    """
    if any(e and p.root and p.var for p, e in zip(PRIMES, s.den)):
        raise PoleAtSpecialization("an (r-1) denominator is not in Z[q^±1, r^±1, δ]")
    u = sum(e for p, e in zip(PRIMES, s.den) if p.root)
    terms, out = s.num.terms.items(), {}
    for d in range(u + 1):
        for j in range(d + 1):
            # the coefficient of x^(d-j) y^j in num(x+1, y+1)
            a = sum(c * comb(eq, d - j) * comb(er, j) for (eq, er), c in terms)
            if a:
                if d < u:
                    raise PoleAtSpecialization("a (q-1) factor does not cancel at q = r = 1")
                out[j] = a
    return out


def brauer_limit(s: Scalar, N: int) -> int:
    """The image of ``s`` in Z[δ] at δ = N, which is the value at q = 1
    along r = q^N.  It stays only because the bench checker in
    ``qbench/rep.py`` calls it, until the benchmark moves to
    :func:`classical_limit`."""
    return sum(c * N ** j for j, c in classical_limit(s).items())


# ---------------------------------------------------------------------------
# computable fields: exact rationals are fractions.Fraction; prime fields here
# ---------------------------------------------------------------------------

class GFElem:
    """Element of a prime field F_p."""

    __slots__ = ("p", "v")

    def __init__(self, p: int, v: int):
        self.p = p
        self.v = v % p

    def __pow__(self, k: int):
        if k < 0:
            return self.inv() ** (-k)
        return GFElem(self.p, pow(self.v, k, self.p))

    def inv(self):
        if self.v == 0:
            raise ZeroDivisionError("division by zero in F_p")
        return GFElem(self.p, pow(self.v, -1, self.p))

    def _lift(op):
        """The operator ``op(x, w)`` of x and the residue w of an int or of an
        element of the same field; ``NotImplemented`` for any other type."""

        def method(self, other):
            if isinstance(other, GFElem):
                if other.p != self.p:
                    raise ValueError("mixed characteristics")
                return op(self, other.v)
            if isinstance(other, int):
                return op(self, other % self.p)
            return NotImplemented

        return method

    __add__ = __radd__ = _lift(lambda x, w: GFElem(x.p, x.v + w))
    __sub__ = _lift(lambda x, w: GFElem(x.p, x.v - w))
    __rsub__ = _lift(lambda x, w: GFElem(x.p, w - x.v))
    __mul__ = __rmul__ = _lift(lambda x, w: GFElem(x.p, x.v * w))
    __truediv__ = _lift(lambda x, w: x * GFElem(x.p, w).inv())
    __rtruediv__ = _lift(lambda x, w: GFElem(x.p, w) * x.inv())
    __eq__ = _lift(lambda x, w: x.v == w)
    del _lift

    def __hash__(self):
        return hash((self.p, self.v))

    def __repr__(self):
        return f"GF({self.p})({self.v})"


# Miller-Rabin with the first 13 prime bases is deterministic below the least
# strong pseudoprime to all of them (Sorenson & Webster, Math. Comp. 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    """Deterministic primality test for p < _MR_LIMIT."""
    if p >= _MR_LIMIT:
        raise ValueError(f"{p} is beyond the deterministic primality test")
    if p < 2:
        return False
    for a in _MR_BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """The prime field F_p, callable on integers."""

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p

    def __call__(self, v: int) -> GFElem:
        return GFElem(self.p, v)

    def __repr__(self):
        return f"PrimeField({self.p})"


# ---------------------------------------------------------------------------
# JSON wire format (bit-exact round trip; coefficients as decimal strings)
# ---------------------------------------------------------------------------

def scalar_to_json(s: Scalar) -> dict:
    return {
        "num": [[str(c), eq, er] for (eq, er), c in sorted(s.num.terms.items())],
        "den": {p.key: e for p, e in zip(PRIMES, s.den)},
    }


# The largest exponent that comes in from outside: of q or r in a numerator
# or of a prime in a denominator read by ``scalar_from_json``, and |N| of the
# integral version r = q^N.  The kernel's own coefficients stay far below it
# (q-degree 27, r-degree 3 and denominator exponents 2 on 1,000 sampled
# n = 7 products).  Above it the work grows fast: a sum over (q-1)^u (r-1)^v
# has about u v terms of u + v bits each.
MAX_EXPONENT = 128


def scalar_from_json(obj: dict) -> Scalar:
    """Read a scalar; every exponent must be an integer in 0..MAX_EXPONENT,
    so the numerator lies in Z[q, r] and the denominator is a monomial, each
    monomial of the numerator is listed once, and a coefficient string is
    in the decimal form ``scalar_to_json`` writes."""
    num = obj.get("num") if isinstance(obj, dict) else None
    if not (isinstance(num, list) and isinstance(obj.get("den"), dict) and all(
        isinstance(t, list) and len(t) == 3 and type(t[0]) in (int, str)
        and str(int(t[0])) == str(t[0]) for t in num
    )):
        raise ValueError('a scalar must be {"num": [[c, eq, er], ...], "den": {...}}, c decimal')
    keys = {p.key for p in PRIMES}
    extra, missing = set(obj["den"]) - keys, keys - set(obj["den"])
    if extra:
        raise ValueError(f"unknown keys {sorted(extra)} in a scalar's den")
    if missing:
        raise ValueError(f"missing keys {sorted(missing)} in a scalar's den")
    den = [obj["den"][p.key] for p in PRIMES]
    exps = [e for t in num for e in t[1:]] + den
    if any(type(e) is not int or not 0 <= e <= MAX_EXPONENT for e in exps):
        raise ValueError(f"scalar exponents must be integers in 0..{MAX_EXPONENT}")
    terms = {(eq, er): int(c) for c, eq, er in num}
    if len(terms) != len(num):
        raise ValueError("a monomial occurs twice in a scalar's num")
    return Scalar(IntPoly(terms), *den)

"""
Exact coefficient arithmetic in the localization Z[q^{±1}, r^{±1}, (q-1)^{-1}].

A scalar is a fraction

    num / (q-1)^u

where ``num`` is a Laurent polynomial in Z[q^{±1}, r^{±1}] and u >= 0.  It
is in canonical form when q - 1 does not divide ``num`` while u > 0.  Since
q - 1 is a prime of the UFD Z[q^{±1}, r^{±1}], the canonical form is unique
and equality of ring elements is structural equality.  The paper's ring
R0 = Z[q^{±1}, r^{±1}, δ], δ = (r-1)/(q-1), lies inside; r - 1 is not a
unit, and no structure constant needs its inverse.

``Scalar.split`` is the one place that writes a scalar with a polynomial
numerator, as num' / (q^a r^c (q-1)^u) with num' in Z[q, r]; the printed
text, the JSON ``"den"`` keys ``q``, ``r``, ``qm1`` and ``classical_limit``
read it.

Scalars are hash-consed: the constructor canonicalizes and then returns the
one object kept for that canonical form, so equal values are the same object
and ``==`` and ``hash`` are identity.  ``*`` and ``+`` are each a
``functools.cache`` keyed by the operand pair, ``str`` keeps its text in a
slot, and ``inv`` is computed on each call.  Hence no ``Scalar`` and no
``IntPoly.terms`` may be changed in place, and a ``Scalar`` cannot be copied
or pickled.  The tables are process-global and never shrink.

No floating point is used anywhere; specialization targets are exact fields
(``fractions.Fraction`` or the prime fields provided here).

``classical_limit`` maps R0 onto Z[δ] by q = r = 1, and is cached per
interned scalar with ``functools.cache``.  ``brauer_limit(s, N)``
is its value at δ = N, so it raises outside R0 even where a limit along
r = q^N exists, as for (r - q^2)/(q-1)^2 at N = 2; no structure constant is.

>>> b = Scalar(IntPoly({(0, 1): 1, (0, 0): -1}), 1)  # (r-1)/(q-1), the loop value
>>> print(b)
(r-1) / (q-1)
>>> b * QM1 is r_scalar() - ONE
True
>>> s = b * Q_INV  # num = r q^-1 - q^-1, a Laurent polynomial
>>> s.split()[1:], str(s)
((1, 0, 1), '(r-1) / q*(q-1)')
>>> classical_limit(b * b - r_scalar() * b), brauer_limit(b, 3)  # δ^2 - δ, and δ = 3
({1: -1, 2: 1}, 3)
"""

from __future__ import annotations

from functools import cache
from math import comb


class NotAUnit(ArithmeticError):
    """Raised when inverting a scalar that is not a unit of the localization."""


class PoleAtSpecialization(ArithmeticError):
    """Raised when a denominator factor vanishes at the specialization point."""


# ---------------------------------------------------------------------------
# Laurent polynomials in Z[q^{±1}, r^{±1}], sparse: {(deg_q, deg_r): coefficient}
# ---------------------------------------------------------------------------

class IntPoly:
    """Sparse Laurent polynomial in Z[q^{±1}, r^{±1}] with arbitrary-precision
    coefficients.

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
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    def divide_qm1(self):
        """Exact division by q - 1, or None.

        Each column of one r-degree is a Laurent polynomial in q; synthetic
        division gives its quotient coefficients from the top down,
        b_{k-1} = c_k + b_k, and the remainder, the column's value at
        q = 1, must vanish.
        """
        cols: dict = {}
        for (eq, er), c in self.terms.items():
            cols.setdefault(er, {})[eq] = c
        out: dict = {}
        for er, col in cols.items():
            acc, low = 0, min(col)
            for d in range(max(col), low, -1):
                acc += col.get(d, 0)
                if acc:
                    out[(d - 1, er)] = acc
            if col[low] + acc:
                return None
        return IntPoly._adopt(out)

    def evaluate(self, q0, r0):
        """Evaluate at nonzero field elements q0, r0 (exact field arithmetic)."""
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


def _qm1_power(k: int) -> IntPoly:
    """(q-1)^k for k >= 0, by the binomial theorem."""
    return IntPoly._adopt({(i, 0): (-1) ** (k - i) * comb(k, i) for i in range(k + 1)})


# ---------------------------------------------------------------------------
# scalars: canonical fractions num / (q-1)^u, num a Laurent polynomial
# ---------------------------------------------------------------------------

class Scalar:
    """Element of Z[q^{±1}, r^{±1}, (q-1)^{-1}] in canonical form: the Laurent
    polynomial ``num`` over (q-1)^``u``; ``Scalar(num, u)`` builds one.

    Hash-consed: each value is one object, so ``==`` and ``hash`` are the
    object defaults (identity), and ``*``, ``+`` and ``str`` are computed
    once per operand and then looked up.  ``str`` reads a slot, not a
    ``functools.cache``, which would cost a bound-method call: 83 ns a read
    against 62 ns (Intel Xeon, CPython 3.11).
    """

    __slots__ = ("num", "u", "_str")

    def __new__(cls, num: IntPoly, u: int = 0):
        # divide q - 1 out of num while u is positive; zero ends with u = 0
        while u > 0 and (d := num.divide_qm1()) is not None:
            num, u = d, u - 1
        key = (num, u)
        self = _INTERN.get(key)
        if self is None:
            self = object.__new__(cls)
            self.num, self.u, self._str = num, u, None
            _INTERN[key] = self
        return self

    @cache
    def __add__(self, other: "Scalar") -> "Scalar":
        u = max(self.u, other.u)
        return Scalar(_lift(self, u) + _lift(other, u), u)

    def __sub__(self, other: "Scalar") -> "Scalar":
        return self + (-other)

    def __neg__(self) -> "Scalar":
        return Scalar(-self.num, self.u)

    @cache
    def __mul__(self, other: "Scalar") -> "Scalar":
        return Scalar(self.num * other.num, self.u + other.u)

    def __pow__(self, k: int) -> "Scalar":
        if k < 0:
            return self.inv() ** (-k)
        out = ONE
        for _ in range(k):
            out = out * self
        return out

    def inv(self) -> "Scalar":
        """Inverse; ``num`` must be ± a monomial times a power of q - 1."""
        if self is ZERO:
            raise NotAUnit("zero is not invertible")
        num, k = self.num, 0
        while (d := num.divide_qm1()) is not None:
            num, k = d, k + 1
        (m, c), *rest = num.terms.items()
        if rest or c not in (1, -1):
            raise NotAUnit(f"numerator {self.num} has a non-monomial factor")
        return Scalar(IntPoly._adopt({(-m[0], -m[1]): c}) * _qm1_power(self.u), k)

    def split(self) -> tuple:
        """``(num', a, c, u)`` with ``self`` = num' / (q^a r^c (q-1)^u), where
        num' is in Z[q, r] and a, c are the least exponents that allow it."""
        terms = self.num.terms
        a = -min([0, *(eq for eq, _ in terms)])
        c = -min([0, *(er for _, er in terms)])
        num = self.num
        if a or c:
            num = IntPoly._adopt({(eq + a, er + c): x for (eq, er), x in terms.items()})
        return num, a, c, self.u

    def __repr__(self) -> str:
        return f"Scalar({self})"

    def __str__(self) -> str:
        if self._str is None:
            num, a, c, u = self.split()
            den = [x if e == 1 else f"{x}^{e}"
                   for x, e in (("q", a), ("r", c), ("(q-1)", u)) if e]
            text = str(num)
            if den and len(num.terms) > 1:
                text = f"({text})"
            self._str = f"{text} / {'*'.join(den)}" if den else text
        return self._str


# Process-global intern table: every Scalar by its canonical form (num, u).
# Entries are never removed.
_INTERN: dict = {}


def _lift(s: Scalar, u: int) -> IntPoly:
    """Numerator of ``s`` over (q-1)^u, for u >= s.u."""
    return s.num if u == s.u else s.num * _qm1_power(u - s.u)


ZERO = Scalar(IntPoly())
ONE = Scalar(IntPoly.const(1))


def q_scalar() -> Scalar:
    return Scalar(IntPoly.monomial(1, 1, 0))


def r_scalar() -> Scalar:
    return Scalar(IntPoly.monomial(1, 0, 1))


def qm1_scalar() -> Scalar:
    return Scalar(_qm1_power(1))


# the coefficients of the generator rules, shared by the hot loops
Q = q_scalar()
QM1 = qm1_scalar()
Q_INV = Q.inv()
Q_INV_M1 = Q_INV - ONE


def r_power(N: int) -> Scalar:
    """q^N as a scalar, for N of either sign (r specialized to q^N)."""
    return Scalar(IntPoly.monomial(1, N, 0))


def involves_r(s: Scalar) -> bool:
    """Whether r occurs in ``s``; only ``num`` can hold it."""
    return any(er for _, er in s.num.terms)


# ---------------------------------------------------------------------------
# specialization to a field and the classical q -> 1 limit
# ---------------------------------------------------------------------------

def specialize(s: Scalar, q0, r0):
    """Evaluate ``s`` at field elements q0, r0.

    Raises PoleAtSpecialization when q0 or r0 is zero, or q0 = 1 and u > 0.
    """
    zero = 0 * q0
    if q0 == zero or r0 == zero:
        raise PoleAtSpecialization("q and r must be nonzero")
    den = (q0 - 1) ** s.u
    if den == zero:
        raise PoleAtSpecialization("(q-1) vanishes at the specialization")
    return s.num.evaluate(q0, r0) / den


@cache
def classical_limit(s: Scalar) -> dict:
    """The image of ``s`` in Z[δ] under q = r = 1, as a zero-free
    ``{degree: coefficient}`` dict; PoleAtSpecialization if ``s`` is not in R0.

    With x = q - 1, y = r - 1 = x δ and ``s.split()`` = (num, a, c, u),
    s is in R0 iff num(x+1, y+1) has no monomial x^i y^j with i + j < u; the
    image is the part with i + j = u, as x^i y^j / x^u = x^(i+j-u) δ^j.

    The value is cached with ``functools.cache``, keyed by the interned
    scalar, filled on first use and never cleared; a pole is raised again on
    every call, since the cache keeps no exception.  Every caller gets the
    one dict of its scalar, so no caller may change it.
    """
    num, _, _, u = s.split()
    terms, out = num.terms.items(), {}
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
    num, a, c, u = s.split()
    return {
        "num": [[str(x), eq, er] for (eq, er), x in sorted(num.terms.items())],
        "den": {"q": a, "r": c, "qm1": u},
    }


# The largest exponent that comes in from outside: of q or r in a numerator,
# of q, r or q - 1 in a denominator read by ``scalar_from_json``, and |N| of
# the integral version r = q^N.  The kernel's own coefficients stay far below
# it (q-degree 27, r-degree 3 and denominator exponents 2 on 1,000 sampled
# n = 7 products).  Above it the work grows fast: dividing by q - 1 walks
# every q-degree between a numerator's least and greatest, and (q-1)^u has
# u + 1 terms of up to u bits each.
MAX_EXPONENT = 128


def scalar_from_json(obj: dict) -> Scalar:
    """Read a scalar; ``den`` holds exactly the keys ``q``, ``r`` and
    ``qm1``, every exponent must be an integer in 0..MAX_EXPONENT, so the
    numerator lies in Z[q, r], each monomial of the numerator is listed
    once, and a coefficient string is in the decimal form ``scalar_to_json``
    writes."""
    num = obj.get("num") if isinstance(obj, dict) else None
    if not (isinstance(num, list) and isinstance(obj.get("den"), dict) and all(
        isinstance(t, list) and len(t) == 3 and type(t[0]) in (int, str)
        and str(int(t[0])) == str(t[0]) for t in num
    )):
        raise ValueError('a scalar must be {"num": [[c, eq, er], ...], "den": {...}}, c decimal')
    keys = {"q", "r", "qm1"}
    extra, missing = set(obj["den"]) - keys, keys - set(obj["den"])
    if extra:
        raise ValueError(f"unknown keys {sorted(extra)} in a scalar's den")
    if missing:
        raise ValueError(f"missing keys {sorted(missing)} in a scalar's den")
    a, c, u = (obj["den"][k] for k in ("q", "r", "qm1"))
    exps = [e for t in num for e in t[1:]] + [a, c, u]
    if any(type(e) is not int or not 0 <= e <= MAX_EXPONENT for e in exps):
        raise ValueError(f"scalar exponents must be integers in 0..{MAX_EXPONENT}")
    terms = {(eq - a, er - c): int(x) for x, eq, er in num}
    if len(terms) != len(num):
        raise ValueError("a monomial occurs twice in a scalar's num")
    return Scalar(IntPoly(terms), u)

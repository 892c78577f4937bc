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

Scalars are hash-consed: the constructor canonicalizes and then returns the
one object kept for that canonical form, so equal values are the same object
and ``==`` and ``hash`` are identity.  The results of ``*`` and ``+`` are kept
by their operand pair, those of ``inv`` by their operand, and ``str`` caches
its text.  Hence no ``Scalar`` and no ``IntPoly.terms`` may be changed in
place, and a ``Scalar`` cannot be copied or pickled.  The tables are
process-global and never shrink; one repetition of the benchmark's oracle-n6
workload (300 products at n = 6) leaves 6,833 scalars, 7,137 products and
7,130 sums in them.

No floating point is used anywhere; specialization targets are exact fields
(``fractions.Fraction`` or the prime fields provided here).

>>> b_scalar() * (q_scalar() - one()) == r_scalar() - one()
True
>>> brauer_limit(b_scalar(), 3)
Fraction(3, 1)
"""

from __future__ import annotations

from fractions import Fraction


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
    empty map.
    """

    __slots__ = ("terms", "_hash")

    def __init__(self, terms=None):
        if terms is None:
            terms = {}
        self.terms = {m: c for m, c in terms.items() if c}
        self._hash = None

    @classmethod
    def const(cls, c: int) -> "IntPoly":
        return cls({(0, 0): c} if c else {})

    @classmethod
    def monomial(cls, c: int, eq: int, er: int) -> "IntPoly":
        return cls({(eq, er): c} if c else {})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "IntPoly") -> "IntPoly":
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, 0) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return IntPoly(out)

    def __neg__(self) -> "IntPoly":
        return IntPoly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return self + (-other)

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
        return IntPoly(out)

    def scale(self, c: int) -> "IntPoly":
        if c == 0:
            return IntPoly()
        return IntPoly({m: c * v for m, v in self.terms.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPoly) and self.terms == other.terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(tuple(sorted(self.terms.items())))
        return self._hash

    def divide_q(self):
        """Exact division by q, or None."""
        if any(eq == 0 for eq, _ in self.terms):
            return None
        return IntPoly({(eq - 1, er): c for (eq, er), c in self.terms.items()})

    def divide_r(self):
        if any(er == 0 for _, er in self.terms):
            return None
        return IntPoly({(eq, er - 1): c for (eq, er), c in self.terms.items()})

    def divide_qm1(self):
        """Exact division by (q - 1), or None.

        Viewing the polynomial in q with coefficients in Z[r], synthetic
        division gives quotient coefficients as suffix sums; the remainder is
        the value at q = 1, which must vanish for exactness.
        """
        by_r: dict = {}
        for (eq, er), c in self.terms.items():
            by_r.setdefault(er, {})[eq] = c
        out: dict = {}
        for er, col in by_r.items():
            if sum(col.values()) != 0:
                return None
            acc = 0
            for eq in range(max(col), 0, -1):
                acc += col.get(eq, 0)
                if acc:
                    out[(eq - 1, er)] = acc
        return IntPoly(out)

    def divide_rm1(self):
        by_q: dict = {}
        for (eq, er), c in self.terms.items():
            by_q.setdefault(eq, {})[er] = c
        out: dict = {}
        for eq, col in by_q.items():
            if sum(col.values()) != 0:
                return None
            acc = 0
            for er in range(max(col), 0, -1):
                acc += col.get(er, 0)
                if acc:
                    out[(eq, er - 1)] = acc
        return IntPoly(out)

    def subs_r_power(self, N: int) -> dict:
        """Substitute r := q^N; returns a Laurent polynomial {deg_q: coeff}."""
        out: dict = {}
        for (eq, er), c in self.terms.items():
            d = eq + N * er
            s = out.get(d, 0) + c
            if s:
                out[d] = s
            else:
                del out[d]
        return out

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


_P_ZERO = IntPoly()
_P_ONE = IntPoly.const(1)
_DIVIDERS = {
    "q": IntPoly.divide_q,
    "r": IntPoly.divide_r,
    "qm1": IntPoly.divide_qm1,
    "rm1": IntPoly.divide_rm1,
}


# ---------------------------------------------------------------------------
# scalars: canonical fractions num / q^a r^c (q-1)^u (r-1)^v
# ---------------------------------------------------------------------------

class Scalar:
    """Element of Z[q^{±1}, r^{±1}, (q-1)^{-1}, (r-1)^{-1}] in canonical form.

    Hash-consed: each value is one object, so ``==`` and ``hash`` are the
    object defaults (identity), and ``*``, ``+``, ``inv`` and ``str`` are
    computed once per operand and then looked up.
    """

    __slots__ = ("num", "den_q", "den_r", "den_qm1", "den_rm1", "_str")

    def __new__(cls, num: IntPoly, den_q=0, den_r=0, den_qm1=0, den_rm1=0):
        if num.is_zero():
            den_q = den_r = den_qm1 = den_rm1 = 0
        else:
            while den_q > 0:
                d = num.divide_q()
                if d is None:
                    break
                num, den_q = d, den_q - 1
            while den_r > 0:
                d = num.divide_r()
                if d is None:
                    break
                num, den_r = d, den_r - 1
            while den_qm1 > 0:
                d = num.divide_qm1()
                if d is None:
                    break
                num, den_qm1 = d, den_qm1 - 1
            while den_rm1 > 0:
                d = num.divide_rm1()
                if d is None:
                    break
                num, den_rm1 = d, den_rm1 - 1
        key = (num, den_q, den_r, den_qm1, den_rm1)
        self = _INTERN.get(key)
        if self is None:
            self = object.__new__(cls)
            self.num = num
            self.den_q = den_q
            self.den_r = den_r
            self.den_qm1 = den_qm1
            self.den_rm1 = den_rm1
            self._str = None
            # setdefault keeps one object per value when threads race here
            self = _INTERN.setdefault(key, self)
        return self

    def _den(self) -> tuple:
        return (self.den_q, self.den_r, self.den_qm1, self.den_rm1)

    def is_zero(self) -> bool:
        return self is ZERO

    def __add__(self, other: "Scalar") -> "Scalar":
        key = (self, other)
        out = _ADD.get(key)
        if out is None:
            # least common denominator monomial: pointwise max of exponents
            a = max(self.den_q, other.den_q)
            c = max(self.den_r, other.den_r)
            u = max(self.den_qm1, other.den_qm1)
            v = max(self.den_rm1, other.den_rm1)
            ln = _lift(self, a, c, u, v)
            rn = _lift(other, a, c, u, v)
            out = _ADD[key] = Scalar(ln + rn, a, c, u, v)
        return out

    def __sub__(self, other: "Scalar") -> "Scalar":
        return self + (-other)

    def __neg__(self) -> "Scalar":
        return Scalar(-self.num, *self._den())

    def __mul__(self, other: "Scalar") -> "Scalar":
        key = (self, other)
        out = _MUL.get(key)
        if out is None:
            out = _MUL[key] = Scalar(
                self.num * other.num,
                self.den_q + other.den_q,
                self.den_r + other.den_r,
                self.den_qm1 + other.den_qm1,
                self.den_rm1 + other.den_rm1,
            )
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
        out = _INV.get(self)
        if out is not None:
            return out
        if self.is_zero():
            raise NotAUnit("zero is not invertible")
        num = self.num
        exps = {"q": 0, "r": 0, "qm1": 0, "rm1": 0}
        for name, divider in _DIVIDERS.items():
            while True:
                d = divider(num)
                if d is None:
                    break
                num, exps[name] = d, exps[name] + 1
        if num.terms not in ({(0, 0): 1}, {(0, 0): -1}):
            raise NotAUnit(f"numerator {self.num} has a non-monomial factor")
        sign = num.terms[(0, 0)]
        new_num = IntPoly.monomial(sign, self.den_q, self.den_r)
        qm1 = IntPoly({(1, 0): 1, (0, 0): -1})
        rm1 = IntPoly({(0, 1): 1, (0, 0): -1})
        for _ in range(self.den_qm1):
            new_num = new_num * qm1
        for _ in range(self.den_rm1):
            new_num = new_num * rm1
        out = _INV[self] = Scalar(new_num, exps["q"], exps["r"], exps["qm1"], exps["rm1"])
        return out

    def __repr__(self) -> str:
        return f"Scalar({self})"

    def __str__(self) -> str:
        if self._str is None:
            den = []
            for e, sym in zip(self._den(), ("q", "r", "(q-1)", "(r-1)")):
                if e == 1:
                    den.append(sym)
                elif e > 1:
                    den.append(f"{sym}^{e}")
            num = str(self.num)
            if den and len(self.num.terms) > 1:
                num = f"({num})"
            self._str = f"{num} / {'*'.join(den)}" if den else num
        return self._str


# Process-global tables: every Scalar by its canonical form, and the results
# of *, + and inv by their operand objects.  Entries are never removed.
_INTERN: dict = {}
_MUL: dict = {}
_ADD: dict = {}
_INV: dict = {}


def _lift(s: Scalar, a: int, c: int, u: int, v: int) -> IntPoly:
    """Numerator of ``s`` over the denominator q^a r^c (q-1)^u (r-1)^v."""
    num = s.num
    da, dc = a - s.den_q, c - s.den_r
    if da or dc:
        num = num * IntPoly.monomial(1, da, dc)
    qm1 = IntPoly({(1, 0): 1, (0, 0): -1})
    rm1 = IntPoly({(0, 1): 1, (0, 0): -1})
    for _ in range(u - s.den_qm1):
        num = num * qm1
    for _ in range(v - s.den_rm1):
        num = num * rm1
    return num


ZERO = Scalar(_P_ZERO)
ONE = Scalar(_P_ONE)


def from_int(c: int) -> Scalar:
    return Scalar(IntPoly.const(c))


def q_scalar() -> Scalar:
    return Scalar(IntPoly.monomial(1, 1, 0))


def r_scalar() -> Scalar:
    return Scalar(IntPoly.monomial(1, 0, 1))


def one() -> Scalar:
    return ONE


def qm1_scalar() -> Scalar:
    return Scalar(IntPoly({(1, 0): 1, (0, 0): -1}))


def rm1_scalar() -> Scalar:
    return Scalar(IntPoly({(0, 1): 1, (0, 0): -1}))


# the coefficients of the generator rules, shared by the hot loops
Q = q_scalar()
QM1 = qm1_scalar()
Q_INV = Q.inv()
Q_INV_M1 = Q_INV - ONE


def b_scalar() -> Scalar:
    """The scalar (r-1)/(q-1)."""
    return Scalar(IntPoly({(0, 1): 1, (0, 0): -1}), den_qm1=1)


def quantum_integer(m: int) -> Scalar:
    """1 + q + ... + q^{m-1}; zero for m = 0."""
    if m < 0:
        raise ValueError("quantum_integer needs m >= 0")
    return Scalar(IntPoly({(i, 0): 1 for i in range(m)}))


def r_power(N: int) -> Scalar:
    """q^N as a scalar (used when r is specialized to q^N symbolically)."""
    if N >= 0:
        return Scalar(IntPoly.monomial(1, N, 0))
    return Scalar(_P_ONE, den_q=-N)


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
    if s.den_q:
        den = den * q0 ** s.den_q
    if s.den_r:
        den = den * r0 ** s.den_r
    if s.den_qm1:
        f = q0 - 1 * q0 ** 0
        if f == zero:
            raise PoleAtSpecialization("(q-1) vanishes at the specialization")
        den = den * f ** s.den_qm1
    if s.den_rm1:
        f = r0 - 1 * r0 ** 0
        if f == zero:
            raise PoleAtSpecialization("(r-1) vanishes at the specialization")
        den = den * f ** s.den_rm1
    return s.num.evaluate(q0, r0) / den


def brauer_limit(s: Scalar, N: int) -> Fraction:
    """Exact value at q = 1 after the substitution r := q^N.

    The substituted element is a univariate rational function in q whose
    denominator is q^a (q-1)^u (q^N-1)^v; all (q-1) factors must cancel into
    the numerator, otherwise the limit does not exist in the ring.
    """
    if N == 0:
        raise ValueError("N must be a nonzero integer")
    laurent = s.num.subs_r_power(N)
    if not laurent:
        return Fraction(0)
    # denominator: q^{den_q + N den_r} (q-1)^{den_qm1} (q^N - 1)^{den_rm1};
    # for N < 0, q^N - 1 = -q^N (q^{|N|} - 1), and q-powers are 1 at q = 1.
    u = s.den_qm1 + s.den_rm1
    sign = -1 if (N < 0 and s.den_rm1 % 2) else 1
    shift = min(laurent)
    coeffs = [0] * (max(laurent) - shift + 1)
    for d, c in laurent.items():
        coeffs[d - shift] = c
    for _ in range(u):
        if sum(coeffs) != 0:
            raise PoleAtSpecialization("a (q-1) factor does not cancel at q=1")
        acc = 0
        quot = [0] * (len(coeffs) - 1)
        for i in range(len(coeffs) - 1, 0, -1):
            acc += coeffs[i]
            quot[i - 1] = acc
        coeffs = quot if quot else [0]
    return Fraction(sum(coeffs), sign * abs(N) ** s.den_rm1)


# ---------------------------------------------------------------------------
# computable fields: exact rationals are fractions.Fraction; prime fields here
# ---------------------------------------------------------------------------

class GFElem:
    """Element of a prime field F_p."""

    __slots__ = ("p", "v")

    def __init__(self, p: int, v: int):
        self.p = p
        self.v = v % p

    def _coerce(self, other):
        if isinstance(other, GFElem):
            if other.p != self.p:
                raise ValueError("mixed characteristics")
            return other.v
        if isinstance(other, int):
            return other % self.p
        return NotImplemented

    def __add__(self, other):
        w = self._coerce(other)
        if w is NotImplemented:
            return NotImplemented
        return GFElem(self.p, self.v + w)

    __radd__ = __add__

    def __sub__(self, other):
        w = self._coerce(other)
        if w is NotImplemented:
            return NotImplemented
        return GFElem(self.p, self.v - w)

    def __rsub__(self, other):
        w = self._coerce(other)
        if w is NotImplemented:
            return NotImplemented
        return GFElem(self.p, w - self.v)

    def __mul__(self, other):
        w = self._coerce(other)
        if w is NotImplemented:
            return NotImplemented
        return GFElem(self.p, self.v * w)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            return self.inv() ** (-k)
        return GFElem(self.p, pow(self.v, k, self.p))

    def inv(self):
        if self.v == 0:
            raise ZeroDivisionError("division by zero in F_p")
        return GFElem(self.p, pow(self.v, -1, self.p))

    def __truediv__(self, other):
        w = self._coerce(other)
        if w is NotImplemented:
            return NotImplemented
        return self * GFElem(self.p, w).inv()

    def __rtruediv__(self, other):
        w = self._coerce(other)
        if w is NotImplemented:
            return NotImplemented
        return GFElem(self.p, w) * self.inv()

    def __eq__(self, other):
        w = self._coerce(other)
        if w is NotImplemented:
            return NotImplemented
        return self.v == w

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

    def elements(self):
        return [GFElem(self.p, v) for v in range(self.p)]

    def __repr__(self):
        return f"PrimeField({self.p})"


# ---------------------------------------------------------------------------
# JSON wire format (bit-exact round trip; coefficients as decimal strings)
# ---------------------------------------------------------------------------

def scalar_to_json(s: Scalar) -> dict:
    return {
        "num": [[str(c), eq, er] for (eq, er), c in sorted(s.num.terms.items())],
        "den": {"q": s.den_q, "r": s.den_r, "qm1": s.den_qm1, "rm1": s.den_rm1},
    }


def scalar_from_json(obj: dict) -> Scalar:
    """Read a scalar; every exponent must be a non-negative integer, so the
    numerator lies in Z[q, r] and the denominator is a monomial, and each
    monomial of the numerator is listed once."""
    num = obj.get("num") if isinstance(obj, dict) else None
    if not (isinstance(num, list) and isinstance(obj.get("den"), dict) and all(
        isinstance(t, list) and len(t) == 3 and type(t[0]) in (int, str) for t in num
    )):
        raise ValueError('a scalar must be {"num": [[c, eq, er], ...], "den": {...}}')
    den = [obj["den"].get(k) for k in ("q", "r", "qm1", "rm1")]
    exps = [e for t in num for e in t[1:]] + den
    if any(type(e) is not int or e < 0 for e in exps):
        raise ValueError("scalar exponents must be non-negative integers")
    terms = {(eq, er): int(c) for c, eq, er in num}
    if len(terms) != len(num):
        raise ValueError("a monomial occurs twice in a scalar's num")
    return Scalar(IntPoly(terms), *den)

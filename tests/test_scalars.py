import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qbrauer import scalars
from qbrauer.algebra import AlgebraContext, QBrauerElement, product
from qbrauer.diagrams import enumerate_diagrams
from qbrauer.scalars import (
    IntPoly,
    NotAUnit,
    PoleAtSpecialization,
    PrimeField,
    Scalar,
    ONE,
    Q_INV,
    ZERO,
    brauer_limit,
    classical_limit,
    q_scalar,
    qm1_scalar,
    r_scalar,
    scalar_from_json,
    scalar_to_json,
    specialize,
)

QM1_POLY = IntPoly({(1, 0): 1, (0, 0): -1})
RM1_POLY = IntPoly({(0, 1): 1, (0, 0): -1})
# b = (r-1)/(q-1), the value of a closed loop, and r - 1
B = Scalar(RM1_POLY, 1)
RM1 = Scalar(RM1_POLY)


def q_sum(m):
    """1 + q + ... + q^{m-1}, summed."""
    out = ZERO
    for i in range(m):
        out = out + q_scalar() ** i
    return out


def qm1_power(k):
    """(q-1)^k, multiplied out one factor at a time."""
    out = IntPoly.const(1)
    for _ in range(k):
        out = out * QM1_POLY
    return out


def random_scalar(rng):
    # a Laurent numerator: q- and r-exponents of either sign
    terms = {}
    for _ in range(rng.randint(0, 4)):
        terms[(rng.randint(-2, 3), rng.randint(-2, 3))] = rng.randint(-4, 4)
    return Scalar(IntPoly(terms), rng.randint(0, 2))


# --- naive oracle: compare fractions by cross-multiplying raw polynomials ---

def _fraction(s):
    """``s`` as (numerator, denominator), both in Z[q, r], read off the wire:
    the denominator is q^a r^c (q-1)^u, multiplied out."""
    obj = scalar_to_json(s)
    den = obj["den"]
    num = IntPoly({(eq, er): int(c) for c, eq, er in obj["num"]})
    return num, IntPoly.monomial(1, den["q"], den["r"]) * qm1_power(den["qm1"])


def fractions_equal(f, g):
    """Compare (numerator, denominator) pairs of IntPoly by cross-multiplying."""
    return f[0] * g[1] == g[0] * f[1]


def scalars_equal_oracle(a, b):
    return fractions_equal(_fraction(a), _fraction(b))


def test_b_clears_defining_denominator():
    assert B * (q_scalar() - ONE) == r_scalar() - ONE
    assert B ** 2 * qm1_scalar() ** 2 == RM1 ** 2
    # the context's loop value is this b, whichever way it is built
    assert AlgebraContext(2).b() is B


def test_additive_identities():
    rng = random.Random(0)
    for _ in range(50):
        x = random_scalar(rng)
        assert x + ZERO == x
        assert x - x == ZERO
    inv_qm1 = qm1_scalar().inv()
    assert inv_qm1 + (-inv_qm1) == ZERO


def test_units():
    q, r = q_scalar(), r_scalar()
    assert q * q.inv() == ONE
    assert (q ** 2 * r).inv() == q ** -2 * r ** -1
    # ± a Laurent monomial times a power of q - 1, over a power of q - 1
    u = Scalar(IntPoly.monomial(-1, -1, 2) * qm1_power(3), 1)
    assert u.inv() == -(q * r ** -2 * qm1_scalar() ** -2)
    assert u * u.inv() is ONE
    # r - 1 is not a unit of the ring, so neither is b
    for s in (B, q + r, ONE + ONE, ZERO):
        with pytest.raises(NotAUnit):
            s.inv()
    with pytest.raises(NotAUnit):
        (r - ONE).inv()


def test_mul_distributes_over_add_against_oracle():
    rng = random.Random(1)
    for _ in range(100):
        a, b, c = (random_scalar(rng) for _ in range(3))
        lhs = a * (b + c)
        rhs = a * b + a * c
        assert lhs == rhs
        assert scalars_equal_oracle(lhs, rhs)


def test_canonical_form_unique_under_renormalization():
    # building the same ring element from an inflated fraction must
    # canonicalize to the same structure: in the constructor, and on the
    # wire, where the inflation also multiplies by q^2 r
    rng = random.Random(2)
    for _ in range(100):
        x = random_scalar(rng)
        for k in (1, 2):
            assert Scalar(x.num * qm1_power(k), x.u + k) == x
        num = _fraction(x)[0] * QM1_POLY * IntPoly.monomial(1, 2, 1)
        obj = scalar_to_json(x)
        obj["num"] = [[str(c), eq, er] for (eq, er), c in sorted(num.terms.items())]
        obj["den"] = {"q": obj["den"]["q"] + 2, "r": obj["den"]["r"] + 1,
                      "qm1": obj["den"]["qm1"] + 1}
        assert scalar_from_json(obj) == x


def test_canonical_invariant_no_divisible_numerator():
    rng = random.Random(3)
    for _ in range(200):
        x = random_scalar(rng)
        if x.u:
            assert x.num.divide_qm1() is None
            # the same, naively: num(1, r) is not the zero Laurent polynomial
            at_one = {}
            for (_, er), c in x.num.terms.items():
                at_one[er] = at_one.get(er, 0) + c
            assert any(at_one.values())
        # the wire's numerator is divisible by neither q nor r where their
        # exponents are positive
        num, a, c, _ = x.split()
        assert all(eq >= 0 and er >= 0 for eq, er in num.terms)
        assert not a or any(eq == 0 for eq, _ in num.terms)
        assert not c or any(er == 0 for _, er in num.terms)


_laurent = st.dictionaries(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)), st.integers(-5, 5), max_size=5)


@given(_laurent, _laurent)
def test_poly_ring_axioms(aterms, bterms):
    a, b = IntPoly(aterms), IntPoly(bterms)
    assert a + b == b + a
    assert a * b == b * a
    assert (a + -a).terms == {}
    # exact division by q - 1 undoes multiplication by it
    assert (a * QM1_POLY).divide_qm1() == a


def test_quantum_integer():
    assert q_sum(0) == ZERO
    assert q_sum(1) == ONE
    assert q_sum(3) == Scalar(IntPoly({(0, 0): 1, (1, 0): 1, (2, 0): 1}))
    for m in range(7):
        assert qm1_scalar() * q_sum(m) == q_scalar() ** m - ONE


def test_specialize():
    b = B
    assert specialize(b, Fraction(2), Fraction(3)) == Fraction(2)
    assert specialize(q_scalar() ** -1, Fraction(2), Fraction(5)) == Fraction(1, 2)
    with pytest.raises(PoleAtSpecialization):
        specialize(qm1_scalar().inv(), Fraction(1), Fraction(1))
    F7 = PrimeField(7)
    assert specialize(b, F7(2), F7(3)) == F7(2)
    # ring homomorphism on random pairs
    rng = random.Random(4)
    for _ in range(50):
        x, y = random_scalar(rng), random_scalar(rng)
        q0, r0 = Fraction(rng.randint(2, 7)), Fraction(rng.randint(2, 7))
        assert specialize(x * y, q0, r0) == specialize(x, q0, r0) * specialize(y, q0, r0)
        assert specialize(x + y, q0, r0) == specialize(x, q0, r0) + specialize(y, q0, r0)


def _naive_value(poly, q0, r0):
    return sum((c * q0 ** eq * r0 ** er for (eq, er), c in poly.terms.items()), 0 * q0)


def test_specialize_is_the_naive_quotient_and_poles_are_exact():
    # the fraction comes from the wire and this file's own polynomials; at
    # nonzero q0, r0 only q - 1 can vanish, and r0 = 1 is no pole
    rng = random.Random(9)
    F7 = PrimeField(7)
    points = [(Fraction(q0), Fraction(r0)) for q0, r0 in
              ((1, 1), (1, 2), (2, 1), (-1, 1), (Fraction(1, 2), 3), (3, Fraction(-2, 3)))]
    points += [(F7(q0), F7(r0)) for q0, r0 in ((1, 1), (1, 3), (4, 1), (2, 5), (6, 6))]
    poles = 0
    for _ in range(60):
        x = random_scalar(rng)
        num, den = _fraction(x)
        for q0, r0 in points:
            if x.u > 0 and q0 == 1:
                poles += 1
                with pytest.raises(PoleAtSpecialization):
                    specialize(x, q0, r0)
            else:
                want = _naive_value(num, q0, r0) / _naive_value(den, q0, r0)
                assert specialize(x, q0, r0) == want
    assert poles
    assert specialize(B, Fraction(2), Fraction(1)) == 0
    for q0, r0 in ((Fraction(0), Fraction(2)), (Fraction(2), Fraction(0))):
        with pytest.raises(PoleAtSpecialization):
            specialize(Q_INV, q0, r0)


def test_brauer_limit():
    assert brauer_limit(B, 3) == Fraction(3)
    assert brauer_limit(r_scalar(), 2) == Fraction(1)
    # loop coefficient of a cap sandwich at level 2
    assert brauer_limit(r_scalar() * B, 4) == Fraction(4)
    for N in range(1, 7):
        assert brauer_limit(q_sum(N), N) == N
        assert brauer_limit(B, N) == N
    for N in (-1, -2, -3):
        assert brauer_limit(B, N) == N
        assert brauer_limit(r_scalar(), N) == 1
    with pytest.raises(PoleAtSpecialization):
        brauer_limit(qm1_scalar().inv(), 2)


def test_classical_limit():
    # the image at q = r = 1 in Z[δ], δ = (r-1)/(q-1) = B
    assert classical_limit(B) == {1: 1}
    assert classical_limit(r_scalar() * B) == {1: 1}
    # negative exponents are units, sent to 1
    assert classical_limit(B * Q_INV * r_scalar() ** -2) == {1: 1}
    q_minus_r = Scalar(IntPoly({(1, 0): 1, (0, 1): -1}))
    assert classical_limit(q_minus_r) == {}
    assert brauer_limit(q_minus_r, 1) == 0
    # outside Z[q^±1, r^±1, δ], though r - q^2 vanishes along r = q^2
    r_minus_q2 = Scalar(IntPoly({(0, 1): 1, (2, 0): -1}), 2)
    for s in (qm1_scalar().inv(), r_minus_q2, Scalar(RM1_POLY * RM1_POLY, 3)):
        with pytest.raises(PoleAtSpecialization):
            classical_limit(s)


def test_classical_limit_is_cached():
    """One dict per interned scalar; a pole is raised on every call; the
    values, and those of brauer_limit, are the uncached ones."""
    uncached = classical_limit.__wrapped__
    for s in (B, r_scalar() * B, B * B - r_scalar() * B, q_scalar() ** 3, ZERO):
        first = classical_limit(s)
        assert classical_limit(s) is first and first == uncached(s)
        for N in (-2, 1, 2, 3):
            assert brauer_limit(s, N) == sum(c * N ** j for j, c in uncached(s).items())
    pole = qm1_scalar().inv()
    for _ in range(2):
        with pytest.raises(PoleAtSpecialization):
            classical_limit(pole)
        with pytest.raises(PoleAtSpecialization):
            brauer_limit(pole, 2)


def test_prime_field():
    F7 = PrimeField(7)
    assert F7(3) + F7(5) == F7(1)
    assert F7(3) * F7(5) == F7(1)
    assert F7(3) / F7(5) == F7(2)
    assert F7(6) ** -1 == F7(6)
    with pytest.raises(ValueError):
        PrimeField(6)
    # an int on either side; NotImplemented for a foreign type
    assert F7(3) + 5 == 5 + F7(3) == F7(1)
    assert F7(3) - 5 == F7(5) and 5 - F7(3) == F7(2)
    assert F7(3) * 5 == 5 * F7(3) == F7(1)
    assert F7(3) / 5 == F7(2) and 5 / F7(3) == F7(4)
    assert (F7(3) == Fraction(3)) is False
    with pytest.raises(TypeError):
        F7(3) + Fraction(1, 2)
    with pytest.raises(ValueError, match="mixed characteristics"):
        F7(1) + PrimeField(5)(1)


def test_json_round_trip():
    rng = random.Random(5)
    for _ in range(100):
        x = random_scalar(rng)
        assert scalar_from_json(scalar_to_json(x)) == x
    big = Scalar(IntPoly({(-1, 0): 10 ** 40, (1, 1): -(3 ** 50)}), 2)
    assert scalar_from_json(scalar_to_json(big)) == big
    # negative exponents of q and r go to the wire's denominator:
    # 2 q^-3 r - r^-2 over (q-1)^2 is (2 r^3 - q^3) / (q^3 r^2 (q-1)^2)
    x = Scalar(IntPoly({(-3, 1): 2, (0, -2): -1}), 2)
    assert x.split() == (IntPoly({(0, 3): 2, (3, 0): -1}), 3, 2, 2)
    assert scalar_to_json(x) == {"num": [["2", 0, 3], ["-1", 3, 0]],
                                 "den": {"q": 3, "r": 2, "qm1": 2}}
    assert str(x) == "(-q^3+2*r^3) / q^3*r^2*(q-1)^2"
    for s in (x, Q_INV, r_scalar() ** -1, q_scalar() ** -2 * B):
        assert scalar_from_json(scalar_to_json(s)) is s


def test_exponents_beyond_the_bound_are_refused():
    # q^(10^7) / (q-1) took 9.5 s to canonicalize, linear in the exponent
    B = scalars.MAX_EXPONENT
    for eq, er, u in ((10 ** 7, 0, 1), (B + 1, 0, 0), (0, B + 1, 0), (0, 0, B + 1)):
        obj = {"num": [["1", eq, er]], "den": {"q": 0, "r": 0, "qm1": u}}
        with pytest.raises(ValueError, match=f"integers in 0..{B}"):
            scalar_from_json(obj)
    at = {"num": [["1", 0, 0], ["1", B, B]], "den": {"q": B, "r": B, "qm1": B}}
    assert scalar_to_json(scalar_from_json(at)) == at


# --- interning: one object per value, memoized ring operations ---

def test_equal_values_are_one_object():
    rng = random.Random(6)
    for _ in range(100):
        x = random_scalar(rng)
        assert Scalar(x.num * qm1_power(2), x.u + 2) is x
        assert scalar_from_json(scalar_to_json(x)) is x
    q = q_scalar()
    assert (q + ONE) * (q - ONE) is q ** 2 - ONE
    assert B * qm1_scalar() is RM1
    assert Scalar(IntPoly()) is ZERO and Scalar(IntPoly.const(1)) is ONE
    # zero over any power of q - 1 is zero
    assert Scalar(IntPoly(), 3) is ZERO
    # equality is the object default, exact because values are interned
    assert "__eq__" not in vars(Scalar) and "__hash__" not in vars(Scalar)


_scalars = st.builds(Scalar, st.builds(IntPoly, _laurent), st.integers(0, 2))


@given(st.builds(IntPoly, _laurent), st.integers(0, 2), st.integers(0, 3))
def test_inflating_by_q_minus_one_is_the_same_object(num, u, k):
    assert Scalar(num * qm1_power(k), u + k) is Scalar(num, u)


def _unit(sign, eq, er, k, u):
    return Scalar(IntPoly.monomial(sign, eq, er) * qm1_power(k), u)


_units = st.builds(_unit, st.sampled_from((1, -1)), *[st.integers(-2, 2)] * 2,
                   *[st.integers(0, 2)] * 2)


@given(_scalars, _scalars, _units)
def test_memo_hits_agree_with_the_oracle(a, b, u):
    (na, da), (nb, db), (nu, du) = _fraction(a), _fraction(b), _fraction(u)
    for _ in range(2):  # the second round reads the memo tables
        p, s, i = a * b, a + b, u.inv()
        assert fractions_equal(_fraction(p), (na * nb, da * db))
        assert fractions_equal(_fraction(s), (na * db + nb * da, da * db))
        assert fractions_equal(_fraction(i), (du, nu))
        assert scalars_equal_oracle(i * u, ONE)


def test_sum_over_equal_denominators_is_the_lifted_sum():
    """``+`` adds the numerators directly when the denominators agree; the
    sum is the object the lifted form over the common denominator gives."""
    rng = random.Random(15)
    equal = unequal = 0
    while equal < 200 or unequal < 200:
        a, b = random_scalar(rng), random_scalar(rng)
        if rng.random() < 0.5:
            # the numerator of b over the denominator of a, kept when canonical
            b = Scalar(b.num, a.u)
        u = max(a.u, b.u)
        want = Scalar(scalars._lift(a, u) + scalars._lift(b, u), u)
        assert want is Scalar(a.num * qm1_power(u - a.u) + b.num * qm1_power(u - b.u), u)
        assert a + b is want and b + a is want, (a, b)
        if a.u == b.u:
            equal += 1
        else:
            unequal += 1


def test_interned_scalars_are_never_mutated():
    # every product shares its coefficients with the intern table, the memo
    # tables and other products: none of them may change after it is built;
    # the tables are process-global, so earlier tests may have filled them
    ds = enumerate_diagrams(4)
    ctx = AlgebraContext(4)
    product(ctx, QBrauerElement.basis(ds[0]), QBrauerElement.basis(ds[1]))
    snapshot = [(k, x, scalar_to_json(x), str(x)) for k, x in scalars._INTERN.items()]
    for i in range(60):
        product(ctx, QBrauerElement.basis(ds[(7 * i + 2) % len(ds)]),
                QBrauerElement.basis(ds[(11 * i + 5) % len(ds)]))
    for k, x, wire, text in snapshot:
        assert scalars._INTERN[k] is x
        assert k == (x.num, x.u)
        assert scalar_to_json(x) == wire and str(x) == text

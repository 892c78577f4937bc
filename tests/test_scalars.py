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
B = Scalar(RM1_POLY, 0, 0, 1)
RM1 = Scalar(RM1_POLY)


def q_sum(m):
    """1 + q + ... + q^{m-1}, summed."""
    out = ZERO
    for i in range(m):
        out = out + q_scalar() ** i
    return out


def random_scalar(rng):
    terms = {}
    for _ in range(rng.randint(0, 4)):
        terms[(rng.randint(0, 3), rng.randint(0, 3))] = rng.randint(-4, 4)
    return Scalar(
        IntPoly(terms),
        rng.randint(0, 2),
        rng.randint(0, 2),
        rng.randint(0, 2),
        rng.randint(0, 2),
    )


# --- naive oracle: compare fractions by cross-multiplying raw polynomials ---

def _exps(s):
    """The denominator exponents of q, r, q-1 and r-1, read off the wire."""
    den = scalar_to_json(s)["den"]
    return den["q"], den["r"], den["qm1"], den["rm1"]


def _raw_den(s):
    a, c, u, v = _exps(s)
    den = IntPoly.const(1)
    den = den * IntPoly.monomial(1, a, c)
    for _ in range(u):
        den = den * IntPoly({(1, 0): 1, (0, 0): -1})
    for _ in range(v):
        den = den * IntPoly({(0, 1): 1, (0, 0): -1})
    return den


def fractions_equal(f, g):
    """Compare (numerator, denominator) pairs of IntPoly by cross-multiplying."""
    return f[0] * g[1] == g[0] * f[1]


def scalars_equal_oracle(a, b):
    return fractions_equal((a.num, _raw_den(a)), (b.num, _raw_den(b)))


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
    q = q_scalar()
    assert q * q.inv() == ONE
    assert (q ** 2 * r_scalar()).inv() == q ** -2 * r_scalar() ** -1
    assert B.inv() == qm1_scalar() * RM1.inv()
    with pytest.raises(NotAUnit):
        (q + r_scalar()).inv()
    with pytest.raises(NotAUnit):
        ZERO.inv()


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
    # canonicalize to the same structure
    rng = random.Random(2)
    for _ in range(100):
        x = random_scalar(rng)
        a, c, u, v = _exps(x)
        lift = Scalar(
            x.num * _raw_den(ONE) * IntPoly({(1, 0): 1, (0, 0): -1})
            * IntPoly({(0, 1): 1, (0, 0): -1}) * IntPoly.monomial(1, 2, 1),
            a + 2,
            c + 1,
            u + 1,
            v + 1,
        )
        assert lift == x


def test_canonical_invariant_no_divisible_numerator():
    rng = random.Random(3)
    for _ in range(200):
        x = random_scalar(rng)
        for i, e in enumerate(x.den):
            if e:
                assert x.num.divide(i) is None


@given(
    st.lists(
        st.tuples(
            st.integers(0, 3), st.integers(0, 3), st.integers(-5, 5)
        ),
        max_size=5,
    ),
    st.lists(
        st.tuples(
            st.integers(0, 3), st.integers(0, 3), st.integers(-5, 5)
        ),
        max_size=5,
    ),
)
def test_poly_ring_axioms(aterms, bterms):
    a = IntPoly({(eq, er): c for eq, er, c in aterms})
    b = IntPoly({(eq, er): c for eq, er, c in bterms})
    assert a + b == b + a
    assert a * b == b * a
    assert (a + -a).terms == {}


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
    # den comes from this file's own polynomials and the exponents on the
    # wire; at nonzero q0, r0 only q - 1 and r - 1 can vanish
    rng = random.Random(9)
    F7 = PrimeField(7)
    points = [(Fraction(q0), Fraction(r0)) for q0, r0 in
              ((1, 1), (1, 2), (2, 1), (-1, 1), (Fraction(1, 2), 3), (3, Fraction(-2, 3)))]
    points += [(F7(q0), F7(r0)) for q0, r0 in ((1, 1), (1, 3), (4, 1), (2, 5), (6, 6))]
    poles = set()
    for _ in range(60):
        x = random_scalar(rng)
        _, _, u, v = _exps(x)
        for q0, r0 in points:
            pole = (u > 0 and q0 == 1, v > 0 and r0 == 1)
            if any(pole):
                poles.add(pole)
                with pytest.raises(PoleAtSpecialization):
                    specialize(x, q0, r0)
            else:
                want = _naive_value(x.num, q0, r0) / _naive_value(_raw_den(x), q0, r0)
                assert specialize(x, q0, r0) == want
    assert poles == {(True, False), (False, True), (True, True)}
    with pytest.raises(PoleAtSpecialization):
        specialize(B.inv(), Fraction(2), Fraction(1))


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
    q_minus_r = Scalar(IntPoly({(1, 0): 1, (0, 1): -1}))
    assert classical_limit(q_minus_r) == {}
    assert brauer_limit(q_minus_r, 1) == 0
    # outside Z[q^±1, r^±1, δ], though r - q^2 vanishes along r = q^2
    r_minus_q2 = Scalar(IntPoly({(0, 1): 1, (2, 0): -1}), 0, 0, 2)
    for s in (qm1_scalar().inv(), r_minus_q2, RM1.inv()):
        with pytest.raises(PoleAtSpecialization):
            classical_limit(s)


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
    big = Scalar(IntPoly({(0, 0): 10 ** 40, (2, 1): -(3 ** 50)}), 1, 0, 2, 0)
    assert scalar_from_json(scalar_to_json(big)) == big


def test_exponents_beyond_the_bound_are_refused():
    # q^(10^7) / (q-1) took 9.5 s to canonicalize, linear in the exponent
    B = scalars.MAX_EXPONENT
    for eq, er, u in ((10 ** 7, 0, 1), (B + 1, 0, 0), (0, B + 1, 0), (0, 0, B + 1)):
        obj = {"num": [["1", eq, er]], "den": {"q": 0, "r": 0, "qm1": u, "rm1": 0}}
        with pytest.raises(ValueError, match=f"integers in 0..{B}"):
            scalar_from_json(obj)
    at = {"num": [["1", 0, 0], ["1", B, B]], "den": {"q": B, "r": B, "qm1": B, "rm1": B}}
    assert scalar_to_json(scalar_from_json(at)) == at


# --- interning: one object per value, memoized ring operations ---

def test_equal_values_are_one_object():
    rng = random.Random(6)
    for _ in range(100):
        x = random_scalar(rng)
        a, c, u, v = _exps(x)
        inflated = Scalar(
            x.num * QM1_POLY * RM1_POLY * IntPoly.monomial(1, 2, 1),
            a + 2, c + 1, u + 1, v + 1,
        )
        assert inflated is x
        assert scalar_from_json(scalar_to_json(x)) is x
    q = q_scalar()
    assert (q + ONE) * (q - ONE) is q ** 2 - ONE
    assert B * qm1_scalar() is RM1
    assert Scalar(IntPoly()) is ZERO and Scalar(IntPoly.const(1)) is ONE
    # equality is the object default, exact because values are interned
    assert "__eq__" not in vars(Scalar) and "__hash__" not in vars(Scalar)


_polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), st.integers(-4, 4), max_size=4)
_dens = st.tuples(*[st.integers(0, 2)] * 4)
_scalars = st.builds(lambda t, d: Scalar(IntPoly(t), *d), _polys, _dens)


def _unit(sign, exps, den):
    num = IntPoly.monomial(sign, exps[0], exps[1])
    for _ in range(exps[2]):
        num = num * QM1_POLY
    for _ in range(exps[3]):
        num = num * RM1_POLY
    return Scalar(num, *den)


_units = st.builds(_unit, st.sampled_from((1, -1)), _dens, _dens)


@given(_scalars, _scalars, _units)
def test_memo_hits_agree_with_the_oracle(a, b, u):
    da, db, du = _raw_den(a), _raw_den(b), _raw_den(u)
    for _ in range(2):  # the second round reads the memo tables
        p, s, i = a * b, a + b, u.inv()
        assert fractions_equal((p.num, _raw_den(p)), (a.num * b.num, da * db))
        assert fractions_equal((s.num, _raw_den(s)), (a.num * db + b.num * da, da * db))
        assert fractions_equal((i.num, _raw_den(i)), (du, u.num))
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
            b = Scalar(b.num, *a.den)
        den = tuple(map(max, a.den, b.den))
        want = Scalar(scalars._lift(a, den) + scalars._lift(b, den), *den)
        assert a + b is want and b + a is want, (a, b)
        if a.den == b.den:
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
        assert k == (x.num, x.den)
        assert scalar_to_json(x) == wire and str(x) == text

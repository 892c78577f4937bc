"""
Acceptance gate: one test per criterion, each printing a pass line with the
sizes it ran at.  Everything is exact; there are no tolerances anywhere.

Run with ``pytest -s tests/test_acceptance.py -v`` to see the lines.
"""

import random
from fractions import Fraction
from math import factorial

from qbrauer import suites
from qbrauer.algebra import AlgebraContext, straighten
from qbrauer.cellular import (
    cell_chain_check,
    cell_module_dims,
    double_factorial_odd,
    e_of_q,
    inflation_bijection_check,
    inflation_product_check,
    involution_symmetry_check,
    is_quasi_hereditary,
    phi_k,
    simple_module_index,
)
from qbrauer.cli import chain_text
from qbrauer.diagrams import (
    concat,
    decompose,
    diagram_from_edges,
    e_k_diagram,
    enumerate_diagrams,
    identity_perm,
    perm_mul,
    perm_to_diagram,
    s_ij,
    t_word,
)
from qbrauer.scalars import PrimeField, brauer_limit, q_scalar, qm1_scalar

from helpers import chain, straighten_by_inverse_word, top_parts


def test_criterion_01_dimensions():
    want = {2: 3, 3: 15, 4: 105, 5: 945, 6: 10395}
    for n, count in want.items():
        assert len(enumerate_diagrams(n)) == count
        for k in range(n // 2 + 1):
            formula = factorial(n) // (2 ** k * factorial(n - 2 * k) * factorial(k))
            # the transversal: w1 of each no-crossing diagram, all distinct
            assert len({decompose(d).w1 for d in top_parts(n, k)}) == formula
    print("[PASS] criterion 1: diagram counts and per-layer transversal counts, n=2..6")


def assert_certificate_passes(ctx, pairs=None):
    """Every report of the module certificate passes; ``pairs`` pins their
    ``pairs_tested`` counts."""
    reps = suites.relations_suite(ctx)
    assert all(rep["failures"] == [] for rep in reps), reps
    if pairs is not None:
        assert [rep["pairs_tested"] for rep in reps] == pairs


def test_criterion_02_relation_suite():
    for n in range(2, 5):
        assert_certificate_passes(AlgebraContext(n))
    assert_certificate_passes(AlgebraContext(5), pairs=[29295, 945, 8505, 6960])
    print(
        "[PASS] criterion 2: the defining relations on every basis element, the "
        "basis spanned from the unit, the left action and the product against the "
        "word fold (module certificate), n=2..5"
    )


def test_criterion_03_lemma_suite():
    # the ladder and chain-absorption identities hold in every module of the
    # algebra, so the certificate of the integral versions covers them
    for N in (2, 3):
        assert_certificate_passes(AlgebraContext(4, N))
    assert_certificate_passes(AlgebraContext(5, 2), pairs=[29295, 945, 8505, 6960])
    print(
        "[PASS] criterion 3: module certificate of the integral version r = q^N, "
        "N in {2,3} at n=4, N=2 at n=5"
    )


def test_criterion_04_cap_element_consistency():
    # the spanning report at d = e_(k) is the cap recursion folded onto the unit
    for n in range(2, 7):
        rep = suites.spanning_check(AlgebraContext(n))
        assert rep["failures"] == [] and rep["pairs_tested"] == double_factorial_odd(n), rep
    print("[PASS] criterion 4: every basis element, e_(k) included, is the unit times its "
          "word with e_(k) spelled by its recursion, n<=6")


def test_criterion_05_classical_oracle():
    for n in (1, 2, 3, 4):
        rep = suites.oracle_suite(AlgebraContext(n))
        assert rep["params"] == {"sample": None, "seed": 0} and rep["failures"] == [], rep
    rep = suites.oracle_suite(AlgebraContext(5), sample=1000, seed=42)
    assert rep["params"] == {"sample": 1000, "seed": 42} and rep["failures"] == [], rep
    print(
        "[PASS] criterion 5: every structure constant lies in Z[q^±1, r^±1, δ] and "
        "its image at q = r = 1 matches the classical diagram product in Z[δ] "
        "(exhaustive n<=4, 1000 random pairs n=5)"
    )


def test_criterion_06_worked_examples():
    # canonical factorization of the rank-7 diagram with length 18
    d = diagram_from_edges(
        7, [(2, 4), (3, 5), (1, 11), (6, 8), (7, 9), (10, 12), (13, 14)]
    )
    ex = decompose(d)
    assert (ex.k, ex.w1, ex.wd, ex.w2) == (
        2,
        chain(7, (1, 4), (2, 2)),
        chain(7, (5, 5), (6, 6)),
        chain(7, (4, 1), (5, 2), (6, 4)),
    )
    assert ex.length() == 5 + 2 + 11 == 18

    # normal-form word of the no-crossing rank-7 diagram
    dstar = diagram_from_edges(
        7, [(4, 6), (5, 7), (8, 9), (10, 11), (1, 12), (2, 13), (3, 14)]
    )
    assert decompose(dstar).top is dstar
    assert chain_text(t_word(decompose(dstar).w1)) == "s3,6 s2,5 s1,4 s2"

    # three-term straightening at n=8, k=3
    n, k = 8, 3
    ctx = AlgebraContext(n)
    sigma = perm_mul(
        chain(n, (7, 7), (5, 6), (4, 5), (1, 4), (2, 2)),
        chain(n, (6, 7), (5, 5)),
    )
    q = q_scalar()
    s7 = s_ij(n, 7, 7)
    expected = sorted(
        [
            (q * qm1_scalar(), chain(n, (7, 7), (4, 6), (1, 4), (1, 2)), s7),
            (q ** 2 * qm1_scalar(), chain(n, (7, 7), (4, 6), (3, 4), (1, 2)), s7),
            (q ** 3, chain(n, (7, 7), (4, 6), (3, 4), (2, 2)), s7),
        ],
        key=lambda t: (t[1], t[2]),
    )
    assert straighten(ctx, sigma, k) == expected
    print("[PASS] criterion 6: worked factorization, peeling word, three-term straightening")


def test_criterion_07_cellularity_suite():
    for n in (2, 3, 4, 5):
        rep = inflation_bijection_check(AlgebraContext(n))
        assert rep["failures"] == [], rep
    for n in (2, 3, 4):
        rep = inflation_product_check(AlgebraContext(n))
        assert rep["failures"] == [], rep
    for n in range(2, 7):
        ctx = AlgebraContext(n)
        for k in range(n // 2 + 1):
            ek = e_k_diagram(n, k)
            assert phi_k(ctx, ek, ek).terms == {identity_perm(n): ctx.b() ** k}
    for n in (2, 3, 4, 5):
        rep = involution_symmetry_check(AlgebraContext(n))
        assert rep["failures"] == [], rep
    for n in (2, 3, 4):
        rep = cell_chain_check(AlgebraContext(n))
        assert rep["failures"] == [], rep
    print(
        "[PASS] criterion 7: inflation bijection n<=5, layer-product congruence "
        "n<=4, cap form values n<=6, involution on cell coordinates n<=5, "
        "ideal chain and involution stability n<=4"
    )


def test_criterion_08_associativity():
    # the certificate proves that ``product`` is the multiplication of the
    # algebra, so it is associative; r = q^-1 is a version no other test
    # certifies at n = 5
    assert_certificate_passes(AlgebraContext(5, -1), pairs=[29295, 945, 8505, 6960])
    print("[PASS] criterion 8: associativity follows from the module certificate, "
          "which proves product is the algebra's multiplication; r=q^-1 at n=5")


def test_criterion_09_quasi_heredity():
    # decision procedure against brute-force quantum-integer vanishing
    rational_points = [Fraction(v) for v in (-3, -2, -1, 2, 3)] + [
        Fraction(1, 2),
        Fraction(-1, 2),
        Fraction(2, 3),
    ]
    for n in range(1, 7):
        for q0 in rational_points:
            want = True
            acc = Fraction(0)
            for m in range(1, n + 1):
                acc += q0 ** (m - 1)
                if acc == 0:
                    want = False
                    break
            got, _ = is_quasi_hereditary(n, q0, Fraction(5))
            assert got == want, (n, q0)
        for p in (2, 3, 5, 7):
            F = PrimeField(p)
            for v in range(1, p):
                if v == 1 % p:
                    continue  # q = 1 is excluded by the hypothesis
                acc = F(0)
                want = True
                for m in range(1, n + 1):
                    acc = acc + F(v) ** (m - 1)
                    if acc == F(0):
                        want = False
                        break
                r0 = F(2) if p == 3 and v == 2 else F(v + 1)
                if r0 == F(1) or r0 == F(0):
                    r0 = F(v - 1) if F(v - 1) != F(1) and F(v - 1) != F(0) else F(2)
                if r0 == F(1) or r0 == F(0):
                    continue
                got, _ = is_quasi_hereditary(n, F(v), r0)
                assert got == want, (n, p, v)

    # simple-module index sets against an independent partition enumeration
    def all_partitions_indep(m):
        # accelerated ascending composition walk, then reverse each
        out = []

        def rec(left, minpart, acc):
            if left == 0:
                out.append(tuple(reversed(acc)))
                return
            for part in range(minpart, left + 1):
                rec(left - part, part, acc + [part])

        rec(m, 1, [])
        return out

    for n in range(1, 6):
        for q0 in (Fraction(-1), Fraction(2), Fraction(1, 2)):
            e = e_of_q(q0, cap=n + 1)
            want = set()
            for k in range(n // 2 + 1):
                for lam in all_partitions_indep(n - 2 * k):
                    padded = lam + (0,)
                    if e is None or all(
                        padded[i] - padded[i + 1] < e for i in range(len(lam))
                    ):
                        want.add((k, lam))
            got = {(i.k, i.lam) for i in simple_module_index(n, q0)}
            assert got == want, (n, q0)

    for n in range(1, 9):
        assert sum(v * v for v in cell_module_dims(n).values()) == double_factorial_odd(n), n
    print(
        "[PASS] criterion 9: quasi-heredity decision vs brute force (Q and F_p), "
        "simple-module index sets n<=5, dimension checksums n<=8"
    )


def test_criterion_10_straightening_robustness():
    # straightening is independent of the reduced word used, and collapses
    # at q = 1, r = q^1 to the single classical diagram
    for n, seed in ((5, 7), (6, 8)):
        ctx = AlgebraContext(n)
        rng = random.Random(seed)
        for _ in range(500):
            k = rng.randint(0, n // 2)
            sigma = list(range(1, n + 1))
            rng.shuffle(sigma)
            sigma = tuple(sigma)
            out = straighten(ctx, sigma, k)
            assert straighten_by_inverse_word(ctx, sigma, k) == out, (sigma, k)
            target, loops = concat(perm_to_diagram(sigma), e_k_diagram(n, k))
            assert loops == 0
            classical = {}
            for coeff, w, pi in out:
                d, _ = concat(perm_to_diagram(perm_mul(w, pi)), e_k_diagram(n, k))
                classical[d] = classical.get(d, Fraction(0)) + brauer_limit(coeff, 1)
            classical = {d: c for d, c in classical.items() if c}
            assert classical == {target: Fraction(1)}, (sigma, k)
    print(
        "[PASS] criterion 10: straightening order-independence and q=1 collapse, "
        "500 random words each at n=5 and n=6"
    )

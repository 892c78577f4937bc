"""
Named verification suites over the exact kernel.

Every suite returns a report dict {check, n, version, params, pairs_tested,
failures}; an empty failure list is a pass.  The same functions back the
command line ``verify`` subcommand and the acceptance tests, so the two
surfaces cannot drift apart.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import hecke
from .hecke import accumulate, asc, desc
from .algebra import (
    AlgebraContext,
    QBrauerElement,
    basis_element,
    e_k_element,
    involution_i,
    lmul_gen,
    product,
    rmul_atom,
    word_element,
    E_ATOM,
)
from .diagrams import concat, e_k_diagram, enumerate_diagrams
from .scalars import Q, Q_INV, QM1, brauer_limit


def report(check: str, ctx: AlgebraContext, params: dict, pairs: int, failures: list) -> dict:
    """The report dict of a suite or check; an empty failure list is a pass."""
    return {
        "check": check,
        "n": ctx.n,
        "version": ctx.version,
        "params": params,
        "pairs_tested": pairs,
        "failures": failures,
    }


def _pairs(rng: random.Random, left: list, right: list, sample):
    """All pairs (c, d) of ``left`` x ``right``, or ``sample`` distinct ones
    drawn by ``rng`` when there are more.  The draw is by index into the
    pairs in row-major order, which picks the same pairs as sampling the
    full list without building it."""
    m = len(right)
    total = len(left) * m
    if sample is None or total <= sample:
        return [(c, d) for c in left for d in right]
    return [(left[i // m], right[i % m]) for i in rng.sample(range(total), sample)]


# ---------------------------------------------------------------------------
# defining relations
# ---------------------------------------------------------------------------

def relations_suite(ctx: AlgebraContext) -> dict:
    """The defining relations of the algebra, as element identities."""
    n = ctx.n
    failures = []
    count = 0

    def check(tag, lhs, rhs):
        nonlocal count
        count += 1
        if lhs != rhs:
            failures.append({"identity": tag})

    g = {j: lmul_gen(ctx, (j, +1), ctx.unit()) for j in range(1, n)}
    e = word_element(ctx, [E_ATOM])

    for i in range(1, n - 1):
        check(
            f"braid g{i}",
            product(ctx, product(ctx, g[i], g[i + 1]), g[i]),
            product(ctx, product(ctx, g[i + 1], g[i]), g[i + 1]),
        )
    for i in range(1, n):
        for j in range(i + 2, n):
            check(
                f"commute g{i} g{j}",
                product(ctx, g[i], g[j]),
                product(ctx, g[j], g[i]),
            )
    for i in range(1, n):
        check(
            f"quadratic g{i}",
            product(ctx, g[i], g[i]),
            g[i].scale(QM1) + ctx.unit().scale(Q),
        )

    check("idempotent square", product(ctx, e, e), e.scale(ctx.b()))
    for i in range(3, n):
        check(f"idempotent commute g{i}", product(ctx, e, g[i]), product(ctx, g[i], e))
    if n >= 2:
        check("absorb left g1", product(ctx, e, g[1]), e.scale(Q))
        check("absorb right g1", product(ctx, g[1], e), e.scale(Q))
        check("absorb g1 inverse", rmul_atom(ctx, e, (1, -1)), e.scale(Q_INV))
        check("absorb g1 inverse left", lmul_gen(ctx, (1, -1), e), e.scale(Q_INV))
    if n >= 3:
        check(
            "sandwich g2",
            product(ctx, product(ctx, e, g[2]), e),
            e.scale(ctx.r()),
        )
        check(
            "sandwich g2 inverse",
            product(ctx, rmul_atom(ctx, e, (2, -1)), e),
            e.scale(Q_INV),
        )
    if n >= 4:
        twist = word_element(ctx, [(2, 1), (3, 1), (1, -1), (2, -1)])
        e2 = product(ctx, product(ctx, e, twist), e)
        check("twist idempotent value", e2, e_k_element(ctx, 2))
        check("twist idempotent left", product(ctx, twist, e2), e2)
        check("twist idempotent right", product(ctx, e2, twist), e2)
    return report("relations", ctx, {}, count, failures)


# ---------------------------------------------------------------------------
# the ladder of idempotent identities
# ---------------------------------------------------------------------------

def lemmas_suite(ctx: AlgebraContext) -> dict:
    """Exact identities between the tower idempotents, generator chains and
    their absorptions, over every valid index range."""
    n = ctx.n
    K = n // 2
    b, r = ctx.b(), ctx.r()
    ek = {k: e_k_element(ctx, k) for k in range(K + 1)}
    failures = []
    count = 0

    def check(tag, lhs, rhs):
        nonlocal count
        count += 1
        if lhs != rhs:
            failures.append({"identity": tag})

    for k in range(K + 1):
        for j in range(k + 1):
            check(f"tower product {j},{k}", product(ctx, ek[j], ek[k]), ek[k].scale(b ** j))
            check(f"tower product' {j},{k}", product(ctx, ek[k], ek[j]), ek[k].scale(b ** j))

    for k in range(1, K + 1):
        for j in range(k):
            t = 2 * j + 1
            check(f"odd absorb L {t},{k}", lmul_gen(ctx, (t, +1), ek[k]), ek[k].scale(Q))
            check(f"odd absorb R {t},{k}", rmul_atom(ctx, ek[k], (t, +1)), ek[k].scale(Q))
            check(f"odd absorb Li {t},{k}", lmul_gen(ctx, (t, -1), ek[k]), ek[k].scale(Q_INV))
            check(f"odd absorb Ri {t},{k}", rmul_atom(ctx, ek[k], (t, -1)), ek[k].scale(Q_INV))

    for k in range(1, K + 1):
        for j in range(1, k + 1):
            if 2 * j > n - 1:
                continue
            want = ek[k].scale(r * b ** (j - 1))
            check(f"cap sandwich {j},{k}", product(ctx, rmul_atom(ctx, ek[j], (2 * j, +1)), ek[k]), want)
            check(f"cap sandwich' {j},{k}", product(ctx, rmul_atom(ctx, ek[k], (2 * j, +1)), ek[j]), want)

    for k in range(1, K + 1):
        for l in range(1, k):
            for sg in (1, -1):
                a1 = word_element(ctx, asc(1, 2 * l, sg))
                a2 = word_element(ctx, desc(2 * l + 1, 2, sg))
                check(f"chain reflect L {sg},{l},{k}",
                      product(ctx, a1, ek[k]), product(ctx, a2, ek[k]))
                a3 = word_element(ctx, desc(2 * l, 1, sg))
                a4 = word_element(ctx, asc(2, 2 * l + 1, sg))
                check(f"chain reflect R {sg},{l},{k}",
                      product(ctx, ek[k], a3), product(ctx, ek[k], a4))

    for k in range(1, K + 1):
        for j in range(1, k):
            check(
                f"pair slide {j},{k}",
                lmul_gen(ctx, (2 * j - 1, +1), lmul_gen(ctx, (2 * j, +1), ek[k])),
                lmul_gen(ctx, (2 * j + 1, +1), lmul_gen(ctx, (2 * j, +1), ek[k])),
            )
            check(
                f"pair slide inv {j},{k}",
                lmul_gen(ctx, (2 * j - 1, -1), lmul_gen(ctx, (2 * j, -1), ek[k])),
                lmul_gen(ctx, (2 * j + 1, -1), lmul_gen(ctx, (2 * j, -1), ek[k])),
            )

    for k in range(1, K):
        lhs = product(ctx, word_element(ctx, [E_ATOM] + asc(2, 2 * k + 1) + asc(1, 2 * k, -1)), ek[k])
        check(f"ladder recursion left {k}", lhs, ek[k + 1])
        rhs = product(ctx, ek[k], word_element(ctx, desc(2 * k, 1, -1) + desc(2 * k + 1, 2) + [E_ATOM]))
        check(f"ladder recursion right {k}", rhs, ek[k + 1])
        for j in range(1, k + 1):
            mid = word_element(ctx, asc(2 * j, 2 * k + 1) + asc(2 * j - 1, 2 * k, -1))
            check(
                f"ladder from level {j},{k}",
                product(ctx, product(ctx, ek[j], mid), ek[k]),
                ek[k + 1].scale(b ** (j - 1)),
            )
            mid2 = word_element(ctx, desc(2 * k, 2 * j - 1, -1) + desc(2 * k + 1, 2 * j))
            check(
                f"ladder from level' {j},{k}",
                product(ctx, product(ctx, ek[k], mid2), ek[j]),
                ek[k + 1].scale(b ** (j - 1)),
            )

    for k in range(1, K + 1):
        for j in range(1, k):
            for m in range(1, j + 1):
                for sg in (1, -1):
                    a1 = word_element(ctx, asc(2 * m - 1, 2 * j, sg))
                    a2 = word_element(ctx, desc(2 * j + 1, 2 * m, sg))
                    check(f"long reflect L {sg},{m},{j},{k}",
                          product(ctx, a1, ek[k]), product(ctx, a2, ek[k]))
            for i in range(1, j + 1):
                for sg in (1, -1):
                    a1 = word_element(ctx, desc(2 * j, 2 * i - 1, sg))
                    a2 = word_element(ctx, asc(2 * i, 2 * j + 1, sg))
                    check(f"long reflect R {sg},{i},{j},{k}",
                          product(ctx, ek[k], a1), product(ctx, ek[k], a2))

    for k in range(K):
        for j in range(1, k + 1):
            h1 = hecke.word_element(n, [(2 * j + 1, 1)] + asc(2, 2 * k + 1) + asc(1, 2 * k, -1))
            h2 = hecke.word_element(n, asc(2, 2 * k + 1) + asc(1, 2 * k, -1) + [(2 * j - 1, 1)])
            count += 1
            if h1 != h2:
                failures.append({"identity": f"odd slide through ladder {j},{k}"})
            h3 = hecke.word_element(n, desc(2 * k, 1, -1) + desc(2 * k + 1, 2) + [(2 * j + 1, 1)])
            h4 = hecke.word_element(n, [(2 * j - 1, 1)] + desc(2 * k, 1, -1) + desc(2 * k + 1, 2))
            count += 1
            if h3 != h4:
                failures.append({"identity": f"odd slide through ladder' {j},{k}"})

    # mixed-chain absorption, inverse trailing chain: for j1 >= 2k, j2 >= 2k+1
    # e g+_{2,j2} g-_{1,j1} e_(k) = e_(k+1) g+_{2k+2,j2} g-_{2k+1,j1}
    for k in range(K):
        for j1 in range(2 * k, n):
            for j2 in range(2 * k + 1, n):
                lhs = product(ctx, word_element(ctx, [E_ATOM] + asc(2, j2) + asc(1, j1, -1)), ek[k])
                rhs = product(
                    ctx, ek[k + 1],
                    word_element(ctx, asc(2 * k + 2, j2) + asc(2 * k + 1, j1, -1)),
                )
                check(f"chain absorb minus {j1},{j2},{k}", lhs, rhs)
    return report("lemmas", ctx, {}, count, failures)


def plus_chain_absorption_suite(ctx: AlgebraContext) -> dict:
    """Plus-chain version of the absorption identity, with its correction sum:
    for j1 >= 2k, j2 >= 2k+1,

      e g+_{2,j2} g+_{1,j1} e_(k) = q^{2k} e_(k+1) g+_{2k+2,j2} g+_{2k+1,j1}
        + r q (q-1) sum_{l=1}^{k} q^{2l-2} (g_{2l+1} + 1)
                                  g+_{2l+2,j2} g+_{2l+1,j1} e_(k).

    In the integral version r = q^N the prefactor is q^{N+1}(q-1).
    """
    n = ctx.n
    K = n // 2
    failures = []
    count = 0
    for k in range(1, K):
        for j1 in range(2 * k, n):
            for j2 in range(2 * k + 1, n):
                lhs = product(
                    ctx,
                    word_element(ctx, [E_ATOM] + asc(2, j2) + asc(1, j1)),
                    e_k_element(ctx, k),
                )
                head = product(
                    ctx,
                    e_k_element(ctx, k + 1),
                    word_element(ctx, asc(2 * k + 2, j2) + asc(2 * k + 1, j1)),
                )
                rhs = accumulate({}, Q ** (2 * k), head.terms.items())
                coef = ctx.r() * Q * QM1
                for l in range(1, k + 1):
                    tail = word_element(ctx, asc(2 * l + 2, j2) + asc(2 * l + 1, j1))
                    # (g_{2l+1} + 1) tail e_(k), one left factor at a time
                    for left in (tail, lmul_gen(ctx, (2 * l + 1, +1), tail)):
                        piece = product(ctx, left, e_k_element(ctx, k))
                        accumulate(rhs, coef * Q ** (2 * l - 2), piece.terms.items())
                count += 1
                if lhs.terms != rhs:
                    failures.append({"identity": f"chain absorb plus {j1},{j2},{k}"})
    return report("plus_chain_absorption", ctx, {}, count, failures)


def ek_consistency_suite(ctx: AlgebraContext) -> dict:
    """The two ladder recursions and the diagram basis element agree."""
    n = ctx.n
    failures = []
    count = 0
    left = ctx.unit()
    right = ctx.unit()
    for k in range(1, n // 2 + 1):
        left = product(
            ctx, word_element(ctx, [E_ATOM] + asc(2, 2 * k - 1) + asc(1, 2 * k - 2, -1)), left
        )
        right = product(
            ctx, right, word_element(ctx, desc(2 * k - 2, 1, -1) + desc(2 * k - 1, 2) + [E_ATOM])
        )
        want = basis_element(ctx, e_k_diagram(n, k))
        count += 2
        if left != want:
            failures.append({"identity": f"left recursion k={k}"})
        if right != want:
            failures.append({"identity": f"right recursion k={k}"})
    return report("ek_consistency", ctx, {}, count, failures)


# ---------------------------------------------------------------------------
# classical oracle and the involution
# ---------------------------------------------------------------------------

def oracle_suite(ctx: AlgebraContext, sample=None, seed: int = 0) -> dict:
    """Structure constants specialize, at r = q^N and q -> 1, to the loop
    count of the classical diagram product: for N = 1, 2, 3 when r is
    generic, for the context's own N when r = q^N."""
    Ns = (1, 2, 3) if ctx.N is None else (ctx.N,)
    diagrams = enumerate_diagrams(ctx.n)
    pairs = _pairs(random.Random(seed), diagrams, diagrams, sample)
    failures = []
    for d1, d2 in pairs:
        P = product(ctx, QBrauerElement.basis(d1), QBrauerElement.basis(d2))
        dd, g = concat(d1, d2)
        for N in Ns:
            for dout, c in P.terms.items():
                want = Fraction(N) ** g if dout == dd else Fraction(0)
                if brauer_limit(c, N) != want:
                    failures.append({"d1": d1.edges(), "d2": d2.edges(), "N": N})
        if dd not in P.terms:
            failures.append({"d1": d1.edges(), "d2": d2.edges(), "missing": True})
    return report("oracle", ctx, {"Ns": list(Ns), "sample": sample, "seed": seed},
                   len(pairs), failures)


def involution_antihom_suite(ctx: AlgebraContext, count: int = 200, seed: int = 0) -> dict:
    """i(xy) = i(y) i(x) and i^2 = id on ``count`` distinct random basis
    pairs, or on all of them when there are no more."""
    diagrams = enumerate_diagrams(ctx.n)
    pairs = _pairs(random.Random(seed), diagrams, diagrams, count)
    failures = []
    for d1, d2 in pairs:
        a, b = QBrauerElement.basis(d1), QBrauerElement.basis(d2)
        lhs = involution_i(product(ctx, a, b))
        rhs = product(ctx, involution_i(b), involution_i(a))
        if lhs != rhs or involution_i(involution_i(a)) != a:
            failures.append({"pair": True})
    return report("involution_antihom", ctx, {"count": count, "seed": seed}, len(pairs),
                  failures)

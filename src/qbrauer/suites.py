"""
Named verification suites over the exact kernel.

Every suite returns a report dict {check, n, version, params, pairs_tested,
failures}; an empty failure list is a pass.  The same functions back the
command line ``verify`` subcommand and the acceptance tests, so the two
surfaces cannot drift apart.

The relation and lemma suites are tables of rows (tag, lhs, rhs,
mirror_tag), all checked by ``_run``.  A side is a list of terms
(c, u, d, v), meaning c g_u b_d g_v with u, v generator words and b_d the
basis element of the diagram d (a term with d None is c g_u g_v in the
Hecke algebra); ``_value`` evaluates it, u through ``lmul_gen`` last atom
first, then v through ``word_element``.  Times e_(k) on the right is the
fold of ``ek_atoms(k)``, the word that ``product`` folds for a right
factor e_(k) in its middle product.  The involution
fixes every g_j^{±1} and e, reverses products and sends b_d to
b_{star(d)}; ``_mirror`` is its action on a side, and a row with a mirror
tag is checked again through it, so each left/right pair is written once.
Checks stay independent of the code they check: the ``ek_consistency``
rows spell the step e g^+_{2,2k-1} g^-_{1,2k-2} themselves, not through
``algebra.ek_atoms``; the Hecke-only rows compare ``hecke.word_element``
values; the twist rows compare against the basis element e_(2).
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import hecke
from .hecke import accumulate, asc, desc
from .algebra import (
    AlgebraContext,
    QBrauerElement,
    ek_atoms,
    involution_i,
    lmul_gen,
    product,
    word_element,
    E_ATOM,
)
from .diagrams import concat, e_k_diagram, enumerate_diagrams, identity_diagram, star
from .scalars import ONE, Q, Q_INV, QM1, brauer_limit


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
# identity rows: one evaluator, its mirror and one runner
# ---------------------------------------------------------------------------

def _value(ctx: AlgebraContext, side: list):
    """The sum of c g_u b_d g_v over the terms (c, u, d, v) of ``side``."""
    out: dict = {}
    for c, u, d, v in side:
        if d is None:
            z = hecke.word_element(ctx.n, u + v)
        else:
            z = QBrauerElement.basis(d)
            for atom in reversed(u):
                z = lmul_gen(ctx, atom, z)
            z = word_element(ctx, v, z)
        accumulate(out, c, z.terms.items())
    return z._adopt(ctx.n, out)


def _at(d, v: list, c=ONE) -> list:
    """The one-term side c b_d g_v."""
    return [(c, [], d, v)]


def _mirror(side: list) -> list:
    """The image of ``side`` under the involution i."""
    return [(c, v[::-1], d if d is None else star(d), u[::-1]) for c, u, d, v in side]


def _run(check: str, ctx: AlgebraContext, rows) -> dict:
    """Check every row, and the mirror of each row that names one."""
    failures, count = [], 0
    for tag, lhs, rhs, mirror_tag in rows:
        sides = [(tag, lhs, rhs)]
        if mirror_tag:
            sides.append((mirror_tag, _mirror(lhs), _mirror(rhs)))
        for t, x, y in sides:
            count += 1
            if _value(ctx, x) != _value(ctx, y):
                failures.append({"identity": t})
    return report(check, ctx, {}, count, failures)


# ---------------------------------------------------------------------------
# defining relations
# ---------------------------------------------------------------------------

def _relation_rows(ctx: AlgebraContext):
    """Wenzl's defining relations; all but the twist rows start at the unit."""
    n, E, one = ctx.n, E_ATOM, identity_diagram(ctx.n)
    for i in range(1, n - 1):
        yield (f"braid g{i}", _at(one, [(i, 1), (i + 1, 1), (i, 1)]),
               _at(one, [(i + 1, 1), (i, 1), (i + 1, 1)]), None)
    for i in range(1, n):
        for j in range(i + 2, n):
            yield f"commute g{i} g{j}", _at(one, [(i, 1), (j, 1)]), _at(one, [(j, 1), (i, 1)]), None
    for i in range(1, n):
        yield (f"quadratic g{i}", _at(one, [(i, 1), (i, 1)]),
               _at(one, [(i, 1)], QM1) + _at(one, [], Q), None)
    yield "idempotent square", _at(one, [E, E]), _at(one, [E], ctx.b()), None
    for i in range(3, n):
        yield f"idempotent commute g{i}", _at(one, [E, (i, 1)]), _at(one, [(i, 1), E]), None
    if n >= 2:
        yield "absorb left g1", _at(one, [E, (1, 1)]), _at(one, [E], Q), "absorb right g1"
        yield ("absorb g1 inverse", _at(one, [E, (1, -1)]), _at(one, [E], Q_INV),
               "absorb g1 inverse left")
    if n >= 3:
        yield "sandwich g2", _at(one, [E, (2, 1), E]), _at(one, [E], ctx.r()), None
        yield "sandwich g2 inverse", _at(one, [E, (2, -1), E]), _at(one, [E], Q_INV), None
    if n >= 4:
        twist = [(2, 1), (3, 1), (1, -1), (2, -1)]
        e2 = e_k_diagram(n, 2)
        yield "twist idempotent value", _at(one, [E] + twist + [E]), _at(e2, []), None
        yield "twist idempotent left", _at(one, twist + ek_atoms(2)), _at(e2, []), None
        yield "twist idempotent right", _at(e2, twist), _at(e2, []), None


def relations_suite(ctx: AlgebraContext) -> dict:
    """The defining relations of the algebra, as element identities."""
    return _run("relations", ctx, _relation_rows(ctx))


# ---------------------------------------------------------------------------
# the ladder of idempotent identities
# ---------------------------------------------------------------------------

def _lemma_rows(ctx: AlgebraContext):
    n, K, E = ctx.n, ctx.n // 2, E_ATOM
    b, r, one = ctx.b(), ctx.r(), identity_diagram(n)
    ek = [e_k_diagram(n, k) for k in range(K + 1)]

    for k in range(K + 1):
        for j in range(k + 1):
            yield (f"tower product {j},{k}", _at(ek[j], ek_atoms(k)), _at(ek[k], [], b ** j),
                   f"tower product' {j},{k}")

    for k in range(1, K + 1):
        for t in range(1, 2 * k, 2):
            for sg, c, i in ((1, Q, ""), (-1, Q_INV, "i")):
                yield (f"odd absorb L{i} {t},{k}", [(ONE, [(t, sg)], ek[k], [])],
                       _at(ek[k], [], c), f"odd absorb R{i} {t},{k}")

    for k in range(1, K + 1):
        for j in range(1, min(k, (n - 1) // 2) + 1):
            yield (f"cap sandwich {j},{k}", _at(ek[j], [(2 * j, 1)] + ek_atoms(k)),
                   _at(ek[k], [], r * b ** (j - 1)), f"cap sandwich' {j},{k}")

    for k in range(1, K + 1):
        for l in range(1, k):
            for sg in (1, -1):
                yield (f"chain reflect L {sg},{l},{k}", _at(one, asc(1, 2 * l, sg) + ek_atoms(k)),
                       _at(one, desc(2 * l + 1, 2, sg) + ek_atoms(k)),
                       f"chain reflect R {sg},{l},{k}")

    for k in range(1, K + 1):
        for j in range(1, k):
            for sg, i in ((1, ""), (-1, " inv")):
                yield (f"pair slide{i} {j},{k}", [(ONE, [(2 * j - 1, sg), (2 * j, sg)], ek[k], [])],
                       [(ONE, [(2 * j + 1, sg), (2 * j, sg)], ek[k], [])], None)

    for k in range(1, K):
        yield (f"ladder recursion left {k}",
               _at(one, [E] + asc(2, 2 * k + 1) + asc(1, 2 * k, -1) + ek_atoms(k)),
               _at(ek[k + 1], []), f"ladder recursion right {k}")
        for j in range(1, k + 1):
            mid = asc(2 * j, 2 * k + 1) + asc(2 * j - 1, 2 * k, -1)
            yield (f"ladder from level {j},{k}", _at(ek[j], mid + ek_atoms(k)),
                   _at(ek[k + 1], [], b ** (j - 1)), f"ladder from level' {j},{k}")

    for k in range(1, K + 1):
        for j in range(1, k):
            for m in range(1, j + 1):
                for sg in (1, -1):
                    yield (f"long reflect L {sg},{m},{j},{k}",
                           _at(one, asc(2 * m - 1, 2 * j, sg) + ek_atoms(k)),
                           _at(one, desc(2 * j + 1, 2 * m, sg) + ek_atoms(k)),
                           f"long reflect R {sg},{m},{j},{k}")

    # in the Hecke algebra: an odd generator slides through the ladder word
    for k in range(K):
        ladder = asc(2, 2 * k + 1) + asc(1, 2 * k, -1)
        for j in range(1, k + 1):
            yield (f"odd slide through ladder {j},{k}", _at(None, [(2 * j + 1, 1)] + ladder),
                   _at(None, ladder + [(2 * j - 1, 1)]), f"odd slide through ladder' {j},{k}")

    # mixed-chain absorption, inverse trailing chain: for j1 >= 2k, j2 >= 2k+1
    # e g+_{2,j2} g-_{1,j1} e_(k) = e_(k+1) g+_{2k+2,j2} g-_{2k+1,j1}
    for k in range(K):
        for j1 in range(2 * k, n):
            for j2 in range(2 * k + 1, n):
                yield (f"chain absorb minus {j1},{j2},{k}",
                       _at(one, [E] + asc(2, j2) + asc(1, j1, -1) + ek_atoms(k)),
                       _at(ek[k + 1], asc(2 * k + 2, j2) + asc(2 * k + 1, j1, -1)), None)


def lemmas_suite(ctx: AlgebraContext) -> dict:
    """Exact identities between the tower idempotents, generator chains and
    their absorptions, over every valid index range."""
    return _run("lemmas", ctx, _lemma_rows(ctx))


def _plus_chain_rows(ctx: AlgebraContext):
    n, one = ctx.n, identity_diagram(ctx.n)
    for k in range(1, n // 2):
        for j1 in range(2 * k, n):
            for j2 in range(2 * k + 1, n):
                head = asc(2 * k + 2, j2) + asc(2 * k + 1, j1)
                rhs = _at(e_k_diagram(n, k + 1), head, Q ** (2 * k))
                for l in range(1, k + 1):
                    tail = asc(2 * l + 2, j2) + asc(2 * l + 1, j1) + ek_atoms(k)
                    c = ctx.r() * Q * QM1 * Q ** (2 * l - 2)
                    rhs += [(c, [], one, tail), (c, [(2 * l + 1, 1)], one, tail)]
                yield (f"chain absorb plus {j1},{j2},{k}",
                       _at(one, [E_ATOM] + asc(2, j2) + asc(1, j1) + ek_atoms(k)), rhs, None)


def plus_chain_absorption_suite(ctx: AlgebraContext) -> dict:
    """Plus-chain version of the absorption identity, with its correction sum:
    for j1 >= 2k, j2 >= 2k+1,

      e g+_{2,j2} g+_{1,j1} e_(k) = q^{2k} e_(k+1) g+_{2k+2,j2} g+_{2k+1,j1}
        + r q (q-1) sum_{l=1}^{k} q^{2l-2} (g_{2l+1} + 1)
                                  g+_{2l+2,j2} g+_{2l+1,j1} e_(k).

    In the integral version r = q^N the prefactor is q^{N+1}(q-1).
    """
    return _run("plus_chain_absorption", ctx, _plus_chain_rows(ctx))


def _ek_rows(ctx: AlgebraContext):
    n, word = ctx.n, []
    for k in range(1, n // 2 + 1):
        # e_(k) = e g+_{2,2k-1} g-_{1,2k-2} e_(k-1), spelled here, not by ek_atoms
        word = [E_ATOM] + asc(2, 2 * k - 1) + asc(1, 2 * k - 2, -1) + word
        yield (f"left recursion k={k}", _at(identity_diagram(n), word),
               _at(e_k_diagram(n, k), []), f"right recursion k={k}")


def ek_consistency_suite(ctx: AlgebraContext) -> dict:
    """The two ladder recursions and the diagram basis element agree."""
    return _run("ek_consistency", ctx, _ek_rows(ctx))


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

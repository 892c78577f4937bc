"""
Named verification suites over the exact kernel.

Every suite returns a report dict {check, n, version, params, pairs_tested,
failures}; an empty failure list is a pass.  The same functions back the
command line ``verify`` subcommand and the acceptance tests, so the two
surfaces cannot drift apart.

``relations_suite`` is a certificate that the kernel is the regular module
of the algebra and that ``product`` is its multiplication, in four reports.
``rmul_atom`` makes the span M of the (2n-1)!! diagrams a right module over
the free algebra on g_j^{±1} and e.

* relations: each defining relation (Wenzl), its mirror under the
  involution, which reverses words, and g_j g_j^{-1} = g_j^{-1} g_j = 1
  hold on every basis element of M.  So M is a module of the algebra.
* spanning: the word of g_{w1} e_(k) g_{wd} g_{w2}, folded onto the unit
  by ``word_element``, is b_d for every diagram d.  So M is cyclic,
  generated by the unit.  Wenzl's spanning set has (2n-1)!! elements, so
  the algebra has at most that rank, and a cyclic module of that rank is
  the regular one: every right action the kernel computes is right
  multiplication.
* left_action: for a = g_j and e, the generators that act on the left,
  ``lmul_gen(a, b_d)`` is a 1 times the word of d, folded on as in the
  spanning report, for every diagram d.  Right actions are right
  multiplications, so that fold is a (1 b_d) = a b_d, and the linear map
  ``lmul_gen(a, .)`` is left multiplication by a.  And i(b_d g_j) =
  g_j i(b_d); e x = i(i(x) e) is how ``lmul_gen`` computes e x, so
  i(x e) = e i(x) too, and the involution i is an anti-automorphism.
* product: ``product`` forms u m v for a pair of basis elements b_c, b_d:
  m = b_{c↓} b_{d↑}, of the bottom part e_(k) g_{w2} of c and the top part
  g_{w1'} e_(k') of d, u = g_{w1} g_{wd} by one left word fold, whose
  one-atom case is ``lmul_gen``, and v = g_{wd'} g_{w2'} by the right
  tail ``algebra._rtail``: a word fold of wd', whose one-atom case is
  ``rmul_atom``, then w2' as a relabel of each layer-k' term and a word
  fold on the deeper ones.  m is compared with its word folded one
  ``rmul_atom`` at a time for every pair of parts, which checks the
  multi-atom folds against the one-atom step, and b_c 1 = b_c, 1 b_d = b_d
  show u b_{c↓} = b_c and b_{d↑} v = b_d; the second meets every relabel
  the tail can make, one per diagram d.  So ``product(b_c, b_d)`` = b_c b_d.
  e on the left puts on the same tail, so the relations and left_action
  reports read it on every basis element too.

Associativity and i(xy) = i(y) i(x) hold in the algebra, so the four
reports prove them for ``product`` and need no check of their own.

``oracle_suite`` is independent of the certificate: each product, read in
Z[δ] at q = r = 1, must be the classical one, for every δ at once.

A relation row is (tag, lhs, rhs, mirror_tag); a side is a list of terms
(c, v), meaning x c g_v with v a tuple of atoms, and ``_value`` folds it
onto a basis element x one ``rmul_atom`` at a time, sharing the prefixes
of one element's words.  A row with a mirror tag is checked again with
every word reversed.  The certificate spells e_(k) in e and g_j^{±1} by
``algebra.ek_atoms``.  The product reads e_(k) as the one atom ("e", k),
whose entry folds one step of the same recursion over the atom
("e", k-1), so the product report checks that atom against its spelled
word.  A wrong spelling in the certificate fails the relations, spanning
and product reports, which compare against the diagram basis, and the
left_action report, whose word images read it too.
"""

from __future__ import annotations

import random

from .hecke import accumulate
from .algebra import (
    AlgebraContext,
    QBrauerElement,
    ek_atoms,
    involution_i,
    lmul_gen,
    product,
    rmul_atom,
    word_element,
    E_ATOM,
)
from .diagrams import concat, decompose, enumerate_diagrams, identity_perm, reduced_word
from .scalars import ONE, Q, Q_INV, QM1, PoleAtSpecialization, classical_limit


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


def _pairs(rng: random.Random, items: list, sample):
    """All ordered pairs (c, d) of ``items``, or ``sample`` distinct ones
    drawn by ``rng`` when there are more.  The draw is by index into the
    pairs in row-major order, which picks the same pairs as sampling the
    full list without building it."""
    m = len(items)
    if sample is None or m * m <= sample:
        return [(c, d) for c in items for d in items]
    return [(items[i // m], items[i % m]) for i in rng.sample(range(m * m), sample)]


# ---------------------------------------------------------------------------
# the module certificate
# ---------------------------------------------------------------------------

def _fold(ctx: AlgebraContext, folds: dict, v: tuple) -> QBrauerElement:
    """x g_v.  ``folds`` maps each word u folded so far to x g_u, with x
    under the empty word; v is folded onto its longest prefix there."""
    z = folds.get(v)
    if z is None:
        z = folds[v] = rmul_atom(ctx, _fold(ctx, folds, v[:-1]), v[-1])
    return z


def _value(ctx: AlgebraContext, folds: dict, side: list) -> QBrauerElement:
    """The sum of c x g_v over the terms (c, v) of ``side``."""
    if len(side) == 1 and side[0][0] is ONE:
        return _fold(ctx, folds, side[0][1])
    out: dict = {}
    for c, v in side:
        accumulate(out, c, _fold(ctx, folds, v).terms.items())
    return QBrauerElement._adopt(ctx.n, out)


def _term(v: list, c=ONE) -> list:
    """The one-term side c g_v."""
    return [(c, tuple(v))]


def _mirror(side: list) -> list:
    """The image of ``side`` under the involution i: every word reversed."""
    return [(c, v[::-1]) for c, v in side]


def _relation_rows(ctx: AlgebraContext):
    """Wenzl's defining relations, and g_j g_j^{-1} = 1.  The twist rows
    read e_(2) as the word e g_2 g_3 g_1^{-1} g_2^{-1} e that defines it."""
    n, E = ctx.n, E_ATOM
    for i in range(1, n):
        yield f"inverse g{i}", _term([(i, 1), (i, -1)]), _term([]), f"inverse g{i}'"
    for i in range(1, n - 1):
        yield (f"braid g{i}", _term([(i, 1), (i + 1, 1), (i, 1)]),
               _term([(i + 1, 1), (i, 1), (i + 1, 1)]), None)
    for i in range(1, n):
        for j in range(i + 2, n):
            yield f"commute g{i} g{j}", _term([(i, 1), (j, 1)]), _term([(j, 1), (i, 1)]), None
    for i in range(1, n):
        yield f"quadratic g{i}", _term([(i, 1), (i, 1)]), _term([(i, 1)], QM1) + _term([], Q), None
    yield "idempotent square", _term([E, E]), _term([E], ctx.b()), None
    for i in range(3, n):
        yield f"idempotent commute g{i}", _term([E, (i, 1)]), _term([(i, 1), E]), None
    if n >= 2:
        yield "absorb left g1", _term([E, (1, 1)]), _term([E], Q), "absorb right g1"
        yield ("absorb g1 inverse", _term([E, (1, -1)]), _term([E], Q_INV),
               "absorb g1 inverse left")
    if n >= 3:
        yield "sandwich g2", _term([E, (2, 1), E]), _term([E], ctx.r()), None
        yield "sandwich g2 inverse", _term([E, (2, -1), E]), _term([E], Q_INV), None
    if n >= 4:
        twist, e2 = [(2, 1), (3, 1), (1, -1), (2, -1)], ek_atoms(2)
        yield "twist idempotent left", _term(twist + e2), _term(e2), "twist idempotent left'"
        yield "twist idempotent right", _term(e2 + twist), _term(e2), "twist idempotent right'"


def relations_check(ctx: AlgebraContext) -> dict:
    """Every relation row and its mirror, on every basis element."""
    sides = []
    for tag, lhs, rhs, mirror_tag in _relation_rows(ctx):
        sides.append((tag, lhs, rhs))
        if mirror_tag:
            sides.append((mirror_tag, _mirror(lhs), _mirror(rhs)))
    diagrams, failures = enumerate_diagrams(ctx.n), []
    for d in diagrams:
        folds = {(): QBrauerElement.basis(d)}
        for tag, lhs, rhs in sides:
            if _value(ctx, folds, lhs) != _value(ctx, folds, rhs):
                failures.append({"identity": tag, "diagram": d.edges()})
    return report("relations", ctx, {}, len(sides) * len(diagrams), failures)


def _word_images(ctx: AlgebraContext, starts: list, diagrams: list):
    """(d, [s g_{w1} e_(k) g_{wd} g_{w2} for s in starts]) for each diagram
    d of ``diagrams``: the word of d folded onto each start with
    ``word_element``, the multi-atom fold.  The product report's one-atom
    :func:`_fold` checks that fold against the ``rmul_atom`` step."""
    heads = {}
    for d in diagrams:
        ex = decompose(d)
        # many diagrams share w1 and k: fold that head once
        head = heads.get((ex.w1, ex.k))
        if head is None:
            word = reduced_word(ex.w1) + tuple(ek_atoms(ex.k))
            head = heads[ex.w1, ex.k] = [word_element(ctx, word, s) for s in starts]
        yield d, [word_element(ctx, ex.right_word, h) for h in head]


def spanning_check(ctx: AlgebraContext) -> dict:
    """The unit times the word g_{w1} e_(k) g_{wd} g_{w2} of each diagram d
    is b_d."""
    diagrams = enumerate_diagrams(ctx.n)
    failures = [{"diagram": d.edges()} for d, (z,) in _word_images(ctx, [ctx.unit()], diagrams)
                if z != QBrauerElement.basis(d)]
    return report("spanning", ctx, {}, len(diagrams), failures)


def left_action_check(ctx: AlgebraContext) -> dict:
    """For each generator a in g_j and e and every diagram d,
    ``lmul_gen(a, b_d)`` is a 1 times the word g_{w1} e_(k) g_{wd} g_{w2}
    of d, folded on with ``word_element``; and i(b_d g_j) = g_j i(b_d).  The
    spanning report makes right actions right multiplications, so the fold
    is a b_d, and the linear map ``lmul_gen(a, .)`` is left multiplication
    by a.  i(x e) = e i(x) needs no row: ``lmul_gen`` computes e y as
    i(i(y) e).  g_j^{-1} acts on the right only."""
    n, diagrams, failures = ctx.n, enumerate_diagrams(ctx.n), []
    gens = [(j, 1) for j in range(1, n)] + ([E_ATOM] if n >= 2 else [])
    starts = [rmul_atom(ctx, ctx.unit(), a) for a in gens]
    for d, images in _word_images(ctx, starts, diagrams):
        x = QBrauerElement.basis(d)
        for a, z in zip(gens, images):
            if lmul_gen(ctx, a, x) != z:
                failures.append({"a": list(a), "diagram": d.edges()})
        for j in range(1, n):
            if involution_i(rmul_atom(ctx, x, (j, 1))) != lmul_gen(ctx, (j, 1), involution_i(x)):
                failures.append({"involution": j, "diagram": d.edges()})
    return report("left_action", ctx, {}, len(diagrams) * (len(gens) + n - 1), failures)


def product_check(ctx: AlgebraContext) -> dict:
    """``product(b_c, b_d)`` is b_c times the word g_{w1'} g_{wd'} e_(k') of
    d, folded on with ``rmul_atom``, for every bottom part c = e_(k) g_{w2}
    and every d = (k', w1', wd', 1): these pairs meet every middle product.
    And b_d 1 = 1 b_d = b_d for every d, which reads the outer words."""
    diagrams, failures = enumerate_diagrams(ctx.n), []
    exprs, one_perm = {d: decompose(d) for d in diagrams}, identity_perm(ctx.n)
    bottoms = [d for d in diagrams if not exprs[d].left_word]
    tops = [(d, exprs[d].left_word + tuple(ek_atoms(exprs[d].k)))
            for d in diagrams if exprs[d].w2 == one_perm]
    for c in bottoms:
        x = QBrauerElement.basis(c)
        folds = {(): x}
        for d, word in tops:
            if product(ctx, x, QBrauerElement.basis(d)) != _fold(ctx, folds, word):
                failures.append({"c": c.edges(), "d": d.edges()})
    one = ctx.unit()
    for d in diagrams:
        x = QBrauerElement.basis(d)
        for side, z in (("right", product(ctx, x, one)), ("left", product(ctx, one, x))):
            if z != x:
                failures.append({"unit": side, "diagram": d.edges()})
    return report("product", ctx, {}, len(bottoms) * len(tops) + 2 * len(diagrams), failures)


def relations_suite(ctx: AlgebraContext) -> list:
    """The module certificate: the relations, spanning and left_action
    reports, and the product report that rests on them."""
    return [relations_check(ctx), spanning_check(ctx), left_action_check(ctx), product_check(ctx)]


# ---------------------------------------------------------------------------
# classical oracle
# ---------------------------------------------------------------------------

def oracle_suite(ctx: AlgebraContext, sample=None, seed: int = 0) -> dict:
    """q = r = 1 maps b_{d1} b_{d2} to its product in B_n(δ), δ^loops times
    the concatenation of d1 and d2, read in Z[δ] by ``classical_limit``; at
    r = q^N, δ = N, and at N = 0 a product that closes a loop maps to 0.  A
    coefficient outside Z[q^{±1}, r^{±1}, δ] fails its pair."""
    diagrams = enumerate_diagrams(ctx.n)
    pairs = _pairs(random.Random(seed), diagrams, sample)
    failures = []
    for d1, d2 in pairs:
        P = product(ctx, QBrauerElement.basis(d1), QBrauerElement.basis(d2))
        dd, g = concat(d1, d2)
        try:
            images = {d: im for d, c in P.terms.items() if (im := classical_limit(c))}
        except PoleAtSpecialization as exc:
            failures.append({"d1": d1.edges(), "d2": d2.edges(), "pole": str(exc)})
            continue
        want = {g: 1} if ctx.N is None else {0: ctx.N ** g}
        # images drop a zero image, which 0 ** g is at N = 0
        if images != ({dd: want} if any(want.values()) else {}):
            failures.append({"d1": d1.edges(), "d2": d2.edges()})
    return report("oracle", ctx, {"sample": sample, "seed": seed}, len(pairs), failures)

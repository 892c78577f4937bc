"""
Cell coordinates, layer bilinear forms, cell-chain checks, and the
quasi-heredity decision procedure.

The algebra decomposes, as a free module, into layers indexed by
k = 0..[n/2], and is an iterated inflation of Hecke algebras along them.
The cell coordinate of a layer-k diagram d is its factorization
(k, w1, wd, w2), d = w1 e_(k) wd e_(k) w2 up to k loops, with wd fixing
1..2k: w1 fixes the top part of d (its top row over the e_(k) row, with
non-crossing verticals), w2 the mirror-image bottom part, and g_wd lies
in the parabolic Hecke algebra on the generators g_{2k+1}..g_{n-1}.
:func:`to_inflation` reads the coordinate and :func:`from_inflation`
rebuilds the diagram from all of it by concatenation;
:func:`inflation_bijection_check` runs that round trip on every diagram.
The rebuild is one ``concat`` of a head w1 e_(k) wd and a tail e_(k) w2,
each cached by value with ``functools.cache`` and never cleared;
:func:`from_inflation` says why that is safe and bounds both caches.
Multiplication of two layer-k elements is governed, modulo the lower
layers, by a bilinear form phi_k with values in that Hecke algebra; phi_k
and the product check read coordinates through one reader,
:func:`_layer_form`.  The module also verifies that the layers form a
chain of ideals and that the involution inverts cell coordinates, which
with the module certificate makes each phi_k symmetric under it.

Simple modules are indexed combinatorially: pairs (k, lam) with lam an
e(q)-restricted partition of n - 2k, where e(q) is the order-of-unity
index of the ground-field parameter q.
"""

from __future__ import annotations

import random
from collections import namedtuple
from functools import cache
from math import factorial

from . import algebra
from .algebra import (
    AlgebraContext,
    QBrauerElement,
    product,
    _rfold,
    E_ATOM,
)
from .diagrams import (
    BrauerDiagram,
    Perm,
    ReducedExpression,
    bottom_part,
    concat,
    concat_many,
    e_k_diagram,
    enumerate_diagrams,
    fixes_prefix,
    identity_perm,
    perm_inv,
    perm_to_diagram,
    star,
    top_part,
)
from .hecke import HeckeElement, accumulate, product as hecke_product
from .scalars import ONE
from .suites import _pairs, report


# ---------------------------------------------------------------------------
# partitions and tableau counts
# ---------------------------------------------------------------------------

def partitions(m: int):
    """All partitions of m, parts weakly decreasing, in lex-descending order."""
    if m == 0:
        return [()]
    out = []

    def rec(rest: int, maxpart: int, prefix: tuple):
        if rest == 0:
            out.append(prefix)
            return
        for p in range(min(rest, maxpart), 0, -1):
            rec(rest - p, p, prefix + (p,))

    rec(m, m, ())
    return out


def hook_count(lam: tuple) -> int:
    """Number of standard Young tableaux of shape lam (hook length formula)."""
    m = sum(lam)
    prod = 1
    for i, row in enumerate(lam):
        for j in range(row):
            arm = row - j - 1
            leg = sum(1 for rr in lam[i + 1:] if rr > j)
            prod *= arm + leg + 1
    return factorial(m) // prod


def is_restricted(lam: tuple, e: int | None) -> bool:
    """e-restricted: successive part differences (last part included) < e.

    ``e is None`` means e(q) is infinite, so every partition qualifies.
    """
    if e is None:
        return True
    padded = lam + (0,)
    return all(padded[i] - padded[i + 1] < e for i in range(len(lam)))


def transversal_count(n: int, k: int) -> int:
    """n! / (2^k (n-2k)! k!): the one-row diagrams with k caps, which index
    the no-crossing transversal of layer k."""
    return factorial(n) // (2 ** k * factorial(n - 2 * k) * factorial(k))


def double_factorial_odd(n: int) -> int:
    """(2n-1)!! = 1*3*5*...*(2n-1), the diagram count."""
    out = 1
    for i in range(1, 2 * n, 2):
        out *= i
    return out


# ---------------------------------------------------------------------------
# cell coordinates
# ---------------------------------------------------------------------------

def to_inflation(d: BrauerDiagram) -> ReducedExpression:
    """The cell coordinate (k, w1, wd, w2) of ``d``: its memoized factorization."""
    return algebra._expr(d)


def from_inflation(n: int, ex: ReducedExpression):
    """``(diagram, loops)`` of the concatenation w1 e_(k) wd e_(k) w2, which
    shares no code with ``decompose``; a cell coordinate of a diagram
    rebuilds that diagram and closes k loops.

    It is one ``concat`` of the head w1 e_(k) wd (:func:`_head`) and the
    tail e_(k) w2 (:func:`_tail`): concatenation is associative and the
    loops add up.  Both halves are cached with ``functools.cache``, filled
    on first use and never cleared.  That is safe: the keys are values
    (ints and permutation tuples), the values are an interned diagram and a
    loop count, and neither involves r, so the generic and the integral
    versions share them.  Over the coordinates of the diagrams of rank n
    there are sum_k n!/(2^k k!) heads (195 at n = 5, 8,295 at n = 7) and
    sum_k transversal_count(n, k) tails (26 and 232).  A w1, wd or w2 that
    is no permutation raises ValueError on every call, as the cache keeps
    no exception.
    """
    head, a = _head(n, ex.k, ex.w1, ex.wd)
    tail, b = _tail(n, ex.k, ex.w2)
    d, c = concat(head, tail)
    return d, a + b + c


@cache
def _head(n: int, k: int, w1: Perm, wd: Perm):
    """``(diagram, loops)`` of w1 e_(k) wd; cached by value."""
    return concat_many(perm_to_diagram(w1), e_k_diagram(n, k), perm_to_diagram(wd))


@cache
def _tail(n: int, k: int, w2: Perm):
    """``(diagram, loops)`` of e_(k) w2; cached by value."""
    return concat(e_k_diagram(n, k), perm_to_diagram(w2))


# ---------------------------------------------------------------------------
# the layer bilinear form phi_k
# ---------------------------------------------------------------------------

def _layer_form(x: QBrauerElement, k: int, w1: Perm, w2: Perm) -> HeckeElement | None:
    """Sum c g_wd over the layer-k terms c d of ``x``, d = w1 e_(k) wd e_(k) w2;
    None as soon as a layer-k term has other outer factors than (w1, w2)."""
    out: dict = {}
    for d, coeff in x.terms.items():
        if d.layer() == k:
            ex = to_inflation(d)
            if ex.w1 != w1 or ex.w2 != w2:
                return None
            accumulate(out, coeff, ((ex.wd, ONE),))
    return HeckeElement._adopt(x.n, out)


def phi_k(ctx: AlgebraContext, c: BrauerDiagram, d: BrauerDiagram) -> HeckeElement | None:
    """The parabolic Hecke element governing (e_(k) w2-part) * (w1-part e_(k)).

    ``c`` must be a bottom part (e_(k) top row), ``d`` a top part (e_(k)
    bottom row), both of layer k; the layer-k terms of the product of their
    basis elements are permuted e_(k) diagrams, so their outer factors are
    (1, 1), and phi_k is their :func:`_layer_form`: None when a term has
    others, which :func:`inflation_product_check` reports.
    """
    k = c.layer()
    if d.layer() != k or bottom_part(c) != c or top_part(d) != d:
        raise ValueError("phi_k needs a bottom part and a top part of one layer")
    P = product(ctx, QBrauerElement.basis(c), QBrauerElement.basis(d))
    ident = identity_perm(ctx.n)
    return _layer_form(P, k, ident, ident)


# ---------------------------------------------------------------------------
# verification reports
# ---------------------------------------------------------------------------

def inflation_bijection_check(ctx: AlgebraContext) -> dict:
    """Every diagram d of layer k has a cell coordinate (k, w1, wd, w2) with
    wd fixing 1..2k, and :func:`from_inflation` rebuilds d from the whole
    coordinate, closing k loops; so :func:`to_inflation` is injective.
    Each layer k holds sum_lam dim(k, lam)^2 diagrams, and their w1 take
    transversal_count(n, k) values.  ``pairs_tested`` counts the diagrams;
    a failed layer count is reported as ``{"layer": k}``."""
    n = ctx.n
    failures = []
    count = 0
    w1s = {}  # layer -> the w1 of each of its diagrams
    for d in enumerate_diagrams(n):
        count += 1
        k = d.layer()
        ex = to_inflation(d)
        try:
            back = from_inflation(n, ex)
        except ValueError:  # w1, wd or w2 is no permutation
            back = None
        if back != (d, k) or not fixes_prefix(ex.wd, 2 * k):
            failures.append({"diagram": d.edges()})
        w1s.setdefault(k, []).append(ex.w1)
    dims = cell_module_dims(n)
    for k in range(n // 2 + 1):
        size = sum(v * v for idx, v in dims.items() if idx.k == k)
        if len(w1s[k]) != size or len(set(w1s[k])) != transversal_count(n, k):
            failures.append({"layer": k})
    return report("inflation_bijection", ctx, {}, count, failures)


def inflation_product_check(ctx: AlgebraContext, sample=None, seed: int = 0) -> dict:
    """Layer products are governed by phi_k modulo lower layers: for all
    pairs of one layer, the layer-k terms of g_c g_d have the cell
    coordinates (w1(c), h, w2(d)) with
    h = g_{wd(c)} phi_k(bottom_part(c), top_part(d)) g_{wd(d)}.
    Comparing coordinates is as strong as comparing diagrams, because
    :func:`inflation_bijection_check`, which ``verify cell`` runs first,
    rebuilds every diagram from its whole coordinate (k, w1, wd, w2)
    through ``concat``, which shares no code with ``decompose``.  A pair
    whose phi_k is None fails with ``"form": None``."""
    rng = random.Random(seed)
    n = ctx.n
    failures = []
    pairs = 0
    diagrams = enumerate_diagrams(n)
    # phi_k depends on the pair only through bottom_part(c) and top_part(d)
    forms = {}
    for k in range(n // 2 + 1):
        layer_diags = [d for d in diagrams if d.layer() == k]
        for c, d in _pairs(rng, layer_diags, sample):
            pairs += 1
            ec, ed = to_inflation(c), to_inflation(d)
            key = (bottom_part(c), top_part(d))
            if key not in forms:
                forms[key] = phi_k(ctx, *key)
            form = forms[key]
            if form is None:
                failures.append({"c": c.edges(), "d": d.edges(), "form": None})
                continue
            want = hecke_product(HeckeElement.basis(ec.wd), form)
            want = hecke_product(want, HeckeElement.basis(ed.wd))
            x, y = QBrauerElement.basis(c), QBrauerElement.basis(d)
            if _layer_form(product(ctx, x, y), k, ec.w1, ed.w2) != want:
                failures.append({"c": c.edges(), "d": d.edges()})
    return report("inflation_product", ctx, {"sample": sample, "seed": seed}, pairs, failures)


def involution_symmetry_check(ctx: AlgebraContext) -> dict:
    """The involution inverts cell coordinates and keeps layers: for every
    diagram d = (k, w1, wd, w2), star(d) is (k, w2^-1, wd^-1, w1^-1), and
    :func:`inflation_bijection_check` ties each coordinate's k to the
    diagram's layer.  ``pairs_tested`` counts the (2n-1)!! diagrams.  So
    i(phi_k(c, d)) = phi_k(star d, star c), with i the Hecke involution
    g_w -> g_{w^-1}, needs no check: phi_k(c, d) is
    the layer-k form at outer factors (1, 1) of b_c b_d, the certificate of
    ``verify relations`` gives i(b_c b_d) = b_{star d} b_{star c}, and star
    maps each layer-k coordinate (1, wd, 1) to (1, wd^-1, 1)."""
    failures = []
    diagrams = enumerate_diagrams(ctx.n)
    for d in diagrams:
        ex, sx = to_inflation(d), to_inflation(star(d))
        if (sx.k, sx.w1, sx.wd, sx.w2) != (ex.k, perm_inv(ex.w2), perm_inv(ex.wd),
                                           perm_inv(ex.w1)):
            failures.append({"basis_image": d.edges()})
    return report("involution_symmetry", ctx, {}, len(diagrams), failures)


def cell_chain_check(ctx: AlgebraContext) -> dict:
    """The layers A_{>=k} form a chain of involution-stable two-sided ideals:
    b_d g_j and b_d e have no term in a shallower layer than d (e is a
    generator from n = 2 on), each read as the kernel's one-atom fold
    ``_rfold``, which ``rmul_atom`` wraps.  Nothing else needs checking:
    b_d g_j^{-1} has its terms among those of b_d g_j and d, by the
    relations report of ``verify relations``; a b_d = i(b_{star d} a) for
    a = g_j or e, since
    the involution i is an anti-automorphism that fixes both, by its
    left_action report (i(b_d g_j) = g_j i(b_d), and i(x e) = e i(x)
    because ``lmul_gen`` computes e y as i(i(y) e) and that report shows it
    is left multiplication by e); and star keeps layers, by
    :func:`involution_symmetry_check`."""
    n = ctx.n
    atoms = ([E_ATOM] if n >= 2 else []) + [(j, 1) for j in range(1, n)]
    failures = []
    diagrams = enumerate_diagrams(n)
    for d in diagrams:
        k, x = d.layer(), {d: ONE}
        for atom in atoms:
            if any(dd.layer() < k for dd in _rfold(ctx, x, (atom,))):
                failures.append({"diagram": d.edges(), "atom": atom})
    return report("cell_chain", ctx, {}, len(diagrams), failures)


# ---------------------------------------------------------------------------
# quasi-heredity and simple modules
# ---------------------------------------------------------------------------

CellModuleIndex = namedtuple("CellModuleIndex", ["k", "lam"])


def e_of_q(q0, cap: int):
    """Least m <= cap with 1 + q0 + ... + q0^{m-1} = 0, else None."""
    zero = 0 * q0
    if q0 == zero:
        raise ValueError("q must be nonzero")
    acc = q0 ** 0
    power = q0
    for m in range(1, cap + 1):
        if acc == zero:
            return m
        acc = acc + power
        power = power * q0
    return None


def _check_q_not_one(q0) -> None:
    """At q = 1 the parameter (r-1)/(q-1) of the algebra is undefined."""
    if q0 == q0 ** 0:
        raise ValueError("q = 1 leaves (r-1)/(q-1) undefined")


def is_quasi_hereditary(n: int, q0, r0):
    """(decision, explanation) per the order-of-unity criterion e(q) > n."""
    zero = 0 * q0
    if q0 == zero or r0 == zero:
        raise ValueError("q and r must be nonzero in the field")
    _check_q_not_one(q0)
    if r0 == r0 ** 0:
        raise ValueError("(r-1)/(q-1) must be nonzero")
    e = e_of_q(q0, cap=n + 1)
    if e is None or e > n:
        return True, f"e(q) > {n} (no vanishing quantum integer up to cap {n + 1})"
    return False, f"false: e(q)={e} <= {n}"


def simple_module_index(n: int, q0) -> list:
    """All (k, lam) with lam an e(q)-restricted partition of n - 2k."""
    _check_q_not_one(q0)
    e = e_of_q(q0, cap=n + 1)
    out = []
    for k in range(n // 2 + 1):
        for lam in partitions(n - 2 * k):
            if is_restricted(lam, e):
                out.append(CellModuleIndex(k, lam))
    return out


def cell_module_dims(n: int) -> dict:
    """dim of each cell module: the number of layer-k top parts
    (transversal_count) times f^lam (hook_count)."""
    dims = {}
    for k in range(n // 2 + 1):
        vdim = transversal_count(n, k)
        for lam in partitions(n - 2 * k):
            dims[CellModuleIndex(k, lam)] = vdim * hook_count(lam)
    return dims

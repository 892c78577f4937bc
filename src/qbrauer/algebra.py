"""
The q-Brauer algebra on its diagram basis.

Elements are finitely supported Scalar-valued maps on Brauer diagrams; the
basis element attached to a diagram d with canonical factorization
(w1, wd, w2) through e_(k) is b_d = g_{w1} g_{wd} e_(k) g_{w2}, which is
also g_{w1} e_(k) g_{wd} g_{w2}: wd fixes 1..2k, so g_{wd} commutes with
e_(k).  Multiplication is relation-driven, one pair of basis terms
c = (k, w1, wd, w2), d = (k', w1', wd', w2') at a time, through the top
part g_{w1'} e_(k') of d, the ``top`` of its coordinate ``_expr(d)``:

    b_c b_d = [b_c g_{w1'} e_(k')] g_{wd'} g_{w2'}.

The product in brackets is memoized per (c, top part of d).  For c that is
not a bottom part it is g_{w1} g_{wd} times the entry of the bottom part
e_(k) g_{w2} of c, the ``bottom`` of its coordinate, so every product of
two basis elements factors through the middle product of the bottom part
of c and the top part of d, the inflation form of the cell basis.  That
one is filled from the side with the smaller e_(k): for k >= k' the word
of g_{w1'} and the atom e_(k') are folded onto e_(k) g_{w2}; for k < k'
the involution i maps the mirror product e_(k') g_{w1'^-1} g_{w2^-1} e_(k)
to e_(k) g_{w2} g_{w1'} e_(k'), and the smaller e_(k) is folded there.
The tail g_{wd'} g_{w2'} is ``_rtail``: the word of wd' is folded on, and
then each layer-k' term x, which ends in the e_(k') row and so has
w2 = 1, becomes the one basis element ``diagrams.bottom_relabel(x, w2')``
= b_x g_{w2'} with x's coefficient; only the deeper terms fold the word of
w2'.  e on the left, e g_{w1} e_(k) g_{wd} g_{w2}, puts on the same tail.
The outer factors are plain g_j moves.  An atom of a word is (j, +1) for g_j,
(j, -1) for g_j^{-1} (the encoding of ``hecke``), or ("e", k) for e_(k), with
e = e_(1) = ``E_ATOM``; ``reduced_word`` spells a permutation in these atoms,
and ``ek_atoms(k)`` spells e_(k) in e and g_j^{±1}.

Single-generator multiplication is the Hecke rule ``hecke.gen_pairs``, with
the diagram playing the role of the permutation: the length change of
s_j . d (or d . s_j) against d decides between a plain move (length up), a
factor q (length equal, which forces s_j . d = d), and the two-term
quadratic expansion (length down).  ``diagrams.swap_delta`` reads that
change off the partners of the two swapped vertices, so the rule
factorizes neither diagram.  A word acts in one fold on a plain
{diagram: coeff} dict, one atom after another, and becomes an element once:
``_rfold`` on the right, ``_lfold`` for g_j words on the left, last atom
first.  ``rmul_atom`` and ``lmul_gen`` are their one-atom case, and the only
single-atom multiplications.  g_j^{-1} = q^{-1} g_j + (q^{-1} - 1), from the
pairs of g_j through ``hecke.inverse_pairs``, acts on the right only: the
words that act on the left are reduced words of permutations.  The memo
tables of a context hold one action or product each.  ``_lmul_g`` and
``_rmul_g`` hold the g_j rule on the left and the right, as a tuple of
(diagram, coeff) pairs per basis element, and ``_rmul_atom`` g_j^{-1} and
every e_(k) on the right, under (diagram, atom); e on the left reads
``_rmul_atom`` through the involution i, e x = i(i(x) e).  The entry of
e_(k), k >= 2, folds one step of Wenzl's recursion
e_(k) = e g^+_{2,2k-1} g^-_{1,2k-2} e_(k-1), with the atom ("e", k-1) last,
so the e_(k-1) tail of each diagram is filled once per context.
``_middle`` holds the products b_c g_{w1'} e_(k'), ``_core`` the core
products below, and the module-global ``_EXPR_CACHE`` the factorization of
each diagram read so far, at most (2n-1)!! per rank.  The
``functools.cache`` of ``QBrauerElement.basis`` holds the one shared basis
element of each diagram asked for: at most (2n-1)!! entries per rank,
filled on first use and never cleared.  Sharing is safe because no element
is changed in place, the one coefficient ``ONE`` is free of r, so every
context reads the same element, and ``product`` returns a fresh dict,
never the terms of a basis element or of a memo entry.  Six process-global
``functools.cache`` tables of ``diagrams`` and ``hecke`` hold values free
of r, so every context shares them.  Per rank, ``diagrams.star`` holds at
most (2n-1)!! entries, the part builder ``diagrams._part`` at most sum_k
transversal_count(n, k) (76 at n = 6), ``diagrams.bottom_relabel`` at most
(2n-1)!!, ``diagrams.reduced_word`` at most n!,
``diagrams.enumerate_diagrams`` one tuple, and the g_j step
``hecke._step`` at most 2(n-1) n!.  ``star`` makes the involution i a
lookup, and a coordinate reads its top and bottom parts from ``_part``
once, into slots of its own.

Multiplication by e reduces to the core products e g_sigma e_(k).  These
are peeled by exact one-letter rules (e g_1 = q e; e g_i = g_i e for
i > 2; g_t e_(k) = q e_(k) for odd t < 2k; g_t e_(k) = e_(k) g_t for
t > 2k) until the word is one of three irreducible shapes, each of which
is rewritten by an exact identity of the algebra:

* e g^+_{2,2m} e_(k): expand e_(k) through its defining recursion and
  absorb e g_2 e = r e, dropping to level k-1;
* e g^+_{2,2k+1} g^+_{1,2k} e_(k): invert the trailing chain letter by
  letter against the recursion e g^+_{2,2k+1} g^-_{1,2k} e_(k) = e_(k+1);
* e g^+_{2,j2} g^+_{1,2j} e_(k) with j < k: replace the ascending chain
  g^+_{1,2j} by the descending g^+_{2j+1,2}, which acts identically on
  e_(k), and re-expand the now non-reduced word in the Hecke algebra.

Each rewrite strictly decreases (k, word length, stuck-ness), so the
recursion terminates; every coefficient stays inside the declared
localization by construction.
"""

from __future__ import annotations

from functools import cache

from . import hecke, scalars
from .diagrams import (
    BrauerDiagram,
    Perm,
    ReducedExpression,
    SizeMismatch,
    bottom_relabel,
    bottom_swap,
    decompose,
    e_k_diagram,
    identity_diagram,
    identity_perm,
    left_descents,
    lmul_s,
    reduced_word,
    right_descents,
    rmul_s,
    star,
    swap_delta,
    top_swap,
)
from .hecke import HeckeElement, SparseElement, accumulate, asc, desc, gen_pairs, inverse_pairs
from .scalars import ONE, Q, QM1, Scalar

# decomposition data is version-independent; shared across contexts
_EXPR_CACHE: dict = {}


def _expr(d: BrauerDiagram) -> ReducedExpression:
    e = _EXPR_CACHE.get(d)
    if e is None:
        e = decompose(d)
        _EXPR_CACHE[d] = e
    return e


class QBrauerElement(SparseElement):
    """Finitely supported map BrauerDiagram -> Scalar."""

    __slots__ = ()

    @staticmethod
    @cache
    def basis(d: BrauerDiagram) -> "QBrauerElement":
        """The basis element b_d, one shared element per diagram, kept by
        this method's process-global ``functools.cache``: at most (2n-1)!!
        entries per rank, filled on first use and never cleared.  Sharing it
        is safe because no element is changed in place, its one coefficient
        ``ONE`` is free of r, so every context reads the same element, and
        ``product`` returns a fresh dict."""
        return QBrauerElement._adopt(d.n, {d: ONE})

    def __repr__(self) -> str:
        return f"QBrauerElement(n={self.n}, {len(self.terms)} terms)"


class AlgebraContext:
    """Rank n plus the scalar version: generic r, or r = q^N symbolically.

    Immutable after construction; the memo tables are fill-once caches keyed
    by basis data.
    """

    def __init__(self, n: int, N: int | None = None):
        if n < 1:
            raise ValueError("need n >= 1")
        if N is not None and abs(N) > scalars.MAX_EXPONENT:
            raise ValueError(f"the integral version needs |N| <= {scalars.MAX_EXPONENT}")
        self.n = n
        self.N = N
        self._r = scalars.r_scalar() if N is None else scalars.r_power(N)
        self._b = (self._r - ONE) * QM1.inv()
        self._lmul_g: dict = {}
        self._rmul_g: dict = {}
        self._core: dict = {}
        self._rmul_atom: dict = {}
        self._middle: dict = {}

    @property
    def version(self):
        return {"generic": True} if self.N is None else {"N": self.N}

    def r(self) -> Scalar:
        return self._r

    def b(self) -> Scalar:
        return self._b

    def unit(self) -> QBrauerElement:
        return QBrauerElement.basis(identity_diagram(self.n))

    def __repr__(self):
        tag = "generic" if self.N is None else f"N={self.N}"
        return f"AlgebraContext(n={self.n}, {tag})"


def e_k_element(ctx: AlgebraContext, k: int) -> QBrauerElement:
    return QBrauerElement.basis(e_k_diagram(ctx.n, k))


def involution_i(x: QBrauerElement) -> QBrauerElement:
    """The involutive anti-automorphism; permutes the basis via row rotation."""
    return QBrauerElement._adopt(x.n, {star(d): c for d, c in x.terms.items()})


# ---------------------------------------------------------------------------
# single Hecke-generator multiplication
# ---------------------------------------------------------------------------

def _lmul_g_basis(ctx: AlgebraContext, j: int, d: BrauerDiagram):
    key = (j, d)
    res = ctx._lmul_g.get(key)
    if res is None:
        if not 1 <= j <= ctx.n - 1:
            raise ValueError(f"generator index {j} out of range")
        res = gen_pairs(d, top_swap(d, j), swap_delta(d, j))
        ctx._lmul_g[key] = res
    return res


def _rmul_g_basis(ctx: AlgebraContext, d: BrauerDiagram, j: int):
    key = (d, j)
    res = ctx._rmul_g.get(key)
    if res is None:
        if not 1 <= j <= ctx.n - 1:
            raise ValueError(f"generator index {j} out of range")
        res = gen_pairs(d, bottom_swap(d, j), swap_delta(d, ctx.n + j))
        ctx._rmul_g[key] = res
    return res


# ---------------------------------------------------------------------------
# multiplication by e: the core products e g_sigma e_(k)
# ---------------------------------------------------------------------------

def _sum_core(ctx: AlgebraContext, h: HeckeElement, k: int) -> QBrauerElement:
    out: dict = {}
    for w, c in h.terms.items():
        accumulate(out, c, _core(ctx, w, k).terms.items())
    return QBrauerElement._adopt(ctx.n, out)


def _core(ctx: AlgebraContext, sigma: Perm, k: int) -> QBrauerElement:
    """Normal form of e g_sigma e_(k)."""
    key = (sigma, k)
    res = ctx._core.get(key)
    if res is None:
        res = _core_compute(ctx, sigma, k)
        ctx._core[key] = res
    return res


def _core_compute(ctx: AlgebraContext, sigma: Perm, k: int) -> QBrauerElement:
    n = ctx.n
    if k == 0:
        z = QBrauerElement.basis(e_k_diagram(n, 1))
        return word_element(ctx, reduced_word(sigma), z)
    if sigma == identity_perm(n):
        return e_k_element(ctx, k).scale(ctx.b())

    lds = left_descents(sigma)
    if 1 in lds:
        return _core(ctx, lmul_s(1, sigma), k).scale(Q)
    rds = right_descents(sigma)
    for t in rds:
        if t % 2 == 1 and t < 2 * k:
            return _core(ctx, rmul_s(sigma, t), k).scale(Q)
    for t in rds:
        if t >= 2 * k + 1:
            return rmul_atom(ctx, _core(ctx, rmul_s(sigma, t), k), (t, +1))
    for t in lds:
        if t >= 3:
            return lmul_gen(ctx, (t, +1), _core(ctx, lmul_s(t, sigma), k))

    # Irreducible shape: sigma = [x, y, rest ascending] = s_{2,y-1} s_{1,x-1}
    # with x odd, and y - 1 even <= 2k unless y = x + 1.
    x, y = sigma[0], sigma[1]
    j1, j2 = x - 1, y - 1
    assert x < y and x % 2 == 1, (sigma, k)
    assert list(sigma[2:]) == sorted(sigma[2:]), (sigma, k)

    if j1 == 0:
        # e g^+_{2,2m} e_(k), with 2m = j2 <= 2k
        assert j2 % 2 == 0 and j2 <= 2 * k
        if j2 == 2:
            return e_k_element(ctx, k).scale(ctx.r())
        h = hecke.word_element(n, asc(3, j2) + asc(2, 2 * k - 1) + asc(1, 2 * k - 2, -1))
        return _sum_core(ctx, h, k - 1).scale(ctx.r())

    if j1 == 2 * k:
        # e g^+_{2,2k+1} g^+_{1,2k} e_(k): letter-by-letter inversion of the
        # trailing chain against e g^+_{2,2k+1} g^-_{1,2k} e_(k) = e_(k+1)
        assert j2 == 2 * k + 1
        out = {e_k_diagram(n, k + 1): Q ** (2 * k)}
        for m in range(1, 2 * k + 1):
            word = asc(2, 2 * k + 1) + asc(1, m - 1, -1) + asc(m + 1, 2 * k)
            h = hecke.word_element(n, word)
            accumulate(out, QM1 * Q ** (m - 1), _sum_core(ctx, h, k).terms.items())
        return QBrauerElement._adopt(n, out)

    # j1 = 2j < 2k: the ascending chain g^+_{1,2j} equals the descending
    # g^+_{2j+1,2} against e_(k); the rewritten word is not reduced, so
    # re-expand it in the Hecke algebra and recurse.
    assert j1 % 2 == 0 and j1 < 2 * k
    h = hecke.word_element(n, asc(2, j2) + desc(j1 + 1, 2))
    return _sum_core(ctx, h, k)


def _lmul_e_basis(ctx: AlgebraContext, d: BrauerDiagram) -> QBrauerElement:
    """e times the basis element g_{w1} e_(k) g_{wd} g_{w2} of d: e g_{w1}
    e_(k) is a core product, and g_{wd} g_{w2} follows on the right as the
    tail of ``product``, ``_rtail``."""
    ex = _expr(d)
    return QBrauerElement._adopt(ctx.n, _rtail(ctx, _core(ctx, ex.w1, ex.k).terms, ex))


# ---------------------------------------------------------------------------
# single-atom actions and the general product
# ---------------------------------------------------------------------------

E_ATOM = ("e", 1)


def ek_step(k: int, inner: list) -> list:
    """The word e g^+_{2,2k-1} g^-_{1,2k-2} followed by ``inner``, a word for
    e_(k-1): one step of the recursion
    e_(k) = e g^+_{2,2k-1} g^-_{1,2k-2} e_(k-1)."""
    return [E_ATOM] + asc(2, 2 * k - 1) + asc(1, 2 * k - 2, -1) + inner


def ek_atoms(k: int) -> list:
    """The word for e_(k) in e and g_j^{±1}, the recursion spelled down to
    e_(0) = 1; its product is the atom ("e", k)."""
    return ek_step(k, ek_atoms(k - 1)) if k else []


def _atom_text(atom) -> str:
    """How a message names ``atom``: e_(k), g_j or g_j^-1."""
    tag, s = atom
    if tag == "e":
        return f"e_({s})"
    return f"g_{tag}" if s == 1 else f"g_{tag}^{s}"


def _rmul_fill(ctx: AlgebraContext, d: BrauerDiagram, atom) -> tuple:
    """The pairs of the basis element of d times ``atom``, g_j^{-1} or e_(k),
    stored on a miss of ``_rfold``.  e_(k) for k >= 2 folds one step of its
    recursion onto d, with e_(k-1) as the atom ("e", k-1), so each
    diagram's e_(k-1) tail is filled once per context."""
    tag, k = atom
    if tag == "e":
        if not 1 <= k <= ctx.n // 2:
            raise ValueError(f"{_atom_text(atom)}: need 1 <= k <= {ctx.n // 2} for n={ctx.n}")
        if k == 1:
            # d e = i(e i(d)), i the involution
            pairs = tuple((star(b), c) for b, c in _lmul_e_basis(ctx, star(d)).terms.items())
        else:
            pairs = tuple(_rfold(ctx, {d: ONE}, ek_step(k, [("e", k - 1)])).items())
    else:
        pairs = inverse_pairs(_rmul_g_basis(ctx, d, tag), d)
    ctx._rmul_atom[(d, atom)] = pairs
    return pairs


def _rfold(ctx: AlgebraContext, terms: dict, word) -> dict:
    """``terms`` times the product of the atoms of ``word``, one atom at a
    time on plain dicts: g_j reads ``ctx._rmul_g`` and fills a miss through
    ``_rmul_g_basis``; g_j^{-1} and e_(k) read ``ctx._rmul_atom`` and fill
    through ``_rmul_fill``.  Signs are checked by ``word_element``."""
    for atom in word:
        if atom[0] != "e" and atom[1] > 0:
            table, tag, fill = ctx._rmul_g, atom[0], _rmul_g_basis
        else:
            table, tag, fill = ctx._rmul_atom, atom, _rmul_fill
        out: dict = {}
        for d, c in terms.items():
            pairs = table.get((d, tag))
            if pairs is None:
                pairs = fill(ctx, d, tag)
            if len(pairs) == 1:
                key, v = pairs[0]
                if v is ONE and key not in out:
                    # a unit move into a fresh key keeps its coefficient
                    out[key] = c
                    continue
            accumulate(out, c, pairs)
        terms = out
    return terms


def _lfold(ctx: AlgebraContext, word, terms: dict) -> dict:
    """The product of the g_j atoms of ``word`` times ``terms``, last atom
    first, on plain dicts read from ``ctx._lmul_g``.  It reads only j, so
    each atom must be (j, +1): ``lmul_gen`` checks its one atom, and
    ``_middle`` and ``straighten`` pass reduced words."""
    for j, _ in reversed(word):
        out: dict = {}
        for d, c in terms.items():
            pairs = ctx._lmul_g.get((j, d))
            if pairs is None:
                pairs = _lmul_g_basis(ctx, j, d)
            if len(pairs) == 1:
                key, v = pairs[0]
                if v is ONE and key not in out:
                    out[key] = c
                    continue
            accumulate(out, c, pairs)
        terms = out
    return terms


def rmul_atom(ctx: AlgebraContext, x: QBrauerElement, atom) -> QBrauerElement:
    """x times a single atom, the one-atom ``word_element``: g_j^{±1}, or
    e_(k) for 1 <= k <= n // 2, and ValueError for any other k or sign."""
    return word_element(ctx, (atom,), x)


def lmul_gen(ctx: AlgebraContext, atom, x: QBrauerElement) -> QBrauerElement:
    """The atom times x, for g_j or e: g_j is the one-atom left fold, and e
    reads the right e-action through the involution i, e x = i(i(x) e).
    g_j^{-1} and e_(k) for k >= 2 act on the right only."""
    if atom == E_ATOM:
        return involution_i(rmul_atom(ctx, involution_i(x), E_ATOM))
    if atom[0] == "e" or atom[1] != 1:
        raise ValueError(f"{_atom_text(atom)}: only g_j and e act on the left")
    return QBrauerElement._adopt(ctx.n, _lfold(ctx, (atom,), x.terms))


def word_element(ctx: AlgebraContext, word, x: QBrauerElement) -> QBrauerElement:
    """x times the product of the atoms of ``word``, in one fold; ValueError
    for a g atom whose sign is not 1 or -1, before any atom acts."""
    for atom in word:
        if atom[0] != "e" and atom[1] not in (1, -1):
            raise ValueError(f"{_atom_text(atom)}: the sign of a g atom is 1 or -1")
    return QBrauerElement._adopt(ctx.n, _rfold(ctx, x.terms, word))


def _middle(ctx: AlgebraContext, c: BrauerDiagram, t: BrauerDiagram) -> QBrauerElement:
    """b_c times b_t for a top part t = g_{w1'} e_(k'), the ``top`` of
    d = (k', w1', wd', w2'); memoized in ``ctx._middle`` under (c, t).

    When c = (k, w1, wd, w2) is not a bottom part, b_c is g_{w1} g_{wd}
    times the basis element of its ``bottom`` e_(k) g_{w2}, so the fill
    reads that entry and applies the word of g_{w1} g_{wd} on the left.  For
    a bottom part c the product is filled from the side with the smaller
    e_(k).  For k >= k' the reduced word of w1' and the one atom ("e", k')
    are folded onto b_c.  For k < k' that would fill e_(k') onto a small
    start; the involution i swaps the two sides instead,

        e_(k) g_{w2} g_{w1'} e_(k') = i(e_(k') g_{w1'^-1} g_{w2^-1} e_(k)),

    so the fill reads the mirror entry (star(t), star(c)), a direct fold,
    and maps it through i.
    """
    key = (c, t)
    res = ctx._middle.get(key)
    if res is None:
        ec, et = _expr(c), _expr(t)
        if ec.left_word:
            res = QBrauerElement._adopt(
                ctx.n, _lfold(ctx, ec.left_word, _middle(ctx, ec.bottom, t).terms))
        elif ec.k < et.k:
            res = involution_i(_middle(ctx, star(t), star(c)))
        else:
            word = reduced_word(et.w1) + ((("e", et.k),) if et.k else ())
            res = word_element(ctx, word, QBrauerElement.basis(c))
        ctx._middle[key] = res
    return res


def _rtail(ctx: AlgebraContext, terms: dict, ex: ReducedExpression) -> dict:
    """``terms`` times g_{wd} g_{w2} of the coordinate ``ex`` of layer k,
    for ``terms`` whose layer-k diagrams all end in the e_(k) row, as
    those of a product with e_(k) on the right do: a fresh dict.

    The word of wd is folded on by ``_rfold``.  It fixes 1..2k, so each
    layer-k term x then still has w2 = 1, and b_x g_{w2} is the basis
    element of ``bottom_relabel(x, w2)`` with x's coefficient: lengths add.
    Only the deeper terms fold the word of w2.  The two images never share
    a diagram, as they lie in different layers."""
    wd_word, w2_word = ex.tail
    z = _rfold(ctx, terms, wd_word) if wd_word else dict(terms)
    if not w2_word:
        return z
    k, w2, out, deep = ex.k, ex.w2, {}, {}
    for x, c in z.items():
        if x.layer() == k:
            out[bottom_relabel(x, w2)] = c
        else:
            deep[x] = c
    if deep:
        out.update(_rfold(ctx, deep, w2_word))
    return out


def product(ctx: AlgebraContext, x: QBrauerElement, y: QBrauerElement) -> QBrauerElement:
    """x times y: each pair (c, d) of basis terms is ``_middle``, b_c times
    the top part g_{w1'} e_(k') of d, read off d's coordinate, with
    g_{wd'} g_{w2'} put on by ``_rtail``.  A product of two basis elements
    with unit coefficients, such as two shared ``basis`` elements, takes
    the first branch: the ``_middle`` entry is read in place and the tail
    is the result.  Either branch returns a fresh dict, never the terms of
    a basis element or of a memo entry."""
    if x.n != y.n or x.n != ctx.n:
        raise SizeMismatch("mixed ranks in product")
    if len(x.terms) == 1 == len(y.terms):
        (c, a), = x.terms.items()
        (d, b), = y.terms.items()
        if a is ONE and b is ONE:
            ed = _EXPR_CACHE.get(d) or _expr(d)
            t = ed.top
            m = ctx._middle.get((c, t)) or _middle(ctx, c, t)
            return QBrauerElement._adopt(ctx.n, _rtail(ctx, m.terms, ed))
    out: dict = {}
    for c, a in x.terms.items():
        for d, b in y.terms.items():
            ed = _expr(d)
            z = _rtail(ctx, _middle(ctx, c, ed.top).terms, ed)
            accumulate(out, a * b, z.items())
    return QBrauerElement._adopt(ctx.n, out)


# ---------------------------------------------------------------------------
# straightening: g_sigma e_(k) in the transversal normal form
# ---------------------------------------------------------------------------

def straighten(ctx: AlgebraContext, sigma: Perm, k: int):
    """Expand g_sigma e_(k) as sum of a_j g_{w_j} g_{pi_j} e_(k).

    Returns a sorted list of (Scalar, w, pi) with w in the no-crossing
    transversal and pi fixing 1..2k.  The atoms of the reduced word of
    sigma act on e_(k) from the left, last atom first.
    """
    out = []
    for d, c in _lfold(ctx, reduced_word(sigma), {e_k_diagram(ctx.n, k): ONE}).items():
        ex = _expr(d)
        assert ex.k == k and ex.w2 == identity_perm(ctx.n)
        out.append((c, ex.w1, ex.wd))
    out.sort(key=lambda t: (t[1], t[2]))
    return out


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def element_to_json(ctx: AlgebraContext, x: QBrauerElement) -> dict:
    from .diagrams import diagram_to_json

    return {
        "n": x.n,
        "version": ctx.version,
        "terms": [
            {"diagram": diagram_to_json(d), "coeff": scalars.scalar_to_json(c)}
            for d, c in sorted(x.terms.items(), key=lambda t: t[0].partner)
        ],
    }


def element_from_json(obj) -> QBrauerElement:
    """Read an element; every diagram must have the element's n, once."""
    from .diagrams import diagram_from_json

    if not isinstance(obj, dict) or not isinstance(obj.get("terms"), list):
        raise ValueError('an element must be {"n": n, "terms": [...], ...}')
    if "n" not in obj:
        raise ValueError('an element has no "n"')
    n = obj["n"]
    if type(n) is not int or n < 1:
        raise ValueError(f"bad rank n={n!r}")
    terms = {}
    for t in obj["terms"]:
        if not isinstance(t, dict):
            raise ValueError('a term must be {"diagram": ..., "coeff": ...}')
        for key in ("diagram", "coeff"):
            if key not in t:
                raise ValueError(f'a term has no "{key}"')
        d = diagram_from_json(t["diagram"])
        if d.n != n:
            raise SizeMismatch(f"a diagram has n={d.n} in an element of n={n}")
        if d in terms:
            raise ValueError("a diagram occurs twice in one element")
        terms[d] = scalars.scalar_from_json(t["coeff"])
    return QBrauerElement(n, terms)

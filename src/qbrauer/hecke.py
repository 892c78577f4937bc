"""
The Iwahori-Hecke algebra of type A_{n-1} over the exact scalar ring.

Free module on {g_w : w in S_n}, with g_j g_w = g_{s_j w} when the length
rises and (q-1) g_w + q g_{s_j w} otherwise (same on the right).  Products
of basis elements are computed by expanding one factor into a reduced word
from its chain factorization and folding single-generator multiplications.

The sparse-sum step ``accumulate``, the element base ``SparseElement`` and
the g_j rule ``gen_pairs`` live here, the lowest module, and ``algebra``
builds on all three: layer 0 of the q-Brauer algebra is this algebra.

The step of ``_fold``, g_w times g_j^{±1} as (basis, coeff) pairs, is
``_step(w, j, sign)``, cached with ``functools.cache``: its key is an
immutable permutation and two ints, and its coefficients are 1, q, q-1,
q^{-1} and q^{-1}-1, none of which involves r, so the generic and the
integral versions share it.  It holds at most 2(n-1) n! entries per rank.
``_fold`` refuses a sign other than ±1 before the cache is read, so no
other key is stored.
"""

from __future__ import annotations

from functools import cache

from . import scalars
from .diagrams import (
    Perm,
    SizeMismatch,
    identity_perm,
    reduced_word,
)
from .scalars import ONE, Q, Q_INV, Q_INV_M1, QM1, ZERO, Scalar


def accumulate(out: dict, c: Scalar, pairs) -> dict:
    """Add c * v into ``out[key]`` for each (key, v) in ``pairs``, in place,
    dropping keys whose sum is zero; returns ``out``.

    This is the one sparse-sum step of the Hecke and the q-Brauer layers.
    ``out`` must be a dict the caller owns, never the terms of an element.
    """
    for key, v in pairs:
        # a factor that is the shared unit needs no multiplication
        if v is ONE:
            v = c
        elif c is not ONE:
            v = c * v
        s = out.get(key)
        if s is not None:
            v = s + v
            if v is ZERO:
                del out[key]
                continue
        elif v is ZERO:
            continue
        out[key] = v
    return out


class SparseElement:
    """Finitely supported map basis -> Scalar of an algebra of rank n;
    no zero coefficients stored.  Elements are never changed in place, so
    one element may be shared, as ``QBrauerElement.basis`` shares the basis
    element of each diagram, and a caller that wants to change terms copies
    them first."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None):
        self.n = n
        self.terms = {k: c for k, c in terms.items() if c is not ZERO} if terms else {}

    @classmethod
    def _adopt(cls, n: int, terms: dict):
        """Wrap a fresh zero-free dict, such as one built by ``accumulate``."""
        x = cls.__new__(cls)
        x.n, x.terms = n, terms
        return x

    def _plus(self, other, c: Scalar):
        if self.n != other.n:
            raise SizeMismatch("mixed ranks in sum")
        return self._adopt(self.n, accumulate(dict(self.terms), c, other.terms.items()))

    def __add__(self, other):
        return self._plus(other, ONE)

    def __sub__(self, other):
        return self._plus(other, -ONE)

    def scale(self, c: Scalar):
        return self._adopt(self.n, accumulate({}, c, self.terms.items()))

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self.n == other.n
            and self.terms == other.terms
        )


def gen_pairs(key, moved, delta: int) -> tuple:
    """g_j acting on the basis element ``key``, as (basis, coeff) pairs.

    ``moved`` is ``key`` with s_j applied on the acting side, and ``delta``
    its length minus that of ``key``: a plain move when the length rises,
    the factor q when it stays (then ``moved`` is ``key``), and
    (q-1) key + q moved when it falls.  This is the one copy of the rule,
    for permutations and diagrams, on either side."""
    if delta > 0:
        return ((moved, ONE),)
    if delta == 0:
        assert moved == key
        return ((key, Q),)
    return ((key, QM1), (moved, Q))


def inverse_pairs(pairs, key) -> tuple:
    """g^{-1} = q^{-1} g + (q^{-1} - 1) acting on the basis element ``key``,
    from ``pairs``, the ``gen_pairs`` of g on it, in closed form: a falling
    length gives the plain move, a fixed key q^{-1} key, and a rising
    length q^{-1} moved + (q^{-1} - 1) key."""
    if len(pairs) == 2:
        return ((pairs[1][0], ONE),)
    moved, c = pairs[0]
    if c is Q:
        return ((key, Q_INV),)
    return ((moved, Q_INV), (key, Q_INV_M1))


class HeckeElement(SparseElement):
    """Finitely supported map S_n -> Scalar."""

    __slots__ = ()

    @classmethod
    def unit(cls, n: int) -> "HeckeElement":
        return cls(n, {identity_perm(n): ONE})

    @classmethod
    def basis(cls, w: Perm) -> "HeckeElement":
        return cls(len(w), {w: ONE})

    def __repr__(self) -> str:
        if not self.terms:
            return "HeckeElement(0)"
        bits = [f"({c})*g{w}" for w, c in sorted(self.terms.items())]
        return " + ".join(bits)


@cache
def _step(w: Perm, j: int, sign: int) -> tuple:
    """g_w g_j^{sign}, sign = 1 or -1, as (basis, coeff) pairs.  Cached:
    w s_j swaps the values j, j + 1, and the length rises when w places j
    before j + 1."""
    a, b = w.index(j), w.index(j + 1)
    moved = list(w)
    moved[a], moved[b] = j + 1, j
    pairs = gen_pairs(w, tuple(moved), 1 if b > a else -1)
    return pairs if sign > 0 else inverse_pairs(pairs, w)


def _fold(z: HeckeElement, atoms) -> HeckeElement:
    """z times the product of the (j, sign) atoms, one generator at a time
    on a plain dict, wrapped in an element once at the end."""
    terms = z.terms
    for j, sign in atoms:
        if not 1 <= j <= z.n - 1:
            raise ValueError(f"generator index {j} out of range for n={z.n}")
        if sign not in (1, -1):
            raise ValueError(f"g_{j}^{sign}: the sign of a letter is 1 or -1")
        out: dict = {}
        for w, c in terms.items():
            accumulate(out, c, _step(w, j, sign))
        terms = out
    return HeckeElement._adopt(z.n, terms)


def product(x: HeckeElement, y: HeckeElement) -> HeckeElement:
    """x * y, expanding each basis term of y into a reduced word."""
    if x.n != y.n:
        raise SizeMismatch("mixed ranks in Hecke product")
    out: dict = {}
    for w, c in y.terms.items():
        accumulate(out, c, _fold(x, reduced_word(w)).terms.items())
    return HeckeElement._adopt(x.n, out)


def asc(l: int, k: int, sign: int = 1):
    """Ascending generator chain (j, sign) for j = l..k; empty when k < l."""
    return [(j, sign) for j in range(l, k + 1)]


def desc(l: int, k: int):
    """Descending generator chain (j, +1) for j = l..k downwards; empty when l < k."""
    return [(j, 1) for j in range(l, k - 1, -1)]


def word_element(n: int, letters) -> HeckeElement:
    """Product of g_j^{±1} over (j, sign) pairs; sign -1 inverts."""
    return _fold(HeckeElement.unit(n), letters)


def hecke_to_json(x: HeckeElement) -> list:
    return [
        {"perm": list(w), "coeff": scalars.scalar_to_json(c)}
        for w, c in sorted(x.terms.items())
    ]

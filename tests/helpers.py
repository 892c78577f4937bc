"""Helpers shared by several test modules."""

from qbrauer.algebra import e_k_element, lmul_gen
from qbrauer.diagrams import decompose, identity_perm, perm_inv, perm_mul, reduced_word, s_ij


def chain(n, *pairs):
    """The product of the chains s_{i,j}, left to right."""
    w = identity_perm(n)
    for i, j in pairs:
        w = perm_mul(w, s_ij(n, i, j))
    return w


def straighten_by_inverse_word(ctx, sigma, k):
    """The normal form of g_sigma e_(k) as ``straighten`` returns it, through
    another reduced word: the atoms of the reduced word of sigma^{-1}, each
    acting on the left in turn, spell sigma backwards."""
    z = e_k_element(ctx, k)
    for atom in reduced_word(perm_inv(sigma)):
        z = lmul_gen(ctx, atom, z)
    out = []
    for d, c in z.terms.items():
        ex = decompose(d)
        out.append((c, ex.w1, ex.wd))
    return sorted(out, key=lambda t: (t[1], t[2]))

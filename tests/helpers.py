"""Helpers shared by several test modules."""

from qbrauer.algebra import (
    QBrauerElement,
    _expr,
    e_k_element,
    involution_i,
    lmul_gen,
    word_element,
)
from qbrauer.diagrams import (
    decompose,
    enumerate_diagrams,
    identity_perm,
    perm_inv,
    perm_mul,
    reduced_word,
    s_ij,
    star,
)


def chain(n, *pairs):
    """The product of the chains s_{i,j}, left to right."""
    w = identity_perm(n)
    for i, j in pairs:
        w = perm_mul(w, s_ij(n, i, j))
    return w


def top_parts(n, k):
    """The top parts w1 . e_(k) of layer k, in partner order: the layer-k
    diagrams d that are the ``top`` of their coordinate, as ``phi`` lists
    them."""
    return [d for d in enumerate_diagrams(n) if d.layer() == k and decompose(d).top is d]


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


def mirror_entry(ctx, c, t, middle, image=involution_i):
    """The k < k' fill of ``algebra._middle``: the mirror entry
    (star(t), star(c)) through ``image``, the involution."""
    return image(middle(ctx, star(t), star(c)))


def mutant_middle(lift=lambda word: word[::-1], mirror=mirror_entry):
    """A copy of ``algebra._middle`` whose non-bottom-part fill applies the
    atoms of ``lift(left_word)`` on the left in turn, and whose k < k' fill
    is ``mirror``; the defaults are the code's own."""
    def middle(ctx, c, t):
        key = (c, t)
        res = ctx._middle.get(key)
        if res is None:
            ec, et = _expr(c), _expr(t)
            if ec.left_word:
                res = middle(ctx, ec.bottom, t)
                for atom in lift(ec.left_word):
                    res = lmul_gen(ctx, atom, res)
            elif ec.k < et.k:
                res = mirror(ctx, c, t, middle)
            else:
                word = reduced_word(et.w1) + ((("e", et.k),) if et.k else ())
                res = word_element(ctx, word, QBrauerElement.basis(c))
            ctx._middle[key] = res
        return res
    return middle

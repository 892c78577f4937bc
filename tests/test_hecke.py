import random
from itertools import permutations

import pytest

from qbrauer import hecke
from qbrauer.algebra import AlgebraContext, QBrauerElement, product as algebra_product
from qbrauer.diagrams import (
    enumerate_diagrams,
    identity_perm,
    perm_length,
    perm_mul,
    reduced_word,
    rmul_s,
    s_ij,
)
from qbrauer.hecke import (
    HeckeElement,
    accumulate,
    asc,
    desc,
    gen_pairs,
    hecke_to_json,
    inverse_pairs,
    product,
    word_element,
)
from qbrauer.scalars import (
    ONE,
    ZERO,
    IntPoly,
    Scalar,
    involves_r,
    q_scalar,
    qm1_scalar,
    scalar_from_json,
)


def g(n, j):
    return HeckeElement.basis(s_ij(n, j, j))


def random_element(rng, n, size=3):
    import itertools

    perms = [tuple(p) for p in itertools.permutations(range(1, n + 1))]
    terms = {}
    for _ in range(size):
        w = rng.choice(perms)
        c = Scalar(IntPoly.const(rng.randint(-3, 3)))
        if c is not ZERO:
            terms[w] = c
    return HeckeElement(n, terms)


def test_inverse_pairs_closed_form():
    # each shape of the g_j rule gives g_j^{-1} = q^{-1} g_j + (q^{-1} - 1)
    # as one or two pairs with distinct keys
    qinv = q_scalar().inv()
    for w in permutations(range(1, 5)):
        for j in range(1, 4):
            moved = rmul_s(w, j)
            pairs = gen_pairs(w, moved, perm_length(moved) - perm_length(w))
            got = inverse_pairs(pairs, w)
            assert len({key for key, _ in got}) == len(got) <= 2, (w, j)
            want = [(key, qinv * c) for key, c in pairs] + [(w, qinv - ONE)]
            assert accumulate({}, ONE, got) == accumulate({}, ONE, want), (w, j)


def test_quadratic_relation():
    q = q_scalar()
    for n in range(2, 7):
        for j in range(1, n):
            gj = g(n, j)
            assert product(gj, gj) == gj.scale(qm1_scalar()) + HeckeElement.unit(
                n
            ).scale(q)


def test_braid_and_commute():
    for n in range(3, 7):
        for i in range(1, n - 1):
            lhs = product(product(g(n, i), g(n, i + 1)), g(n, i))
            rhs = product(product(g(n, i + 1), g(n, i)), g(n, i + 1))
            assert lhs == rhs
        for i in range(1, n):
            for j in range(i + 2, n):
                assert product(g(n, i), g(n, j)) == product(g(n, j), g(n, i))


def test_length_additive_products():
    n = 4
    assert product(g(n, 1), g(n, 2)) == HeckeElement.basis(
        perm_mul(s_ij(n, 1, 1), s_ij(n, 2, 2))
    )


def test_gen_mul_left_rule():
    n = 4
    w = s_ij(n, 2, 2)
    x = HeckeElement.basis(w)
    up = product(g(n, 1), x)
    assert up == HeckeElement.basis(perm_mul(s_ij(n, 1, 1), w))
    down = product(g(n, 2), x)
    assert down == x.scale(qm1_scalar()) + HeckeElement.unit(n).scale(q_scalar())


def test_inverse_basis():
    def inverse_basis(w):
        # g_w^{-1}: the generator inverses of a reduced word, reversed
        return word_element(len(w), [(j, -1) for j, _ in reversed(reduced_word(w))])

    n = 4
    unit = HeckeElement.unit(n)
    assert inverse_basis(identity_perm(n)) == unit
    qinv = q_scalar().inv()
    assert inverse_basis(s_ij(n, 1, 1)) == g(n, 1).scale(qinv) + unit.scale(
        qinv - ONE
    )
    # g_j = q g_j^{-1} + (q-1)
    for j in range(1, n):
        rebuilt = inverse_basis(s_ij(n, j, j)).scale(q_scalar()) + unit.scale(
            qm1_scalar()
        )
        assert rebuilt == g(n, j)
    rng = random.Random(0)
    import itertools

    perms = [tuple(p) for p in itertools.permutations(range(1, n + 1))]
    for _ in range(40):
        w = rng.choice(perms)
        assert product(HeckeElement.basis(w), inverse_basis(w)) == unit
        assert product(inverse_basis(w), HeckeElement.basis(w)) == unit


def test_associativity_random():
    rng = random.Random(1)
    n = 4
    for _ in range(300):
        x, y, z = (random_element(rng, n, 2) for _ in range(3))
        assert product(product(x, y), z) == product(x, product(y, z))


def test_chain_element():
    n = 5
    assert word_element(n, asc(2, 2)) == g(n, 2)
    assert word_element(n, asc(1, 3)) == HeckeElement.basis(s_ij(n, 1, 3))
    assert word_element(n, desc(3, 1)) == HeckeElement.basis(s_ij(n, 3, 1))
    # descending inverse chain
    g3i, g2i, g1i = (word_element(n, [(j, -1)]) for j in (3, 2, 1))
    manual = product(product(g3i, g2i), g1i)
    assert word_element(n, [(3, -1), (2, -1), (1, -1)]) == manual


def test_json_round_trip():
    # one entry per term, sorted by permutation, each coefficient read back
    # to the same scalar
    rng = random.Random(3)
    for _ in range(30):
        x = random_element(rng, 4, 3)
        obj = hecke_to_json(x)
        perms = [tuple(t["perm"]) for t in obj]
        assert perms == sorted(x.terms)
        assert all(scalar_from_json(t["coeff"]) is x.terms[w] for w, t in zip(perms, obj))


def test_cached_step_is_the_rule():
    # the rule rebuilt: w s_j by ``rmul_s``, the length change by inversions
    for w in permutations(range(1, 5)):
        for j in range(1, 4):
            moved = rmul_s(w, j)
            pairs = gen_pairs(w, moved, perm_length(moved) - perm_length(w))
            for sign, want in ((1, pairs), (-1, inverse_pairs(pairs, w))):
                assert hecke._step(w, j, sign) == want == hecke._step.__wrapped__(w, j, sign)


@pytest.mark.parametrize("sign", [0, 2, -2])
def test_letter_signs_other_than_one_are_refused(sign):
    before = hecke._step.cache_info()
    with pytest.raises(ValueError, match=rf"g_1\^{sign}: the sign"):
        word_element(3, [(1, sign)])
    assert hecke._step.cache_info() == before


def test_step_cache_is_shared_by_the_versions():
    # the integral products reach the steps that the generic ones stored
    hecke._step.cache_clear()
    ds = enumerate_diagrams(5)
    infos = []
    for N in (None, 2):
        ctx = AlgebraContext(5, N)
        for d in ds[::3]:
            for c in ds[::97]:
                algebra_product(ctx, QBrauerElement.basis(c), QBrauerElement.basis(d))
        infos.append(hecke._step.cache_info())
    generic, integral = infos
    assert generic.currsize > 0 and integral.misses == generic.misses
    assert integral.hits > generic.hits
    # no value that the cache can hold at n = 5 involves r
    for w in permutations(range(1, 6)):
        for j in range(1, 5):
            for sign in (1, -1):
                assert not any(involves_r(c) for _, c in hecke._step(w, j, sign))

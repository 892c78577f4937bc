import itertools
import random
from math import comb, factorial

import pytest
from hypothesis import given, strategies as st

from qbrauer.cellular import from_inflation
from qbrauer.cli import chain_text
from qbrauer.diagrams import (
    BrauerDiagram,
    SizeMismatch,
    bottom_part,
    bottom_swap,
    concat,
    concat_many,
    decompose,
    diagram_from_edges,
    diagram_from_json,
    diagram_length,
    diagram_to_json,
    e_k_diagram,
    enumerate_diagrams,
    identity_diagram,
    identity_perm,
    perm_inv,
    perm_length,
    perm_mul,
    perm_to_diagram,
    reduced_word,
    rmul_s,
    s_ij,
    star,
    swap_delta,
    t_word,
    top_part,
    top_swap,
)

from helpers import chain, top_parts


def transversal(n, k):
    """The no-crossing transversal of layer k: the w1 of each no-crossing
    diagram with the e_(k) bottom row."""
    return [decompose(d).w1 for d in top_parts(n, k)]


def through_cap(rho, k):
    """The factorization of the diagram rho . e_(k)."""
    d, loops = concat(perm_to_diagram(rho), e_k_diagram(len(rho), k))
    assert loops == 0
    return decompose(d)


def fits_transversal_shape(tw, k):
    """Shape of the e_(k) transversal words: below index 2k only even t_j."""
    return all(j >= 2 * k or j % 2 == 0 for _, j in tw)


# --- permutations and t-words ---

def test_perm_length_examples():
    assert perm_length(identity_perm(4)) == 0
    assert perm_length(chain(3, (1, 1), (2, 2))) == 2
    assert perm_length(chain(7, (1, 4), (2, 2))) == 5
    assert perm_length(chain(7, (4, 1), (5, 2), (6, 4))) == 11


def test_t_word_identity():
    tw = t_word(identity_perm(5))
    assert tw == ()
    assert chain_text(tw) == "1"


def test_t_word_single_generator():
    tw = t_word(s_ij(3, 2, 2))
    assert tw == ((2, 2),)


@given(st.permutations(list(range(1, 7))))
def test_t_word_round_trip(p):
    w = tuple(p)
    tw = t_word(w)
    assert chain(len(w), *tw) == w
    assert len(reduced_word(w)) == perm_length(w)
    # chain indices strictly decreasing
    js = [j for _, j in tw]
    assert js == sorted(js, reverse=True)


def test_t_word_round_trip_random_s6():
    rng = random.Random(0)
    for _ in range(200):
        p = list(range(1, 7))
        rng.shuffle(p)
        w = tuple(p)
        assert chain(6, *t_word(w)) == w


# --- diagrams and concatenation ---

def test_diagram_validation():
    # the constructor trusts its caller; the reader of outside input checks
    # for a perfect matching
    for edges in ([[1, 2], [2, 3]], [[1, 1], [3, 4]], [[1, 2], [3, 4], [1, 3]]):
        with pytest.raises(ValueError):
            diagram_from_json({"n": 2, "edges": edges})


def test_diagrams_are_hash_consed():
    for d in enumerate_diagrams(4):
        assert BrauerDiagram(4, d.partner) is d
        assert BrauerDiagram(4, tuple(list(d.partner))) is d
    p = (4, 5, 6, 1, 2, 3)
    assert BrauerDiagram(3, p) is BrauerDiagram(3, p) is identity_diagram(3)
    assert repr(identity_diagram(2)) == "BrauerDiagram(n=2, partner=(3, 4, 1, 2))"


def _is_involution(n, p):
    """p is a fixed-point-free involution of 1..2n."""
    return len(p) == 2 * n and all(
        1 <= p[v - 1] <= 2 * n and p[v - 1] != v and p[p[v - 1] - 1] == v
        for v in range(1, 2 * n + 1))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_enumeration_matches_brute_force(n):
    """Every fixed-point-free involution of 1..2n, found among all
    permutations, in sorted order."""
    want = sorted(p for p in itertools.permutations(range(1, 2 * n + 1))
                  if _is_involution(n, p))
    assert [d.partner for d in enumerate_diagrams(n)] == want


@pytest.mark.parametrize("n", [5, 6])
def test_enumeration_counts_sorted_involutions(n):
    ds = enumerate_diagrams(n)
    assert len(ds) == factorial(2 * n) // (2 ** n * factorial(n))
    assert all(a.partner < b.partner for a, b in zip(ds, ds[1:]))
    assert all(d.n == n and _is_involution(n, d.partner) for d in ds)


def test_enumeration_is_one_tuple_per_rank():
    ds = enumerate_diagrams(3)
    assert type(ds) is tuple and enumerate_diagrams(3) is ds


def test_validation_after_interning():
    # every n = 3 diagram is interned, and a non-permutation still raises
    # each time it is read back as a diagram
    enumerate_diagrams(3)
    for _ in range(2):
        for w in ((1, 1, 3), (0, 1, 2), (2, 3, 4)):
            with pytest.raises(ValueError):
                perm_to_diagram(w)


def test_builders_make_matchings():
    """Each builder hands the trusting constructor a fixed-point-free
    involution."""
    for n in range(1, 5):
        ds = enumerate_diagrams(n)
        built = [star(d) for d in ds] + [top_part(d) for d in ds]
        built += [bottom_part(d) for d in ds]
        built += [swap(d, j) for swap in (top_swap, bottom_swap) for d in ds for j in range(1, n)]
        built += [concat(c, d)[0] for c in ds for d in ds]
        built += [e_k_diagram(n, k) for k in range(n // 2 + 1)]
        built += [perm_to_diagram(w) for w in itertools.permutations(range(1, n + 1))]
        assert all(d.n == n and _is_involution(n, d.partner) for d in built)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_nocross_lists_the_top_parts(n):
    # top_part is idempotent, so the layer-k diagrams it fixes are its image:
    # one for each pairing of 2k of the n top vertices
    for k in range(n // 2 + 1):
        tops = {top_part(d) for d in enumerate_diagrams(n) if d.layer() == k}
        assert top_parts(n, k) == sorted(tops, key=lambda d: d.partner)
        assert len(tops) == comb(n, 2 * k) * factorial(2 * k) // (2 ** k * factorial(k))


def test_swaps_relabel_two_vertices():
    """top_swap and bottom_swap edit four partner entries; relabelling every
    vertex through the transposition is the reference."""
    for n in (2, 3, 4):
        for d in enumerate_diagrams(n):
            for j in range(1, n):
                for a, got in ((j, top_swap(d, j)), (n + j, bottom_swap(d, j))):
                    m = {a: a + 1, a + 1: a}
                    want = [0] * (2 * n)
                    for v in range(1, 2 * n + 1):
                        want[m.get(v, v) - 1] = m.get(d.partner[v - 1], d.partner[v - 1])
                    assert got is BrauerDiagram(n, tuple(want))


def test_swap_delta_matches_the_factorization_lengths():
    """The length change that ``swap_delta`` reads off two partners is the
    change of l(w1) + l(wd) under ``top_swap`` and of l(wd) + l(w2) under
    ``bottom_swap``, and it is 0 exactly when the swap fixes the diagram."""
    def left(ex):
        return perm_length(ex.w1) + perm_length(ex.wd)

    def right(ex):
        return perm_length(ex.wd) + perm_length(ex.w2)

    for n in range(1, 7):
        for d in enumerate_diagrams(n):
            ex = decompose(d)
            for j in range(1, n):
                for a, moved, length in ((j, top_swap(d, j), left),
                                         (n + j, bottom_swap(d, j), right)):
                    delta = swap_delta(d, a)
                    assert delta == length(decompose(moved)) - length(ex), (d, a)
                    assert (delta == 0) == (moved is d), (d, a)


def test_e_k_diagram():
    assert e_k_diagram(4, 0) == identity_diagram(4)
    assert e_k_diagram(4, 2).partner == (2, 1, 4, 3, 6, 5, 8, 7)
    with pytest.raises(ValueError):
        e_k_diagram(3, 2)


def test_concat_identity():
    for d in enumerate_diagrams(3):
        assert concat(identity_diagram(3), d) == (d, 0)
        assert concat(d, identity_diagram(3)) == (d, 0)


def test_concat_loop():
    e1 = e_k_diagram(2, 1)
    assert concat(e1, e1) == (e1, 1)


def test_concat_worked_example_rank7():
    d1 = diagram_from_edges(
        7, [(1, 3), (5, 6), (2, 8), (4, 13), (7, 12), (9, 11), (10, 14)]
    )
    d2 = diagram_from_edges(
        7, [(2, 4), (5, 6), (1, 9), (3, 8), (7, 14), (10, 12), (11, 13)]
    )
    expected = diagram_from_edges(
        7, [(1, 3), (4, 7), (5, 6), (2, 9), (8, 14), (10, 12), (11, 13)]
    )
    assert concat(d1, d2) == (expected, 1)


def test_concat_e2_e1():
    # stacking the level-2 cap over the level-1 cap closes one loop
    d, g = concat(e_k_diagram(4, 2), e_k_diagram(4, 1))
    assert (d, g) == (e_k_diagram(4, 2), 1)


def test_concat_size_mismatch():
    with pytest.raises(SizeMismatch):
        concat(identity_diagram(2), identity_diagram(3))


def _glued(d1, d2):
    """``concat`` by union-find over the glued graph on 3n vertices: top
    1..n, middle n+1..2n, bottom 2n+1..3n.  Each component holding outer
    vertices holds two, which the composite joins; the others are loops."""
    n = d1.n
    parent = list(range(3 * n + 1))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for d, shift in ((d1, 0), (d2, n)):
        for a, b in d.edges():
            parent[find(a + shift)] = find(b + shift)
    comps = {}
    for v in range(1, 3 * n + 1):
        comps.setdefault(find(v), []).append(v)
    edges, loops = [], 0
    for vs in comps.values():
        outer = [v if v <= n else v - n for v in vs if not n < v <= 2 * n]
        if outer:
            assert len(outer) == 2
            edges.append(tuple(outer))
        else:
            loops += 1
    return diagram_from_edges(n, edges), loops


def test_concat_matches_union_find():
    for n in range(1, 5):
        ds = enumerate_diagrams(n)
        for d1 in ds:
            for d2 in ds:
                assert concat(d1, d2) == _glued(d1, d2), (d1, d2)
    ds = enumerate_diagrams(6)
    rng = random.Random(6)
    for _ in range(500):
        d1, d2 = rng.choice(ds), rng.choice(ds)
        assert concat(d1, d2) == _glued(d1, d2), (d1, d2)


def test_perm_diagram_matches_group_product():
    rng = random.Random(1)
    for _ in range(100):
        p1 = list(range(1, 6))
        p2 = list(range(1, 6))
        rng.shuffle(p1)
        rng.shuffle(p2)
        d, g = concat(perm_to_diagram(tuple(p1)), perm_to_diagram(tuple(p2)))
        assert g == 0
        assert d == perm_to_diagram(perm_mul(tuple(p1), tuple(p2)))


# --- canonical factorization ---

def test_decompose_worked_example_rank7():
    d = diagram_from_edges(
        7, [(2, 4), (3, 5), (1, 11), (6, 8), (7, 9), (10, 12), (13, 14)]
    )
    ex = decompose(d)
    assert ex.k == 2
    assert ex.w1 == chain(7, (1, 4), (2, 2))
    assert ex.wd == chain(7, (5, 5), (6, 6))
    assert ex.w2 == chain(7, (4, 1), (5, 2), (6, 4))
    assert ex.length() == 18
    assert from_inflation(7, ex) == (d, 2)


def test_decompose_e_k():
    for n, k in ((4, 2), (5, 1), (6, 3)):
        ex = decompose(e_k_diagram(n, k))
        assert ex.k == k
        ident = identity_perm(n)
        assert (ex.w1, ex.wd, ex.w2) == (ident, ident, ident)


def test_peeling_algorithm_worked_example():
    dstar = diagram_from_edges(
        7, [(4, 6), (5, 7), (8, 9), (10, 11), (1, 12), (2, 13), (3, 14)]
    )
    assert top_part(dstar) == dstar
    ex = decompose(dstar)
    tw = t_word(ex.w1)
    assert tw == ((3, 6), (2, 5), (1, 4), (2, 2))
    assert chain_text(tw) == "s3,6 s2,5 s1,4 s2"
    # as a full factorization: everything sits in the top part
    ident = identity_perm(7)
    assert (ex.k, ex.w1, ex.wd, ex.w2) == (2, chain(7, *tw), ident, ident)


def test_decompose_bijection_small_ranks():
    for n in (2, 3, 4, 5, 6):
        seen = set()
        for d in enumerate_diagrams(n):
            ex = decompose(d)
            key = (ex.k, ex.w1, ex.wd, ex.w2)
            assert key not in seen
            seen.add(key)
            assert from_inflation(n, ex) == (d, ex.k)
            assert fits_transversal_shape(t_word(ex.w1), ex.k)
            assert fits_transversal_shape(t_word(perm_inv(ex.w2)), ex.k)


def test_canon_transversal_shorter_word():
    # the normal form of sigma . e_(k) is the shortest rho with the same
    # diagram: rho = w1 wd of that diagram
    sigma = chain(5, (3, 3), (2, 2))  # s_3 s_2
    ex = through_cap(sigma, 2)
    assert perm_mul(ex.w1, ex.wd) == chain(5, (1, 2))
    # a member of the transversal is its own normal form
    rho = chain(5, (1, 2))
    ex = through_cap(rho, 2)
    assert perm_mul(ex.w1, ex.wd) == rho


def test_canon_transversal_crossed_example_rank8():
    om = chain(8, (7, 7), (5, 6), (4, 5), (1, 4), (2, 2))
    pi = chain(8, (6, 7), (5, 5))
    ex = through_cap(perm_mul(om, pi), 2)
    rho = perm_mul(ex.w1, ex.wd)
    assert rho == chain(8, (4, 7), (6, 6), (1, 5), (3, 4), (2, 2))
    assert perm_length(rho) == ex.length() == 13


def test_split_transversal_examples():
    # rho = w . pi with w no-crossing and pi fixing 1..2k is read off as
    # (w1, wd) of rho . e_(k), when rho is minimal over that diagram
    n = 8
    ident = identity_perm(n)
    ex = through_cap(ident, 2)
    assert (ex.w1, ex.wd) == (ident, ident)
    sigp = chain(n, (4, 7), (6, 6), (3, 4), (2, 2))
    ex = through_cap(sigp, 3)
    assert ex.length() == perm_length(sigp)
    assert ex.w1 == chain(n, (7, 7), (4, 6), (3, 4), (2, 2))
    assert ex.wd == s_ij(n, 7, 7)
    assert perm_mul(ex.w1, ex.wd) == sigp
    # s_3 s_2 is not in the transversal at k = 2: its diagram's normal form
    # is s_1 s_2
    rho = chain(5, (3, 3), (2, 2))
    ex = through_cap(rho, 2)
    assert perm_mul(ex.w1, ex.wd) == chain(5, (1, 2)) != rho


def test_split_round_trip_over_transversals():
    for n in (4, 5, 6):
        for k in range(n // 2 + 1):
            rng = random.Random(n * 10 + k)
            members = transversal(n, k)
            fixers = [w for w in _parabolic(n, k)]
            for _ in range(20):
                w = rng.choice(members)
                pi = rng.choice(fixers)
                rho = perm_mul(w, pi)
                assert perm_length(rho) == perm_length(w) + perm_length(pi)
                ex = through_cap(rho, k)
                assert ex.length() == perm_length(rho)
                assert perm_mul(ex.w1, ex.wd) == rho
                assert (ex.w1, ex.wd) == (w, pi)


def _parabolic(n, k):
    """All permutations fixing 1..2k pointwise."""
    import itertools

    out = []
    rest = list(range(2 * k + 1, n + 1))
    for p in itertools.permutations(rest):
        w = list(range(1, n + 1))
        for slot, val in zip(rest, p):
            w[slot - 1] = val
        out.append(tuple(w))
    return out


def test_transversal_counts():
    for n in range(2, 7):
        for k in range(n // 2 + 1):
            want = factorial(n) // (2 ** k * factorial(n - 2 * k) * factorial(k))
            assert len(transversal(n, k)) == want
            assert len(set(transversal(n, k))) == want


def test_diagram_counts():
    sizes = {1: 1, 2: 3, 3: 15, 4: 105, 5: 945}
    for n, want in sizes.items():
        ds = enumerate_diagrams(n)
        assert len(ds) == want
        assert len(set(ds)) == want


def test_transversal_word_contiguity():
    # in a no-crossing transversal word, a missing chain above 2k forces all
    # higher chains to be missing too
    for n in (4, 5, 6):
        for k in range(n // 2 + 1):
            for d in top_parts(n, k):
                tw = t_word(decompose(d).w1)
                present = {j for _, j in tw if j >= 2 * k}
                if present:
                    assert present == set(range(2 * k, max(present) + 1))
                for i, j in tw:
                    if j >= 2 * k + 1:
                        lower = [ii for ii, jj in tw if jj == j - 1]
                        if lower:
                            assert lower[0] < i


def test_length_one_step_moves():
    # moving a basis diagram of the left tower module by one generator
    # changes its minimal length by at most one; equal lengths force equality
    from qbrauer.diagrams import top_swap

    for n in (3, 4, 5):
        for k in range(n // 2 + 1):
            base = top_parts(n, k)
            fixers = _parabolic(n, k)
            diagrams = set()
            for d in base:
                for pi in fixers:
                    dd, g = concat(d, perm_to_diagram(pi))
                    assert g == 0
                    diagrams.add(dd)
            for d in diagrams:
                ld = diagram_length(d)
                for i in range(1, n):
                    dd = top_swap(d, i)
                    delta = diagram_length(dd) - ld
                    assert delta in (-1, 0, 1)
                    if delta == 0:
                        assert dd == d


# --- the cached functions, each against a rebuild that does not read it ---

def test_star():
    # every diagram with n <= 5 against its two rows swapped, built here
    for n in range(1, 6):
        flip = {v: v + n if v <= n else v - n for v in range(1, 2 * n + 1)}
        for d in enumerate_diagrams(n):
            assert star(star(d)) is d
            assert star(d) is diagram_from_edges(n, [(flip[a], flip[b]) for a, b in d.edges()])
    for k in range(3):
        assert star(e_k_diagram(5, k)) == e_k_diagram(5, k)


def test_parts_are_their_rebuilds():
    # all 1,069 diagrams with n <= 5
    for n in range(1, 6):
        for d in enumerate_diagrams(n):
            ex = decompose(d)
            ek = e_k_diagram(n, ex.k)
            assert (top_part(d), 0) == concat(perm_to_diagram(ex.w1), ek)
            assert (bottom_part(d), 0) == concat(ek, perm_to_diagram(ex.w2))


def test_coordinate_parts_are_the_row_parts():
    # the parts built from (k, w1) and (k, w2) are those read off the rows,
    # for all 11,465 diagrams with n <= 6
    for n in range(1, 7):
        for d in enumerate_diagrams(n):
            ex = decompose(d)
            assert ex.top is top_part(d) and ex.bottom is bottom_part(d), d


def test_reduced_word_is_a_reduced_word_that_no_caller_can_change():
    for n in range(1, 6):
        for w in itertools.permutations(range(1, n + 1)):
            word = reduced_word(w)
            assert len(word) == perm_length(w)
            u = identity_perm(n)
            for j, sign in word:
                assert sign == 1
                u = rmul_s(u, j)
            assert u == w
            # a tuple of tuples, the same object on every call
            assert type(word) is tuple and all(type(a) is tuple for a in word)
            assert reduced_word(w) is word


def test_star_conjugates_transversal_parts():
    # star(w . e_(k)) = e_(k) . w^{-1} as diagrams, via concatenation
    for n in (3, 4, 5):
        for k in range(n // 2 + 1):
            ek = e_k_diagram(n, k)
            for w in transversal(n, k):
                left, g = concat(perm_to_diagram(w), ek)
                right, g2 = concat(ek, perm_to_diagram(perm_inv(w)))
                assert g == g2 == 0
                assert star(left) == right


def test_diagram_length_minimality_small_rank():
    # the additive canonical length equals the true minimum over all
    # factorizations w1 e_(k) w2 (exhaustive search at rank 4)
    import itertools

    n = 4
    perms = [tuple(p) for p in itertools.permutations(range(1, n + 1))]
    for d in enumerate_diagrams(n):
        k = d.layer()
        ek = e_k_diagram(n, k)
        best = None
        for w1 in perms:
            left, _ = concat(perm_to_diagram(w1), ek)
            for w2 in perms:
                full, _ = concat(left, perm_to_diagram(w2))
                if full == d:
                    cand = perm_length(w1) + perm_length(w2)
                    best = cand if best is None else min(best, cand)
        assert best == diagram_length(d)


# --- the classical algebra: concatenation with its loop count ---

def test_brauer_relations():
    # the classical product of two diagrams is N^loops times their
    # concatenation, so each relation is a diagram and a loop count
    n = 4
    e1 = e_k_diagram(n, 1)
    e2 = e_k_diagram(n, 2)
    assert concat(e1, e1) == (e1, 1)
    assert concat(e2, e1) == (e2, 1)
    assert concat(e2, e2) == (e2, 2)
    s2 = perm_to_diagram(s_ij(n, 2, 2))
    assert concat_many(e1, s2, e1) == (e1, 0)  # loopless rewiring

    # layer filtration never drops under products
    for d1 in enumerate_diagrams(3):
        for d2 in enumerate_diagrams(3):
            d, _ = concat(d1, d2)
            assert d.layer() >= max(d1.layer(), d2.layer())


def test_brauer_associativity_random():
    # equal diagrams and equal loop counts, hence equal products for every N
    rng = random.Random(9)
    ds = enumerate_diagrams(4)
    for _ in range(2 * 250):
        a, b, c = (rng.choice(ds) for _ in range(3))
        bc, loops_bc = concat(b, c)
        abc, loops_a_bc = concat(a, bc)
        assert concat_many(a, b, c) == (abc, loops_bc + loops_a_bc)


def test_classical_ideal_closure():
    # the span of diagrams with at least m horizontal edge pairs is an ideal
    n = 4
    ds = enumerate_diagrams(n)
    for m in range(1, 3):
        ideal = [d for d in ds if d.layer() >= m]
        for d1 in ideal:
            for d2 in ds:
                for left, right in ((d1, d2), (d2, d1)):
                    d, _ = concat(left, right)
                    assert d.layer() >= m


def test_diagram_json_round_trip():
    for d in enumerate_diagrams(3):
        assert diagram_from_json(diagram_to_json(d)) == d
    obj = diagram_to_json(e_k_diagram(7, 2))
    assert obj["n"] == 7
    assert [1, 2] in obj["edges"]

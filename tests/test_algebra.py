import random
import re
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from qbrauer import algebra, hecke, scalars, suites
from qbrauer.algebra import (
    AlgebraContext,
    QBrauerElement,
    e_k_element,
    element_from_json,
    element_to_json,
    ek_atoms,
    involution_i,
    lmul_gen,
    product,
    rmul_atom,
    straighten,
    word_element,
    E_ATOM,
    _core,
    _expr,
    _lmul_g_basis,
    _middle,
    _rfold,
    _rmul_g_basis,
)
from qbrauer.diagrams import (
    BrauerDiagram,
    bottom_relabel,
    concat,
    diagram_from_edges,
    e_k_diagram,
    enumerate_diagrams,
    identity_diagram,
    identity_perm,
    perm_mul,
    perm_to_diagram,
    reduced_word,
    s_ij,
    star,
)
from qbrauer.scalars import (
    ONE,
    IntPoly,
    Scalar,
    brauer_limit,
    q_scalar,
    qm1_scalar,
    scalar_to_json,
)

from helpers import chain, mirror_entry, mutant_middle, straighten_by_inverse_word


def test_basis_element_of_cap_diagram():
    ctx = AlgebraContext(6)
    for k in range(4):
        assert QBrauerElement.basis(e_k_diagram(6, k)) == e_k_element(ctx, k)


def cap_word(k):
    """A word for e_(k), by its recursion
    e_(k) = e g_2 ... g_{2k-1} g_1^{-1} ... g_{2k-2}^{-1} e_(k-1)."""
    if k == 0:
        return []
    ups = [(j, 1) for j in range(2, 2 * k)]
    downs = [(j, -1) for j in range(1, 2 * k - 1)]
    return [E_ATOM] + ups + downs + cap_word(k - 1)


def spelled_word(d):
    """A word in g_j, g_j^{-1}, e whose product is the basis element of d:
    g_{w1} g_{wd} e_(k) g_{w2}, each permutation by its reduced word."""
    ex = _expr(d)
    return [*reduced_word(ex.w1), *reduced_word(ex.wd), *cap_word(ex.k), *reduced_word(ex.w2)]


def fold(ctx, x, word):
    for atom in word:
        x = rmul_atom(ctx, x, atom)
    return x


def test_generator_word_examples():
    n = 4
    assert spelled_word(identity_diagram(n)) == []
    assert spelled_word(e_k_diagram(n, 1)) == [E_ATOM]
    assert spelled_word(e_k_diagram(n, 2)) == [
        E_ATOM, (2, 1), (3, 1), (1, -1), (2, -1), E_ATOM,
    ]
    for k in range(4):
        assert ek_atoms(k) == cap_word(k)
    # the words that the product reads are the stored reduced words
    for d in enumerate_diagrams(n):
        ex = _expr(d)
        assert ex.left_word == reduced_word(ex.w1) + reduced_word(ex.wd)
        assert ex.right_word == reduced_word(ex.wd) + reduced_word(ex.w2)


def test_generator_word_rebuilds_basis():
    ctx = AlgebraContext(4)
    for d in enumerate_diagrams(4):
        assert fold(ctx, ctx.unit(), spelled_word(d)) == QBrauerElement.basis(d)


def test_basis_element_peeling_example():
    # the no-crossing diagram whose normal word is s3,6 s2,5 s1,4 s2: its
    # basis element arises from the word by left multiplication onto e_(2)
    n = 7
    ctx = AlgebraContext(n)
    dstar = diagram_from_edges(
        n, [(4, 6), (5, 7), (8, 9), (10, 11), (1, 12), (2, 13), (3, 14)]
    )
    z = e_k_element(ctx, 2)
    word = [3, 4, 5, 6, 2, 3, 4, 5, 1, 2, 3, 4, 2]
    for j in reversed(word):
        z = lmul_gen(ctx, (j, +1), z)
    assert z == QBrauerElement.basis(dstar)
    # and the involution sends it to the rotated diagram
    assert involution_i(z) == QBrauerElement.basis(star(dstar))


def test_generator_word_rebuilds_rank7_example():
    # the length-18 diagram: its word has 18 Hecke letters plus the cap word
    ctx = AlgebraContext(7)
    d = diagram_from_edges(
        7, [(2, 4), (3, 5), (1, 11), (6, 8), (7, 9), (10, 12), (13, 14)]
    )
    assert fold(ctx, ctx.unit(), spelled_word(d)) == QBrauerElement.basis(d)


def assert_product_is_the_word_fold(ctx, pairs, mul=product):
    """``mul`` of each pair equals the fold of the spelled words of the
    right factor's terms onto the left factor, computed on a context of its
    own so that the two share no memo table."""
    ref = AlgebraContext(ctx.n, ctx.N)
    for x, y in pairs:
        want = QBrauerElement(ctx.n)
        for d, c in y.terms.items():
            want = want + fold(ref, x, spelled_word(d)).scale(c)
        assert mul(ctx, x, y) == want, (x.terms, y.terms)


def basis_pairs(ds):
    return [(QBrauerElement.basis(a), QBrauerElement.basis(b)) for a in ds for b in ds]


@pytest.mark.parametrize("N", [None, 2, -1])
def test_product_is_the_word_fold_small_ranks(N):
    for n in (1, 2, 3):
        assert_product_is_the_word_fold(AlgebraContext(n, N), basis_pairs(enumerate_diagrams(n)))


def three_term_pairs(n):
    """Six pairs of sums of three basis terms, with coefficients that do not
    cancel."""
    q, r = q_scalar(), scalars.r_scalar()
    coeffs = [ONE, q, r * q.inv(), qm1_scalar(), -ONE, q ** 2 + r]
    ds = enumerate_diagrams(n)
    rng = random.Random(n)

    def operand():
        return QBrauerElement(n, {d: rng.choice(coeffs) for d in rng.sample(ds, 3)})

    return [(operand(), operand()) for _ in range(6)]


def test_product_is_the_word_fold_three_term_operands():
    # sums of three basis terms on both sides cover every (c, d) pair of
    # the product's double loop
    for n in (4, 5):
        assert_product_is_the_word_fold(AlgebraContext(n), three_term_pairs(n))


def test_three_term_operands_see_the_coefficients():
    # a product that drops the right factor's coefficients, a b -> a, is
    # right on basis elements, so the certificate cannot see it
    def mutant(ctx, x, y):
        return product(ctx, x, QBrauerElement(y.n, dict.fromkeys(y.terms, ONE)))

    with pytest.raises(AssertionError):
        assert_product_is_the_word_fold(AlgebraContext(4), three_term_pairs(4), mul=mutant)


# The fold kernel on random elements of 1-3 terms at n <= 4.  Coefficients
# are not the shared unit unless a test admits it, so products take the
# multiplying path; each reference runs on a context of its own, sharing no
# memo table.

def non_unit_coeffs():
    q, r = q_scalar(), scalars.r_scalar()
    return [q, q.inv(), r * q.inv(), qm1_scalar(), -ONE, q ** 2 + r, ONE + ONE]


@st.composite
def element_of_rank(draw, n, sizes=st.integers(1, 3), unit=False):
    size = draw(sizes)
    ds = draw(st.lists(st.sampled_from(enumerate_diagrams(n)), min_size=size,
                       max_size=size, unique=True))
    coeffs = non_unit_coeffs() + [ONE] * unit
    return QBrauerElement(n, {d: draw(st.sampled_from(coeffs)) for d in ds})


def words(n, atoms=(1, -1, "e")):
    letters = [E_ATOM if s == "e" else (j, s) for j in range(1, n) for s in atoms]
    return st.lists(st.sampled_from(letters), max_size=5)


RANKS = st.integers(2, 4)
KERNEL_SETTINGS = settings(max_examples=40, deadline=None)


@KERNEL_SETTINGS
@given(RANKS.flatmap(lambda n: st.tuples(element_of_rank(n), words(n), words(n))))
def test_word_fold_is_the_one_atom_step_composed(case):
    x, u, v = case
    ctx, ref = AlgebraContext(x.n), AlgebraContext(x.n)
    whole = word_element(ctx, u + v, x)
    assert whole == word_element(ctx, v, word_element(ctx, u, x))
    assert whole == fold(ref, x, u + v)


@KERNEL_SETTINGS
@given(RANKS.flatmap(lambda n: st.tuples(element_of_rank(n), words(n, atoms=(1,)))))
def test_left_fold_is_lmul_gen_last_atom_first(case):
    x, word = case
    ctx, ref = AlgebraContext(x.n), AlgebraContext(x.n)
    want = x
    for atom in reversed(word):
        want = lmul_gen(ref, atom, want)
    assert algebra._lfold(ctx, word, x.terms) == want.terms


@KERNEL_SETTINGS
@given(RANKS.flatmap(lambda n: st.tuples(element_of_rank(n, st.just(1), unit=True),
                                         element_of_rank(n, st.just(1), unit=True))))
def test_single_term_product_scales_the_basis_product(case):
    # one factor may have the unit coefficient: only when both do may the
    # product skip the scaling
    x, y = case
    (c, a), = x.terms.items()
    (d, b), = y.terms.items()
    ctx, ref = AlgebraContext(x.n), AlgebraContext(x.n)
    want = product(ref, QBrauerElement.basis(c), QBrauerElement.basis(d)).scale(a * b)
    assert product(ctx, x, y) == want


@KERNEL_SETTINGS
@given(RANKS.flatmap(lambda n: st.tuples(element_of_rank(n, st.just(2)),
                                         element_of_rank(n, st.just(2)))))
def test_two_term_product_is_the_sum_of_basis_products(case):
    x, y = case
    ctx, ref = AlgebraContext(x.n), AlgebraContext(x.n)
    want = QBrauerElement(x.n)
    for c, a in x.terms.items():
        for d, b in y.terms.items():
            basis = product(ref, QBrauerElement.basis(c), QBrauerElement.basis(d))
            want = want + basis.scale(a * b)
    assert product(ctx, x, y) == want


def test_middle_copy_passes_the_checks(monkeypatch):
    # the mutants below edit this copy of ``_middle``, so it must pass
    monkeypatch.setattr(algebra, "_middle", mutant_middle())
    reps = suites.relations_suite(AlgebraContext(4))
    assert [bool(rep["failures"]) for rep in reps] == [False, False, False, False]


@pytest.mark.parametrize("mirror", [
    # the mirror entry not mapped through the involution
    lambda ctx, c, t, middle: mirror_entry(ctx, c, t, middle, image=lambda x: x),
    # the mirror read at w2 in place of w2^-1: e_(k') g_{w1'^-1} g_{w2} e_(k)
    lambda ctx, c, t, middle: involution_i(word_element(
        ctx, reduced_word(_expr(c).w2) + tuple(ek_atoms(c.layer())),
        QBrauerElement.basis(star(t)))),
], ids=["no_involution", "mirror_at_w2"])
def test_mirrored_fill_mutants_fail_the_checks(monkeypatch, mirror):
    """n = 4 has bottom parts e_(1) g_{w2} with w2 != w2^-1 and pairs with
    k = 1, k' = 2, so each mutant shows.  Of the certificate, only the
    product report reads ``_middle``."""
    monkeypatch.setattr(algebra, "_middle", mutant_middle(mirror=mirror))
    reps = suites.relations_suite(AlgebraContext(4))
    assert [bool(rep["failures"]) for rep in reps] == [False, False, False, True]


def test_shared_context_thread_safety():
    # worker threads racing on one context's memo tables agree with the
    # sequential answers (fills are idempotent, publication is atomic)
    import threading

    ds = enumerate_diagrams(4)
    seq_ctx = AlgebraContext(4)
    pairs = [(ds[i], ds[(7 * i + 3) % len(ds)]) for i in range(40)]
    want = [
        product(seq_ctx, QBrauerElement.basis(a), QBrauerElement.basis(b))
        for a, b in pairs
    ]
    ctx = AlgebraContext(4)
    got = [None] * len(pairs)

    def worker(lo, hi):
        for i in range(lo, hi):
            a, b = pairs[i]
            got[i] = product(ctx, QBrauerElement.basis(a), QBrauerElement.basis(b))

    threads = [
        threading.Thread(target=worker, args=(i * 10, (i + 1) * 10))
        for i in range(4)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert got == want


def test_memo_entries_are_never_mutated():
    # products accumulate into fresh dicts only: an entry of the memo tables
    # keeps its terms however many later products read it
    ds = enumerate_diagrams(4)
    ctx = AlgebraContext(4)

    def batch(lo):
        # two-term left factors, so that rmul_atom sums memo entries
        for i in range(lo, lo + 40):
            x = QBrauerElement.basis(ds[i % len(ds)]) + QBrauerElement.basis(
                ds[(3 * i + 1) % len(ds)])
            product(ctx, x, QBrauerElement.basis(ds[(11 * i + 5) % len(ds)]))

    batch(0)
    core = {k: dict(v.terms) for k, v in ctx._core.items()}
    middle = {k: dict(v.terms) for k, v in ctx._middle.items()}
    atoms = {k: tuple(v) for k, v in ctx._rmul_atom.items()}
    assert core and middle and atoms
    batch(40)
    for k, terms in core.items():
        assert ctx._core[k].terms == terms, k
    for k, terms in middle.items():
        assert ctx._middle[k].terms == terms, k
    for k, pairs in atoms.items():
        assert ctx._rmul_atom[k] == pairs, k
    # no product hands out the terms of a middle entry, not even one whose
    # right word is empty
    for d in ds:
        z = product(ctx, QBrauerElement.basis(ds[5]), QBrauerElement.basis(d))
        assert all(z.terms is not m.terms for m in ctx._middle.values()), d
    x = product(ctx, QBrauerElement.basis(ds[3]), QBrauerElement.basis(ds[9]))
    assert (x + x.scale(-ONE)).terms == {}
    assert (x - x).terms == {}


def test_middle_entries_are_keyed_by_the_two_factors():
    # after every n = 4 product the middle table holds one entry per left
    # factor c and top part t of a right factor, the pair whose basis
    # elements it multiplies; the lift and mirror fills add no other key
    ds = enumerate_diagrams(4)
    ctx = AlgebraContext(4)
    for c in ds:
        for d in ds:
            product(ctx, QBrauerElement.basis(c), QBrauerElement.basis(d))
    keys = {(c, _expr(d).top) for c in ds for d in ds}
    assert set(ctx._middle) == keys and len(keys) == 1050


# The tail of a product: the word of wd' folded on, then each layer-k' term
# relabelled by w2' (``_rtail``).

def test_wd_fold_leaves_every_top_layer_term_without_w2():
    # the premise of _rtail on every middle product b_c b_t and every wd' of
    # the right factors with top part t, and on every core product
    # e g_{w1} e_(k) and every wd of layer k, which e on the left reads, at
    # n <= 5: 357,517 layer-k' terms of middle products at n = 5
    for n in range(1, 6):
        ctx, ds, one = AlgebraContext(n), enumerate_diagrams(n), identity_perm(n)
        tails, heads = {}, {}
        for d in ds:
            ed = _expr(d)
            tails.setdefault(ed.top, set()).add(ed.wd)
            heads.setdefault(ed.k, set()).add(ed.w1)
        starts = [(_middle(ctx, c, t), t.layer(), wds) for c in ds
                  for t, wds in tails.items()]
        # e acts from n = 2 on; the top part e_(k) has every wd of layer k
        starts += [(_core(ctx, w1, k), k, tails[e_k_diagram(n, k)])
                   for k, w1s in heads.items() if n >= 2 for w1 in w1s]
        for m, k, wds in starts:
            for wd in wds:
                for x in _rfold(ctx, m.terms, reduced_word(wd)):
                    assert x.layer() > k or _expr(x).w2 == one, (m, wd, x)


def test_bottom_relabel_is_the_one_atom_fold():
    # every layer-k diagram x with w2 = 1 times g_w, for every w2 = w of
    # layer k, folded one rmul_atom at a time, is one basis element with
    # x's coefficient: that of bottom_relabel(x, w), whose coordinate is x's
    # with w2 = w; 1,069 pairs at n <= 5
    for n in range(1, 6):
        ctx, ds, one = AlgebraContext(n), enumerate_diagrams(n), identity_perm(n)
        w2s = {}
        for d in ds:
            w2s.setdefault(d.layer(), set()).add(_expr(d).w2)
        for x in ds:
            ex = _expr(x)
            if ex.w2 != one:
                continue
            for w in w2s[ex.k]:
                y = QBrauerElement.basis(x)
                for atom in reduced_word(w):
                    y = rmul_atom(ctx, y, atom)
                z = bottom_relabel(x, w)
                assert y.terms == {z: ONE}, (x, w)
                ez = _expr(z)
                assert (ez.k, ez.w1, ez.wd, ez.w2) == (ex.k, ex.w1, ex.wd, w), (x, w)


def test_multi_term_product_is_the_sum_of_basis_products():
    # the general loop of product, on three-term factors with coefficients
    # drawn from a fixed seed at n = 4, against the sum of the basis
    # products of a context of its own
    ds = enumerate_diagrams(4)
    ctx, ref = AlgebraContext(4), AlgebraContext(4)
    rng = random.Random(4)
    coeffs = [ONE, ctx.r(), q_scalar() ** -1, ctx.b(), Scalar(IntPoly.const(-2))]

    def element():
        out = QBrauerElement.basis(rng.choice(ds)).scale(rng.choice(coeffs))
        for _ in range(2):
            out = out + QBrauerElement.basis(rng.choice(ds)).scale(rng.choice(coeffs))
        return out

    for _ in range(60):
        x, y = element(), element()
        want = QBrauerElement(4, {})
        for c, a in x.terms.items():
            for d, b in y.terms.items():
                z = product(ref, QBrauerElement.basis(c), QBrauerElement.basis(d))
                want = want + z.scale(a * b)
        assert product(ctx, x, y) == want


# Shared basis elements and the direct path of a pair of them through
# ``product``.

def test_basis_is_one_shared_element_per_diagram():
    for n in range(1, 5):
        for N in (None, 2):
            ctx = AlgebraContext(n, N)
            assert ctx.unit() is QBrauerElement.basis(identity_diagram(n))
            for k in range(n // 2 + 1):
                assert e_k_element(ctx, k) is QBrauerElement.basis(e_k_diagram(n, k))
            for d in enumerate_diagrams(n):
                x = QBrauerElement.basis(d)
                assert x is QBrauerElement.basis(d) and x.terms == {d: ONE}


def test_shared_basis_elements_survive_every_use():
    # the certificate, the cell checks and every product read the shared
    # elements, and none of them changes one
    from qbrauer.cellular import cell_chain_check, inflation_bijection_check, inflation_product_check

    ds = enumerate_diagrams(4)
    held = {d: (QBrauerElement.basis(d), QBrauerElement.basis(d).terms) for d in ds}
    suites.relations_suite(AlgebraContext(4))
    ctx = AlgebraContext(4)
    for check in (inflation_bijection_check, inflation_product_check, cell_chain_check):
        assert not check(ctx)["failures"]
    for c in ds:
        for d in ds:
            product(ctx, QBrauerElement.basis(c), QBrauerElement.basis(d))
    for d, (x, terms) in held.items():
        assert QBrauerElement.basis(d) is x and x.terms is terms and terms == {d: ONE}


def test_a_changed_product_leaves_the_pair_unchanged():
    # a caller that changes the terms of a product it got, as the
    # benchmark's corruption test does, changes no later product: a returned
    # product aliases no basis element and no memo entry
    ds = enumerate_diagrams(4)
    ctx = AlgebraContext(4)
    empty_word = set()
    for c in ds:
        for d in ds:
            x, y = QBrauerElement.basis(c), QBrauerElement.basis(d)
            got = product(ctx, x, y)
            want = dict(got.terms)
            for key in want:
                got.terms[key] = got.terms[key] + ONE
            got.terms[c] = ONE
            assert product(ctx, x, y).terms == want, (c, d)
            empty_word.add(not _expr(d).right_word)
    assert empty_word == {False, True}
    assert all(QBrauerElement.basis(d).terms == {d: ONE} for d in ds)


def direct_path_pairs():
    """Every pair at n <= 4, and 2,000 pairs at n = 5 drawn with a fixed seed."""
    for n in range(1, 5):
        ds = enumerate_diagrams(n)
        yield n, [(c, d) for c in ds for d in ds]
    ds = enumerate_diagrams(5)
    rng = random.Random(5)
    yield 5, [(rng.choice(ds), rng.choice(ds)) for _ in range(2000)]


def test_direct_path_agrees_with_the_general_loop():
    # 2 b_c and b_c + b_c' take the general loop, on a context of their own
    two = ONE + ONE
    for n, pairs in direct_path_pairs():
        ds = enumerate_diagrams(n)
        ctx, ref = AlgebraContext(n), AlgebraContext(n)
        for i, (c, d) in enumerate(pairs):
            other = ds[(7 * i + 3) % len(ds)]
            bc, bd = QBrauerElement.basis(c), QBrauerElement.basis(d)
            direct = product(ctx, bc, bd)
            assert product(ref, bc.scale(two), bd) == direct.scale(two), (c, d)
            assert (product(ref, bc + QBrauerElement.basis(other), bd)
                    == direct + product(ctx, QBrauerElement.basis(other), bd)), (c, other, d)


def test_one_table_per_atom_kind():
    # g_j lives only in _rmul_g, and g_j^{-1} and each e_(k), one atom
    # ("e", k) with e = ("e", 1), in _rmul_atom; every generator memo value
    # is a tuple of (diagram, coeff) pairs
    ds = enumerate_diagrams(4)
    ctx = AlgebraContext(4)
    for i in range(60):
        product(ctx, QBrauerElement.basis(ds[i]), QBrauerElement.basis(ds[(7 * i + 2) % len(ds)]))
    assert ctx._rmul_g and ctx._lmul_g and ctx._rmul_atom
    kinds = {atom for _, atom in ctx._rmul_atom}
    assert E_ATOM == ("e", 1) and ("e", 2) in kinds
    assert kinds <= {("e", 1), ("e", 2)} | {(j, -1) for j in range(1, 4)}
    for table in (ctx._rmul_g, ctx._lmul_g, ctx._rmul_atom):
        for pairs in table.values():
            assert type(pairs) is tuple and pairs
            for d, c in pairs:
                assert type(d) is BrauerDiagram and type(c) is Scalar


def test_generator_times_its_inverse_is_the_identity():
    # the quadratic relation checked on every n = 4 basis element, on the
    # right, the only side g_j^{-1} acts on
    ctx = AlgebraContext(4)
    for d in enumerate_diagrams(4):
        x = QBrauerElement.basis(d)
        for j in range(1, 4):
            for first, second in (((j, +1), (j, -1)), ((j, -1), (j, +1))):
                assert rmul_atom(ctx, rmul_atom(ctx, x, first), second) == x, (d, j, first)


def test_layer_zero_is_the_hecke_algebra():
    # the diagram layer's g_j on permutation diagrams, on either side, is
    # the Hecke algebra's, and a reduced word's atoms spell g_w
    def on_diagrams(h):
        return {perm_to_diagram(w): c for w, c in h.terms.items()}

    for n in range(1, 6):
        ctx = AlgebraContext(n)
        for w in permutations(range(1, n + 1)):
            gw, d = hecke.HeckeElement.basis(w), perm_to_diagram(w)
            assert hecke.word_element(n, reduced_word(w)) == gw, w
            for j in range(1, n):
                gj = hecke.HeckeElement.basis(s_ij(n, j, j))
                right = hecke.accumulate({}, ONE, _rmul_g_basis(ctx, d, j))
                assert right == on_diagrams(hecke.product(gw, gj)), (w, j)
                left = hecke.accumulate({}, ONE, _lmul_g_basis(ctx, j, d))
                assert left == on_diagrams(hecke.product(gj, gw)), (w, j)


@pytest.mark.parametrize("atom", [(0, 1), (4, -1)])
def test_atom_out_of_range_raises(atom):
    ctx = AlgebraContext(4)
    x = e_k_element(ctx, 1) + ctx.unit()
    for _ in range(2):  # cold tables, then warm ones
        with pytest.raises(ValueError):
            rmul_atom(ctx, x, atom)
        with pytest.raises(ValueError):
            lmul_gen(ctx, (atom[0], 1), x)
        for j in range(1, 4):
            rmul_atom(ctx, x, (j, atom[1]))
            lmul_gen(ctx, (j, 1), x)
    # g_j^{-1} acts on the right only
    with pytest.raises(ValueError):
        lmul_gen(ctx, (2, -1), x)


def test_straighten_trivial_cases():
    ctx = AlgebraContext(5)
    rho = chain(5, (1, 2))
    out = straighten(ctx, rho, 2)
    assert out == [(ONE, rho, identity_perm(5))]
    out = straighten(ctx, chain(5, (1, 1)), 1)
    assert out == [(q_scalar(), identity_perm(5), identity_perm(5))]


def test_straighten_three_term_example():
    n, k = 8, 3
    ctx = AlgebraContext(n)
    om = chain(n, (7, 7), (5, 6), (4, 5), (1, 4), (2, 2))
    pi = chain(n, (6, 7), (5, 5))
    out = straighten(ctx, perm_mul(om, pi), k)
    q = q_scalar()
    s7 = s_ij(n, 7, 7)
    expected = sorted(
        [
            (q * qm1_scalar(), chain(n, (7, 7), (4, 6), (1, 4), (1, 2)), s7),
            (q ** 2 * qm1_scalar(), chain(n, (7, 7), (4, 6), (3, 4), (1, 2)), s7),
            (q ** 3, chain(n, (7, 7), (4, 6), (3, 4), (2, 2)), s7),
        ],
        key=lambda t: (t[1], t[2]),
    )
    assert out == expected
    assert straighten_by_inverse_word(ctx, perm_mul(om, pi), k) == expected


def test_straighten_coefficients_are_plain_q_polynomials():
    ctx = AlgebraContext(5)
    rng = random.Random(0)
    for _ in range(50):
        p = list(range(1, 6))
        rng.shuffle(p)
        k = rng.randint(0, 2)
        for c, _, _ in straighten(ctx, tuple(p), k):
            assert set(scalar_to_json(c)["den"].values()) == {0}
            assert all(er == 0 for _, er in c.num.terms)


def test_straightening_never_involves_r():
    """g_sigma e_(k) straightens by g_j moves alone, whose coefficients are
    1, q and q - 1, so no r enters and the integral version gives the same
    normal form; ``straighten`` therefore takes no --integral."""
    for n in range(1, 7):
        generic, integral = AlgebraContext(n), AlgebraContext(n, 2)
        for sigma in permutations(range(1, n + 1)):
            for k in range(n // 2 + 1):
                out = straighten(generic, sigma, k)
                assert not any(scalars.involves_r(c) for c, _, _ in out), (sigma, k)
                assert out == straighten(integral, sigma, k), (sigma, k)


@pytest.mark.parametrize("N", [2, -1, 3])
def test_oracle_integral_version(N):
    # in the integral version the limit is taken at the context's own N
    rep = suites.oracle_suite(AlgebraContext(4, N), sample=300, seed=N)
    assert rep["version"] == {"N": N} and rep["params"] == {"sample": 300, "seed": N}
    assert rep["pairs_tested"] == 300 and rep["failures"] == []


def test_integral_version_matches_substitution():
    # computing with r = q^N symbolically agrees with substituting r -> q^N
    # in the generic structure constants, checked at exact field points
    n, N = 4, 3
    gctx, ictx = AlgebraContext(n), AlgebraContext(n, N)
    rng = random.Random(4)
    ds = enumerate_diagrams(n)
    points = [Fraction(2), Fraction(3), Fraction(-2), Fraction(1, 2)]
    for _ in range(25):
        d1, d2 = rng.choice(ds), rng.choice(ds)
        G = product(gctx, QBrauerElement.basis(d1), QBrauerElement.basis(d2))
        I = product(ictx, QBrauerElement.basis(d1), QBrauerElement.basis(d2))
        for d in set(G.terms) | set(I.terms):
            cg = G.terms.get(d, scalars.ZERO)
            ci = I.terms.get(d, scalars.ZERO)
            for q0 in points:
                assert scalars.specialize(cg, q0, q0 ** N) == scalars.specialize(
                    ci, q0, Fraction(5)
                )


def test_oracle_negative_loop_parameters():
    # the limit machinery also covers N < 0
    rng = random.Random(10)
    ctx = AlgebraContext(4)
    ds = enumerate_diagrams(4)
    for _ in range(60):
        d1, d2 = rng.choice(ds), rng.choice(ds)
        P = product(ctx, QBrauerElement.basis(d1), QBrauerElement.basis(d2))
        dd, g = concat(d1, d2)
        for N in (-3, -2, -1):
            for dout, c in P.terms.items():
                want = Fraction(N) ** g if dout == dd else Fraction(0)
                assert brauer_limit(c, N) == want


def test_integral_negative_exponent_contexts():
    for N in (-1, -2):
        assert all(rep["failures"] == [] for rep in suites.relations_suite(AlgebraContext(4, N)))


def test_bilinearity():
    # products extend bilinearly over arbitrary scalar combinations
    ctx = AlgebraContext(3)
    rng = random.Random(11)
    ds = enumerate_diagrams(3)
    coeffs = [ctx.b(), q_scalar() ** -1, Scalar(IntPoly.const(3)), qm1_scalar().inv()]
    for _ in range(30):
        x = QBrauerElement.basis(rng.choice(ds)).scale(rng.choice(coeffs)) + (
            QBrauerElement.basis(rng.choice(ds)).scale(rng.choice(coeffs))
        )
        y = QBrauerElement.basis(rng.choice(ds)).scale(rng.choice(coeffs)) + (
            QBrauerElement.basis(rng.choice(ds)).scale(rng.choice(coeffs))
        )
        z = QBrauerElement.basis(rng.choice(ds))
        lhs = product(ctx, x + y, z)
        assert lhs == product(ctx, x, z) + product(ctx, y, z)
        rhs = product(ctx, z, x + y)
        assert rhs == product(ctx, z, x) + product(ctx, z, y)


def test_layer_and_filtration():
    ctx = AlgebraContext(4)
    assert identity_diagram(4).layer() == 0
    assert e_k_diagram(4, 2).layer() == 2
    x = e_k_element(ctx, 1) + e_k_element(ctx, 2)

    def layer(k):
        return QBrauerElement(x.n, {d: c for d, c in x.terms.items() if d.layer() == k})

    assert layer(2) == e_k_element(ctx, 2)
    assert layer(1) == e_k_element(ctx, 1)
    assert layer(0).terms == {}


def test_layer_preservation_exhaustive():
    # products of two layer-k basis elements have no part below layer k
    for n in (3, 4):
        ctx = AlgebraContext(n)
        by_layer = {}
        for d in enumerate_diagrams(n):
            by_layer.setdefault(d.layer(), []).append(d)
        for k, ds in by_layer.items():
            for d1 in ds:
                for d2 in ds:
                    P = product(ctx, QBrauerElement.basis(d1), QBrauerElement.basis(d2))
                    assert all(dd.layer() >= k for dd in P.terms), (d1, d2)


def test_involution_permutes_basis():
    ctx = AlgebraContext(4)
    for d in enumerate_diagrams(4):
        assert involution_i(QBrauerElement.basis(d)) == QBrauerElement.basis(star(d))
        assert involution_i(involution_i(QBrauerElement.basis(d))) == QBrauerElement.basis(d)


def test_involution_antiautomorphism_exhaustive():
    ctx = AlgebraContext(3)
    ds = [QBrauerElement.basis(d) for d in enumerate_diagrams(3)]
    for x in ds:
        for y in ds:
            assert involution_i(product(ctx, x, y)) == product(
                ctx, involution_i(y), involution_i(x)
            )


def test_element_json_round_trip():
    ctx = AlgebraContext(4)
    x = e_k_element(ctx, 2).scale(ctx.b()) + ctx.unit().scale(
        q_scalar() ** -2
    )
    obj = element_to_json(ctx, x)
    assert obj["version"] == {"generic": True}
    assert element_from_json(obj) == x
    ictx = AlgebraContext(4, 2)
    obj = element_to_json(ictx, x)
    assert obj["version"] == {"N": 2}
    assert element_from_json(obj) == x


def test_lmul_rmul_gen_dispatch():
    ctx = AlgebraContext(3)
    e = e_k_element(ctx, 1)
    assert lmul_gen(ctx, E_ATOM, ctx.unit()) == e
    assert rmul_atom(ctx, ctx.unit(), E_ATOM) == e
    assert rmul_atom(ctx, e, (1, 1)) == e.scale(q_scalar())
    assert rmul_atom(ctx, e, (1, -1)) == e.scale(q_scalar().inv())
    # right absorption of an odd inner strand at level k
    ctx6 = AlgebraContext(6)
    e2 = e_k_element(ctx6, 2)
    for t in (1, 3):
        assert rmul_atom(ctx6, e2, (t, +1)) == e2.scale(q_scalar())


@pytest.mark.parametrize("N", [None, 2])
def test_ek_atom_is_its_spelled_word(N):
    # the atom ("e", k) fills one recursion step over ("e", k-1); the spelled
    # word reaches only e = ("e", 1) and g_j^{±1}, on a context of its own
    for n in range(1, 6):
        ctx, spelled = AlgebraContext(n, N), AlgebraContext(n, N)
        for d in enumerate_diagrams(n):
            x = QBrauerElement.basis(d)
            for k in range(1, n // 2 + 1):
                assert rmul_atom(ctx, x, ("e", k)) == fold(spelled, x, ek_atoms(k)), (d, k)
        assert not any(atom[0] == "e" and atom[1] > 1 for _, atom in spelled._rmul_atom)


def test_atoms_out_of_range_are_named():
    ctx = AlgebraContext(5)
    x = ctx.unit()
    for k in (0, -1, 3):
        with pytest.raises(ValueError, match=rf"e_\({k}\): need 1 <= k <= 2 for n=5"):
            rmul_atom(ctx, x, ("e", k))
    one = AlgebraContext(1)
    with pytest.raises(ValueError, match=r"e_\(1\): need 1 <= k <= 0 for n=1"):
        rmul_atom(one, one.unit(), E_ATOM)
    for atom, name in ((("e", 2), "e_(2)"), ((1, -1), "g_1^-1")):
        with pytest.raises(ValueError, match=re.escape(f"{name}: only g_j and e act on the left")):
            lmul_gen(ctx, atom, x)
    assert not any(atom[0] == "e" for _, atom in ctx._rmul_atom)


def test_g_atom_signs_other_than_one_are_refused():
    # (1, 0) and (1, -2) would act as g_1^-1 and (1, 2) as g_1; a word is
    # refused as a whole, before its first atom acts
    ctx = AlgebraContext(3)
    for atom, name in (((1, 0), "g_1^0"), ((1, -2), "g_1^-2"), ((1, 2), "g_1^2")):
        refused = re.escape(f"{name}: the sign of a g atom is 1 or -1")
        with pytest.raises(ValueError, match=refused):
            rmul_atom(ctx, ctx.unit(), atom)
        for word in ((atom,), ((2, 1), atom), (atom, ("e", 1))):
            with pytest.raises(ValueError, match=refused):
                word_element(ctx, word, ctx.unit())
    assert ctx._rmul_atom == {} and ctx._rmul_g == {}


def test_size_mismatch():
    from qbrauer.diagrams import SizeMismatch

    ctx = AlgebraContext(3)
    with pytest.raises(SizeMismatch):
        product(ctx, ctx.unit(), AlgebraContext(4).unit())

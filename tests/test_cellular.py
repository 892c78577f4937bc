import random
from fractions import Fraction

import pytest

from qbrauer.algebra import E_ATOM, AlgebraContext, QBrauerElement, e_k_element, product
from qbrauer.cellular import (
    CellModuleIndex,
    cell_chain_check,
    cell_module_dims,
    double_factorial_odd,
    e_of_q,
    from_inflation,
    hook_count,
    inflation_bijection_check,
    inflation_product_check,
    involution_symmetry_check,
    is_quasi_hereditary,
    is_restricted,
    partitions,
    phi_k,
    simple_module_index,
    to_inflation,
)
from qbrauer.diagrams import (
    ReducedExpression,
    SizeMismatch,
    concat,
    decompose,
    diagram_from_edges,
    e_k_diagram,
    enumerate_diagrams,
    fixes_prefix,
    identity_diagram,
    identity_perm,
    perm_inv,
    perm_mul,
    perm_to_diagram,
    s_ij,
    star,
)
from qbrauer.hecke import HeckeElement
from qbrauer.scalars import ONE, PrimeField


def test_partitions():
    assert partitions(0) == [()]
    assert partitions(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    counts = [len(partitions(m)) for m in range(9)]
    assert counts == [1, 1, 2, 3, 5, 7, 11, 15, 22]


def test_hook_count_known_values():
    assert hook_count(()) == 1
    assert hook_count((3,)) == 1
    assert hook_count((2, 1)) == 2
    assert hook_count((3, 2)) == 5
    assert hook_count((2, 2, 1)) == 5
    assert hook_count((4, 3, 2, 1)) == 768
    # brute-force oracle: count standard fillings by backtracking
    import itertools

    def brute(lam):
        m = sum(lam)
        cells = [(i, j) for i, row in enumerate(lam) for j in range(row)]
        count = 0
        for perm in itertools.permutations(range(1, m + 1)):
            fill = dict(zip(cells, perm))
            ok = all(
                fill[(i, j)] < fill[(i, j + 1)]
                for i, j in cells
                if (i, j + 1) in fill
            ) and all(
                fill[(i, j)] < fill[(i + 1, j)]
                for i, j in cells
                if (i + 1, j) in fill
            )
            count += ok
        return count

    for lam in partitions(5):
        assert hook_count(lam) == brute(lam)


def test_restricted_partitions():
    assert is_restricted((2,), None)
    assert not is_restricted((2,), 2)
    assert is_restricted((1, 1), 2)
    assert is_restricted((3, 2, 1), 2)
    assert not is_restricted((3, 1), 2)


def test_cell_dims_and_checksum():
    dims = cell_module_dims(2)
    assert dims == {
        CellModuleIndex(0, (2,)): 1,
        CellModuleIndex(0, (1, 1)): 1,
        CellModuleIndex(1, ()): 1,
    }
    assert double_factorial_odd(2) == 3
    for n in range(1, 9):
        # the squared cell dimensions add up to the diagram count (2n-1)!!
        assert sum(v * v for v in cell_module_dims(n).values()) == double_factorial_odd(n)
    n = 6
    dims = cell_module_dims(6)
    assert dims[CellModuleIndex(3, ())] == 720 // (2 ** 3 * 6)


def test_inflation_round_trip():
    for n in (2, 3, 4, 5):
        ctx = AlgebraContext(n)
        rep = inflation_bijection_check(ctx)
        assert rep["failures"] == []


def _swap_outer(ex):
    return ReducedExpression(ex.k, ex.w2, ex.wd, ex.w1)


def _w1_is_w2(ex):
    return ReducedExpression(ex.k, ex.w2, ex.wd, ex.w2)


def _wd_slot_off_by_one(ex):
    # the free bottom slots numbered from 2k instead of 2k + 1
    m = 2 * ex.k
    return ReducedExpression(ex.k, ex.w1, ex.wd[:m] + tuple(v - 1 for v in ex.wd[m:]), ex.w2)


@pytest.mark.parametrize("mutate", [_swap_outer, _w1_is_w2, _wd_slot_off_by_one])
def test_bijection_check_kills_decompose_mutants(monkeypatch, mutate):
    """A ``decompose`` that gets w1, w2 or wd wrong fails the check, as a
    reported failure and not an exception."""
    from qbrauer import algebra

    real = algebra.decompose
    monkeypatch.setattr(algebra, "decompose", lambda d: mutate(real(d)))
    monkeypatch.setattr(algebra, "_EXPR_CACHE", {})
    rep = inflation_bijection_check(AlgebraContext(4))
    assert rep["pairs_tested"] == 105 and rep["failures"]


@pytest.mark.parametrize("mutate", [_swap_outer, _w1_is_w2, _wd_slot_off_by_one])
def test_warm_halves_do_not_hide_a_wrong_coordinate(monkeypatch, mutate):
    """The cached halves of ``from_inflation`` are keyed by value, so after
    an unmutated check has filled them, a ``decompose`` mutant still fails."""
    from qbrauer import algebra, cellular

    assert inflation_bijection_check(AlgebraContext(4))["failures"] == []
    assert cellular._head.cache_info().currsize and cellular._tail.cache_info().currsize
    real = algebra.decompose
    monkeypatch.setattr(algebra, "decompose", lambda d: mutate(real(d)))
    monkeypatch.setattr(algebra, "_EXPR_CACHE", {})
    rep = inflation_bijection_check(AlgebraContext(4))
    assert rep["pairs_tested"] == 105 and rep["failures"]


def test_from_inflation_is_the_five_diagram_concat():
    worked = diagram_from_edges(
        7, [(2, 4), (3, 5), (1, 11), (6, 8), (7, 9), (10, 12), (13, 14)]
    )
    cases = [(n, d) for n in range(1, 6) for d in enumerate_diagrams(n)] + [(7, worked)]
    for n, d in cases:
        ex = to_inflation(d)
        ek = e_k_diagram(n, ex.k)
        # left to right, not as from_inflation brackets it
        x, a = concat(perm_to_diagram(ex.w1), ek)
        x, b = concat(x, perm_to_diagram(ex.wd))
        x, c = concat(x, ek)
        x, e = concat(x, perm_to_diagram(ex.w2))
        assert from_inflation(n, ex) == (x, a + b + c + e) == (d, ex.k)


def test_from_inflation_refuses_a_non_permutation_on_every_call():
    ident = identity_perm(4)
    for bad in (ReducedExpression(1, (1, 1, 3, 4), ident, ident),
                ReducedExpression(1, ident, ident, (2, 2, 3, 4))):
        for _ in range(2):
            with pytest.raises(ValueError):
                from_inflation(4, bad)


def test_bijection_check_counts_each_layer(monkeypatch):
    """A layer with other than sum_lam dim(k, lam)^2 diagrams, or other
    than transversal_count(n, k) distinct w1, fails the check."""
    from qbrauer import cellular

    dims, count = cell_module_dims(4), cellular.transversal_count
    monkeypatch.setattr(cellular, "cell_module_dims",
                        lambda n: {i: v + (i.k == 1) for i, v in dims.items()})
    monkeypatch.setattr(cellular, "transversal_count", lambda n, k: count(n, k) + (k == 2))
    rep = inflation_bijection_check(AlgebraContext(4))
    assert rep["failures"] == [{"layer": 1}, {"layer": 2}]


def test_inflation_coords_of_cap():
    for n, k in ((4, 2), (5, 1), (6, 0)):
        ek = e_k_diagram(n, k)
        ident = identity_perm(n)
        ex = to_inflation(ek)
        assert (ex.k, ex.w1, ex.wd, ex.w2) == (k, ident, ident, ident)
        assert from_inflation(n, ex) == (ek, k)


def test_inflation_coords_worked_example():
    # the rank-7 diagram with factorization (s1,4 s2 | s5 s6 | s4,1 s5,2 s6,4)
    d = diagram_from_edges(
        7, [(2, 4), (3, 5), (1, 11), (6, 8), (7, 9), (10, 12), (13, 14)]
    )
    ex, fresh = to_inflation(d), decompose(d)
    assert (ex.k, ex.w1, ex.wd, ex.w2) == (fresh.k, fresh.w1, fresh.wd, fresh.w2)
    assert ex.k == 2
    assert ex.w1 == perm_mul(s_ij(7, 1, 4), s_ij(7, 2, 2))
    assert ex.wd == perm_mul(s_ij(7, 5, 5), s_ij(7, 6, 6))
    assert ex.w2 == perm_mul(perm_mul(s_ij(7, 4, 1), s_ij(7, 5, 2)), s_ij(7, 6, 4))
    assert fixes_prefix(ex.wd, 4)
    # w1 is the coordinate of the top part, w2 that of the bottom part
    ident = identity_perm(7)
    assert [e for e in ex.top.edges() if e[1] <= 7] == [(2, 4), (3, 5)]
    assert [e for e in ex.bottom.edges() if e[0] > 7] == [(10, 12), (13, 14)]
    top, bot = to_inflation(ex.top), to_inflation(ex.bottom)
    assert (top.k, top.w1, top.wd, top.w2) == (2, ex.w1, ident, ident)
    assert (bot.k, bot.w1, bot.wd, bot.w2) == (2, ident, ident, ex.w2)
    assert from_inflation(7, ex) == (d, 2)


def test_phi_rejects_malformed_parts():
    ctx = AlgebraContext(4)
    top = e_k_diagram(4, 1)
    # a top part with edge {2,3} is not a valid bottom part
    skew = diagram_from_edges(4, [(2, 3), (5, 6), (1, 7), (4, 8)])
    with pytest.raises(ValueError):
        phi_k(ctx, skew, top)
    # and its mirror image is not a valid top part
    with pytest.raises(ValueError):
        phi_k(ctx, top, star(skew))
    with pytest.raises(ValueError):
        phi_k(ctx, top, e_k_diagram(4, 2))
    # parts of another rank than the context's
    with pytest.raises(SizeMismatch):
        phi_k(AlgebraContext(3), top, top)


def test_phi_cap_values():
    for n in range(2, 7):
        ctx = AlgebraContext(n)
        for k in range(n // 2 + 1):
            ek = e_k_diagram(n, k)
            f = phi_k(ctx, ek, ek)
            assert f.terms == {identity_perm(n): ctx.b() ** k}


def test_phi_layer_zero_is_hecke_product():
    # both parts trivial at layer 0: the form of the identity pair is 1
    ctx = AlgebraContext(3)
    ident = identity_diagram(3)
    assert phi_k(ctx, ident, ident) == HeckeElement.unit(3)


def test_inflation_product_congruence():
    for n in (2, 3):
        rep = inflation_product_check(AlgebraContext(n))
        assert rep["failures"] == []


def _watch_checked_products(monkeypatch, doctor=lambda x, y, P: P, in_forms=False):
    """Wrap ``phi_k`` and ``product`` in ``cellular``: the product P of each
    pair under check, or with ``in_forms`` of each pair phi_k multiplies,
    comes back as ``doctor(x, y, P)``, and the other products pass through.
    Returns the phi_k arguments and, for each checked pair, its two basis
    diagrams and whether ``doctor`` changed its P, in call order."""
    from qbrauer import cellular

    phi, prod = cellular.phi_k, cellular.product
    forms, checked, in_phi = [], [], []

    def wrapped_phi(ctx, c, d):
        forms.append((c, d))
        in_phi.append(True)
        try:
            return phi(ctx, c, d)
        finally:
            in_phi.pop()

    def wrapped_product(ctx, x, y):
        P = prod(ctx, x, y)
        out = doctor(x, y, P) if bool(in_phi) == in_forms else P
        if not in_phi:
            (c,), (d,) = x.terms, y.terms
            checked.append((c, d, out != P))
        return out

    monkeypatch.setattr(cellular, "phi_k", wrapped_phi)
    monkeypatch.setattr(cellular, "product", wrapped_product)
    return forms, checked


def test_sampled_inflation_product_pairs(monkeypatch):
    """Drawing indices picks, layer by layer, the pairs that sampling the
    full list of same-layer pairs would pick."""
    forms, checked = _watch_checked_products(monkeypatch)
    rep = inflation_product_check(AlgebraContext(4), sample=50, seed=3)
    rng = random.Random(3)
    want = []
    for k in range(3):
        layer = [d for d in enumerate_diagrams(4) if d.layer() == k]
        all_pairs = [(c, d) for c in layer for d in layer]
        assert len(all_pairs) > 50
        want += rng.sample(all_pairs, 50)
    assert rep["pairs_tested"] == 150 and rep["failures"] == []
    assert [(c, d) for c, d, _ in checked] == want
    # each distinct form is computed once, in the order first needed
    assert forms == list(dict.fromkeys((decompose(c).bottom, decompose(d).top) for c, d in want))


def _layer_term(x, P):
    """A term (diagram, coeff) of P in the layer of the basis element x."""
    (c,) = x.terms
    return next(((d, v) for d, v in P.terms.items() if d.layer() == c.layer()), None)


def _assert_check_fails_on(monkeypatch, doctor):
    """inflation_product_check fails on exactly the pairs whose checked
    product ``doctor`` changed, and there are some."""
    _, checked = _watch_checked_products(monkeypatch, doctor)
    rep = inflation_product_check(AlgebraContext(3))
    doctored = [{"c": c.edges(), "d": d.edges()} for c, d, changed in checked if changed]
    assert doctored and rep["failures"] == doctored


def test_product_check_sees_a_changed_coefficient(monkeypatch):
    def doctor(x, y, P):
        term = _layer_term(x, P)
        if term is None:
            return P
        d, v = term
        return P + QBrauerElement.basis(d).scale(v)  # v becomes 2v

    _assert_check_fails_on(monkeypatch, doctor)


def test_product_check_sees_a_moved_top_part(monkeypatch):
    from qbrauer.diagrams import top_swap

    def doctor(x, y, P):
        term = _layer_term(x, P)
        if term is None:
            return P
        d, v = term
        moved = [top_swap(d, j) for j in range(1, d.n)]
        other = next((e for e in moved if decompose(e).top != decompose(d).top), None)
        if other is None:  # layer 0: every diagram has the same top part
            return P
        return P - QBrauerElement.basis(d).scale(v) + QBrauerElement.basis(other).scale(v)

    _assert_check_fails_on(monkeypatch, doctor)


def test_a_form_with_outer_factors_is_a_reported_failure(monkeypatch, capsys):
    """A layer-k term of a phi_k product whose outer factors are not (1, 1)
    makes the form None, and every pair that reads the form fails, as a
    report and not an exception."""
    from qbrauer.cli import main

    ctx = AlgebraContext(3)
    top = next(d for d in enumerate_diagrams(3)
               if d.layer() == 1 and decompose(d).top is d and to_inflation(d).w1 != identity_perm(3))
    ek = e_k_diagram(3, 1)
    # y = b_top has outer factors (w1, 1) with w1 != 1
    _watch_checked_products(
        monkeypatch, lambda x, y, P: P + y if (ek, top) == (*x.terms, *y.terms) else P,
        in_forms=True)
    rep = inflation_product_check(ctx)
    layer = [d for d in enumerate_diagrams(3) if d.layer() == 1]
    bad = [{"c": c.edges(), "d": d.edges(), "form": None} for c in layer for d in layer
           if (decompose(c).bottom, decompose(d).top) == (ek, top)]
    assert bad and rep["failures"] == bad
    assert main(["verify", "cell", "3"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4 and lines[1].startswith("inflation_product ")
    assert lines[1].endswith(f"FAIL ({len(bad)})")


def test_cell_chain_check_sees_a_shallower_term(monkeypatch):
    from qbrauer import cellular

    real, ek = cellular._rfold, e_k_diagram(3, 1)

    def leaky(ctx, terms, word):
        """e on the basis element of e_(1) gains a layer-0 term."""
        out = real(ctx, terms, word)
        if word == (E_ATOM,) and ek in terms:
            out = {**out, identity_diagram(3): ONE}
        return out

    monkeypatch.setattr(cellular, "_rfold", leaky)
    rep = cell_chain_check(AlgebraContext(3))
    assert rep["failures"] == [{"diagram": ek.edges(), "atom": E_ATOM}]


def test_involution_check_sees_a_star_that_changes_the_layer(monkeypatch):
    # identity and e_(1) have the same outer and inner permutations, so only
    # the layer tells the two images apart
    from qbrauer import cellular

    real, one = cellular.star, identity_diagram(3)
    monkeypatch.setattr(cellular, "star",
                        lambda d: e_k_diagram(3, 1) if d == one else real(d))
    rep = involution_symmetry_check(AlgebraContext(3))
    assert rep["failures"] == [{"basis_image": one.edges()}]


def test_involution_symmetry():
    rep = involution_symmetry_check(AlgebraContext(3))
    assert rep["failures"] == []


def _caps_by_left_end(slots, k):
    """A row's slot list with its caps ordered by left end, not right end."""
    caps = sorted(zip(slots[0:2 * k:2], slots[1:2 * k:2]))
    return tuple(v for cap in caps for v in cap) + slots[2 * k:]


# e_(k) closes any order of the caps, so the bijection check passes; only
# the rotation sees that the two rows are read differently
@pytest.mark.parametrize("mutate", [
    lambda ex: ReducedExpression(ex.k, ex.w1, ex.wd, _caps_by_left_end(ex.w2, ex.k)),
    lambda ex: ReducedExpression(ex.k, perm_inv(_caps_by_left_end(perm_inv(ex.w1), ex.k)),
                                 ex.wd, ex.w2),
], ids=["bottom_caps", "top_caps"])
def test_involution_check_kills_cap_order_mutants(monkeypatch, mutate):
    from qbrauer import algebra

    real = algebra.decompose
    monkeypatch.setattr(algebra, "decompose", lambda d: mutate(real(d)))
    monkeypatch.setattr(algebra, "_EXPR_CACHE", {})
    ctx = AlgebraContext(4)
    assert inflation_bijection_check(ctx)["failures"] == []
    rep = involution_symmetry_check(ctx)
    assert rep["pairs_tested"] == 105 and len(rep["failures"]) == 5


def test_cell_chain():
    for n in (2, 3):
        rep = cell_chain_check(AlgebraContext(n))
        assert rep["failures"] == []


def test_heredity_witness_square():
    # the cap element squares to b^k times itself within its own layer
    for n in (3, 4, 5):
        ctx = AlgebraContext(n)
        for k in range(n // 2 + 1):
            x = e_k_element(ctx, k)
            assert product(ctx, x, x) == x.scale(ctx.b() ** k)


def test_e_of_q():
    assert e_of_q(Fraction(-1), cap=64) == 2
    assert e_of_q(Fraction(2), cap=20) is None
    F7 = PrimeField(7)
    assert e_of_q(F7(2), cap=64) == 3
    assert e_of_q(F7(1), cap=64) == 7  # characteristic
    for p in (2, 3, 5, 7):
        F = PrimeField(p)
        assert e_of_q(F(1), cap=64) == p
    with pytest.raises(ValueError):
        e_of_q(Fraction(0), cap=64)


def test_e_of_q_brute_force_finite_fields():
    for p in (2, 3, 5, 7):
        F = PrimeField(p)
        for v in range(1, p):
            got = e_of_q(F(v), cap=64)
            total = F(0)
            want = None
            for m in range(1, 65):
                total = total + F(v) ** (m - 1)
                if total == F(0):
                    want = m
                    break
            assert got == want


def test_quasi_heredity_decision():
    assert is_quasi_hereditary(3, Fraction(2), Fraction(3)) == (
        True,
        "e(q) > 3 (no vanishing quantum integer up to cap 4)",
    )
    ok, why = is_quasi_hereditary(3, Fraction(-1), Fraction(3))
    assert not ok and why == "false: e(q)=2 <= 3"
    F7 = PrimeField(7)
    ok, _ = is_quasi_hereditary(2, F7(2), F7(3))
    assert ok  # e(q) = 3 > 2
    with pytest.raises(ValueError):
        is_quasi_hereditary(3, Fraction(1), Fraction(3))
    with pytest.raises(ValueError):
        is_quasi_hereditary(3, Fraction(2), Fraction(1))
    with pytest.raises(ValueError):
        is_quasi_hereditary(3, Fraction(0), Fraction(2))


def test_simple_module_index():
    idx = simple_module_index(2, Fraction(5))
    assert {(i.k, i.lam) for i in idx} == {(0, (2,)), (0, (1, 1)), (1, ())}
    idx = simple_module_index(2, Fraction(-1))  # e(q) = 2
    assert {(i.k, i.lam) for i in idx} == {(0, (1, 1)), (1, ())}
    assert len(simple_module_index(4, Fraction(7))) == 5 + 2 + 1

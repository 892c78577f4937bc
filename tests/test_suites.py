"""The module certificate of ``qbrauer.suites``: how many checks each of its
reports makes, the tags and mirrors of its relation rows, and kernel and
product mutants it catches."""

import json

import pytest

from qbrauer import algebra, hecke, suites
from qbrauer.hecke import accumulate, asc, gen_pairs
from qbrauer.algebra import (
    E_ATOM,
    AlgebraContext,
    QBrauerElement,
    _expr,
    _middle,
    ek_atoms,
    ek_step,
    involution_i,
    lmul_gen,
    rmul_atom,
    word_element,
)
from qbrauer.cellular import double_factorial_odd
from qbrauer.cli import main
from qbrauer.diagrams import reduced_word, swap_delta, top_part, top_swap
from qbrauer.scalars import Q, Q_INV, QM1

from helpers import mutant_middle

# pairs_tested of each report of `verify relations`, by n; n = 5 is pinned
# by acceptance criteria 02 and 03
PAIRS = {
    "relations": {2: 24, 3: 210, 4: 2520},
    "spanning": {2: 3, 3: 15, 4: 105},
    "left_action": {2: 9, 3: 75, 4: 735},
    "product": {2: 12, 3: 66, 4: 600},
}


@pytest.mark.parametrize("integral", [(), ("--integral", "2")])
@pytest.mark.parametrize("n", range(2, 5))
@pytest.mark.parametrize("suite", ["relations"])
def test_pairs_tested(capsys, suite, n, integral):
    assert main(["verify", suite, str(n), "--format", "json", *integral]) == 0
    got = {r["check"]: r["pairs_tested"] for r in json.loads(capsys.readouterr().out)}
    assert got == {check: PAIRS[check][n] for check in PAIRS}


def test_left_action_pairs():
    # one row per generator and diagram, and one per g_j and diagram
    for n in range(2, 6):
        rep = suites.left_action_check(AlgebraContext(n))
        assert rep["pairs_tested"] == double_factorial_odd(n) * (2 * n - 1), n


@pytest.mark.parametrize("rows", [suites._relation_rows])
def test_tags_are_unique(rows):
    for n in range(2, 7):
        tags = [t for tag, _, _, mirror in rows(AlgebraContext(n)) for t in (tag, mirror) if t]
        assert len(tags) == len(set(tags)), n


@pytest.mark.parametrize("N", [None, 2])
def test_mirror_is_the_involution(N):
    # on the unit, the reversed words give the image under i
    for n in range(2, 6):
        ctx = AlgebraContext(n, N)
        for tag, lhs, rhs, _ in suites._relation_rows(ctx):
            for side in (lhs, rhs):
                x = suites._value(ctx, {(): ctx.unit()}, side)
                y = suites._value(ctx, {(): ctx.unit()}, suites._mirror(side))
                assert y == involution_i(x), (n, tag)


def _falling_q_squared(key, moved, delta):
    """g_j with the coefficient q^2 in place of q where the length falls."""
    if delta < 0:
        return ((key, QM1), (moved, Q * Q))
    return hecke.gen_pairs(key, moved, delta)


def _constant_q_inverse(pairs, key):
    """g_j^{-1} with the constant q^{-1} in place of q^{-1} - 1."""
    return tuple((e, Q_INV * c) for e, c in pairs) + ((key, Q_INV),)


# patched in ``algebra`` only, so ``hecke`` stays the reference
@pytest.mark.parametrize("name, mutant", [("gen_pairs", _falling_q_squared),
                                          ("inverse_pairs", _constant_q_inverse)])
@pytest.mark.parametrize("suite", [suites.relations_suite])
def test_suites_catch_kernel_mutants(monkeypatch, name, mutant, suite):
    monkeypatch.setattr(algebra, name, mutant)
    assert any(rep["failures"] for rep in suite(AlgebraContext(4)))


def _rank_by_vertex(d, a):
    """``swap_delta`` without the cap-before-vertical rank: partners rank
    by vertex number alone."""
    pa, pb = d.partner[a - 1], d.partner[a]
    if pa == a + 1:
        return 0
    return 1 if pa < pb else -1


def _vertical_before_cap(d, a):
    """``swap_delta`` with the rank inverted: a vertical end ranks before a
    cap end."""
    same_kind = (d.partner[a - 1] <= d.n) == (d.partner[a] <= d.n)
    return swap_delta(d, a) if same_kind else -swap_delta(d, a)


# the q -> 1 oracle passes under both: at q = 1 the g_j rule is a plain move
# whatever the length change says
@pytest.mark.parametrize("mutant", [_rank_by_vertex, _vertical_before_cap])
def test_suites_catch_swap_rule_mutants(monkeypatch, mutant):
    monkeypatch.setattr(algebra, "swap_delta", mutant)
    assert any(rep["failures"] for rep in suites.relations_suite(AlgebraContext(4)))


def _product_reading(right):
    """``product`` with the right word of d read through ``right``; the
    product reads ``right_word``, g_{wd'} g_{w2'}, as it is."""
    def mutant(ctx, x, y):
        out = {}
        for c, a in x.terms.items():
            for d, b in y.terms.items():
                z = word_element(ctx, right(_expr(d)), _middle(ctx, c, top_part(d)))
                accumulate(out, a * b, z.terms.items())
        return QBrauerElement._adopt(ctx.n, out)
    return mutant


# the mirrored fills of ``_middle`` are in tests/test_algebra.py,
# test_mirrored_fill_mutants_fail_the_checks
@pytest.mark.parametrize("module, name, mutant", [
    # the only g^{-1} atoms of the fill's recursion step are those of g^-_{1,2k-2}
    (algebra, "ek_step", lambda k, inner: [(a[0], 1) for a in ek_step(k, [])] + inner),
    # the word of g_{w1} g_{wd} applied on the left first atom first
    (algebra, "_middle", mutant_middle(lift=lambda word: word)),
    (suites, "product", _product_reading(lambda ed: ed.right_word[::-1])),
    (suites, "product", _product_reading(lambda ed: reduced_word(ed.w2))),
], ids=["ek_atoms_sign", "left_word_unreversed", "right_word_reversed", "right_word_without_wd"])
def test_product_report_catches_product_mutants(monkeypatch, module, name, mutant):
    # the certificate keeps the true spelling of e_(k), which ek_step builds too
    spelled = {k: ek_atoms(k) for k in range(3)}
    monkeypatch.setattr(suites, "ek_atoms", spelled.__getitem__)
    monkeypatch.setattr(module, name, mutant)
    reps = suites.relations_suite(AlgebraContext(4))
    assert [bool(rep["failures"]) for rep in reps] == [False, False, False, True]


def _relabel_every_term(ctx, terms, ex):
    """``_rtail`` with the deeper terms relabelled by w2 too, not folded."""
    return {algebra.bottom_relabel(x, ex.w2): c
            for x, c in algebra._rfold(ctx, terms, ex.tail[0]).items()}


# the tail of ``product`` is also that of e on the left, which the relations
# and left_action reports read; the product report's right factors all have
# w2 = 1, so it sees a wrong relabel through its unit rows only, and a
# relabelled deeper term not at all
@pytest.mark.parametrize("name, mutant, failing", [
    ("bottom_relabel", lambda d, w: d, [True, False, True, True]),
    ("_rtail", _relabel_every_term, [True, False, True, False]),
], ids=["relabel_ignores_w2", "relabel_on_deeper_terms"])
def test_certificate_catches_tail_mutants(monkeypatch, name, mutant, failing):
    monkeypatch.setattr(algebra, name, mutant)
    reps = suites.relations_suite(AlgebraContext(4))
    assert [bool(rep["failures"]) for rep in reps] == failing


# the certificate spells e_(k) with ek_atoms, and the product reads it as
# the atom ("e", k); a wrong spelling in the certificate fails every report
# that compares against the diagram basis, the left action, whose word
# images read it too, and the product report, which folds it against the
# product
@pytest.mark.parametrize("parts", [
    lambda up, down, inner: [E_ATOM] + up + [(j, 1) for j, _ in down] + inner,
    lambda up, down, inner: [E_ATOM] + down + up + inner,
    lambda up, down, inner: inner + [E_ATOM] + up + down,
], ids=["sign", "chains_swapped", "inner_first"])
def test_certificate_catches_a_shared_spelling_mutant(monkeypatch, parts):
    def word(k):
        return parts(asc(2, 2 * k - 1), asc(1, 2 * k - 2, -1), word(k - 1)) if k else []
    for module in (algebra, suites):
        monkeypatch.setattr(module, "ek_atoms", word)
    reps = suites.relations_suite(AlgebraContext(4))
    assert [bool(rep["failures"]) for rep in reps] == [True, True, True, True]


def _negated_lmul_g(ctx, j, d):
    """``_lmul_g_basis`` with the length change negated."""
    return gen_pairs(d, top_swap(d, j), -swap_delta(d, j))


def _lmul_e(e_action):
    """``lmul_gen`` with e on the left computed by ``e_action``."""
    def mutant(ctx, atom, x):
        return e_action(ctx, x) if atom == E_ATOM else lmul_gen(ctx, atom, x)
    return mutant


# the left action of e is read by the left_action report alone; the bottom-row
# mutant of ``_lmul_g_basis`` stops at the assert of ``gen_pairs``, which
# tests/test_cli.py covers
@pytest.mark.parametrize("module, name, mutant", [
    (algebra, "_lmul_g_basis", _negated_lmul_g),
    (suites, "lmul_gen", _lmul_e(lambda ctx, x: rmul_atom(ctx, involution_i(x), E_ATOM))),
    (suites, "lmul_gen", _lmul_e(lambda ctx, x: rmul_atom(ctx, x, E_ATOM))),
], ids=["negated_length_change", "e_without_outer_involution", "e_on_the_right"])
def test_left_action_report_catches_left_mutants(monkeypatch, module, name, mutant):
    monkeypatch.setattr(module, name, mutant)
    rep = suites.left_action_check(AlgebraContext(4))
    assert any("a" in f for f in rep["failures"])

"""The module certificate of ``qbrauer.suites``: how many checks each of its
reports makes, the tags and mirrors of its relation rows, and kernel
mutants it catches."""

import json

import pytest

from qbrauer import algebra, hecke, suites
from qbrauer.algebra import E_ATOM, AlgebraContext, involution_i, lmul_gen
from qbrauer.cli import main
from qbrauer.diagrams import swap_delta
from qbrauer.scalars import Q, Q_INV, QM1

# pairs_tested of each report of `verify relations`, by n; n = 5 is pinned
# by acceptance criteria 02 and 03
PAIRS = {
    "relations": {2: 24, 3: 210, 4: 2520},
    "spanning": {2: 3, 3: 15, 4: 105},
    "left_action": {2: 24, 3: 260, 4: 3262},
}


@pytest.mark.parametrize("integral", [(), ("--integral", "2")])
@pytest.mark.parametrize("n", range(2, 5))
@pytest.mark.parametrize("suite", ["relations"])
def test_pairs_tested(capsys, suite, n, integral):
    assert main(["verify", suite, str(n), "--format", "json", *integral]) == 0
    got = {r["check"]: r["pairs_tested"] for r in json.loads(capsys.readouterr().out)}
    assert got == {check: PAIRS[check][n] for check in PAIRS}


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


def _lmul_without_inverse(ctx, atom, x):
    """``lmul_gen`` with g_j^{-1} acting as g_j on the left."""
    return lmul_gen(ctx, atom if atom == E_ATOM else (atom[0], 1), x)


def test_left_action_catches_a_wrong_left_inverse(monkeypatch):
    # it commutes with every right action, so only the unit check sees it
    monkeypatch.setattr(suites, "lmul_gen", _lmul_without_inverse)
    reps = suites.relations_suite(AlgebraContext(3))
    assert [rep["failures"] for rep in reps] == [[], [], [{"a": [1, -1]}, {"a": [2, -1]}]]


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

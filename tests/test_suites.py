"""The identity rows of ``qbrauer.suites``: how many each suite checks, their
tags, their mirrors under the involution, and two kernel mutants they catch."""

import json

import pytest

from qbrauer import algebra, cellular, hecke, suites
from qbrauer.algebra import AlgebraContext, involution_i
from qbrauer.cli import main
from qbrauer.diagrams import swap_delta
from qbrauer.hecke import HeckeElement
from qbrauer.scalars import Q, Q_INV, QM1

# pairs_tested of each report, by n
PAIRS = {
    "relations": {2: 6, 3: 10, 4: 17, 5: 22, 6: 28},
    "lemmas": {2: 12, 3: 18, 4: 58, 5: 72, 6: 148},
    "ek_consistency": {2: 2, 3: 2, 4: 4, 5: 4, 6: 6},
    "plus_chain_absorption": {4: 2, 5: 6, 6: 14},
}

ROWS = (suites._relation_rows, suites._lemma_rows, suites._plus_chain_rows, suites._ek_rows)


@pytest.mark.parametrize("integral", [(), ("--integral", "2")])
@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("suite", ["relations", "lemmas"])
def test_pairs_tested(capsys, suite, n, integral):
    assert main(["verify", suite, str(n), "--format", "json", *integral]) == 0
    got = {r["check"]: r["pairs_tested"] for r in json.loads(capsys.readouterr().out)}
    checks = ["relations"] if suite == "relations" else ["lemmas", "ek_consistency"]
    if suite == "lemmas" and integral and n >= 4:
        checks.append("plus_chain_absorption")
    assert got == {check: PAIRS[check][n] for check in checks}


@pytest.mark.parametrize("rows", ROWS)
def test_tags_are_unique(rows):
    for n in range(2, 7):
        tags = [t for tag, _, _, mirror in rows(AlgebraContext(n)) for t in (tag, mirror) if t]
        assert len(tags) == len(set(tags)), n


@pytest.mark.parametrize("N", [None, 2])
def test_mirror_is_the_involution(N):
    for n in range(2, 6):
        ctx = AlgebraContext(n, N)
        for rows in ROWS:
            for tag, lhs, rhs, _ in rows(ctx):
                for side in (lhs, rhs):
                    x = suites._value(ctx, side)
                    i = hecke.involution_i if isinstance(x, HeckeElement) else involution_i
                    assert suites._value(ctx, suites._mirror(side)) == i(x), (n, tag)


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
@pytest.mark.parametrize("suite", [suites.relations_suite, suites.lemmas_suite])
def test_suites_catch_kernel_mutants(monkeypatch, name, mutant, suite):
    monkeypatch.setattr(algebra, name, mutant)
    assert suite(AlgebraContext(4))["failures"]


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
    assert suites.relations_suite(AlgebraContext(4))["failures"]
    assert cellular.inflation_product_check(AlgebraContext(4))["failures"]

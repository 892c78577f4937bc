import contextlib
import hashlib
import io
import itertools
import json
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from qbrauer import algebra, cli, scalars
from qbrauer.algebra import AlgebraContext, QBrauerElement, e_k_element, element_to_json, product
from qbrauer.cli import chain_text, main, parse_perm
from qbrauer.diagrams import (
    concat, diagram_to_json, e_k_diagram, perm_to_diagram, s_ij, swap_delta, t_word, top_swap,
)
from qbrauer.hecke import gen_pairs


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_perm():
    assert parse_perm(5, "s1,2") == s_ij(5, 1, 2)
    assert parse_perm(3, "[3,1,2]") == (3, 1, 2)
    assert parse_perm(3, "1") == (1, 2, 3)
    with pytest.raises(Exception):
        parse_perm(3, "s9")


def test_chain_text_reads_back():
    """``parse_perm`` reads the chain notation that ``chain_text`` prints."""
    for n in range(1, 6):
        for w in itertools.permutations(range(1, n + 1)):
            assert parse_perm(n, chain_text(t_word(w))) == w


def test_dim(capsys):
    code, out, _ = run(capsys, "dim", "4")
    assert code == 0
    assert "dim = 105" in out
    code, out, _ = run(capsys, "dim", "1")
    assert "dim = 1" in out
    code, out, _ = run(capsys, "dim", "6")
    assert "dim = 10395" in out
    assert "layer k=1: transversal 15" in out


def test_mul_round_trip(tmp_path, capsys):
    ctx = AlgebraContext(3)
    x = e_k_element(ctx, 1)
    y = e_k_element(ctx, 1)
    for name, el in (("x.json", x), ("y.json", y)):
        (tmp_path / name).write_text(json.dumps(element_to_json(ctx, el)))
    code, out, _ = run(capsys, "mul", str(tmp_path / "x.json"), str(tmp_path / "y.json"))
    assert code == 0
    obj = json.loads(out)
    from qbrauer.algebra import element_from_json

    assert element_from_json(obj) == product(ctx, x, y)
    assert element_from_json(obj) == x.scale(ctx.b())


def test_mul_bad_input(tmp_path, capsys):
    (tmp_path / "x.json").write_text("{not json")
    code, out, err = run(capsys, "mul", str(tmp_path / "x.json"), str(tmp_path / "x.json"))
    assert code == 2
    assert json.loads(err)["error"]


def test_straighten_text_and_json(capsys):
    code, out, _ = run(capsys, "straighten", "5", "1", "--sigma", "s1")
    assert code == 0
    assert out.strip() == "(q) * g[1] g[1] e_(1)"
    code, out2, _ = run(
        capsys, "straighten", "8", "3", "--sigma", "s4,7 s6 s1,5 s3,4 s2",
        "--format", "json",
    )
    assert code == 0
    terms = json.loads(out2)
    assert len(terms) == 3
    # determinism: byte-identical re-run
    code, out3, _ = run(
        capsys, "straighten", "8", "3", "--sigma", "s4,7 s6 s1,5 s3,4 s2",
        "--format", "json",
    )
    assert out2 == out3
    code, out4, _ = run(capsys, "straighten", "8", "3", "--sigma", "s4,7 s6 s1,5 s3,4 s2")
    assert code == 0
    assert out4.splitlines() == [
        "(q^3) * g[s7 s4,6 s3,4 s2] g[s7] e_(3)",
        "(q^3-q^2) * g[s7 s4,6 s3,4 s1,2] g[s7] e_(3)",
        "(q^2-q) * g[s7 s4,6 s1,4 s1,2] g[s7] e_(3)",
    ]


def test_decompose_inline(capsys):
    d = e_k_diagram(4, 2)
    code, out, _ = run(
        capsys, "decompose", json.dumps(diagram_to_json(d)), "--format", "json"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["k"] == 2 and obj["length"] == 0
    code, out, _ = run(capsys, "decompose", '{"n": 7, "edges": [[4,6],[5,7],[8,9],'
                                           '[10,11],[1,12],[2,13],[3,14]]}')
    assert code == 0
    assert out.splitlines()[3:] == [
        "k = 2, length = 13", "w1 = s3,6 s2,5 s1,4 s2", "wd = 1", "w2 = 1"]


def test_decompose_inline_list_names_the_diagram_form(capsys):
    # a JSON array is read inline, not opened as a file, and the diagram
    # reader names the form it expects
    code, out, err = run(capsys, "decompose", "[1,2]")
    assert code == 2 and out == ""
    obj = json.loads(err)
    assert obj["error"] == "ValueError"
    assert '{"n": n, "edges": [...]}' in obj["detail"]


def test_table_determinism(capsys):
    code, out1, _ = run(capsys, "table", "2")
    code2, out2, _ = run(capsys, "table", "2")
    assert code == code2 == 0
    assert out1 == out2
    lines = out1.strip().splitlines()
    assert lines[0] == "d_left_id,d_right_id,d_out_id,coeff"
    assert len(lines) >= 1 + 9  # 3x3 products, at least one row each


@pytest.mark.parametrize("argv, md5", [
    (("table", "4"), "c324816e7a15e5ea8cb0739b4eed067e"),
    # r = q^-1 puts negative powers of q into the coefficients
    (("table", "3", "--integral", "-1"), "99e6bc1832d1de8592eab85785f3fdbd"),
    (("verify", "oracle", "5", "--sample", "1000"), "ef04939cc58c2efb1fcb1d5b8d5384c6"),
    (("verify", "cell", "5", "--sample", "200"), "db1d5a8158fa31d0aa2caac414d9b728"),
    (("verify", "relations", "4"), "aa41c4438d5d3ff9a5786339d0a201a2"),
    (("phi", "4", "1"), "94d170475a7cce7ec3ea13a7f96df9a3"),
    (("phi", "5", "2"), "70697ccc9f37b8ac103dbfa8234c1fe3"),
    (("phi", "5", "1", "--integral", "2"), "75154a0dc98009361b672db6c3777097"),
])
def test_table_bytes_are_pinned(capsys, argv, md5):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.md5(out.encode()).hexdigest() == md5


def test_verify_failure_exit_code(capsys):
    from qbrauer.cli import _run_reports
    import argparse as ap

    args = ap.Namespace(format="text", output=None)
    bad = {"check": "x", "n": 2, "version": {"generic": True},
           "params": {}, "pairs_tested": 1, "failures": [{"identity": "x"}]}
    good = dict(bad, failures=[])
    assert _run_reports(args, [good]) == 0
    assert _run_reports(args, [good, bad]) == 1
    capsys.readouterr()


def test_phi_table(capsys):
    code, out, _ = run(capsys, "phi", "4", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "row_id,col_id,value"
    assert len(lines) == 1 + 6 * 6


def test_phi_without_a_layer_form_exits_1(monkeypatch, capsys):
    # phi_k returns None when a layer-k term of the product has outer factors
    monkeypatch.setattr(cli, "phi_k", lambda ctx, c, d: None)
    code, out, err = run(capsys, "phi", "4", "1")
    assert (code, out) == (1, "")
    error = json.loads(err)
    assert (error["error"], error["row"], error["col"]) == ("NoLayerForm", 0, 0)


def _bottom_row_lmul_g(ctx, j, d):
    """``_lmul_g_basis`` reading the length change off the bottom row: the
    length-0 case of ``gen_pairs`` then meets a diagram that s_j moves."""
    return gen_pairs(d, top_swap(d, j), swap_delta(d, ctx.n + j))


def test_verify_reports_a_failed_kernel_assert(monkeypatch, capsys):
    monkeypatch.setattr(algebra, "_lmul_g_basis", _bottom_row_lmul_g)
    code, out, err = run(capsys, "verify", "relations", "4")
    assert (code, out) == (1, "")
    error = json.loads(err)
    assert error["error"] == "AssertionError"
    assert error["check"] in ("relations", "spanning", "left_action", "product")
    assert error["detail"] and error["at"].startswith("gen_pairs:")


def test_verify_pass_and_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "relations", "3")
    assert code == 0
    assert "pass" in out
    code, out, _ = run(capsys, "verify", "cell", "3", "--format", "json")
    assert code == 0
    reports = json.loads(out)
    assert all(r["failures"] == [] for r in reports)
    code, out, _ = run(capsys, "verify", "relations", "4", "--integral", "2")
    assert code == 0
    code, out, _ = run(capsys, "verify", "oracle", "3")
    assert code == 0


def test_verify_oracle_and_involution_read_integral(capsys):
    # --integral M runs the integral version r = q^M and reports it
    for M in (2, -1):
        code, out, _ = run(capsys, "verify", "oracle", "3", "--integral", str(M),
                           "--format", "json")
        assert code == 0
        (rep,) = json.loads(out)
        assert rep["version"] == {"N": M} and rep["params"] == {"sample": None, "seed": 0}
        assert rep["pairs_tested"] == 225 and rep["failures"] == []
        code, out, _ = run(capsys, "verify", "cell", "3", "--integral", str(M),
                           "--sample", "20", "--format", "json")
        assert code == 0
        reps = json.loads(out)
        assert len(reps) == 4
        assert all(r["failures"] == [] and r["version"] == {"N": M} for r in reps)
    code, out, _ = run(capsys, "verify", "oracle", "3", "--format", "json")
    (rep,) = json.loads(out)
    assert rep["version"] == {"generic": True} and rep["params"] == {"sample": None, "seed": 0}


def test_involution_counts_the_basis_images(capsys):
    # the last report of `verify cell` checks the image of each of the 15
    # diagrams of rank 3
    code, out, _ = run(capsys, "verify", "cell", "3", "--format", "json")
    assert code == 0
    symmetry = json.loads(out)[-1]
    assert symmetry["check"] == "involution_symmetry"
    assert symmetry["pairs_tested"] == 15


def test_qh(capsys):
    code, out, _ = run(capsys, "qh", "3", "--q0", "-1", "--r0", "3")
    assert code == 0
    assert out.strip() == "false: e(q)=2 <= 3"
    code, out, _ = run(capsys, "qh", "3", "--q0", "2", "--r0", "3")
    assert out.strip() == "true"
    code, out, _ = run(capsys, "qh", "2", "--field", "7", "--q0", "2", "--r0", "3")
    assert out.strip() == "true"
    code, out, err = run(capsys, "qh", "3", "--q0", "1", "--r0", "3")
    assert code == 2 and json.loads(err)["error"]
    # a negative fraction is read after "=", as argparse takes "-1/2" for an option
    code, out, _ = run(capsys, "qh", "3", "--q0=-1/2", "--r0", "3")
    assert code == 0 and out == "true\n"
    code, out, err = run(capsys, "qh", "3", "--field", "x", "--q0", "2", "--r0", "3")
    assert code == 2 and out == ""
    obj = json.loads(err)
    assert obj["error"] == "InputError" and "--field" in obj["detail"]


def test_simples(capsys):
    code, out, _ = run(capsys, "simples", "2", "--q0", "-1", "--format", "json")
    assert code == 0
    got = {(t["k"], tuple(t["partition"])) for t in json.loads(out)}
    assert got == {(0, (1, 1)), (1, ())}


def test_simples_refuses_q_one(capsys):
    # q0 = 8 is 1 in F_7; qh refuses the same values
    for argv in (("simples", "3", "--q0", "1"),
                 ("simples", "3", "--field", "7", "--q0", "8")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "Traceback" not in err
        assert json.loads(err)["detail"] == "q = 1 leaves (r-1)/(q-1) undefined"


def test_output_file(tmp_path, capsys):
    path = tmp_path / "out.txt"
    code, out, _ = run(capsys, "dim", "3", "-o", str(path))
    assert code == 0 and out == ""
    assert "dim = 15" in path.read_text()


def assert_input_error(capsys, *argv):
    """Malformed input exits 2 with one JSON object on stderr."""
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "Traceback" not in err
    assert isinstance(json.loads(err), dict) and json.loads(err)["error"]


def test_bad_one_line_perm_exits_2(capsys):
    assert_input_error(capsys, "straighten", "4", "1", "--sigma", '["a",2,3,4]')


def test_unlisted_spellings_exit_2(capsys):
    """``straighten`` reads no --integral, --field is "rationals" or a
    prime, and the identity is spelled "1" or as the empty chain."""
    for argv in (("straighten", "3", "1", "--sigma", "s1", "--integral", "2"),
                 ("qh", "3", "--field", "Q", "--q0", "2", "--r0", "3"),
                 ("straighten", "3", "1", "--sigma", "id")):
        assert_input_error(capsys, *argv)
    code, out, _ = run(capsys, "straighten", "3", "1", "--sigma", "")
    assert code == 0 and out == "(1) * g[1] g[1] e_(1)\n"


def test_zero_denominator_field_value_exits_2(capsys):
    assert_input_error(capsys, "qh", "3", "--q0", "1/0", "--r0", "2")


def test_negative_n_exits_2(capsys):
    assert_input_error(capsys, "dim", "-1")


def test_layer_beyond_half_n_exits_2(capsys):
    assert_input_error(capsys, "phi", "4", "3")


def write_operands(tmp_path, x, y):
    paths = []
    for name, obj in (("x.json", x), ("y.json", y)):
        (tmp_path / name).write_text(json.dumps(obj))
        paths.append(str(tmp_path / name))
    return paths


def test_negative_scalar_exponent_exits_2(tmp_path, capsys):
    ctx = AlgebraContext(3)
    x = element_to_json(ctx, e_k_element(ctx, 1))
    for key in ("q", "r", "qm1"):
        bad = json.loads(json.dumps(x))
        bad["terms"][0]["coeff"]["den"][key] = -1
        assert_input_error(capsys, "mul", *write_operands(tmp_path, x, bad))


def test_unknown_denominator_key_exits_2(tmp_path, capsys):
    # an exponent under any other key than q, r, qm1 would be dropped; r - 1
    # is no unit of the ring, so rm1 is refused too, even at exponent 0
    ctx = AlgebraContext(3)
    x = element_to_json(ctx, e_k_element(ctx, 1))
    for key, e in (("x", 5), ("rm1", 0), ("rm1", 1)):
        bad = json.loads(json.dumps(x))
        bad["terms"][0]["coeff"]["den"][key] = e
        assert_input_error(capsys, "mul", *write_operands(tmp_path, x, bad))


def test_diagram_of_other_rank_exits_2(tmp_path, capsys):
    ctx = AlgebraContext(3)
    x = element_to_json(ctx, e_k_element(ctx, 1))
    bad = dict(x, terms=[{"diagram": diagram_to_json(e_k_diagram(2, 1)),
                          "coeff": x["terms"][0]["coeff"]}])
    assert_input_error(capsys, "mul", *write_operands(tmp_path, x, bad))


def test_operands_of_other_versions_exit_2(tmp_path, capsys):
    ctx, ictx = AlgebraContext(3), AlgebraContext(3, 2)
    x = element_to_json(ctx, e_k_element(ctx, 1))
    y = element_to_json(ictx, e_k_element(ictx, 1))
    assert y["version"] == {"N": 2}
    assert_input_error(capsys, "mul", *write_operands(tmp_path, x, y))


def test_top_level_list_element_exits_2(tmp_path, capsys):
    assert_input_error(capsys, "mul", *write_operands(tmp_path, [], []))


def test_edge_beyond_2n_exits_2(tmp_path, capsys):
    ctx = AlgebraContext(2)
    x = element_to_json(ctx, e_k_element(ctx, 1))
    bad = {"n": 2, "edges": [[1, 9], [2, 3]]}
    x["terms"][0]["diagram"] = bad
    assert_input_error(capsys, "mul", *write_operands(tmp_path, x, x))
    assert_input_error(capsys, "decompose", json.dumps(bad))


def test_repeated_edge_exits_2(tmp_path, capsys):
    ctx = AlgebraContext(2)
    x = element_to_json(ctx, e_k_element(ctx, 1))
    bad = {"n": 2, "edges": [[1, 2], [3, 4], [2, 1]]}
    x["terms"][0]["diagram"] = bad
    assert_input_error(capsys, "mul", *write_operands(tmp_path, x, x))
    assert_input_error(capsys, "decompose", json.dumps(bad))


@pytest.mark.parametrize("edges", [[[1, 2], [2, 3]], [[1, 1], [3, 4]]])
def test_edges_meeting_a_vertex_twice_exit_2(tmp_path, capsys, edges):
    # n pairs in 1..2n that are no perfect matching
    ctx = AlgebraContext(2)
    x = element_to_json(ctx, e_k_element(ctx, 1))
    bad = {"n": 2, "edges": edges}
    x["terms"][0]["diagram"] = bad
    assert_input_error(capsys, "mul", *write_operands(tmp_path, x, x))
    assert_input_error(capsys, "decompose", json.dumps(bad))


@pytest.mark.parametrize("path, key", [
    ((), "version"),
    ((), "n"),
    (("terms", 0), "diagram"),
    (("terms", 0), "coeff"),
    (("terms", 0, "coeff", "den"), "qm1"),
])
def test_missing_key_is_named(tmp_path, capsys, path, key):
    ctx = AlgebraContext(2)
    x = element_to_json(ctx, e_k_element(ctx, 1))
    bad = json.loads(json.dumps(x))
    parent = bad
    for step in path:
        parent = parent[step]
    del parent[key]
    code, _, err = run(capsys, "mul", *write_operands(tmp_path, x, bad))
    error = json.loads(err)
    assert code == 2 and error["error"] in ("ValueError", "InputError")
    assert f'"{key}"' in error["detail"] or f"'{key}'" in error["detail"]


@pytest.mark.parametrize("coeff", [" +7 ", "1_000", "+7", "007", "-0"])
def test_non_canonical_coefficient_exits_2(tmp_path, capsys, coeff):
    ctx = AlgebraContext(2)
    x = element_to_json(ctx, e_k_element(ctx, 1))
    x["terms"][0]["coeff"]["num"] = [[coeff, 0, 0]]
    assert_input_error(capsys, "mul", *write_operands(tmp_path, x, x))


def test_integral_element_carrying_r_exits_2(tmp_path, capsys):
    ctx = AlgebraContext(2, 2)
    x = element_to_json(ctx, e_k_element(ctx, 1))
    assert run(capsys, "mul", *write_operands(tmp_path, x, x))[0] == 0
    bad = json.loads(json.dumps(x))
    bad["terms"][0]["coeff"] = {"num": [["1", 0, 1]],
                                "den": {"q": 0, "r": 0, "qm1": 0}}
    assert_input_error(capsys, "mul", *write_operands(tmp_path, bad, x))
    # r in the denominator; q and q - 1 there are fine
    for key in ("r", "q", "qm1"):
        den = {"q": 0, "r": 0, "qm1": 0, key: 1}
        bad["terms"][0]["coeff"] = {"num": [["1", 0, 0]], "den": den}
        want = 2 if key == "r" else 0
        assert run(capsys, "mul", *write_operands(tmp_path, bad, x))[0] == want, key
    # r / r is 1, which carries no r
    bad["terms"][0]["coeff"] = {"num": [["1", 0, 1]], "den": {"q": 0, "r": 1, "qm1": 0}}
    assert run(capsys, "mul", *write_operands(tmp_path, bad, x))[0] == 0


def test_exponent_beyond_the_bound_exits_2(tmp_path, capsys):
    # 1/(q-1)^E beside g_1, both of which land on e: the sum lifts q onto
    # (q-1)^E, which took 0.9 s at E = 1000 and 12 s at E = 4000
    ctx, B = AlgebraContext(3), scalars.MAX_EXPONENT
    y = element_to_json(ctx, e_k_element(ctx, 1))
    x = element_to_json(ctx, ctx.unit() + QBrauerElement.basis(perm_to_diagram((2, 1, 3))))

    def operands(E):
        x["terms"][0]["coeff"] = {"num": [["1", 0, 0]], "den": {"q": 0, "r": 0, "qm1": E}}
        return write_operands(tmp_path, x, y)
    assert run(capsys, "mul", *operands(B))[0] == 0
    assert_input_error(capsys, "mul", *operands(B + 1))


def test_integral_beyond_the_bound_exits_2(tmp_path, capsys):
    # AlgebraContext(2, 10**6) took 1.0 s, linear in N
    B = scalars.MAX_EXPONENT
    for N in (10 ** 6, B + 1, -B - 1):
        with pytest.raises(ValueError, match=f"needs \\|N\\| <= {B}"):
            AlgebraContext(2, N)
        assert_input_error(capsys, "table", "2", "--integral", str(N))
    assert run(capsys, "table", "2", "--integral", str(-B))[0] == 0
    # the version of a mul operand reaches the same check
    ctx = AlgebraContext(2, B)
    x = element_to_json(ctx, ctx.unit())
    assert run(capsys, "mul", *write_operands(tmp_path, x, x))[0] == 0
    x["version"] = {"N": 10 ** 6}
    assert_input_error(capsys, "mul", *write_operands(tmp_path, x, x))


# r = q^0 = 1: the integral version at N = 0, where b = (r-1)/(q-1) = 0
# and δ = 0 at q = 1

@pytest.mark.parametrize("argv", [("relations", "5"), ("oracle", "5", "--sample", "1000")])
def test_verify_passes_at_r_equal_to_one(capsys, argv):
    # the oracle's sample holds pairs that close a loop, whose products map
    # to 0 at δ = 0
    code, out, _ = run(capsys, "verify", *argv, "--integral", "0", "--format", "json")
    reports = json.loads(out)
    assert code == 0 and all(r["version"] == {"N": 0} and r["failures"] == [] for r in reports)


def test_phi_zero_forms_at_r_equal_to_one(capsys):
    # (zero forms, forms) of `phi n k --integral 0`, for every q at once:
    # the top layer's forms all vanish at n = 2 and 4
    want = {(2, 1): (1, 1), (3, 1): (1, 9), (4, 1): (1, 36), (4, 2): (9, 9), (5, 2): (17, 225)}
    got = {}
    for n, k in want:
        code, out, _ = run(capsys, "phi", str(n), str(k), "--integral", "0")
        assert code == 0
        values = [row.rsplit(",", 1)[1] for row in out.splitlines()[1:]]
        got[n, k] = (values.count("[]"), len(values))
    assert got == want


def test_mul_at_r_equal_to_one(tmp_path, capsys):
    # (e + g_1) e = b e + q e, and b = 0 drops the first term
    ctx = AlgebraContext(3, 0)
    e = e_k_element(ctx, 1)
    x = element_to_json(ctx, e + QBrauerElement.basis(perm_to_diagram((2, 1, 3))))
    code, out, _ = run(capsys, "mul", *write_operands(tmp_path, x, element_to_json(ctx, e)))
    assert code == 0 and json.loads(out) == element_to_json(ctx, e.scale(scalars.Q))


def test_sample_below_one_exits_2(capsys):
    # a sample of no pairs would pass without testing anything
    for argv in (("oracle", "3", "--sample", "0"), ("oracle", "3", "--sample", "-5"),
                 ("cell", "3", "--sample", "0")):
        assert_input_error(capsys, "verify", *argv)


def test_verify_cell_runs_at_rank_one(capsys):
    # e is no generator at n = 1, so the chain check multiplies by no e
    code, out, _ = run(capsys, "verify", "cell", "1", "--format", "json")
    assert code == 0
    assert [(r["pairs_tested"], r["failures"]) for r in json.loads(out)] == [(1, [])] * 4


def test_verify_relations_needs_rank_two(capsys):
    # there is no relation at n = 1, and a pass over none would be vacuous
    code, _, err = run(capsys, "verify", "relations", "1")
    assert code == 2
    assert "n >= 2" in json.loads(err)["detail"]


# a report of no pairs would read as a pass. One check of each suite is
# emptied and reports as `gone`, the name of a check that no longer exists,
# so only the filter keeps it out of the output
@pytest.mark.parametrize("argv, gone", [(("cell", "3"), "ek_consistency"),
                                        (("relations", "2"), "plus_chain_absorption")])
def test_verify_leaves_out_reports_that_tested_nothing(capsys, monkeypatch, argv, gone):
    from qbrauer import cli, suites

    def empty(ctx, **kwargs):
        return suites.report(gone, ctx, {}, 0, [])

    monkeypatch.setattr(cli, "cell_chain_check", empty)
    monkeypatch.setattr(suites, "product_check", empty)
    code, out, _ = run(capsys, "verify", *argv, "--format", "json")
    assert code == 0
    reports = json.loads(out)
    assert reports and all(r["pairs_tested"] > 0 for r in reports)
    assert gone not in [r["check"] for r in reports]


def _patch_oracle_products(monkeypatch, change):
    """Make the oracle suite see each product with its terms passed
    through ``change(ctx, x, y, terms)``."""
    from qbrauer import suites

    def changed(ctx, x, y):
        terms = dict(product(ctx, x, y).terms)
        change(ctx, x, y, terms)
        return algebra.QBrauerElement._adopt(ctx.n, terms)

    monkeypatch.setattr(suites, "product", changed)


def test_verify_oracle_reports_a_pole(capsys, monkeypatch):
    # each coefficient divided by q - 1: the concatenation's, whose image is
    # δ^loops, then has a pole at q = 1, a failure of its pair, not an error
    def divide(ctx, x, y, terms):
        for d, c in terms.items():
            terms[d] = c * scalars.QM1.inv()

    _patch_oracle_products(monkeypatch, divide)
    code, out, err = run(capsys, "verify", "oracle", "3", "--sample", "5", "--format", "json")
    assert code == 1 and "Traceback" not in err
    (rep,) = json.loads(out)
    assert rep["pairs_tested"] == 5 and len(rep["failures"]) == 5
    assert all(set(f) == {"d1", "d2", "pole"} for f in rep["failures"])
    code, out, err = run(capsys, "verify", "oracle", "3", "--sample", "5")
    assert code == 1 and out == "oracle n=3 version={'generic': True} pairs=5: FAIL (5)\n"
    assert "Traceback" not in err


def test_verify_oracle_is_exact_in_delta(capsys, monkeypatch):
    # (δ-1)(δ-2)(δ-3) on the concatenation's coefficient vanishes at the
    # three sample values δ = 1, 2, 3 but is not 0 in Z[δ]
    def add_cubic(ctx, x, y, terms):
        (d1,), (d2,) = x.terms, y.terms
        dd, _ = concat(d1, d2)
        b, one = ctx.b(), scalars.ONE
        cubic = (b - one) * (b - one - one) * (b - one - one - one)
        terms[dd] = terms.get(dd, scalars.ZERO) + cubic

    _patch_oracle_products(monkeypatch, add_cubic)
    code, out, err = run(capsys, "verify", "oracle", "3", "--format", "json")
    (rep,) = json.loads(out)
    assert code == 1 and err == ""
    assert rep["pairs_tested"] == 225 and len(rep["failures"]) == 225
    assert all(set(f) == {"d1", "d2"} for f in rep["failures"])


def test_verify_with_no_report_left_exits_2(capsys, monkeypatch):
    from qbrauer import suites

    def empty(ctx, **kwargs):
        return suites.report("oracle", ctx, {}, 0, [])

    monkeypatch.setattr(suites, "oracle_suite", empty)
    code, out, err = run(capsys, "verify", "oracle", "3")
    assert code == 2 and out == ""
    assert "nothing to test" in json.loads(err)["detail"]


# one pair exists at n = 1, however many are asked for; `verify cell 3`
# draws 5 of the 36 and 5 of the 81 pairs of its layers, and at n = 2 the
# 4 + 1 pairs are fewer than asked for. The other cell checks count diagrams
@pytest.mark.parametrize("argv, want", [(("oracle", "1", "--sample", "50"), [1]),
                                        (("cell", "3", "--sample", "5"), [15, 10, 15, 15]),
                                        (("cell", "2", "--sample", "50"), [3, 5, 3, 3])])
def test_sampled_pairs_are_distinct(capsys, argv, want):
    code, out, _ = run(capsys, "verify", *argv, "--format", "json")
    assert code == 0
    assert [r["pairs_tested"] for r in json.loads(out)] == want


def test_sampled_cell_report_records_its_seed(capsys):
    code, out, _ = run(capsys, "verify", "cell", "3", "--sample", "5", "--seed", "2",
                       "--format", "json")
    assert code == 0
    params = {r["check"]: r["params"] for r in json.loads(out)}
    assert params["inflation_product"] == {"sample": 5, "seed": 2}


def test_repeated_monomial_in_a_scalar_exits_2(tmp_path, capsys):
    ctx = AlgebraContext(2)
    x = element_to_json(ctx, e_k_element(ctx, 1))
    x["terms"][0]["coeff"]["num"] = [["1", 0, 0], ["2", 0, 0]]
    assert_input_error(capsys, "mul", *write_operands(tmp_path, x, x))


def test_directory_path_exits_2(tmp_path, capsys):
    ctx = AlgebraContext(2)
    x = element_to_json(ctx, e_k_element(ctx, 1))
    path = write_operands(tmp_path, x, x)[0]
    assert_input_error(capsys, "mul", str(tmp_path), path)
    assert_input_error(capsys, "mul", path, str(tmp_path))
    assert_input_error(capsys, "decompose", str(tmp_path))
    assert_input_error(capsys, "dim", "3", "--output", str(tmp_path))
    assert_input_error(capsys, "mul", path, path, "--output", str(tmp_path))


def test_large_prime_field_and_composites(capsys):
    argv = ("qh", "3", "--q0", "2", "--r0", "3", "--field")
    code, out, _ = run(capsys, *argv, "1000000000000000003")
    assert code == 0 and out == "true\n"
    for composite in ("1000000000000000001", "561"):
        assert_input_error(capsys, *argv, composite)


WIRE_KEYS = ("n", "edges", "terms", "diagram", "coeff", "num", "den", "version",
             "N", "generic", "q", "r", "qm1")
JSON_LEAVES = (st.none() | st.booleans() | st.integers(-3, 40)
               | st.sampled_from(WIRE_KEYS + ("1", "-2", "x")))
# objects also draw rm1, a den key the reader refuses
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(WIRE_KEYS + ("rm1",)), inner, max_size=4),
    max_leaves=12,
)
_CTX2 = AlgebraContext(2)
VALID = element_to_json(_CTX2, e_k_element(_CTX2, 1).scale(_CTX2.b()) + _CTX2.unit())


def _paths(obj, prefix=()):
    yield prefix
    if isinstance(obj, (dict, list)):
        for key, v in obj.items() if isinstance(obj, dict) else enumerate(obj):
            yield from _paths(v, prefix + (key,))


@st.composite
def mutated(draw, base):
    """``base`` with the value at one path replaced by a generated one, or
    the key there deleted."""
    obj = json.loads(json.dumps(base))
    path = draw(st.sampled_from(list(_paths(obj))))
    if not path:
        return draw(JSON_VALUES)
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    if isinstance(parent, dict) and draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(JSON_LEAVES | JSON_VALUES)
    return obj


@settings(max_examples=200, deadline=None)
@given(JSON_VALUES | mutated(VALID), st.just(VALID) | mutated(VALID),
       JSON_VALUES | mutated(VALID["terms"][0]["diagram"]))
def test_json_readers_never_raise(x, y, diagram):
    """Any JSON value reaching `mul` or `decompose` gives exit 0 or 2."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name, obj in (("x.json", x), ("y.json", y), ("d.json", diagram)):
            paths.append(os.path.join(tmp, name))
            with open(paths[-1], "w") as fh:
                json.dump(obj, fh)
        assert main(["mul", paths[0], paths[1]]) in (0, 2)
        text = json.dumps(diagram)
        assert main(["decompose", text if text.startswith(("{", "[")) else paths[2]]) in (0, 2)


def test_argument_errors_exit_2(capsys):
    # stderr holds one JSON object, so no usage text either
    for argv in (("dim", "3", "--bogus"), ("straighten", "3", "1"), ("dim", "x"),
                 ("verify", "nosuch", "3"), ("verify", "lemmas", "4"),
                 ("verify", "relations", "3", "--sample", "5"),
                 ("verify", "involution", "3"), ("table", "2", "--seed", "1")):
        assert_input_error(capsys, *argv)
    with pytest.raises(SystemExit) as exc:
        main(["dim", "-h"])
    assert exc.value.code == 0
    assert "usage: qbrauer dim" in capsys.readouterr().out


# the positionals of each command, then the options it reads
COMMANDS = {
    "dim": (("n",), ()),
    "mul": (("x", "y"), ()),
    "table": (("n",), ("--integral",)),
    "straighten": (("n", "k"), ("--format", "--sigma")),
    "decompose": (("diagram",), ("--format",)),
    "phi": (("n", "k"), ("--integral",)),
    "verify": (("suite", "n"), ("--integral", "--format", "--seed", "--sample")),
    "qh": (("n",), ("--format", "--field", "--q0", "--r0")),
    "simples": (("n",), ("--format", "--field", "--q0")),
}
REQUIRED = ("--sigma", "--q0", "--r0")
FIELD_VALUES = st.integers(-3, 7).map(str) | st.sampled_from(("1/2", "-3/2", "1/0", "x"))
ARG_VALUES = {
    "n": st.integers(-2, 3).map(str),
    "k": st.integers(-1, 3).map(str),
    "suite": st.sampled_from(("relations", "oracle", "cell", "x")),
    "diagram": st.sampled_from(('{"n": 2, "edges": [[1, 2], [3, 4]]}',
                                '{"n": 1, "edges": [[1, 2]]}', "{", "[]")),
    "--integral": st.integers(-3, 3).map(str),
    "--format": st.sampled_from(("json", "text", "csv")),
    "--seed": st.integers(-1, 3).map(str),
    "--sample": st.integers(0, 20).map(str),
    "--sigma": st.sampled_from(("s1", "s1,2", "[2,1,3]", "1", "s9", '["a",2,3]')),
    "--field": st.sampled_from(("rationals", "2", "7", "6", "x")),
    "--q0": FIELD_VALUES,
    "--r0": FIELD_VALUES,
}
OPTIONS = sorted({o for _, opts in COMMANDS.values() for o in opts})
# a junk token ends argv, so "--output" there never gets a path
JUNK = ("--bogus", "x", "-1", "--", "--integral", "--output")


@pytest.fixture(scope="module")
def operand_paths(tmp_path_factory):
    """Element files of ranks 1..3, a missing path and a directory."""
    tmp = tmp_path_factory.mktemp("operands")
    paths = [str(tmp / "missing.json"), str(tmp)]
    for n in (1, 2, 3):
        ctx = AlgebraContext(n)
        paths.append(str(tmp / f"e{n}.json"))
        with open(paths[-1], "w") as fh:
            json.dump(element_to_json(ctx, e_k_element(ctx, n // 2) + ctx.unit()), fh)
    return paths


@st.composite
def command_argv(draw, operands):
    """argv for one command: its positionals, its own options (each required
    one dropped now and then), options other commands read, and junk."""
    name = draw(st.sampled_from(sorted(COMMANDS)))
    positionals, own = COMMANDS[name]
    argv = [name]
    for arg in positionals:
        argv.append(draw(st.sampled_from(operands) if arg in ("x", "y") else ARG_VALUES[arg]))
    chosen = [o for o in own if o in REQUIRED and draw(st.integers(0, 9))]
    if own:
        chosen += draw(st.lists(st.sampled_from(own), max_size=2, unique=True))
    rarely = st.integers(0, 3).map(lambda i: i == 0)
    if draw(rarely):
        chosen.append(draw(st.sampled_from(OPTIONS)))
    for option in dict.fromkeys(chosen):
        argv += [option, draw(ARG_VALUES[option])]
    if draw(rarely):
        argv.append(draw(st.sampled_from(JUNK)))
    return argv


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_every_command_exits_0_1_or_2(operand_paths, data):
    """Exit 1 only from `verify`; exit 2 with a JSON error; never a traceback."""
    argv = data.draw(command_argv(operand_paths))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    assert code != 1 or argv[0] == "verify", argv
    assert "Traceback" not in err.getvalue(), argv
    if code == 2:
        assert json.loads(err.getvalue())["error"], argv

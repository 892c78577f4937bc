"""Tests of the benchmark itself.

    python3 -m pytest qbench/test_qbench.py

They take about two minutes: the digest test computes the whole n = 4
table, and the determinism test makes two traced runs of every workload.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import textwrap

import pytest

import calib
import digests
import rep
import run

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def run_bench(root: str, workload: str, trace: int, seed: int = 1):
    cmd = [sys.executable, "qbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=300)


def copy_tree(dest, with_sources: bool = True) -> str:
    """The files a checkout holds: BENCHMARK.json, qbench and the sources."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)
    shutil.copytree(HERE, os.path.join(dest, "qbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    if with_sources:
        shutil.copytree(os.path.join(ROOT, "src"), os.path.join(dest, "src"),
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return str(dest)


def run_in_child(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that can import rep."""
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code)], cwd=HERE,
                          capture_output=True, text=True, timeout=300)


def test_table_digests_are_checked_by_the_classical_oracle():
    got, bad = digests.checked_digests()
    assert bad == [], "products disagree with the classical q -> 1 oracle"
    assert got == rep.load_digests()


def test_committed_n6_lengths_match_the_program():
    qb = rep.Qb()
    ds = qb.diagrams.enumerate_diagrams(6)
    length = rep.load_lengths(ds)
    assert all(length[d.partner] == qb.diagrams.diagram_length(d) for d in ds)


def test_oracle_pairs_keep_each_layer_pair_share():
    qb = rep.Qb()
    runs = [rep.setup_oracle(qb, rep.input_rng(seed, 0))["pairs"] for seed in (1, 2)]

    def cells(pairs):
        return sorted((a.layer(), b.layer()) for a, b in pairs)

    assert len(runs[0]) == len(runs[1]) == rep.ORACLE_PAIRS
    assert cells(runs[0]) == cells(runs[1])
    assert runs[0] != runs[1]
    assert runs[0] == rep.setup_oracle(qb, rep.input_rng(1, 0))["pairs"]


def test_an_op_is_scaled_by_the_kernel_samples_around_it():
    cal = calib.Calibrator(tick=False)
    cal.samples = [0.001 * (i + 1) for i in range(10)]
    # an op that began and ended with five samples taken: samples 2, 3, 4
    # before it and 5, 6, 7 after it
    assert cal.scale(5, 5) == pytest.approx(calib.KERNEL_REF_S / 0.0055)
    # the window is cut at both ends of the list; samples 7 and 8 were
    # taken inside the op
    assert cal.scale(0, 0) == pytest.approx(calib.KERNEL_REF_S / 0.002)
    assert cal.scale(7, 9) == pytest.approx(calib.KERNEL_REF_S / 0.0075)


CORRUPT_ONE_PRODUCT = """
    import json, time
    import rep
    qb = rep.Qb()
    original = qb.algebra.product
    calls = []
    pole = qb.scalars.qm1_scalar().inv()

    def corrupted(ctx, x, y):
        P = original(ctx, x, y)
        calls.append(1)
        if len(calls) == 7:
            # the term of the classical concatenation, whose limit is nonzero
            d, _ = qb.concat(next(iter(x.terms)), next(iter(y.terms)))
            P.terms[d] = {corruption}
        return P

    qb.algebra.product = corrupted
    launched = time.clock_gettime(time.CLOCK_MONOTONIC)
    print(json.dumps(rep.run_once("{workload}", 1, False, launched)))
"""

# a shifted coefficient has a wrong limit at q = 1; one divided by q - 1
# has no limit there, so the oracle check itself raises
SHIFT = "P.terms[d] + qb.scalars.ONE"
POLE = "P.terms[d] * pole"


@pytest.mark.parametrize("workload,corruption,failed", [
    ("table-n4", SHIFT, 105), ("oracle-n6", SHIFT, 1), ("oracle-n6", POLE, 1)])
def test_a_corrupted_coefficient_is_counted_as_failed(workload, corruption, failed):
    code = CORRUPT_ONE_PRODUCT.replace("{workload}", workload)
    proc = run_in_child(code.replace("{corruption}", corruption))
    assert proc.returncode == 0, proc.stderr
    out = last_json(proc.stdout)
    # table-n4 verifies a left factor's whole row of 105 ops at once
    assert out["failed"] == failed
    if corruption == POLE:
        assert "PoleAtSpecialization" in proc.stderr


def test_a_corrupted_digest_fails_the_run(tmp_path):
    root = copy_tree(tmp_path)
    path = os.path.join(root, "qbench", "table_n4.digests")
    with open(path) as f:
        lines = f.readlines()
    i, h = lines[1].split()
    lines[1] = f"{i} {'0' if h[0] != '0' else '1'}{h[1:]}\n"
    with open(path, "w") as f:
        f.writelines(lines)
    proc = run_bench(root, "table-n4", 0)
    assert proc.returncode == 1
    out = last_json(proc.stdout)
    assert out["correct"] is False
    assert out["failed"] == 105 * out["attempted"] // 11025
    assert f"failed_frac={out['failed'] / out['attempted']}" in proc.stdout


def test_a_warm_run_is_refused():
    proc = run_in_child("""
        import time
        import rep
        qb = rep.Qb()
        qb.algebra._expr(qb.diagrams.identity_diagram(4))
        rep.run_once("table-n4", 1, False, time.clock_gettime(time.CLOCK_MONOTONIC))
    """)
    assert proc.returncode != 0
    assert "not cold" in proc.stderr


def test_without_sources_the_benchmark_fails_without_a_result(tmp_path):
    root = copy_tree(tmp_path, with_sources=False)
    proc = run_bench(root, "table-n4", 0)
    assert proc.returncode not in (0, None)
    assert '"metrics"' not in proc.stdout


@pytest.mark.parametrize("workload", ["table-n4", "oracle-n6", "cell-n5"])
def test_traced_counts_repeat_exactly(workload):
    runs = []
    for _ in range(2):
        proc = run_bench(ROOT, workload, 1, seed=3)
        assert proc.returncode == 0, proc.stderr
        runs.append(last_json(proc.stdout)["metrics"])
    counts = [name for name in runs[0] if run.is_count(name)]
    assert len(counts) == 20
    assert {n: runs[0][n] for n in counts} == {n: runs[1][n] for n in counts}

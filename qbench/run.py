"""The qbrauer benchmark: one command for every workload and metric.

    python3 qbench/run.py --workload table-n4 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Each repetition of the workload runs in a
fresh interpreter (``rep.py``), one after another, until ``--seconds`` are
used.  Every repetition is a closed loop of checked ops on cold memo tables.
The seed gives ``INPUT_SETS`` input sets, and untraced repetitions cycle
through them, each set at least once; the repetitions of one set run the
same ops in the same order.

``--trace 0`` reports the end-to-end metrics. Every time is scaled by a
reference kernel that each repetition times between and inside its ops
(``calib.py``), which takes out the host's changes of speed. Each op counts
with its median scaled time among the repetitions of its set; ``wall_s`` and
``ops_per_s`` are means over the sets, and the op latencies percentiles over
the ops of all sets. ``setup_s`` and ``peak_rss_mb`` are medians over all
repetitions. ``--trace 1`` alternates untraced and traced repetitions on
input set 0 and reports the per-layer metrics of the traced ones: counts
from the first, which every later traced repetition must repeat exactly, and
times as medians. The difference of the traced and untraced ``wall_s``
medians is the tracing overhead.

Human-readable lines come first; the last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}.  Each run also writes
``qbench/out/<workload>-seed<seed>-trace<0|1>.json`` with every repetition,
the git SHA when there is one, a digest of the sources, the Python version,
the core count and, for traced runs, the tracing overhead.  The exit code is
0 when every op passed its check, 1 when any failed, and 2 when the
benchmark could not run: no sources, or a repetition without a result.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC_PKG = os.path.join(ROOT, "src", "qbrauer")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("table-n4", "oracle-n6", "cell-n5")

# counts that two traced repetitions with one seed must repeat exactly
COUNT_SUFFIXES = ("_calls", "_fills", "_hit_ratio", "max_terms", "memo_entries",
                  "out_terms_mean")
REP_TIMEOUT_S = 150
# input sets that a run draws from its seed: untraced repetitions cycle
# through them, so that a run measures every set, and the same sets for a
# faster program as for a slower one
INPUT_SETS = 5


class RepFailed(Exception):
    """A repetition exited without a result."""


def metric_units(kind: str) -> dict:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def is_count(name: str) -> bool:
    return name.endswith(COUNT_SUFFIXES)


def run_rep(workload: str, seed: int, inputs: int, trace: bool) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "rep.py"), "--workload", workload,
           "--seed", str(seed), "--inputs", str(inputs), "--trace", str(int(trace))]
    if trace:
        cmd += ["--spans", os.path.join(OUT, f"{workload}.spans")]
    # fixed string hashing, so that traced counts repeat exactly
    env = dict(os.environ, PYTHONHASHSEED="0")
    launched = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(cmd + ["--launched", repr(launched)], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise RepFailed(f"repetition timed out after {REP_TIMEOUT_S} s: {' '.join(cmd)}") from e
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RepFailed(f"repetition exited with code {proc.returncode}: {' '.join(cmd)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_reps(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Repetitions until the next one would end after ``seconds``.  Untraced
    repetitions cycle through the input sets, each set at least once; with
    tracing, untraced and traced repetitions alternate on input set 0, one
    pair at least."""
    least = 2 if trace else INPUT_SETS
    reps: list[dict] = []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        if trace:
            reps += [run_rep(workload, seed, 0, False), run_rep(workload, seed, 0, True)]
        else:
            reps.append(run_rep(workload, seed, len(reps) % INPUT_SETS, False))
        elapsed = time.monotonic() - start
        if len(reps) >= least and elapsed + (time.monotonic() - t0) > seconds:
            return reps


def percentile(sorted_values: list, p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    k = max(1, -(-len(sorted_values) * p // 100))
    return sorted_values[int(k) - 1]


def op_metrics(plain: list[dict]) -> dict:
    """The op-time metrics of untraced repetitions.  The repetitions of one
    input set ran the same ops in the same order, and each op counts with
    its median time among them; ``wall_s`` and the verified ops are means
    over the input sets, the percentiles are over the ops of all sets."""
    by_set: dict = {}
    for r in plain:
        by_set.setdefault(r["inputs"], []).append(r)
    ops, walls, verified = [], [], []
    for reps in by_set.values():
        op = [statistics.median(t) for t in zip(*(r["op_s"] for r in reps))]
        ops += op
        walls.append(math.fsum(op))
        verified.append(statistics.median(r["attempted"] - r["failed"] for r in reps))
    ops.sort()
    wall = statistics.fmean(walls)
    return {"wall_s": wall, "ops_per_s": statistics.fmean(verified) / wall,
            "op_ms_p50": 1e3 * percentile(ops, 50),
            "op_ms_p95": 1e3 * percentile(ops, 95)}


def summarize(reps: list[dict], trace: bool) -> tuple[dict, dict]:
    """The run's metrics and the extra figures for the result file."""
    plain = [r for r in reps if not r["trace"]]
    # the tracing overhead is measured by traced runs only
    extra: dict = {"repetitions": len(plain), "tracing_overhead_s": None}
    if not trace:
        values = {**op_metrics(plain),
                  "setup_s": statistics.median(r["setup_s"] for r in plain),
                  "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain)}
        return {name: {"value": values[name], "unit": unit}
                for name, unit in metric_units("end_to_end").items()}, extra
    traced = [r for r in reps if r["trace"]]
    units = metric_units("per_layer")
    first = traced[0]["layers"]
    metrics = {}
    for name, unit in units.items():
        if is_count(name):
            value = first[name]
            if any(r["layers"][name] != value for r in traced[1:]):
                extra.setdefault("count_mismatch", []).append(name)
        else:
            value = statistics.median(r["layers"][name] for r in traced)
        metrics[name] = {"value": value, "unit": unit}
    extra["traced_repetitions"] = len(traced)
    extra["tracing_overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                   - statistics.median(r["wall_s"] for r in plain))
    extra["bases"] = traced[0]["bases"]
    return metrics, extra


def source_info() -> dict:
    h = hashlib.sha256()
    for name in sorted(os.listdir(SRC_PKG)):
        if name.endswith(".py"):
            with open(os.path.join(SRC_PKG, name), "rb") as f:
                h.update(name.encode() + b"\0" + f.read())
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() or None
    return {"git_sha": sha, "source_sha256": h.hexdigest(),
            "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "platform": platform.platform()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="qbrauer benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC_PKG, "__init__.py")):
        print(f"no qbrauer sources at {SRC_PKG}; run from a checkout", file=sys.stderr)
        return 2
    # write the bytecode once, so that no repetition pays for compiling it
    compileall.compile_dir(SRC_PKG, quiet=1)
    os.makedirs(OUT, exist_ok=True)

    try:
        reps = run_reps(args.workload, args.seed, args.seconds, bool(args.trace))
    except RepFailed as e:
        print(e, file=sys.stderr)
        return 2
    metrics, extra = summarize(reps, bool(args.trace))
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    correct = failed == 0 and "count_mismatch" not in extra

    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, **source_info(), "correct": correct,
              "attempted": attempted, "failed": failed,
              "failed_frac": failed / attempted, "metrics": metrics, **extra,
              "reps": [{k: v for k, v in r.items() if k != "op_s"} for r in reps]}
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(result, f, indent=1)

    print(f"# {args.workload} seed={args.seed} repetitions={extra['repetitions']} "
          f"failed_frac={failed / attempted} result={os.path.relpath(path, ROOT)}")
    if args.trace:
        print(f"# tracing_overhead_s={extra['tracing_overhead_s']:.4f}")
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    if "count_mismatch" in extra:
        print(f"# counts differ between traced repetitions: {extra['count_mismatch']}",
              file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

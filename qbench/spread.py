"""Run-to-run spread of the end-to-end metrics on identical code.

    python3 qbench/spread.py --workload oracle-n6 --seeds $(seq 1 10)
    python3 qbench/spread.py --workload oracle-n6 --seeds 7 7 7 7 7 7 7 7 7 7

Runs the benchmark for ``run_seconds`` of BENCHMARK.json once per seed
listed, one run after another, and prints for
each end-to-end metric its median, quartiles and the distance between the
quartiles as a share of the median (``statistics.quantiles(values, n=4)``),
next to the metric's bound and a third of it.  The last line is the summary
as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in args.seeds:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode != 0 or not last["correct"]:
            print(f"seed {seed}: exit {proc.returncode}, failed {last['failed']}", file=sys.stderr)
            return 1
        for name in values:
            values[name].append(last["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v[-1]:.6g}" for k, v in values.items()),
              flush=True)
    summary = {}
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / statistics.median(v)
        summary[m["name"]] = {"median": statistics.median(v), "q1": q1, "q3": q3,
                              "spread": spread, "bound": m["bound"], "runs": len(v)}
        flag = "" if m["name"] == "setup_s" or spread < m["bound"] / 3 else "  <-- above bound/3"
        print(f"{m['name']:12s} median={statistics.median(v):.6g} spread={spread:.4f} "
              f"bound={m['bound']} bound/3={m['bound'] / 3:.4f}{flag}")
    print(json.dumps({"workload": args.workload, "seconds": seconds, "metrics": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

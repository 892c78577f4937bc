"""One repetition of a qbrauer benchmark workload, in a fresh interpreter.

    python3 qbench/rep.py --workload W --seed S --inputs I --trace 0|1 --launched T [--spans FILE]

``run.py`` starts this script once per repetition, because the decomposition
memo ``qbrauer.algebra._EXPR_CACHE`` is module-global: a second repetition in
the same interpreter would run warm.  ``--launched`` is the
``CLOCK_MONOTONIC`` reading taken just before the interpreter was started;
that clock is system-wide on Linux, so ``setup_s`` covers interpreter start,
the import, diagram enumeration, the context and input generation.

The inputs are input set I of seed S, drawn from ``input_rng(S, I)``, so
every repetition with the same S and I measures the same inputs.  The ops
run as a closed loop, one at a time, each checked.  A reference kernel
(``calib.py``) is timed between the ops, and inside long ones, and every
time is scaled by it; the timed figures cover the ops only, not the
benchmark's checks or the kernel.  The script prints one JSON object with
the repetition's figures, each op's scaled time in order among them
(``op_s``), and exits 0, or exits nonzero when it could not run (for
instance when the run was not cold).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import resource
import sys
import time
import traceback
from fractions import Fraction

from calib import KERNEL_REF_S, Calibrator

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DIGESTS = os.path.join(HERE, "table_n4.digests")
LENGTHS = os.path.join(HERE, "n6.lengths")

WORKLOADS = ("table-n4", "oracle-n6", "cell-n5")
ORACLE_NS = (1, 2, 3)
ORACLE_PAIRS = 300
CELL_SAMPLE = 400
# seconds between the kernel samples taken inside a long op; their time is
# taken off the op's
TICK_S = 0.025


class Qb:
    """The qbrauer modules, imported from this checkout's ``src``."""

    def __init__(self):
        if not os.path.isfile(os.path.join(SRC, "qbrauer", "__init__.py")):
            raise SystemExit(f"no qbrauer sources under {SRC}")
        sys.path.insert(0, SRC)
        from qbrauer import algebra, cellular, diagrams, hecke, scalars

        if not os.path.abspath(algebra.__file__).startswith(SRC + os.sep):
            raise SystemExit(f"qbrauer was imported from {algebra.__file__}, not {SRC}")
        self.algebra, self.cellular, self.diagrams = algebra, cellular, diagrams
        self.hecke, self.scalars = hecke, scalars
        # taken before any tracing wrapper is installed, so that the
        # benchmark's own checks are never counted as the program's work
        self.concat, self.brauer_limit = diagrams.concat, scalars.brauer_limit

    def modules(self) -> dict:
        return {k: getattr(self, k) for k in ("algebra", "cellular", "diagrams", "hecke", "scalars")}


def assert_cold(qb: Qb, ctx) -> None:
    """Refuse to measure when any memo table already holds entries."""
    tables = {"_EXPR_CACHE": qb.algebra._EXPR_CACHE, "_lmul_g": ctx._lmul_g,
              "_rmul_g": ctx._rmul_g, "_core": ctx._core, "_rmul_atom": ctx._rmul_atom}
    warm = {k: len(v) for k, v in tables.items() if v}
    if warm:
        raise SystemExit(f"the run is not cold: memo tables already filled {warm}")


def memo_entries(qb: Qb, ctx) -> int:
    return (len(qb.algebra._EXPR_CACHE) + len(ctx._lmul_g) + len(ctx._rmul_g)
            + len(ctx._core) + len(ctx._rmul_atom))


def _report_exception() -> None:
    traceback.print_exc(limit=4, file=sys.stderr)


# ---------------------------------------------------------------------------
# checks shared with the tests and with digests.py
# ---------------------------------------------------------------------------

def table_rows(ids: dict, d1, d2, P) -> str:
    """The rows ``qbrauer table`` writes for the pair (d1, d2): ids in
    enumeration order, output diagrams sorted by partner, coefficient as str."""
    return "".join(
        f"{ids[d1]},{ids[d2]},{ids[d]},{P.terms[d]}\n"
        for d in sorted(P.terms, key=lambda d: d.partner)
    )


def row_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_digests() -> list[str]:
    with open(DIGESTS) as f:
        return [line.split()[1] for line in f if line.strip() and not line.startswith("#")]


def oracle_agrees(qb: Qb, d1, d2, P, Ns=ORACLE_NS) -> bool:
    """At r = q^N, q -> 1 the product must be N^loops times the classical
    concatenation of d1 and d2, and zero on every other diagram."""
    dd, loops = qb.concat(d1, d2)
    if dd not in P.terms:
        return False
    limit = qb.brauer_limit
    for N in Ns:
        for d, c in P.terms.items():
            want = Fraction(N) ** loops if d == dd else 0
            if limit(c, N) != want:
                return False
    return True


# ---------------------------------------------------------------------------
# workloads: setup (untimed ops) and the op loop
# ---------------------------------------------------------------------------

def table_inputs(qb: Qb) -> dict:
    # every ordered pair in enumeration order, as ``qbrauer table 4``
    ds = qb.diagrams.enumerate_diagrams(4)
    return {"ctx": qb.algebra.AlgebraContext(4), "ds": ds,
            "ids": {d: i for i, d in enumerate(ds)}}


def setup_table(qb: Qb, rng: random.Random) -> dict:
    # the seed does not change this input
    return {**table_inputs(qb), "digests": load_digests()}


def run_table(qb: Qb, st: dict, cal: Calibrator) -> tuple:
    product, basis = qb.algebra.product, qb.algebra.QBrauerElement.basis
    ctx, ds, ids, digests = st["ctx"], st["ds"], st["ids"], st["digests"]
    if len(digests) != len(ds):
        raise SystemExit(f"{DIGESTS} has {len(digests)} rows, want {len(ds)}")
    clock = time.perf_counter
    lat, spans, failed = [], [], 0
    cal.sample()
    for i, d1 in enumerate(ds):
        parts, raised, at = [], 0, len(cal.samples)
        for d2 in ds:
            t0 = clock()
            try:
                P = product(ctx, basis(d1), basis(d2))
                parts.append(table_rows(ids, d1, d2, P))
            except Exception:
                _report_exception()
                raised += 1
            lat.append(clock() - t0)
        # a table row is verified as one unit: all its ops fail together
        if raised or row_digest("".join(parts)) != digests[i]:
            failed += len(ds)
        spans.extend([(at, at)] * len(ds))
        cal.sample()
    return len(ds) ** 2, failed, lat, spans


def load_lengths(ds: list) -> dict:
    """Partner tuple -> length of each diagram in ``ds``, from ``LENGTHS``:
    one base-36 digit per diagram, in the order of the sorted partner tuples."""
    with open(LENGTHS) as f:
        digits = [line.strip() for line in f if not line.startswith("#")][0]
    partners = sorted(d.partner for d in ds)
    if len(digits) != len(partners):
        raise SystemExit(f"{LENGTHS} has {len(digits)} lengths, want {len(partners)}")
    return {p: int(c, 36) for p, c in zip(partners, digits)}


def stratified_pairs(ds: list, count: int, rng: random.Random, length: dict) -> list:
    """``count`` random ordered pairs of ``ds``, stratified by the layers and
    lengths of the two factors, which set most of an op's cost.  Each pair
    of layers gets its share of all ordered pairs, rounded by largest
    remainder.  For its ``m`` pairs, the diagrams of each of the two layers,
    ordered by length, are cut into ``m`` equal slices, each slice gives one
    random diagram, and the two lists are paired at random."""
    by_layer: dict = {}
    for d in sorted(ds, key=lambda d: (length[d.partner], d.partner)):
        by_layer.setdefault(d.layer(), []).append(d)
    cells = [(a, b) for a in sorted(by_layer) for b in sorted(by_layer)]
    share = {(a, b): count * len(by_layer[a]) * len(by_layer[b]) / len(ds) ** 2
             for a, b in cells}
    take = {c: int(share[c]) for c in cells}
    for c in sorted(cells, key=lambda c: take[c] - share[c])[:count - sum(take.values())]:
        take[c] += 1

    def draw(layer: int, m: int) -> list:
        order = by_layer[layer]
        return [order[int((i + rng.random()) * len(order) / m)] for i in range(m)]

    pairs = []
    for a, b in cells:
        left, right = draw(a, take[(a, b)]), draw(b, take[(a, b)])
        rng.shuffle(right)
        pairs += zip(left, right)
    rng.shuffle(pairs)
    return pairs


def setup_oracle(qb: Qb, rng: random.Random) -> dict:
    ds = qb.diagrams.enumerate_diagrams(6)
    pairs = stratified_pairs(ds, ORACLE_PAIRS, rng, load_lengths(ds))
    return {"ctx": qb.algebra.AlgebraContext(6), "pairs": pairs}


def run_oracle(qb: Qb, st: dict, cal: Calibrator) -> tuple:
    product, basis = qb.algebra.product, qb.algebra.QBrauerElement.basis
    ctx = st["ctx"]
    clock = time.perf_counter
    lat, spans, failed = [], [], 0
    cal.sample()
    for d1, d2 in st["pairs"]:
        at, ticked = len(cal.samples), cal.ticked
        t0 = clock()
        try:
            try:
                with cal.ticking(TICK_S):
                    P = product(ctx, basis(d1), basis(d2))
            finally:
                lat.append(clock() - t0 - (cal.ticked - ticked))
                spans.append((at, len(cal.samples)))
            ok = oracle_agrees(qb, d1, d2, P)
        except Exception:
            # a product that raises, or whose check raises (a pole at q = 1)
            _report_exception()
            ok = False
        failed += not ok
        cal.sample()
    return len(st["pairs"]), failed, lat, spans


def setup_cell(qb: Qb, rng: random.Random) -> dict:
    layer_sizes: dict = {}
    ds = qb.diagrams.enumerate_diagrams(5)
    for d in ds:
        layer_sizes[d.layer()] = layer_sizes.get(d.layer(), 0) + 1
    checks = [
        ("inflation_bijection_check", {}, len(ds)),
        ("inflation_product_check", {"sample": CELL_SAMPLE, "seed": rng.randrange(2 ** 32)},
         sum(min(CELL_SAMPLE, m * m) for m in layer_sizes.values())),
        ("cell_chain_check", {}, len(ds)),
    ]
    return {"ctx": qb.algebra.AlgebraContext(5), "checks": checks}


def run_cell(qb: Qb, st: dict, cal: Calibrator) -> tuple:
    ctx, clock = st["ctx"], time.perf_counter
    attempted, failed, lat, spans = 0, 0, [], []
    cal.sample()
    for name, kwargs, items in st["checks"]:
        fn = getattr(qb.cellular, name)
        attempted += items
        at, ticked = len(cal.samples), cal.ticked
        t0 = clock()
        try:
            # a call takes a second or more
            with cal.ticking(TICK_S):
                report = fn(ctx, **kwargs)
            bad = items if report["pairs_tested"] != items else min(items, len(report["failures"]))
        except Exception:
            _report_exception()
            bad = items
        took = clock() - t0 - (cal.ticked - ticked)
        # the items run inside one call: each is charged the call's mean
        lat.extend([took / items] * items)
        spans.extend([(at, len(cal.samples))] * items)
        failed += bad
        cal.sample()
    return attempted, failed, lat, spans


WORKLOAD_FUNCS = {
    "table-n4": (setup_table, run_table),
    "oracle-n6": (setup_oracle, run_oracle),
    "cell-n5": (setup_cell, run_cell),
}


def input_rng(seed: int, inputs: int) -> random.Random:
    """The generator of input set ``inputs`` of seed ``seed``."""
    return random.Random(f"{seed}.{inputs}")


def run_once(workload: str, seed: int, trace: bool, launched: float,
             spans_path=None, inputs: int = 0) -> dict:
    qb = Qb()
    setup, run = WORKLOAD_FUNCS[workload]
    st = setup(qb, input_rng(seed, inputs))
    assert_cold(qb, st["ctx"])
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(qb.modules())
    t_first = time.clock_gettime(time.CLOCK_MONOTONIC)
    cal = Calibrator(tick=not trace)
    attempted, failed, raw, spans = run(qb, st, cal)
    scales = {s: cal.scale(*s) for s in set(spans)}
    lat = [t * scales[s] for t, s in zip(raw, spans)]
    out = {
        "workload": workload, "seed": seed, "inputs": inputs, "trace": int(trace),
        "attempted": attempted, "failed": failed,
        # the time spent in the ops, scaled to the reference kernel time:
        # the checks and kernel samples between them are not timed
        "wall_s": math.fsum(lat),
        "op_s": lat,
        # the samples around the first ops are the nearest to the set-up
        "setup_s": (t_first - launched) * cal.scale(0, 0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        # the same figures unscaled, and the kernel's median time
        "wall_raw_s": math.fsum(raw),
        "setup_raw_s": t_first - launched,
        "kernel_s": KERNEL_REF_S / cal.overall(),
    }
    if tracer is not None:
        out["layers"] = tracer.layer_metrics(memo_entries(qb, st["ctx"]), cal.overall())
        out["bases"] = tracer.bases()
        if spans_path:
            tracer.write(spans_path)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--inputs", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--launched", type=float, required=True)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)
    out = run_once(args.workload, args.seed, bool(args.trace), args.launched, args.spans,
                   args.inputs)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

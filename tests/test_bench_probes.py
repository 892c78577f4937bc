"""The names the benchmark's tracer wraps, and the memo tables its cold-run
check reads, exist on the package.  A renamed helper would otherwise break
only traced benchmark runs."""

import importlib.util
import json
import os
import subprocess
import sys
from functools import cache

from qbrauer import algebra, cellular, diagrams, hecke, scalars

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "qbench", "tracing.py")
MODULES = {"algebra": algebra, "cellular": cellular, "diagrams": diagrams,
           "hecke": hecke, "scalars": scalars}


def load_tracing():
    spec = importlib.util.spec_from_file_location("qbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_probe_resolves():
    tracing = load_tracing()
    probes = [(m, a) for m, a, _ in tracing.SPANS + tracing.COUNTS]
    assert probes
    for mod, attr in probes:
        if "." in attr:
            cls_name, meth = attr.split(".")
            # the tracer wraps the method found in the class's own namespace
            assert meth in vars(getattr(MODULES[mod], cls_name)), (mod, attr)
        else:
            assert callable(getattr(MODULES[mod], attr, None)), (mod, attr)


def test_memo_tables_of_a_fresh_context():
    # a further table comes with its benchmark entry and a measured reason
    ctx = algebra.AlgebraContext(3)
    tables = {name for name, v in vars(ctx).items() if isinstance(v, dict)}
    assert tables == {"_lmul_g", "_rmul_g", "_core", "_rmul_atom", "_middle"}
    for name in tables:
        assert getattr(ctx, name) == {}, name
    assert isinstance(algebra._EXPR_CACHE, dict)


def test_lengths_match_the_committed_n6_lengths():
    """``qbench/n6.lengths`` holds the length of every n = 6 diagram, one
    base-36 digit each in the order of the sorted partner tuples; it was
    written before the factorization was read off the rows directly."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "qbench", "n6.lengths")
    with open(path) as f:
        digits = [line.strip() for line in f if not line.startswith("#")][0]
    got = [diagrams.diagram_length(d) for d in diagrams.enumerate_diagrams(6)]
    assert got == [int(c, 36) for c in digits]


def test_product_output_reads_the_terms_of_a_product():
    """The tracer's per-product statistics read ``x.terms`` of the product
    and ``c.num.terms`` of each of its coefficients."""
    tracer = load_tracing().Tracer()
    ctx = algebra.AlgebraContext(4)
    ds = diagrams.enumerate_diagrams(4)
    basis = algebra.QBrauerElement.basis
    x = algebra.product(ctx, basis(ds[40]), basis(ds[97]))
    assert x.terms
    tracer._product_output(x)
    assert (tracer.out_count, tracer.out_terms) == (1, len(x.terms))
    assert tracer.max_terms == max(len(c.num.terms) for c in x.terms.values()) > 0


def run_python(code, *args):
    """Run ``code`` in a fresh interpreter that imports this checkout's
    package."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)


PROBE_RUN = """
import importlib.util, json, sys
from qbrauer import algebra, cellular, diagrams, hecke, scalars
spec = importlib.util.spec_from_file_location("qbench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.Tracer()
tracer.install({"algebra": algebra, "cellular": cellular, "diagrams": diagrams,
                "hecke": hecke, "scalars": scalars})
ctx = algebra.AlgebraContext(3)
for check in (cellular.inflation_bijection_check, cellular.inflation_product_check,
              cellular.cell_chain_check):
    assert check(ctx)["failures"] == [], check
ds = diagrams.enumerate_diagrams(3)
x = algebra.product(ctx, algebra.QBrauerElement.basis(ds[4]), algebra.QBrauerElement.basis(ds[9]))
str(next(iter(x.terms.values())))
formats = tracer.span_stats().get("scalars.format", [0])[0]
print(json.dumps({"metrics": tracer.layer_metrics(0, 1.0), "formats": formats}))
"""


@cache
def probe_run():
    """The output of ``PROBE_RUN``, run once for the tests that read it.
    The wrappers are installed in a subprocess, so they cannot reach other
    tests."""
    done = run_python(PROBE_RUN, TRACING)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_cellular_probes_count_the_cell_checks():
    """The tracer's ``cellular`` probes see the calls of ``verify cell``'s
    three checks at n = 3: a coordinate read and a rebuild for each of the
    15 diagrams at least, and some phi_k."""
    metrics = probe_run()["metrics"]
    assert metrics["cellular.inflation_calls"] >= 2 * 15
    assert metrics["cellular.phi_calls"] > 0


def test_scalar_probes_see_the_cached_dunders():
    """``Scalar.__mul__`` and ``__add__`` are ``functools.cache`` objects in
    the class namespace; the tracer wraps them there and still counts every
    call, and it counts a ``str`` of a product coefficient as a
    ``scalars.format`` span."""
    out = probe_run()
    assert out["metrics"]["scalars.mul_calls"] > 0
    assert out["metrics"]["scalars.add_calls"] > 0
    assert out["formats"] >= 1


def test_import_path_loads_no_dataclasses():
    """Every repetition pays for the package import in ``setup_s``; the
    modules it loads define no dataclass, which would pull in ``inspect``."""
    done = run_python("import sys\n"
                      "import qbrauer.algebra, qbrauer.cellular, qbrauer.suites\n"
                      "print('dataclasses' in sys.modules)")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


COLD_RUN = """
import json
import qbrauer.algebra, qbrauer.cellular, qbrauer.cli, qbrauer.suites
from qbrauer import algebra, cellular, diagrams, hecke, scalars
tables = {
    "QBrauerElement.basis": algebra.QBrauerElement.basis,
    "enumerate_diagrams": diagrams.enumerate_diagrams,
    "star": diagrams.star,
    "top_part": diagrams.top_part,
    "_part": diagrams._part,
    "bottom_relabel": diagrams.bottom_relabel,
    "reduced_word": diagrams.reduced_word,
    "hecke._step": hecke._step,
    "cellular._head": cellular._head,
    "cellular._tail": cellular._tail,
    "classical_limit": scalars.classical_limit,
    "Scalar.__mul__": scalars.Scalar.__mul__,
}
sizes = {name: f.cache_info().currsize for name, f in tables.items()}
sizes["_EXPR_CACHE"] = len(algebra._EXPR_CACHE)
print(json.dumps(sizes))
"""


def test_process_global_caches_start_empty():
    """Importing the package fills none of the process-global memo tables
    that hold no value of a context, which the benchmark's cold-run check
    in ``qbench/rep.py`` does not read.  ``Scalar.__add__`` is left out: the
    import forms one sum, ``Q_INV_M1 = Q_INV - ONE``, so its cache starts
    with that entry."""
    done = run_python(COLD_RUN)
    assert done.returncode == 0, done.stderr
    sizes = json.loads(done.stdout)
    assert {name: n for name, n in sizes.items() if n} == {}

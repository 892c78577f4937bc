"""Span tracing for the qbrauer benchmark, applied from outside the program.

The tracer wraps functions at the boundaries of the qbrauer layers.  A
module-level function is replaced in every loaded ``qbrauer`` module that
holds it, because ``from .algebra import product`` binds a second name to
the same function object; ``Scalar`` methods are replaced on the class.

Spans are (name, parent, start, end) and stay in compact arrays until the
repetition ends.  Self time of a span is its length minus the length of its
direct child spans; a layer's self time is the sum over its spans.  Probes
on very hot or recursive helpers only count calls.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

# (module, attribute, span name); the layer is the span name's prefix.
SPANS = (
    ("scalars", "Scalar.__mul__", "scalars.mul"),
    ("scalars", "Scalar.__add__", "scalars.add"),
    ("scalars", "Scalar.inv", "scalars.inv"),
    ("scalars", "Scalar.__str__", "scalars.format"),
    ("diagrams", "decompose", "diagrams.decompose"),
    ("diagrams", "concat", "diagrams.concat"),
    ("diagrams", "top_swap", "diagrams.swap"),
    ("diagrams", "bottom_swap", "diagrams.swap"),
    ("hecke", "word_element", "hecke.word_element"),
    ("hecke", "product", "hecke.product"),
    ("algebra", "product", "algebra.product"),
    ("algebra", "rmul_atom", "algebra.rmul_atom"),
    ("algebra", "lmul_gen", "algebra.lmul_gen"),
    ("cellular", "phi_k", "cellular.phi"),
    ("cellular", "to_inflation", "cellular.inflation"),
    ("cellular", "from_inflation", "cellular.inflation"),
    ("cellular", "inflation_bijection_check", "cellular.check"),
    ("cellular", "inflation_product_check", "cellular.check"),
    ("cellular", "cell_chain_check", "cellular.check"),
)

# (module, attribute, counter name)
COUNTS = (
    ("algebra", "_core", "core"),
    ("algebra", "_core_compute", "core_fill"),
    ("algebra", "_expr", "expr"),
    ("algebra", "_lmul_g_basis", "gen"),
    ("algebra", "_rmul_g_basis", "gen"),
)

LAYERS = ("scalars", "diagrams", "hecke", "algebra", "cellular")


class Tracer:
    """Records spans and counts for one repetition of a workload."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("B")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.counts: dict[str, int] = {}
        self.out_terms = 0
        self.out_count = 0
        self.max_terms = 0

    # -- wrappers ---------------------------------------------------------

    def _span(self, fn, name, after=None):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        add_name, add_parent = self.span_name.append, self.span_parent.append
        add_start, add_end = self.span_start.append, self.span_end.append
        ends, stack, clock = self.span_end, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(ends)
            add_name(nid)
            add_parent(stack[-1])
            add_end(0.0)
            stack.append(i)
            add_start(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                after(out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, fn, name):
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _product_output(self, x):
        self.out_count += 1
        self.out_terms += len(x.terms)
        for c in x.terms.values():
            if len(c.num.terms) > self.max_terms:
                self.max_terms = len(c.num.terms)

    def install(self, qb_modules: dict) -> None:
        """Wrap every probe; ``qb_modules`` maps short names to modules."""
        loaded = [m for k, m in sys.modules.items() if k == "qbrauer" or k.startswith("qbrauer.")]
        for mod, attr, name in SPANS:
            after = self._product_output if name == "algebra.product" else None
            self._replace(qb_modules[mod], attr, loaded, lambda f, n=name, a=after: self._span(f, n, a))
        for mod, attr, name in COUNTS:
            self._replace(qb_modules[mod], attr, loaded, lambda f, n=name: self._counter(f, n))

    @staticmethod
    def _replace(module, attr, loaded, make) -> None:
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, meth, make(cls.__dict__[meth]))
            return
        fn = getattr(module, attr)
        wrapped = make(fn)
        for m in loaded:
            for k, v in list(vars(m).items()):
                if v is fn:
                    setattr(m, k, wrapped)

    # -- summaries --------------------------------------------------------

    def span_stats(self):
        """Per span name: (calls, inclusive seconds, self seconds)."""
        n = len(self.span_end)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
        stats = {name: [0, 0.0, 0.0] for name in self.names}
        for i in range(n):
            s = stats[self.names[self.span_name[i]]]
            s[0] += 1
            s[1] += dur[i]
            s[2] += dur[i] - child[i]
        return stats

    def layer_metrics(self, memo_entries: int, scale: float) -> dict:
        """The per-layer metric values, keyed as in BENCHMARK.json; times
        are multiplied by ``scale``, the repetition's kernel scale."""
        st = self.span_stats()

        def calls(name):
            return st.get(name, (0, 0.0, 0.0))[0]

        def incl(name):
            return st.get(name, (0, 0.0, 0.0))[1] * scale

        self_s = {layer: 0.0 for layer in LAYERS}
        for name, (_, _, s) in st.items():
            self_s[name.split(".")[0]] += s * scale

        def ratio(hits, base):
            return hits / base if base else 0.0

        c = self.counts
        return {
            "scalars.mul_calls": calls("scalars.mul"),
            "scalars.add_calls": calls("scalars.add"),
            "scalars.inv_calls": calls("scalars.inv"),
            "scalars.self_s": self_s["scalars"],
            "scalars.format_s": incl("scalars.format"),
            "scalars.max_terms": self.max_terms,
            "diagrams.decompose_calls": calls("diagrams.decompose"),
            "diagrams.decompose_s": incl("diagrams.decompose"),
            "diagrams.concat_calls": calls("diagrams.concat"),
            "diagrams.concat_s": incl("diagrams.concat"),
            "diagrams.swap_calls": calls("diagrams.swap"),
            "diagrams.self_s": self_s["diagrams"],
            "hecke.word_element_calls": calls("hecke.word_element"),
            "hecke.product_calls": calls("hecke.product"),
            "hecke.self_s": self_s["hecke"],
            "algebra.product_calls": calls("algebra.product"),
            "algebra.product_s": incl("algebra.product"),
            "algebra.rmul_atom_calls": calls("algebra.rmul_atom"),
            "algebra.core_calls": c["core"],
            "algebra.core_fills": c["core_fill"],
            "algebra.core_hit_ratio": ratio(c["core"] - c["core_fill"], c["core"]),
            "algebra.expr_hit_ratio": ratio(c["expr"] - calls("diagrams.decompose"), c["expr"]),
            "algebra.gen_hit_ratio": ratio(c["gen"] - calls("diagrams.swap"), c["gen"]),
            "algebra.memo_entries": memo_entries,
            "algebra.out_terms_mean": ratio(self.out_terms, self.out_count),
            "algebra.self_s": self_s["algebra"],
            "cellular.phi_calls": calls("cellular.phi"),
            "cellular.phi_s": incl("cellular.phi"),
            "cellular.inflation_calls": calls("cellular.inflation"),
            "cellular.self_s": self_s["cellular"],
        }

    def bases(self) -> dict:
        """The raw counts behind each ratio, for the result file."""
        return {"counts": dict(self.counts), "product_outputs": self.out_count,
                "product_output_terms": self.out_terms, "spans": len(self.span_end)}

    def write(self, path: str) -> None:
        """Write the spans: one JSON header line, then the four raw arrays."""
        header = {"names": self.names, "spans": len(self.span_end),
                  "arrays": [["name", "B"], ["parent", "l"], ["start", "d"], ["end", "d"]],
                  "byteorder": sys.byteorder}
        with open(path, "wb") as f:
            f.write((json.dumps(header) + "\n").encode())
            for a in (self.span_name, self.span_parent, self.span_start, self.span_end):
                a.tofile(f)

"""
Command-line surface over the kernel.

Exit codes: 0 on success (and when every verification passes), 1 when a
verification fails (a report with failures, a check stopped by an assert of
the kernel, a ``phi`` product with no layer form), 2 on malformed input; the
last two failures and malformed input write a JSON error object on stderr.
Output is deterministic for a fixed invocation (fixed seeds, sorted terms).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys
import traceback
from fractions import Fraction

from . import scalars, suites
from .algebra import (
    AlgebraContext,
    QBrauerElement,
    element_from_json,
    element_to_json,
    product,
    straighten,
)
from .cellular import (
    cell_chain_check,
    cell_module_dims,
    inflation_bijection_check,
    inflation_product_check,
    involution_symmetry_check,
    is_quasi_hereditary,
    phi_k,
    simple_module_index,
    double_factorial_odd,
    to_inflation,
    transversal_count,
)
from .diagrams import (
    diagram_from_json,
    decompose,
    enumerate_diagrams,
    perm_mul,
    render_diagram,
    star,
    s_ij,
    t_word,
)
from .hecke import hecke_to_json
from math import factorial


class InputError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Argument errors raise InputError, so they exit 2 with a JSON error
    like any other malformed input; subparsers inherit this class."""

    def error(self, message):
        raise InputError(message)


def _error(error: str, detail: str, **fields) -> None:
    """One JSON error object on stderr."""
    sys.stderr.write(json.dumps({"error": error, "detail": detail, **fields}) + "\n")


def parse_perm(n: int, text: str):
    """Chain notation "s3,6 s2,5 s2", with "1" or the empty chain for the
    identity, or a one-line JSON array "[5,1,3,2,4]"."""
    text = text.strip()
    if text.startswith("["):
        w = json.loads(text)
        if not (isinstance(w, list) and all(type(v) is int for v in w)
                and sorted(w) == list(range(1, n + 1))):
            raise InputError(f"{text} is not a permutation of 1..{n}")
        return tuple(w)
    if text == "1":
        return tuple(range(1, n + 1))
    w = tuple(range(1, n + 1))
    for token in text.split():
        m = re.fullmatch(r"s(\d+)(?:,(\d+))?", token)
        if not m:
            raise InputError(f"bad chain token {token!r}")
        i = int(m.group(1))
        j = int(m.group(2)) if m.group(2) else i
        if not (1 <= i <= n - 1 and 1 <= j <= n - 1):
            raise InputError(f"chain {token!r} out of range for n={n}")
        w = perm_mul(w, s_ij(n, i, j))
    return w


def chain_text(chains) -> str:
    """The (i, j) chains of ``t_word`` in the notation of :func:`parse_perm`,
    "1" for the empty word."""
    return " ".join(f"s{i}" if i == j else f"s{i},{j}" for i, j in chains) or "1"


def parse_field_value(field, text: str):
    """An integer, or over the rationals also a fraction "a/b"."""
    try:
        if isinstance(field, scalars.PrimeField):
            return field(int(text))
        if "/" in text:
            a, b = text.split("/")
            return Fraction(int(a), int(b))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"{text!r} is not a field value") from exc


def make_field(name: str):
    """``Fraction`` for the rationals, else the prime field F_p."""
    if name == "rationals":
        return Fraction
    try:
        p = int(name)
    except ValueError as exc:
        raise InputError(f'--field {name!r} is neither "rationals" nor a prime p') from exc
    return scalars.PrimeField(p)


def _write(args, text: str) -> None:
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(args, payload, lines) -> None:
    """``payload`` as indented JSON under ``--format json``, else ``lines``."""
    text = json.dumps(payload, indent=2, default=str) if args.format == "json" else "\n".join(lines)
    _write(args, text + "\n")


def _context(args) -> AlgebraContext:
    return AlgebraContext(args.n, args.integral)


def _check_k(args) -> None:
    if not 0 <= args.k <= args.n // 2:
        raise InputError(f"need 0 <= k <= {args.n // 2} for n={args.n}")


def cmd_dim(args) -> int:
    n = args.n
    lines = [f"dim = {double_factorial_odd(n)}"]
    for k in range(n // 2 + 1):
        tcount = transversal_count(n, k)
        lines.append(
            f"layer k={k}: transversal {tcount}, basis {tcount * tcount * factorial(n - 2 * k)}"
        )
    _write(args, "\n".join(lines) + "\n")
    return 0


def cmd_mul(args) -> int:
    objs = []
    for path in (args.x, args.y):
        with open(path, encoding="utf-8") as fh:
            objs.append(json.load(fh))
    x, y = (element_from_json(obj) for obj in objs)
    if x.n != y.n:
        raise InputError("operands have different n")
    if any("version" not in obj for obj in objs):
        raise InputError('an element has no "version"')
    version = objs[0]["version"]
    if objs[1]["version"] != version:
        raise InputError("operands have different versions")
    N = version.get("N") if isinstance(version, dict) else None
    ctx = AlgebraContext(x.n, N if type(N) is int else None)
    if ctx.version != version:
        raise InputError(f"bad version {version!r}")
    if ctx.N is not None and any(
        map(scalars.involves_r, [*x.terms.values(), *y.terms.values()])
    ):
        raise InputError("a coefficient carries r, which is q^N in the integral version")
    z = product(ctx, x, y)
    _write(args, json.dumps(element_to_json(ctx, z), indent=2) + "\n")
    return 0


def cmd_table(args) -> int:
    ctx = _context(args)
    diagrams = enumerate_diagrams(args.n)
    ids = {d: i for i, d in enumerate(diagrams)}

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["d_left_id", "d_right_id", "d_out_id", "coeff"])
    for d1 in diagrams:
        for d2 in diagrams:
            P = product(ctx, QBrauerElement.basis(d1), QBrauerElement.basis(d2))
            for dout in sorted(P.terms, key=lambda d: d.partner):
                writer.writerow([ids[d1], ids[d2], ids[dout], str(P.terms[dout])])
    _write(args, buf.getvalue())
    return 0


def cmd_straighten(args) -> int:
    ctx = AlgebraContext(args.n)
    _check_k(args)
    sigma = parse_perm(args.n, args.sigma)
    out = straighten(ctx, sigma, args.k)
    _emit(args, [{"coeff": scalars.scalar_to_json(c), "w": list(w), "pi": list(pi)}
                 for c, w, pi in out],
          [f"({c}) * g[{chain_text(t_word(w))}] g[{chain_text(t_word(pi))}] e_({args.k})"
           for c, w, pi in out])
    return 0


def cmd_decompose(args) -> int:
    if args.diagram.strip().startswith(("{", "[")):
        obj = json.loads(args.diagram)
    else:
        with open(args.diagram, encoding="utf-8") as fh:
            obj = json.load(fh)
    d = diagram_from_json(obj)
    ex = decompose(d)
    words = {"w1": ex.w1, "wd": ex.wd, "w2": ex.w2}
    _emit(args, {"k": ex.k, **{key: list(w) for key, w in words.items()}, "length": ex.length()},
          [render_diagram(d), f"k = {ex.k}, length = {ex.length()}"]
          + [f"{key} = {chain_text(t_word(w))}" for key, w in words.items()])
    return 0


def cmd_phi(args) -> int:
    ctx = _context(args)
    _check_k(args)
    tops = [d for d in enumerate_diagrams(args.n)
            if d.layer() == args.k and to_inflation(d).top is d]
    bots = [star(t) for t in tops]
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["row_id", "col_id", "value"])
    for i, c in enumerate(bots):
        for j, d in enumerate(tops):
            form = phi_k(ctx, c, d)
            if form is None:
                _error("NoLayerForm", f"a layer-{args.k} term of the product has outer factors",
                       row=i, col=j)
                return 1
            writer.writerow([i, j, json.dumps(hecke_to_json(form))])
    _write(args, buf.getvalue())
    return 0


def _run_reports(args, reports) -> int:
    _emit(args, reports, [f"{r['check']} n={r['n']} version={r['version']} pairs={r['pairs_tested']}: "
                          + (f"FAIL ({len(r['failures'])})" if r["failures"] else "pass")
                          for r in reports])
    return 1 if any(r["failures"] for r in reports) else 0


def cmd_verify(args) -> int:
    if args.sample is not None and args.sample < 1:
        raise InputError("--sample must be at least 1")
    ctx = _context(args)
    try:
        if args.suite == "relations":
            if args.sample is not None:
                raise InputError("verify relations takes no --sample: the certificate is exhaustive")
            if ctx.n < 2:
                raise InputError("verify relations needs n >= 2: there is no relation at n = 1")
            reports = suites.relations_suite(ctx)
        elif args.suite == "oracle":
            reports = [suites.oracle_suite(ctx, sample=args.sample, seed=args.seed)]
        else:
            reports = [
                inflation_bijection_check(ctx),
                inflation_product_check(ctx, sample=args.sample, seed=args.seed),
                cell_chain_check(ctx),
                involution_symmetry_check(ctx),
            ]
    except AssertionError as exc:
        # an internal assert of the kernel stopped a check, named after the
        # innermost ``*_check`` or ``*_suite`` frame, before its report
        frames = traceback.extract_tb(exc.__traceback__)
        checks = [f.name.rsplit("_", 1)[0] for f in frames if f.name.endswith(("_check", "_suite"))]
        _error("AssertionError", str(exc) or frames[-1].line, check=(checks or [args.suite])[-1],
               at=f"{frames[-1].name}:{frames[-1].lineno}")
        return 1
    # a report that tested nothing would read as a pass
    reports = [r for r in reports if r["pairs_tested"]]
    if not reports:
        raise InputError(f"verify {args.suite} has nothing to test at n = {ctx.n}")
    return _run_reports(args, reports)


def cmd_qh(args) -> int:
    field = make_field(args.field)
    q0, r0 = (parse_field_value(field, text) for text in (args.q0, args.r0))
    ok, why = is_quasi_hereditary(args.n, q0, r0)
    payload = {"n": args.n, "field": args.field, "q0": args.q0, "r0": args.r0,
               "quasi_hereditary": ok, "explanation": why}
    _emit(args, payload, ["true" if ok else why])
    return 0


def cmd_simples(args) -> int:
    q0 = parse_field_value(make_field(args.field), args.q0)
    idx = simple_module_index(args.n, q0)
    dims = cell_module_dims(args.n)
    _emit(args, [{"k": i.k, "partition": list(i.lam), "cell_dim": dims[i]} for i in idx],
          [f"(n-2k={args.n - 2 * i.k}, lam={i.lam}) cell dim {dims[i]}" for i in idx])
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="qbrauer",
        description="exact kernel for the two-parameter deformation of the "
        "Brauer algebra: diagram basis, products, layer structure, "
        "verification suites",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def options(sp, *names):
        """--output, which every command reads, and those of the rank n,
        --integral, --format and --seed that ``names`` lists."""
        if "n" in names:
            sp.add_argument("n", type=int)
        if "integral" in names:
            sp.add_argument("--integral", type=int, default=None, metavar="N",
                            help="specialize r = q^N symbolically")
        sp.add_argument("--output", "-o", default=None)
        if "format" in names:
            sp.add_argument("--format", choices=("json", "text"), default="text")
        if "seed" in names:
            sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("dim", help="dimension and per-layer counts")
    options(sp, "n")
    sp.set_defaults(func=cmd_dim)

    sp = sub.add_parser("mul", help="multiply two element JSON files")
    sp.add_argument("x")
    sp.add_argument("y")
    options(sp)
    sp.set_defaults(func=cmd_mul)

    sp = sub.add_parser("table", help="structure-constant table (CSV)")
    options(sp, "n", "integral")
    sp.set_defaults(func=cmd_table)

    sp = sub.add_parser("straighten", help="normal form of g_sigma e_(k)")
    options(sp, "n", "format")
    sp.add_argument("k", type=int)
    sp.add_argument("--sigma", required=True,
                    help='chain notation "s3,6 s2,5" or one-line "[3,1,2]"')
    sp.set_defaults(func=cmd_straighten)

    sp = sub.add_parser("decompose", help="canonical factorization of a diagram")
    sp.add_argument("diagram", help="diagram JSON (inline or a file path)")
    options(sp, "format")
    sp.set_defaults(func=cmd_decompose)

    sp = sub.add_parser("phi", help="layer bilinear form table (CSV)")
    options(sp, "n", "integral")
    sp.add_argument("k", type=int)
    sp.set_defaults(func=cmd_phi)

    sp = sub.add_parser("verify", help="run a verification suite")
    sp.add_argument("suite",
                    choices=("relations", "oracle", "cell"),
                    help="relations: the module certificate (every defining "
                         "relation on every basis element, the basis spanned "
                         "from the unit, the left action and the involution, "
                         "and the product against the word fold), which proves "
                         "the product at n; oracle: every structure constant "
                         "lies in Z[q^±1, r^±1, δ] and maps at q = r = 1 to "
                         "the classical product, exactly in δ; cell: the "
                         "cell-basis checks")
    options(sp, "n", "integral", "format", "seed")
    sp.add_argument("--sample", type=int, default=None,
                    help="oracle: pairs drawn in all; cell: pairs per layer "
                         "of the layer-product check (default exhaustive; "
                         "every other check is always exhaustive)")
    sp.set_defaults(func=cmd_verify)

    # argparse reads "-1/2" as an option, though "-1" as a number
    value_help = 'an integer, or over the rationals a/b; write a negative fraction as --q0=-1/2'
    sp = sub.add_parser("qh", help="quasi-heredity decision")
    options(sp, "n", "format")
    sp.add_argument("--field", default="rationals", help='"rationals" or a prime p')
    sp.add_argument("--q0", required=True, help=value_help)
    sp.add_argument("--r0", required=True, help=value_help)
    sp.set_defaults(func=cmd_qh)

    sp = sub.add_parser("simples", help="simple-module index set")
    options(sp, "n", "format")
    sp.add_argument("--field", default="rationals", help='"rationals" or a prime p')
    sp.add_argument("--q0", required=True, help=value_help)
    sp.set_defaults(func=cmd_simples)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "n", 1) < 1:
            raise InputError("need n >= 1")
        return args.func(args)
    except (InputError, OSError, json.JSONDecodeError, KeyError,
            ValueError) as exc:
        _error(type(exc).__name__, str(exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())

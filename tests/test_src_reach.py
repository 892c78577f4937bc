"""Every module-level function and class in ``src/qbrauer`` is used outside
the tests: somewhere else in ``src/qbrauer``, or by the benchmark harness in
``qbench/``.  A definition that only the tests reach is dead code to the
program; it goes, and its test calls what remains.  The same holds for the
methods, class methods and properties of the classes in ``src/qbrauer``,
matched by name."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "qbrauer"
QBENCH = ROOT / "qbench"

# definitions kept without a caller, each for a stated reason
ALLOWED = {
    # evaluation of a scalar at field points, the base of the Gram-matrix
    # and F_p work the ROADMAP plans
    "specialize",
}

# class members kept without a caller in src, each for a stated reason
ALLOWED_MEMBERS = {
    # argparse calls it on a malformed command line
    "_Parser.error",
}


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def _definitions(tree):
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]


def _module_attribute(node, module):
    """``name`` when ``node`` reads ``module.name`` (or ``x.module.name``)."""
    if isinstance(node, ast.Attribute):
        owner = node.value
        if (isinstance(owner, ast.Name) and owner.id == module) or (
                isinstance(owner, ast.Attribute) and owner.attr == module):
            return node.attr
    return None


def _uses(tree, module, own):
    """Where ``tree`` uses each name of ``module``: a map from the name to
    the ids of the nodes that read it, as ``module.name``, or as a bare name
    that ``tree`` imports from ``module`` or, when ``own`` is true, defines."""
    imported = {}  # local name -> name in ``module``
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == module:
            for alias in node.names:
                imported[alias.asname or alias.name] = alias.name
    out = {}
    for node in ast.walk(tree):
        name = _module_attribute(node, module)
        if name is None and isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id if own else imported.get(node.id)
        if name is not None:
            out.setdefault(name, set()).add(id(node))
    return out


def _bench_uses(bench, module):
    """The names of ``module`` that ``bench``, the trees of ``qbench/*.py``,
    reads as attributes or names as strings, the way its tracer lists the
    functions it wraps."""
    out = set()
    for tree in bench:
        for node in ast.walk(tree):
            name = _module_attribute(node, module)
            if name is not None:
                out.add(name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                out.add(node.value)
    return out


def unreached_definitions():
    """``module.name`` of each definition used only by the tests.  Code
    inside a definition found unreached does not count as a use, so a chain
    of definitions that only the tests start is found whole."""
    trees = {path.stem: _parse(path) for path in sorted(SRC.glob("*.py"))}
    defs = {f"{module}.{node.name}": (module, node, {id(n) for n in ast.walk(node)})
            for module, tree in trees.items() for node in _definitions(tree)}
    uses = {}  # (module, name) -> ids of the nodes in src that use it
    for module, tree in trees.items():
        for other in trees.values():
            for name, ids in _uses(other, module, other is tree).items():
                uses.setdefault((module, name), set()).update(ids)
    bench_trees = [_parse(path) for path in sorted(QBENCH.glob("*.py"))]
    bench = {module: _bench_uses(bench_trees, module) for module in trees}
    dead = set()
    while True:
        skipped = set().union(*(defs[key][2] for key in dead))
        found = {
            key for key, (module, node, inside) in defs.items()
            if key not in dead and node.name not in ALLOWED
            and node.name not in bench[module]
            and not uses.get((module, node.name), set()) - skipped - inside
        }
        if not found:
            return sorted(dead)
        dead |= found


def _members(tree):
    """(class, function) for each function defined in the body of a class of
    ``tree`` whose name is not a dunder, which Python itself calls."""
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                        node.name.startswith("__") and node.name.endswith("__")):
                    yield cls, node


def unreached_members():
    """``Class.name`` of each member that no code in ``src`` reads, outside
    the member's own body, as ``.name`` on any object or as a bare name in
    its class body, and that ``qbench/`` neither reads as ``.name`` nor
    names as the string ``"Class.name"``.  Reads are matched by name, not
    by class."""
    trees = [_parse(path) for path in sorted(SRC.glob("*.py"))]
    reads = [(node.attr, id(node)) for tree in trees for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)]
    bench = set()
    for path in sorted(QBENCH.glob("*.py")):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Attribute):
                bench.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                bench.add(node.value)
    out = []
    for tree in trees:
        for cls, node in _members(tree):
            key, inside = f"{cls.name}.{node.name}", {id(n) for n in ast.walk(node)}
            bare = any(isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
                       and n.id == node.name and id(n) not in inside for n in ast.walk(cls))
            dotted = any(name == node.name and i not in inside for name, i in reads)
            if not (bare or dotted or key in ALLOWED_MEMBERS
                    or node.name in bench or key in bench):
                out.append(key)
    return sorted(out)


def test_every_src_definition_is_reached_outside_the_tests():
    unreached = unreached_definitions()
    assert unreached == [], f"reached only by the tests: {unreached}"


def test_every_src_class_member_is_reached_outside_the_tests():
    unreached = unreached_members()
    assert unreached == [], f"reached only by the tests: {unreached}"


def test_allowed_names_are_defined():
    names = {node.name for path in SRC.glob("*.py") for node in _definitions(_parse(path))}
    assert ALLOWED <= names
    members = {f"{cls.name}.{node.name}" for path in SRC.glob("*.py")
               for cls, node in _members(_parse(path))}
    assert ALLOWED_MEMBERS <= members

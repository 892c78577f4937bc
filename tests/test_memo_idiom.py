"""One memo idiom in ``src/qbrauer``: a memo keyed by a function's
arguments is a ``functools.cache`` on that function, not a module-level
dict filled by hand.  A module-level name bound to a dict display
(``X = {}`` or ``X: dict = {}``) is refused unless it is listed below with
the reason it stays a dict."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qbrauer"

# module-level dicts kept, each for a stated reason
ALLOWED = {
    # intern tables: the key is a canonical form and the value is *the*
    # object of that form, which a cache of a constructor cannot express
    "diagrams._DIAGRAMS",
    "scalars._INTERN",
    # ``product`` reads it inline and the cold-run check of qbench/rep.py
    # reads its length; with the next change to the benchmark it becomes a
    # functools.cache on decompose
    "algebra._EXPR_CACHE",
}


def module_dicts():
    """``module.name`` of each module-level assignment in ``src/qbrauer``
    whose value is a dict display."""
    out = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
            else:
                continue
            if isinstance(node.value, ast.Dict):
                out.update(f"{path.stem}.{t.id}" for t in targets if isinstance(t, ast.Name))
    return out


def test_no_hand_written_memo_tables():
    extra = module_dicts() - ALLOWED
    assert not extra, f"module-level dicts outside the allow-list: {sorted(extra)}"


def test_allowed_dicts_exist():
    assert ALLOWED <= module_dicts()

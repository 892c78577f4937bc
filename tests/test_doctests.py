"""The ``>>>`` examples in the package's docstrings run and pass."""

import doctest
import importlib
import pkgutil

import qbrauer


def test_docstring_examples():
    attempted = 0
    for info in pkgutil.iter_modules(qbrauer.__path__, "qbrauer."):
        module = importlib.import_module(info.name)
        result = doctest.testmod(module, verbose=False)
        assert result.failed == 0, info.name
        attempted += result.attempted
    assert attempted >= 2

"""Exact computational kernel for the q-Brauer algebra and its cellular
structure, with diagram concatenation and its loop count as the built-in
classical oracle.

One memo idiom: a memo keyed by a function's arguments is a
``functools.cache`` on that function, a value stored on an interned object
is a slot, and an intern table, whose value is *the* object of a canonical
form, is a dict.  Tables whose values depend on r belong to an
``AlgebraContext``; so do ``_lmul_g``, ``_rmul_g`` and the g_j^{-1} entries
of ``_rmul_atom``, though free of r, as ``qbench/rep.py`` reads the first
two and ``_rfold`` reads ``_rmul_g`` inline.  ``algebra._EXPR_CACHE`` is
the one other dict, since ``product`` reads it inline and the benchmark
reads its length."""

from .algebra import AlgebraContext, QBrauerElement
from .diagrams import BrauerDiagram
from .hecke import HeckeElement
from .scalars import Scalar

__all__ = [
    "AlgebraContext",
    "QBrauerElement",
    "BrauerDiagram",
    "HeckeElement",
    "Scalar",
]
__version__ = "0.1.0"

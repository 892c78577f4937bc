"""Exact computational kernel for the q-Brauer algebra and its cellular
structure, with diagram concatenation and its loop count as the built-in
classical oracle."""

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

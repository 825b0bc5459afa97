"""Exact operator algebra for color Calogero-Sutherland models.

The package builds symbolic operators on N sites with gl(n|m) color units
and rational-function coefficients, normalizes them to a canonical form,
and checks algebraic identities (commutation relations, conserved charges,
generator recursions) exactly, with an independent state-action oracle.
"""

from ._kernel import BACKEND
from .errors import (
    CapExceededError,
    ColorCSError,
    ContextMismatchError,
    MixedParityError,
    PoleError,
    UnknownNameError,
)
from .scalar import RationalFunction, ScalarField

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "CapExceededError",
    "ColorCSError",
    "ContextMismatchError",
    "MixedParityError",
    "PoleError",
    "UnknownNameError",
    "RationalFunction",
    "ScalarField",
    "__version__",
]

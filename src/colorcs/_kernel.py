"""Kernel backend selection.

The compiled extension ``_poly_cy`` is preferred when it imported cleanly;
otherwise the pure-Python twin is used.  Both expose the same functions over
the same dict representation, so callers import names from here and never
notice which one is active.  ``available_backends()`` exposes both for the
cross-checking tests and the benchmark.
"""

from __future__ import annotations

from . import _poly_py

try:  # pragma: no cover - depends on whether the extension was built
    from . import _poly_cy  # type: ignore[attr-defined]
except ImportError:  # pragma: no cover
    _poly_cy = None

active = _poly_cy if _poly_cy is not None else _poly_py

BACKEND = active.BACKEND

poly_add = active.poly_add
poly_neg = active.poly_neg
poly_scale = active.poly_scale
poly_mul = active.poly_mul
poly_diff = active.poly_diff
poly_lead = active.poly_lead
poly_divexact = active.poly_divexact
poly_eval = active.poly_eval
poly_eval_var = active.poly_eval_var


def available_backends():
    """List of (name, module) pairs for every importable backend."""
    out = [("pure", _poly_py)]
    if _poly_cy is not None:
        out.append(("compiled", _poly_cy))
    return out

"""The polynomial kernel's one import point.

Callers import the kernel functions from here; the implementation lives in
``_poly_py``.  ``BACKEND`` names it in benchmark and environment records.
"""

from __future__ import annotations

from ._poly_py import (
    BACKEND,
    poly_add,
    poly_diff,
    poly_divexact,
    poly_eval,
    poly_eval_var,
    poly_lead,
    poly_mul,
    poly_neg,
    poly_scale,
)

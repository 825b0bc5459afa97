"""Packed exponent vectors for sparse multivariate polynomials.

A monomial over ``nvars`` variables is stored as a single non-negative int:
``WIDTH`` bits per exponent, variable 0 in the *most* significant field.  With
that layout a plain integer comparison of two packed monomials is exactly a
lexicographic comparison of the exponent vectors, and multiplying monomials is
a single integer addition.  That key order is the arithmetic's one monomial
order: a polynomial's leading term is at its largest key, and every sign
convention and long division reads it there.  Graded lex (``grlex_key``) is
only the order in which polynomials are printed.

The coefficient layer orders variables as x_1 .. x_N, lam, x, y (positions
first, then the coupling and the two auxiliary parameters), so slot 0 is x_1.

Degrees are capped at ``MAX_EXP`` per variable.  The cap is far above anything
the generator workloads produce (total degrees stay under ~100); arithmetic
that could run into the cap guards against it explicitly rather than silently
overflowing a field.
"""

from __future__ import annotations

WIDTH = 10
MAX_EXP = (1 << WIDTH) - 1
_MASK = MAX_EXP


def make_shifts(nvars: int) -> tuple[int, ...]:
    """Bit offsets per variable slot; slot 0 gets the top field."""
    if nvars < 1:
        raise ValueError("need at least one variable")
    return tuple(WIDTH * (nvars - 1 - i) for i in range(nvars))


def pack(exps, shifts) -> int:
    key = 0
    for e, sh in zip(exps, shifts):
        if not 0 <= e <= MAX_EXP:
            raise OverflowError(f"exponent {e} outside [0, {MAX_EXP}]")
        key |= e << sh
    return key


def unpack(key: int, shifts) -> tuple[int, ...]:
    return tuple((key >> sh) & _MASK for sh in shifts)


def grlex_key(key: int, shifts) -> tuple[int, int]:
    """Sort key for graded lexicographic order (total degree, then lex),
    the printing order."""
    return (sum((key >> sh) & _MASK for sh in shifts), key)

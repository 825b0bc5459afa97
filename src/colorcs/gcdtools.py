"""Multivariate gcd over Z for the sparse packed representation.

``poly_gcd`` returns the gcd together with its two cofactors, built from
the quotients it computes anyway, so a caller never divides by the gcd
again.  It peels off the cheap structure first: integer content,
monomial content, then trial division by caller-supplied candidate
factors (the coefficient field passes the position binomials x_i - x_j,
which account for essentially every denominator the generator workloads
produce; the smaller operand is tried first, and the kernel divides by
x_i - x_j in one linear pass).  Whatever is left goes through a
heuristic evaluation gcd: substitute a large integer for one variable,
recurse, rebuild the candidate by base-xi digit expansion, and verify by
exact division, whose quotients are the cofactors.  A verified candidate
is a true gcd; on repeated failure the evaluation point grows and after
``_HEU_TRIES`` rounds we raise rather than return something unverified.
"""

from __future__ import annotations

import math

from ._kernel import (
    poly_divexact,
    poly_eval_var,
    poly_mul,
    poly_scale,
)
from .monomials import _MASK, MAX_EXP


class HeuristicGcdError(ArithmeticError):
    """The evaluation gcd failed to verify; inputs are pathological."""


_HEU_TRIES = 8

_ONE = {0: 1}


def poly_content(a) -> int:
    """Positive gcd of all coefficients; 0 for the zero polynomial."""
    g = 0
    for c in a.values():
        g = math.gcd(g, c)
        if g == 1:
            return 1
    return g


def poly_primitive(a):
    """(content, primitive part) with the primitive part's coefficient at its
    largest key positive."""
    if not a:
        return 0, {}
    c = poly_content(a)
    if a[max(a)] < 0:
        c = -c
    if c == 1:
        return 1, dict(a)
    return c, {k: v // c for k, v in a.items()}


def _monomial_content(a, shifts) -> int:
    """Packed componentwise-min exponent over all terms of a (a nonzero)."""
    it = iter(a)
    m = next(it)
    for k in it:
        acc = 0
        for sh in shifts:
            ea = (m >> sh) & _MASK
            eb = (k >> sh) & _MASK
            acc |= (ea if ea < eb else eb) << sh
        m = acc
        if not m:
            break
    return m


def _strip_monomial(a, m):
    if not m:
        return a
    return {k - m: c for k, c in a.items()}


def _is_const(a) -> bool:
    return len(a) == 1 and 0 in a


def _first_slot(a, b, shifts) -> int:
    for slot, sh in enumerate(shifts):
        for poly in (a, b):
            for k in poly:
                if (k >> sh) & _MASK:
                    return slot
    return -1


def _max_abs(a) -> int:
    return max(abs(c) for c in a.values())


def _interpolate(h_eval, xi, slot, shifts):
    """Rebuild a polynomial in variable `slot` from its value at xi."""
    sh = shifts[slot]
    f = dict(h_eval)
    out = {}
    e = 0
    half = xi // 2
    while f:
        if e > MAX_EXP:
            return None
        nxt = {}
        for k, c in f.items():
            r = c % xi
            if r > half:
                r -= xi
            if r:
                kk = k + (e << sh)
                out[kk] = r
            c2 = (c - r) // xi
            if c2:
                nxt[k] = c2
        f = nxt
        e += 1
    return out


def _heugcd(f, g, shifts):
    """(h, f/h, g/h) for two primitive nonconstant polys; h verified exact."""
    slot = _first_slot(f, g, shifts)
    if slot < 0:
        return dict(_ONE), f, g
    xi = 2 * min(_max_abs(f), _max_abs(g)) + 29
    for _ in range(_HEU_TRIES):
        ff = poly_eval_var(f, slot, xi, shifts)
        gg = poly_eval_var(g, slot, xi, shifts)
        if ff and gg:
            h_eval = poly_gcd(ff, gg, shifts)[0]
            h = _interpolate(h_eval, xi, slot, shifts)
            if h:
                _, h = poly_primitive(h)
                qf = poly_divexact(f, h, shifts)
                if qf is not None:
                    qg = poly_divexact(g, h, shifts)
                    if qg is not None:
                        return h, qf, qg
        xi = xi * 73794 // 27011 + 3
    raise HeuristicGcdError("evaluation gcd failed to stabilize")


def _cofactor(q, s, m):
    """s * x^m * q for an integer s and a packed monomial m."""
    if s == 1 and not m:
        return q
    return {k + m: c * s for k, c in q.items()}


def poly_gcd(a, b, shifts, candidates=()):
    """(g, a/g, b/g): the gcd over Z, integer content included and leading
    coefficient positive, with its cofactors.  The leading coefficient
    is the one at the largest key, as everywhere in the arithmetic.

    When g = 1 the cofactors are a and b themselves; when both operands
    are zero, all three are zero.  candidates: polynomials (primitive,
    positive lead) to try by exact division before falling back to the
    heuristic gcd.
    """
    if not a or not b:
        c, p = poly_primitive(a or b)
        if not c:
            return {}, {}, {}
        unit = {0: 1 if c > 0 else -1}
        g = poly_scale(p, abs(c))
        return (g, unit, {}) if a else (g, {}, unit)
    ca, fa = poly_primitive(a)
    cb, fb = poly_primitive(b)
    c = math.gcd(ca, cb)
    ma = _monomial_content(fa, shifts)
    mb = _monomial_content(fb, shifts)
    acc = _monomial_content({ma: 1, mb: 1}, shifts)
    fa = _strip_monomial(fa, ma)
    fb = _strip_monomial(fb, mb)
    swapped = len(fa) > len(fb)
    if swapped:
        # a failed trial division then costs a pass over the smaller part
        fa, fb = fb, fa
    result = {acc: c}
    if not _is_const(fa) and not _is_const(fb):
        for cand in candidates:
            while True:
                qa = poly_divexact(fa, cand, shifts)
                if qa is None:
                    break
                qb = poly_divexact(fb, cand, shifts)
                if qb is None:
                    break
                fa, fb = qa, qb
                result = poly_mul(result, cand, shifts)
                if _is_const(fa) or _is_const(fb):
                    break
    if not _is_const(fa) and not _is_const(fb):
        if fa == fb:
            core, fa, fb = fa, {0: 1}, {0: 1}
        else:
            core, fa, fb = _heugcd(fa, fb, shifts)
        if not _is_const(core):
            result = poly_mul(result, core, shifts)
    if result == _ONE:
        return result, a, b
    if swapped:
        fa, fb = fb, fa
    return (result, _cofactor(fa, ca // c, ma - acc),
            _cofactor(fb, cb // c, mb - acc))

"""Sparse integer polynomial kernels.

A polynomial is ``dict[int, int]``: packed exponent key (see ``monomials``)
mapping to a nonzero integer coefficient.  The zero polynomial is the empty
dict.  Functions never mutate their inputs and never store zero coefficients.
``BACKEND`` names this pure-Python implementation in benchmark and
environment records.

``poly_divexact`` divides by a binomial that is exactly x_u - x_v, the
divisor the gcd's candidate trial divisions use, in one linear pass instead
of the general long division, whose leading-term search makes it quadratic
in the dividend.  Every other divisor, and a dividend whose x_u and x_v
exponents could carry out of the x_v field, takes the general loop; the
result is the same either way.
"""

from __future__ import annotations

from .monomials import _MASK, MAX_EXP

BACKEND = "pure"


def poly_add(a, b):
    if not a:
        return dict(b)
    if not b:
        return dict(a)
    out = dict(a)
    for k, c in b.items():
        s = out.get(k, 0) + c
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def poly_neg(a):
    return {k: -c for k, c in a.items()}


def poly_scale(a, c: int):
    if not c:
        return {}
    if c == 1:
        return dict(a)
    return {k: v * c for k, v in a.items()}


def poly_max_degree(a, shifts) -> int:
    """Largest total degree among the terms; -1 for the zero polynomial."""
    best = -1
    for k in a:
        td = 0
        for sh in shifts:
            td += (k >> sh) & _MASK
        if td > best:
            best = td
    return best


def poly_mul(a, b, shifts):
    if not a or not b:
        return {}
    # packed addition overflows a field only past per-variable degree MAX_EXP;
    # total degree bounds every field, so this check rules it out
    if poly_max_degree(a, shifts) + poly_max_degree(b, shifts) > MAX_EXP:
        raise OverflowError("monomial degree cap exceeded in poly_mul")
    if len(a) > len(b):
        a, b = b, a
    out = {}
    items_b = list(b.items())
    for ka, ca in a.items():
        for kb, cb in items_b:
            k = ka + kb
            s = out.get(k, 0) + ca * cb
            if s:
                out[k] = s
            else:
                out.pop(k, None)
    return out


def poly_diff(a, slot: int, shifts):
    sh = shifts[slot]
    step = 1 << sh
    out = {}
    for k, c in a.items():
        e = (k >> sh) & _MASK
        if e:
            out[k - step] = c * e
    return out


def poly_lead(a, shifts):
    """(key, coeff) of the graded-lex leading term.  a must be nonzero."""
    best_k = -1
    best_td = -1
    for k in a:
        td = 0
        for sh in shifts:
            td += (k >> sh) & _MASK
        if td > best_td or (td == best_td and k > best_k):
            best_td = td
            best_k = k
    return best_k, a[best_k]


def poly_divexact(a, b, shifts):
    """Exact quotient a/b over Z, or None when b does not divide a exactly."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if not a:
        return {}
    if len(b) == 1:
        (kb, cb), = b.items()
        out = {}
        for k, c in a.items():
            q, r = divmod(c, cb)
            if r:
                return None
            if kb:
                for sh in shifts:
                    if ((kb >> sh) & _MASK) > ((k >> sh) & _MASK):
                        return None
                k -= kb
            out[k] = q
        return out
    if len(b) == 2:
        (ku, cu), (kv, cv) = b.items()
        if cu == -1:
            ku, cu, kv, cv = kv, cv, ku, cu
        sh_u = ku.bit_length() - 1
        sh_v = kv.bit_length() - 1
        if cu == 1 and cv == -1 and sh_u in shifts and sh_v in shifts \
                and ku == 1 << sh_u and kv == 1 << sh_v:
            return _divexact_binomial(a, b, sh_u, sh_v, shifts)
    return _divexact_general(a, b, shifts)


def _divexact_binomial(a, b, sh_u, sh_v, shifts):
    """a / (x_u - x_v), where b is that binomial and x_u, x_v sit at bit
    offsets sh_u, sh_v.  Linear in a: a is a multiple exactly when
    a(x_u := x_v) = 0, and then each term c*m*x_u^k contributes
    c*m*(x_u^(k-1) + x_u^(k-2)*x_v + ... + x_v^(k-1))."""
    ku = 1 << sh_u
    step = (1 << sh_v) - ku
    at_v = {}
    for k, c in a.items():
        eu = (k >> sh_u) & _MASK
        if eu:
            if eu + ((k >> sh_v) & _MASK) > MAX_EXP:
                # the x_v field would carry into its neighbour
                return _divexact_general(a, b, shifts)
            k += eu * step
        s = at_v.get(k, 0) + c
        if s:
            at_v[k] = s
        else:
            del at_v[k]
    if at_v:
        return None
    quo = {}
    for k, c in a.items():
        eu = (k >> sh_u) & _MASK
        k -= ku
        for _ in range(eu):
            s = quo.get(k, 0) + c
            if s:
                quo[k] = s
            else:
                del quo[k]
            k += step
    return quo


def _divexact_general(a, b, shifts):
    """Graded-lex long division; a and b nonzero."""
    kb, cb = poly_lead(b, shifts)
    rem = dict(a)
    quo = {}
    items_b = list(b.items())
    while rem:
        kr, cr = poly_lead(rem, shifts)
        for sh in shifts:
            if ((kb >> sh) & _MASK) > ((kr >> sh) & _MASK):
                return None
        qc, r = divmod(cr, cb)
        if r:
            return None
        km = kr - kb
        quo[km] = qc
        for k2, c2 in items_b:
            kk = k2 + km
            s = rem.get(kk, 0) - qc * c2
            if s:
                rem[kk] = s
            else:
                rem.pop(kk, None)
    return quo


def poly_eval_var(a, slot: int, value: int, shifts):
    """Substitute an integer for one variable; returns a poly in the rest."""
    sh = shifts[slot]
    clear = ~(_MASK << sh)
    out = {}
    for k, c in a.items():
        e = (k >> sh) & _MASK
        if e:
            c = c * value ** e
            k &= clear
        s = out.get(k, 0) + c
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out

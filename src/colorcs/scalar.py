"""Exact rational-function field in the positions x_1..x_N, the coupling
lam, and two spectral variables x, y.

Polynomials are the packed-int dicts from the kernel layer; a
RationalFunction is a canonical pair (num, den) over Z with

  * gcd(num, den) = 1, integer contents included,
  * den's coefficient at its largest packed key positive (the key order
    is lex, the arithmetic's one monomial order; see ``monomials``),
  * zero represented as (0, 1).

Structural equality of canonical pairs is then mathematical equality, which
is what the rest of the package leans on.  A constant is an integer pair
like any other, ({0: p}, {0: q}), built by ``ScalarField.const`` from two
integers or from an int, Fraction or float through its integer ratio, so
the field needs no rational type of its own.  ``const`` is also the one
door by which an outside value becomes a coefficient: the operator
constructors (``AlgebraContext.scalar``, ``from_units`` and ``unit``),
``OperatorSum.scale`` and ``substitute`` all go through it, so a function
of this field passes unchanged and one of another field raises
``ContextMismatchError`` there, at its cause.  Arithmetic operands coerce
apart from it, through ``_coerce`` (below), which refuses floats.  A new
numerator is reduced at
one seam, ``ScalarField._cancel``, against the one factor of its
denominator that can share a prime with it: in a sum the gcd of the two
denominators, in a derivative gcd(den, d den) (the whole denominator
when it is free of the variable), in ``frac`` (input only; no arithmetic
calls it) the whole denominator.  A product cancels each numerator
against the other factor's denominator.  ``relabel``, a renaming of the
positions, needs no reduction at all.

The operators are built from few distinct coefficients, so the same sums,
products, derivatives and denominator gcds recur many times within one
verification.  ``ScalarField.arithmetic_memo()`` is the package's one
coefficient cache, and this module alone decides what it shares and for
how long.  Inside it the field keeps every result of ``diff`` under
(operation, operand, slot), every result of ``+`` and ``*`` under
(operation, the unordered operand pair), and every gcd of a denominator
pair under ("gcd", the pair's order-free fingerprints), as (g, d1/g,
d2/g) in the key's order, so each distinct one is computed once; outside
it nothing is stored.  The gcd comes with its cofactors
(``gcdtools.poly_gcd``), so this module never divides by a gcd.  The
arithmetic keys are the operands themselves, compared by the structural
``__eq__``, which includes the field, so only an equal computation can
hit.  An unordered pair is stored in the order of the operands' cached
hashes, so ``b * a`` finds what ``a * b`` left; when the two hashes tie,
the two orders get two entries, which costs a missed share and nothing
else.  A hit hands out the stored object, which is sound because a
RationalFunction's value and its ``num``/``den`` dicts are never mutated
after construction (only its cached hash and negation link are filled
in later): every operation builds new ones.  The scope is bounded by
its caller (one verdict in ``verify``, one build in ``cli``) and drops
the memo on exit.  The same scope also carries the operator layer's
bracket entries, under a ``"bracket"`` tag no coefficient key uses; what
they share and what they pin is stated in ``operators``.

The gcd tries exact division by ``ScalarField.candidates`` before its
heuristic path (see ``gcdtools``).  The candidates are the C(N, 2)
position binomials x_i - x_j, i < j, because every denominator the model
builders produce is content times a monomial times a product of them.
Binomials in the spectral slots x and y are not candidates: over the
whole default catalog not one of their trial divisions succeeded.  The
list decides cost, not results: a shared factor outside it still
cancels through the heuristic gcd, so the canonical form is the same
whatever the list holds.

A sign is a link between two objects, not a computation.  A function
builds its negation once and keeps it in ``_neg``, linked both ways, so
``-(-f) is f`` and every later ``-f`` hands out the same object; zero
negates to itself, and the negation of any -1 is ``field.one``.  Each of
the two keeps the other alive, so a negation, once asked for, lives as
long as the function it negates.  A difference ``f - g`` adds the shared
``-g``, so repeated subtractions and negative word signs build no new
negations.

Nearly every operand of ``+``, ``-`` and ``*`` is a function of the same
field, so those three take one exact type and field test first; only
ints, Fractions and other types go through ``_coerce``, which builds
the constant or returns NotImplemented.

Three kinds of request skip the memo, because their answer needs no
arithmetic: a product with the unit returns the other factor, the
difference of equal functions returns ``field.zero``, and so does
``f + (-f)``, which is recognized by identity (``g is f._neg``).  The
unit test is an identity test too, since every 1 the field builds is
``field.one`` itself (``const``, ``_make`` and negation return it); a 1
or a negation built by hand only misses the shortcut.

Besides the memo, the field keeps one object per requested monomial:
``monomial`` (and ``x``, ``lam``, ``aux_x``, ``aux_y`` through it)
returns the same object for the same (monomial, coefficient) for the
field's lifetime, so the memo's keys and the negation links meet on
shared objects.  That table is bounded by the monomials the builders
ask for.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

from . import monomials
from ._kernel import (
    poly_add,
    poly_diff,
    poly_mul,
    poly_neg,
    poly_scale,
)
from .errors import ContextMismatchError, PoleError
from .gcdtools import poly_content, poly_gcd

_MASK = monomials._MASK


def _fingerprint(p):
    return tuple(sorted(p.items()))


def _signed(num, den):
    """num/den with the canonical sign: both negated when den's
    coefficient at its largest key is negative."""
    if den[max(den)] < 0:
        return poly_neg(num), poly_neg(den)
    return num, den


def _memoized(symmetric):
    """Share a RationalFunction method's results inside the field's
    arithmetic memo, keyed by (method name, operand, argument); a
    symmetric method keys on the unordered pair, put in hash order."""

    def wrap(compute):
        tag = compute.__name__

        def cached(self, arg):
            memo = self.field._memo
            if memo is None:
                return compute(self, arg)
            key = (tag, self, arg)
            if symmetric:
                # read the cached hashes directly; hash() fills them once
                hs = self._h
                if hs is None:
                    hs = hash(self)
                ha = arg._h
                if ha is None:
                    ha = hash(arg)
                if ha < hs:
                    key = (tag, arg, self)
            out = memo.get(key)
            if out is None:
                out = memo[key] = compute(self, arg)
            return out

        return cached

    return wrap


class ScalarField:
    """Coefficient field for one fixed number of sites N."""

    def __init__(self, N: int):
        if N < 1:
            raise ValueError("need at least one site")
        self.N = N
        self.names = tuple(f"x{i}" for i in range(1, N + 1)) + ("lam", "x", "y")
        self.nvars = N + 3
        self.shifts = monomials.make_shifts(self.nvars)
        self.slot_lambda = N
        self.slot_x = N + 1
        self.slot_y = N + 2
        self._one_p = {0: 1}
        self.one = RationalFunction(self, {0: 1}, self._one_p)
        self.zero = RationalFunction(self, {}, self._one_p)
        # x_i - x_j for i < j, the gcd's trial divisors (module docstring)
        self.candidates = tuple(
            {1 << self.shifts[i]: 1, 1 << self.shifts[j]: -1}
            for i in range(N) for j in range(i + 1, N)
        )
        self._monomials = {}
        self._memo = None

    def __repr__(self):
        return f"ScalarField(N={self.N})"

    @contextmanager
    def arithmetic_memo(self):
        """Compute each distinct sum, product and derivative of this
        field's functions once inside the block (see the module
        docstring); the memo is dropped when the block exits."""
        outer = self._memo
        self._memo = {}
        try:
            yield
        finally:
            self._memo = outer

    # -- polynomial-level helpers --------------------------------------

    def gcd(self, a, b):
        """(g, a/g, b/g), see ``gcdtools.poly_gcd``."""
        return poly_gcd(a, b, self.shifts, self.candidates)

    def _gcd_dens(self, d1, d2):
        """(g, d1/g, d2/g) for canonical (positive-lead) denominators,
        shared inside the arithmetic memo."""
        memo = self._memo
        if memo is None:
            return poly_gcd(d1, d2, self.shifts, self.candidates)
        k1 = _fingerprint(d1)
        k2 = _fingerprint(d2)
        flip = k2 < k1
        key = ("gcd", k2, k1) if flip else ("gcd", k1, k2)
        out = memo.get(key)
        if out is None:
            out = poly_gcd(d1, d2, self.shifts, self.candidates)
            memo[key] = (out[0], out[2], out[1]) if flip else out
        elif flip:
            out = (out[0], out[2], out[1])
        return out

    # -- constructors ---------------------------------------------------

    def _make(self, num, den):
        if not num:
            return self.zero
        if len(den) == 1 and den.get(0) == 1:
            if len(num) == 1 and num.get(0) == 1:
                return self.one
            den = self._one_p
        return RationalFunction(self, num, den)

    def const(self, c, q=None):
        """The constant c (an int, a Fraction or a float, read through
        its integer ratio), or p/q from two integers c = p and q;
        PoleError for q = 0."""
        if isinstance(c, RationalFunction):
            if c.field is not self:
                raise ContextMismatchError("constant from a different field")
            return c
        if q is None:
            p, q = c.as_integer_ratio()
        elif not q:
            raise PoleError("zero denominator")
        else:
            g = math.gcd(c, q)
            if q < 0:
                g = -g
            p, q = c // g, q // g
        if not p:
            return self.zero
        if p == q:
            return self.one
        den = self._one_p if q == 1 else {0: q}
        return RationalFunction(self, {0: p}, den)

    def _cancel(self, t, g, rest):
        """t/(g*rest), canonical (zero included), for positive-lead g and
        rest when only factors of g can cancel against t.

        In d/dx_k of n/den, with (g, q, dq) = gcd(den, d den) and
        t = n'q - n dq, gcd(t, den*q) = gcd(t, g): for a prime p with
        e = v_p(den) >= 1, if p contains x_k then v_p(g) = e - 1,
        v_p(dq) = 0 and p does not divide n, so v_p(t) = 0 and p's
        exponent rises by one; if p is free of x_k (another binomial, a
        monomial in another position, integer content), v_p(g) = e =
        v_p(den*q).
        """
        if t and g != self._one_p:
            _, t, g = self.gcd(t, g)
        if rest != self._one_p:
            g = rest if g == self._one_p else poly_mul(g, rest, self.shifts)
        return self._make(t, g)

    def frac(self, num, den):
        """Canonicalize an input pair of polynomials num/den."""
        if not den:
            raise PoleError("zero denominator")
        num, den = _signed(num, den)
        return self._cancel(num, den, self._one_p)

    def monomial(self, exps, coeff=1):
        """coeff times the monomial of exps, a mapping slot -> exponent;
        equal requests return one object (module docstring)."""
        if not coeff:
            return self.zero
        key = 0
        for slot, e in exps.items():
            if not 0 <= e <= monomials.MAX_EXP:
                raise OverflowError("exponent out of range")
            key |= e << self.shifts[slot]
        out = self._monomials.get((key, coeff))
        if out is None:
            out = self._monomials[key, coeff] = \
                self._make({key: coeff}, self._one_p)
        return out

    def _site_slot(self, i: int) -> int:
        """The slot of the 1-based site i; ValueError outside 1..N."""
        if not 1 <= i <= self.N:
            raise ValueError(f"site index {i} out of range 1..{self.N}")
        return i - 1

    def _site_perm(self, sigma):
        """The 0-based slots (sigma(1) - 1, ..., sigma(N) - 1) of a site
        permutation given by its 1-based images; ValueError otherwise."""
        dest = tuple(self._site_slot(i) for i in sigma)
        if len(dest) != self.N or len(set(dest)) != self.N:
            raise ValueError(f"not a permutation of the sites: {sigma!r}")
        return dest

    def x(self, i: int):
        """Position variable x_i, 1-based."""
        return self.monomial({self._site_slot(i): 1})

    @property
    def lam(self):
        return self.monomial({self.slot_lambda: 1})

    @property
    def aux_x(self):
        return self.monomial({self.slot_x: 1})

    @property
    def aux_y(self):
        return self.monomial({self.slot_y: 1})

    def omega(self, i: int, j: int):
        """1/(x_i - x_j) for distinct 1-based sites."""
        return self.frac({0: 1}, self._position_binomial(i, j))

    def theta(self, i: int, j: int):
        """x_i/(x_i - x_j) for distinct 1-based sites."""
        den = self._position_binomial(i, j)
        return self.frac({1 << self.shifts[i - 1]: 1}, den)

    def _position_binomial(self, i, j):
        """x_i - x_j for distinct 1-based sites."""
        si, sj = self._site_slot(i), self._site_slot(j)
        if si == sj:
            raise ValueError(f"need distinct sites, got {i} twice")
        return {1 << self.shifts[si]: 1, 1 << self.shifts[sj]: -1}


class RationalFunction:
    __slots__ = ("field", "num", "den", "_h", "_neg")

    def __init__(self, field, num, den):
        self.field = field
        self.num = num
        self.den = den
        self._h = None
        self._neg = None

    # -- predicates -------------------------------------------------------

    def __bool__(self):
        return bool(self.num)

    @property
    def is_poly(self):
        return len(self.den) == 1 and self.den.get(0) == 1

    def __eq__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return (
            self.field is other.field
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        h = self._h
        if h is None:
            h = hash((_fingerprint(self.num), _fingerprint(self.den)))
            self._h = h
        return h

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RationalFunction):
            if other.field is not self.field:
                raise ContextMismatchError("operands from different fields")
            return other
        # ints and Fractions carry a denominator; floats do not
        if hasattr(other, "denominator"):
            return self.field.const(other)
        return None

    def __add__(self, other):
        if type(other) is RationalFunction and other.field is self.field:
            o = other
        else:
            o = self._coerce(other)
            if o is None:
                return NotImplemented
        if not self.num:
            return o
        if not o.num:
            return self
        if o is self._neg:
            return self.field.zero
        return self._add(o)

    __radd__ = __add__

    @_memoized(symmetric=True)
    def _add(self, o):
        f = self.field
        n1, d1 = self.num, self.den
        n2, d2 = o.num, o.den
        if d1 == d2:
            return f._cancel(poly_add(n1, n2), d1, f._one_p)
        sh = f.shifts
        g, q1, q2 = f._gcd_dens(d1, d2)
        t = poly_add(poly_mul(n1, q2, sh), poly_mul(n2, q1, sh))
        return f._cancel(t, g, poly_mul(q1, q2, sh))

    def __neg__(self):
        neg = self._neg
        if neg is not None:
            return neg
        num = self.num
        if not num:
            return self
        f = self.field
        if num.get(0) == -1 and len(num) == 1 and self.den is f._one_p:
            neg = f.one
        else:
            neg = RationalFunction(f, poly_neg(num), self.den)
        # linked both ways, so -(-f) is f; a second -1 links one way only
        self._neg = neg
        if neg._neg is None:
            neg._neg = self
        return neg

    def __sub__(self, other):
        if type(other) is RationalFunction and other.field is self.field:
            o = other
        else:
            o = self._coerce(other)
            if o is None:
                return NotImplemented
        if o is self or o == self:
            return self.field.zero
        return self.__add__(-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o.__sub__(self)

    def _scale_int(self, c: int):
        f = self.field
        if not c or not self.num:
            return f.zero
        if c == 1:
            return self
        if c == -1:
            return -self
        cd = poly_content(self.den)
        g = math.gcd(c, cd)
        num = poly_scale(self.num, c // g)
        den = self.den if g == 1 else {k: v // g for k, v in self.den.items()}
        return f._make(num, den)

    def __mul__(self, other):
        if type(other) is RationalFunction and other.field is self.field:
            o = other
        elif isinstance(other, int):
            return self._scale_int(other)
        else:
            o = self._coerce(other)
            if o is None:
                return NotImplemented
        one = self.field.one
        if o is one:
            return self
        if self is one:
            return o
        if not self.num or not o.num:
            return self.field.zero
        return self._mul(o)

    __rmul__ = __mul__

    @_memoized(symmetric=True)
    def _mul(self, o):
        f = self.field
        sh = f.shifts
        n1, d1 = self.num, self.den
        n2, d2 = o.num, o.den
        one = f._one_p
        if d2 != one:
            _, n1, d2 = f.gcd(n1, d2)
        if d1 != one:
            _, n2, d1 = f.gcd(n2, d1)
        return f._make(poly_mul(n1, n2, sh), poly_mul(d1, d2, sh))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o.num:
            raise PoleError("division by zero")
        return self.__mul__(self.field._make(*_signed(o.den, o.num)))

    # -- calculus and substitution ------------------------------------------

    def diff(self, slot: int):
        """Partial derivative with respect to the variable in `slot`."""
        if not self.num:
            return self.field.zero
        return self._diff(slot)

    @_memoized(symmetric=False)
    def _diff(self, slot):
        f = self.field
        sh = f.shifts
        nd = poly_diff(self.num, slot, sh)
        dden = poly_diff(self.den, slot, sh)
        if not dden:
            # a denominator free of the slot: d(n/den) = n'/den
            return f._cancel(nd, self.den, f._one_p)
        g, q, dq = f.gcd(self.den, dden)
        t = poly_add(poly_mul(nd, q, sh), poly_neg(poly_mul(self.num, dq, sh)))
        return f._cancel(t, g, poly_mul(q, q, sh))

    def d_dx(self, i: int):
        """Derivative in the 1-based position x_i."""
        return self.diff(self.field._site_slot(i))

    def relabel(self, sigma):
        """This function with x_k renamed to x_sigma(k); sigma lists the
        images (sigma(1), ..., sigma(N)) of the sites.

        A renaming of variables is a ring automorphism, so num and den
        stay coprime with the same contents, and no gcd is needed: only
        the sign at den's largest key can turn negative, and then both
        are negated.  A polynomial free of the positions is kept as it
        is."""
        f = self.field
        sh = f.shifts
        moves = [(sh[k], sh[d]) for k, d in enumerate(f._site_perm(sigma))]
        pos = 0
        for s, _ in moves:
            pos |= _MASK << s

        def image(p):
            if not any(key & pos for key in p):
                return p
            out = {}
            for key, c in p.items():
                new = key & ~pos
                for s, d in moves:
                    new |= ((key >> s) & _MASK) << d
                out[new] = c
            return out

        num, den = image(self.num), image(self.den)
        if num is self.num and den is self.den:
            return self
        return f._make(*_signed(num, den))

    def substitute(self, slot: int, value):
        """Replace the variable in `slot` by an int, Fraction or function;
        ValueError for a slot outside 0..nvars-1."""
        f = self.field
        if not 0 <= slot < f.nvars:
            raise ValueError(f"slot {slot} out of range 0..{f.nvars - 1}")
        r = f.const(value)
        if not self.num:
            return self
        sh = f.shifts[slot]

        def horner(p):
            parts = {}
            for k, c in p.items():
                e = (k >> sh) & _MASK
                parts.setdefault(e, {})[k - (e << sh)] = c
            acc = f.zero
            for e in range(max(parts), -1, -1):
                acc = acc * r
                part = parts.get(e)
                if part:
                    acc = acc + f._make(part, f._one_p)
            return acc

        np = horner(self.num)
        dp = horner(self.den)
        if not dp.num:
            raise PoleError("substitution lands on a pole")
        return np / dp

    def substitute_lambda(self, value):
        return self.substitute(self.field.slot_lambda, value)

    # -- formatting -------------------------------------------------------

    def to_str(self):
        f = self.field
        num_s = poly_str(self.num, f)
        if self.is_poly:
            return num_s
        if len(self.den) == 1 and 0 in self.den:
            return f"({num_s})/{self.den[0]}"
        return f"({num_s})/({poly_str(self.den, f)})"

    def __str__(self):
        return self.to_str()

    def __repr__(self):
        return self.to_str()


def poly_str(p, field):
    """Deterministic human-readable form, graded-lex descending: the
    printing order, not the arithmetic's."""
    if not p:
        return "0"
    items = sorted(
        p.items(),
        key=lambda kv: monomials.grlex_key(kv[0], field.shifts),
        reverse=True,
    )
    out = []
    for k, c in items:
        factors = []
        for slot, sh in enumerate(field.shifts):
            e = (k >> sh) & _MASK
            if e:
                nm = field.names[slot]
                factors.append(nm if e == 1 else f"{nm}^{e}")
        mono = "*".join(factors)
        mag = abs(c)
        if mono:
            body = mono if mag == 1 else f"{mag}*{mono}"
        else:
            body = str(mag)
        if not out:
            out.append(body if c > 0 else f"-{body}")
        else:
            out.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(out)

"""Symbolic operators: rational coefficients times color words times
partial derivatives, kept in a canonical merged form.

A term is coeff(x, lam) * W * D^p where W is a full-support color word (one
unit per site) and p a tuple of derivative orders per site.
Multiplication normalizes with the graded word product and the Leibniz
rule; equal canonical forms mean equal operators, because full-support
words act linearly independently on the color basis and monomials times
derivatives are independent on polynomial amplitudes.

A word is stored as its matrix unit, the pair (out, in) of color tuples
(see ``color``).  A product joins on the tuples: ``mul`` indexes the right
operand's terms by their out tuple, and each left term looks up its in
tuple, so only matching pairs (in1 == out2) are visited.  The index is
built on the first product that has the operand on the right and kept in
the operand, as its parity is; that is sound because no operation mutates
``terms`` after construction.  A sum or a difference runs b's terms
through ``_acc_add``, the accumulator ``mul`` uses, with sign +1 or -1;
so ``a - b`` is termwise: it subtracts matching coefficients and negates
only the terms b alone has, without building ``-b`` first.  A word acts
only on the basis state equal to its in tuple: ``apply_to`` reads each
state component's terms from a second index, by in tuple and then
derivative tuple, which also holds each word's sign and out tuple on its
in tuple; it is built on the operator's first action and kept the same
way.  Its states are the oracle's exponential probes (see ``verify``):
amplitudes times powers of formal t_1..t_N times e^(t.x), on which d^p
acts as (d + t)^p, expanded one factor d_i + t_i at a time.  That is
separate code from ``mul``'s Leibniz walk, and shares no helper or
binomial arithmetic with it.
Printing orders words site by site as (a1, b1, ..., aN, bN), through
``display_keys``.

Inside the field's arithmetic memo (``ScalarField.arithmetic_memo``, one
verdict) ``bracket`` computes each distinct bracket once.  The entry is
keyed by ("bracket", id(a), id(b), cut), because an operator is
unhashable, with a cut of 0 or less keyed as 0, the full bracket.  It
holds (a, b, result): pinning both operands keeps their ids from being
reused while the entry lives.  A repeat returns the stored
result, and the graded swap [b, a} is read off [a, b}: the same result
when both are odd (the anticommutator is symmetric), its negation
otherwise.  A computed bracket makes its two ``mul`` calls, unless one
operand is a multiplication operator g: every diagonal word at derivative
order zero, all with one coefficient, the shape ``AlgebraContext.scalar``
builds.  Then [Q, g] = Q g - g Q = sum over t != 0 of C(p, t) f (d^t g)
w d^(p-t), summed over the terms f w d^p of Q, and [g, Q] is its negation.
The t = 0 Leibniz term of (f w d^p) g is f g w d^p, and g Q holds
g f w d^p for the same term of Q: the one word of g that meets w is the
diagonal word at w's in tuple (g on the right) or out tuple (g on the
left), which is even, so both word products give w with sign +1; and
f g and g f are one canonical coefficient.  So g Q cancels the t = 0
terms exactly, term by term, and the bracket is one product that skips
them (``mul``'s private ``_tail`` flag), negated when g is on the left.
That product stays inside ``mul``, so the term budget and the truncation
apply to it as to any product, and verdictbench's ``operators.mul`` span
still times and counts it; the action path (``verify.Bracket``) still
applies both orders to states, so the oracle checks the shortcut against
independent code.

The cut is part of the key, so a truncated bracket is never derived
from a full one or the reverse.  The memo holds one entry per distinct
(a, b, cut) a verdict evaluates, and most results are held for the
verdict anyway by the ``Bracket`` nodes of its instances; what it adds is
the entries, the truncated tops and the brackets that model builders
compute on the way.
Outside a memo scope nothing is stored.  A product's word sign is folded
into its accumulation: a negative pair subtracts from an existing term
and negates only a new one.

Any other computed bracket whose operands have only polynomial
coefficients (``_is_poly``, cached per operator as the parity is) is one
accumulator: AB is added into a fresh dict, and BA into the same dict through
``mul``'s private ``_into``, with the bracket's sign folded into each of
its pairs (``_sign``), so no third dict and no merge are made.  A sum of
polynomials needs no gcd, so the order in which the terms meet costs
nothing.  Both products are still ``mul`` calls, so the truncation
applies to each and verdictbench's ``operators.mul`` span counts two
products per bracket; its ``terms_out`` on the second reads the running
sum AB -+ BA, not BA alone.  The term budget then bounds that running
sum: it is checked whenever a new term enters, through AB's pairs and
then BA's.  A bracket with a rational coefficient keeps two products and
one merge, and its budget bounds each product alone.  There every
partial sum is a rational addition, a gcd, and BA built on its own makes
the same partial sums other brackets make, which the arithmetic memo
shares; adding BA into AB's sums makes new ones, and fusing those
brackets was measured slower on the rational Serre cases.

A sign is a link, as in ``scalar``: ``-a`` is built once and kept in
``_neg``, linked both ways, so ``-(-a) is a``, a zero operator negates to
itself, and every later ``-a`` hands out the same object: a swap served
off the bracket memo, ``scale(-1)``, a difference from zero.  Since the
memo keys brackets by id, an outer bracket of a served negation hits it
too.  Each of the two keeps the other alive.

Leibniz only lowers the degree: a term f w d^p times a term g w' d^q is
the sum over t <= p of C(p, t) f (d^t g) (w w') d^(p+q-t), whose total
derivative degree |p| + |q| - |t| is at most |p| + |q|.  So the terms of
a product at degree >= c come only from pairs with |p| + |q| >= c, and
``mul(other, cut=c)`` skips each Leibniz term with |t| above
|p| + |q| - c before it takes any derivative; ``bracket`` passes the cut
to its products, and ``filtered(c)`` keeps the terms at degree >= c.  A
cut of 0 or less keeps every term.  The expression nodes of ``verify``,
collapsed at an instance's cut, and the cut builds of the spin generators
(``models``) rest on this rule.

``relabel(sigma)`` renames site k to sigma(k): it permutes each term's
out, in and derivative tuples and maps each coefficient through
``RationalFunction.relabel``, once per distinct coefficient object.  A
word is the product of its units in ascending site order, so the renamed
units are put back in that order, and each pair of odd units whose order
the renaming reverses flips the term's sign (``full_word_relabel``).  The
relations among units, positions and derivatives do not depend on which
sites carry them, so the renaming is an automorphism: it preserves sums,
products and brackets.  The model builders read every site's row off
site 1's with it (see ``models``).  The oracle never calls it: it applies
builder leaves to probes, so a wrong image shows as a manifest deviation.

The running term budget is a context variable so a verification run can
bound intermediate growth without threading a parameter everywhere.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar

from .color import (
    GradingContext,
    full_word_act,
    full_word_mul,
    full_word_parity,
    full_word_relabel,
    permutation_terms,
    word_from_units,
)
from .errors import (
    CapExceededError,
    ContextMismatchError,
    MixedParityError,
)
from .scalar import ScalarField

_TERM_BUDGET: ContextVar = ContextVar("colorcs_term_budget", default=None)


@contextmanager
def term_budget(limit):
    """Bound the term count of operator products inside the block."""
    token = _TERM_BUDGET.set(limit)
    try:
        yield
    finally:
        _TERM_BUDGET.reset(token)


class AlgebraContext:
    """Sites, color grading and coefficient field bundled together."""

    def __init__(self, n: int, m: int, N: int):
        self.grading = GradingContext(n, m, N)
        self.field = ScalarField(N)
        self.N = N
        self.zero_deriv = (0,) * N
        self._identity_terms = None
        self._zero = OperatorSum(self, {})

    def __repr__(self):
        g = self.grading
        return f"AlgebraContext(n={g.n}, m={g.m}, N={self.N})"

    def zero(self):
        """The context's one zero operator; sharing it is sound because
        no operation mutates ``terms`` after construction."""
        return self._zero

    def identity(self):
        return self.scalar(self.field.one)

    def _diag_keys(self):
        if self._identity_terms is None:
            g = self.grading
            self._identity_terms = tuple(
                (fill, fill) for fill in g.basis_states()
            )
        return self._identity_terms

    def _diagonal(self, f, p):
        """f d^p on every diagonal word, with one coefficient f; at p = 0
        this is multiplication by f (``OperatorSum._is_multiplication``)."""
        return OperatorSum(self, {(key, p): f for key in self._diag_keys()})

    def scalar(self, value):
        """Multiplication operator by a coefficient function."""
        f = self.field.const(value)
        if not f:
            return self.zero()
        return self._diagonal(f, self.zero_deriv)

    def coord(self, i: int):
        """Multiplication by x_i."""
        return self.scalar(self.field.x(i))

    def deriv(self, i: int, order: int = 1):
        """d^order/dx_i^order as an operator."""
        if not 1 <= i <= self.N:
            raise ValueError(f"site {i} out of range 1..{self.N}")
        if order < 0:
            raise ValueError("derivative order must be nonnegative")
        p = list(self.zero_deriv)
        p[i - 1] = order
        return self._diagonal(self.field.one, tuple(p))

    def from_units(self, units, coeff=1, deriv=None):
        """Operator from a product of units, leftmost factor first."""
        f = self.field.const(coeff)
        p = self.zero_deriv if deriv is None else tuple(deriv)
        if len(p) != self.N or any(k < 0 for k in p):
            raise ValueError("bad derivative tuple")
        if not f:
            return self.zero()
        sign, word = word_from_units(self.grading, units)
        if not sign:
            return self.zero()
        if sign < 0:
            f = -f
        terms = {}
        for key in word.expand_full():
            terms[(key, p)] = f
        return OperatorSum(self, terms)

    def unit(self, i: int, a: int, b: int, coeff=1, deriv=None):
        """The color unit e(i, a, b) as an operator."""
        return self.from_units([(i, a, b)], coeff=coeff, deriv=deriv)

    def swap(self, i: int, j: int):
        """Graded permutation of sites i and j."""
        acc = self.zero()
        for c, units in permutation_terms(self.grading, i, j):
            acc = acc + self.from_units(units, coeff=c)
        return acc


def _leibniz(g, p, nz, cap, j=0):
    """Yield (t, d^t g) for the multi-indices t over the slots nz[j:] (not
    empty) with t <= p and |t| <= cap, in ``itertools.product`` order,
    skipping zero derivatives.  Each derivative extends the one before it
    in the walk, so every distinct t costs one ``diff``."""
    slot = nz[j]
    last = j + 1 == len(nz)
    for k in range(min(p[slot], cap) + 1):
        if k:
            g = g.diff(slot)
            if not g:
                return
        if last:
            yield (k,), g
        else:
            for t, d in _leibniz(g, p, nz, cap - k, j + 1):
                yield (k,) + t, d


class OperatorSum:
    __slots__ = ("ctx", "terms", "_par", "_poly", "_by_out", "_by_in",
                 "_neg")

    def __init__(self, ctx, terms):
        self.ctx = ctx
        self.terms = terms
        self._par = None
        self._poly = None
        self._by_out = None
        self._by_in = None
        self._neg = None

    # -- bookkeeping -------------------------------------------------------

    def __len__(self):
        return len(self.terms)

    def __bool__(self):
        return bool(self.terms)

    @property
    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, OperatorSum):
            return NotImplemented
        return self.ctx is other.ctx and self.terms == other.terms

    def parity(self):
        """0 or 1 when all words agree; raises on a genuine mixture."""
        if self._par is not None:
            return self._par
        g = self.ctx.grading
        seen = None
        for word, _ in self.terms:
            p = full_word_parity(g, word)
            if seen is None:
                seen = p
            elif seen != p:
                raise MixedParityError("operator mixes even and odd words")
        self._par = 0 if seen is None else seen
        return self._par

    def _is_poly(self):
        """Whether every coefficient is a polynomial; cached as the
        parity is."""
        if self._poly is None:
            self._poly = all(f.is_poly for f in self.terms.values())
        return self._poly

    def max_deriv_degree(self):
        return max((sum(p) for _, p in self.terms), default=-1)

    def _check(self, other):
        if not isinstance(other, OperatorSum):
            raise TypeError("expected an OperatorSum")
        if other.ctx is not self.ctx:
            raise ContextMismatchError("operators from different contexts")

    # -- linear structure ----------------------------------------------------

    def __add__(self, other):
        self._check(other)
        if not self.terms:
            return other
        if not other.terms:
            return self
        return self._merge(other, 1)

    def __neg__(self):
        neg = self._neg
        if neg is None:
            if not self.terms:
                return self
            neg = OperatorSum(self.ctx,
                              {k: -f for k, f in self.terms.items()})
            # linked both ways, so -(-a) is a
            self._neg = neg
            neg._neg = self
        return neg

    def __sub__(self, other):
        self._check(other)
        if not other.terms:
            return self
        if not self.terms:
            return -other
        return self._merge(other, -1)

    def _merge(self, other, sign):
        """self + sign * other, coefficient by coefficient."""
        out = dict(self.terms)
        for key, g in other.terms.items():
            _acc_add(out, key, g, sign, None)
        return OperatorSum(self.ctx, out)

    def scale(self, value):
        """Left multiplication by a coefficient (commutes past nothing).

        An int other than 1 and -1 multiplies each coefficient as it is,
        so it reaches ``RationalFunction._scale_int``; any other value
        becomes a coefficient through ``ScalarField.const``, which raises
        ``ContextMismatchError`` for a function of another field."""
        if isinstance(value, int):
            if value == 1:
                return self
            if value == -1:
                return -self
        else:
            value = self.ctx.field.const(value)
        if not value:
            return self.ctx.zero()
        out = {}
        for k, g in self.terms.items():
            out[k] = g * value
        return OperatorSum(self.ctx, out)

    # -- multiplication ------------------------------------------------------

    def mul(self, other, cut=0, _tail=False, _into=None, _sign=1):
        """Product; a cut above 0 drops the result terms below that total
        derivative degree (sound for leading-order comparisons).

        The private arguments are for ``bracket`` alone (the module
        docstring says why): ``_tail`` keeps only the Leibniz terms with
        t != 0, and ``_into`` is a term dict the product adds into, times
        ``_sign``, instead of a fresh one.  The result then wraps that
        dict, which a further ``_into`` product changes, so the caller
        keeps only the last product's result; no other operator is ever
        changed after construction."""
        self._check(other)
        ctx = self.ctx
        acc = {} if _into is None else _into
        if not self.terms or not other.terms:
            return OperatorSum(ctx, acc)
        grading = ctx.grading
        budget = _TERM_BUDGET.get()
        by_out = other._join_index()
        lowest = 1 if _tail else 0
        for (w1, p), f in self.terms.items():
            matches = by_out.get(w1[1])
            if matches is None:
                continue
            p_total = sum(p)
            if p_total:
                nz = [i for i in range(ctx.N) if p[i]]
            for (w2, q), g in matches:
                # a Leibniz term moves |t| derivatives onto g and keeps
                # degree p_total + sum(q) - |t|, so the cut bounds |t|
                cap = p_total
                if cut > 0:
                    cap = min(cap, p_total + sum(q) - cut)
                if cap < lowest:
                    continue
                sign, w = full_word_mul(grading, w1, w2)
                if _sign < 0:
                    sign = -sign
                if not p_total:
                    _acc_add(acc, (w, q), f * g, sign, budget)
                    continue
                for ts, dg in _leibniz(g, p, nz, cap):
                    if _tail and not any(ts):
                        continue
                    r = [a + b for a, b in zip(p, q)]
                    comb = 1
                    for i, ti in zip(nz, ts):
                        r[i] -= ti
                        comb *= math.comb(p[i], ti)
                    val = f * dg
                    if comb != 1:
                        val = val._scale_int(comb)
                    _acc_add(acc, (w, tuple(r)), val, sign, budget)
        return OperatorSum(ctx, acc)

    def _join_index(self):
        """This operator's terms grouped by the out tuple of their word,
        built on the first product that has it on the right."""
        idx = self._by_out
        if idx is None:
            idx = {}
            for key, g in self.terms.items():
                idx.setdefault(key[0][0], []).append((key, g))
            self._by_out = idx
        return idx

    def _is_multiplication(self):
        """Whether this is multiplication by one coefficient, the shape
        ``AlgebraContext._diagonal`` builds at p = 0: every diagonal word
        at derivative order zero, all with the same coefficient."""
        ctx = self.ctx
        terms = self.terms
        diag = ctx._diag_keys()
        if len(terms) != len(diag):
            return False
        first = None
        for key in diag:
            f = terms.get((key, ctx.zero_deriv))
            if f is None:
                return False
            if first is None:
                first = f
            elif f is not first and f != first:
                return False
        return True

    def bracket(self, other, cut=0):
        """Graded commutator [self, other}: anticommutator when both odd;
        the cut truncates as in ``mul``.  One product when an operand is
        a multiplication operator, one accumulator for two polynomial
        operands; shared inside the field's arithmetic memo (see the
        module docstring for all three)."""
        self._check(other)
        odd = self.parity() and other.parity()
        cut = max(cut, 0)
        memo = self.ctx.field._memo
        if memo is not None:
            key = ("bracket", id(self), id(other), cut)
            hit = memo.get(key)
            if hit is not None:
                return hit[2]
            hit = memo.get(("bracket", id(other), id(self), cut))
            if hit is not None:
                return hit[2] if odd else -hit[2]
        if other._is_multiplication():
            out = self.mul(other, cut, _tail=True)
        elif self._is_multiplication():
            out = -other.mul(self, cut, _tail=True)
        elif self._is_poly() and other._is_poly():
            # one accumulator: BA adds into AB's dict, pair by pair
            acc = {}
            self.mul(other, cut, _into=acc)
            out = other.mul(self, cut, _into=acc, _sign=1 if odd else -1)
        else:
            ab = self.mul(other, cut)
            ba = other.mul(self, cut)
            out = ab + ba if odd else ab - ba
        if memo is not None:
            # the entry pins both operands, so their ids stay theirs
            memo[key] = (self, other, out)
        return out

    # -- actions and views -----------------------------------------------------

    def apply_to(self, state):
        """Apply to an exponential probe state, {(color tuple, t exponents):
        amplitude}, standing for the sum of amplitude * t^e * e^(t.x) |c>;
        returns the same shape.

        A term f w d^p acts on a component at its in tuple, and d^p acts
        on e^(t.x) A as e^(t.x) (d + t)^p A, which is expanded one factor
        d_i + t_i at a time, once per component and p (``_shift_power``)."""
        by_in = self._in_index()
        t0 = self.ctx.zero_deriv
        out = {}
        for (c, e), amp in state.items():
            groups = by_in.get(c)
            if groups is None or not amp:
                continue
            powers = {t0: {t0: amp}}
            for p, terms in groups.items():
                expanded = _shift_power(powers, p)
                for negative, new_st, f in terms:
                    for d, a in expanded.items():
                        key = (new_st, tuple(x + y for x, y in zip(e, d)))
                        _bump(out, key, f * a, negative)
        return out

    def _in_index(self):
        """{in tuple: {p: [(sign < 0, out tuple, coeff), ...]}} over this
        operator's terms, with each word's action on its in tuple; built
        on the operator's first action and kept, as ``_by_out`` is."""
        idx = self._by_in
        if idx is None:
            grading = self.ctx.grading
            idx = {}
            for (w, p), f in self.terms.items():
                sgn, new_st = full_word_act(grading, w)
                idx.setdefault(w[1], {}).setdefault(p, []).append(
                    (sgn < 0, new_st, f))
            self._by_in = idx
        return idx

    def relabel(self, sigma):
        """This operator with site k renamed to sigma(k) in its words,
        derivatives and coefficients; sigma lists the images (sigma(1),
        ..., sigma(N)).  The module docstring gives the sign."""
        ctx = self.ctx
        grading = ctx.grading
        dest = ctx.field._site_perm(sigma)
        images = {}
        out = {}
        for (w, p), f in self.terms.items():
            sign, word = full_word_relabel(grading, w, dest)
            if any(p):
                q = [0] * ctx.N
                for k, d in zip(p, dest):
                    q[d] = k
                p = tuple(q)
            # one image per source coefficient, so shared coefficients
            # stay shared; its negation is shared too (``scalar``)
            g = images.get(id(f))
            if g is None:
                g = images[id(f)] = f.relabel(sigma)
            out[(word, p)] = -g if sign < 0 else g
        return OperatorSum(ctx, out)

    def filtered(self, cut):
        """The terms at total derivative degree >= cut; a cut of 0 or less
        keeps them all and returns this operator itself."""
        if cut <= 0:
            return self
        keep = {k: f for k, f in self.terms.items() if sum(k[1]) >= cut}
        return OperatorSum(self.ctx, keep)

    def substitute_lambda(self, value):
        return self.substitute_parameter("lam", value)

    def substitute_parameter(self, which, value):
        """Freeze one parameter: which is "lam", "x" or "y"."""
        field = self.ctx.field
        slots = {"lam": field.slot_lambda, "x": field.slot_x, "y": field.slot_y}
        try:
            slot = slots[which]
        except KeyError:
            raise ValueError("unknown parameter %r" % (which,)) from None
        out = {}
        for k, f in self.terms.items():
            g = f.substitute(slot, value)
            if g:
                out[k] = g
        return OperatorSum(self.ctx, out)

    # -- formatting ---------------------------------------------------------

    def display_keys(self):
        """Term keys in printing order: highest total derivative degree
        first, then the derivative tuple, then the word read site by site
        as (a1, b1, ..., aN, bN)."""
        return sorted(
            self.terms, key=lambda k: (-sum(k[1]), k[1], tuple(zip(*k[0])))
        )

    def to_str(self, max_terms=None):
        if not self.terms:
            return "0"
        keys = self.display_keys()
        lines = []
        for key in keys[: max_terms or len(keys)]:
            word, p = key
            f = self.terms[key]
            bits = [f"({f})"]
            bits.append("".join(
                f"e({s + 1},{a},{b})" for s, (a, b) in enumerate(zip(*word))
            ))
            dbits = []
            for s, k in enumerate(p):
                if k:
                    dbits.append(f"D{s + 1}" if k == 1 else f"D{s + 1}^{k}")
            if dbits:
                bits.append(" ".join(dbits))
            lines.append(" * ".join(bits))
        if max_terms and len(keys) > max_terms:
            lines.append(f"... (+{len(keys) - max_terms} more terms)")
        return "\n".join(lines)

    def __repr__(self):
        return f"OperatorSum<{len(self.terms)} terms>"


def _acc_add(acc, key, val, sign, budget):
    """Add sign * val into acc[key]; a negative sign subtracts, so only a
    new key pays for the negation."""
    prev = acc.get(key)
    if prev is None:
        if val.num:
            acc[key] = val if sign > 0 else -val
            if budget is not None and len(acc) > budget:
                raise CapExceededError(
                    f"operator grew past {budget} terms"
                )
    else:
        tot = prev + val if sign > 0 else prev - val
        if tot.num:
            acc[key] = tot
        else:
            del acc[key]


def _shift_power(powers, p):
    """(d + t)^p applied to a component's amplitude, as {t exponents:
    amplitude}; ``powers`` holds the powers already expanded for this
    component, and p extends p - 1_i by one factor d_i + t_i for its last
    nonzero slot i."""
    got = powers.get(p)
    if got is None:
        i = max(k for k, pk in enumerate(p) if pk)
        prev = _shift_power(powers, p[:i] + (p[i] - 1,) + p[i + 1:])
        got = {}
        for d, a in prev.items():
            da = a.diff(i)
            if da:
                _bump(got, d, da, False)
            _bump(got, d[:i] + (d[i] + 1,) + d[i + 1:], a, False)
        powers[p] = got
    return got


def _bump(state, key, val, subtract):
    """Add val into state[key], or subtract it; a zero sum is dropped."""
    prev = state.get(key)
    if prev is None:
        state[key] = -val if subtract else val
    else:
        tot = prev - val if subtract else prev + val
        if tot:
            state[key] = tot
        else:
            del state[key]

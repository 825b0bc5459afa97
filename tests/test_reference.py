"""The coefficient field and its gcd, judged by sympy's polynomial ring.

Operands are drawn by hypothesis from the ring the model builders stay in:
a numerator in every slot over a denominator that is content times a
monomial in the positions times a product of powers of x_i - x_j, for
N = 1..4.  Both are built in sympy's ZZ[x1..xN, lam, x, y] (lex, with the
generators in the field's slot order: the order of the packed keys) and
enter colorcs only through ``ScalarField.frac``, so no operand is built by
the arithmetic under test.

Every result G/H is judged twice, with sympy's arithmetic only:

  * its value, by cross-multiplication against its operands;
  * its canonical form: gcd(G, H) = 1 over ZZ, integer content included,
    H's lex leading coefficient positive, and zero as ({}, {0: 1}).

Canonical pairs of equal value are then structurally equal, which is what
the operator layer relies on.  The seed is fixed (``derandomize``), so a
run repeats exactly; there is no deadline, because sympy's first calls
are slow.
"""

from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.domains import QQ, ZZ
from sympy.polys.orderings import lex
from sympy.polys.rings import ring

from colorcs import PoleError, ScalarField, monomials
from colorcs.gcdtools import poly_gcd

REFERENCE = settings(derandomize=True, deadline=None, max_examples=30)


class Judge:
    """ScalarField(N) beside sympy's ring over the same variables."""

    def __init__(self, N):
        self.field = ScalarField(N)
        self.R, *self.gens = ring(self.field.names, ZZ, lex)
        self.RQ = self.R.clone(domain=QQ)

    def packed(self, p):
        shifts = self.field.shifts
        return {monomials.pack(m, shifts): int(c) for m, c in p.items()}

    def poly(self, d):
        shifts = self.field.shifts
        return self.R({monomials.unpack(k, shifts): c for k, c in d.items()})

    def pair(self, f):
        """(G, H) in the ring for a field element, which must be canonical."""
        assert f.field is self.field
        G, H = self.poly(f.num), self.poly(f.den)
        if not G:
            assert f.num == {} and f.den == {0: 1}
        else:
            assert H.LC > 0
            assert G.gcd(H) == self.R.one
        return G, H

    def frac(self, num, den):
        """The field element num/den, judged against its ring value."""
        f = self.field.frac(self.packed(num), self.packed(den))
        G, H = self.pair(f)
        assert G * den == num * H
        return f

    def at(self, p, point):
        """The ring polynomial p at a point of Fractions, one per slot."""
        values = [QQ(v.numerator, v.denominator) for v in point]
        q = p.set_ring(self.RQ)(*values)
        return Fraction(int(q.numerator), int(q.denominator))


@cache
def judge(N):
    return Judge(N)


@st.composite
def numerators(draw, J):
    """A nonzero polynomial in every slot: one to three terms, exponents
    up to 2."""
    exps = st.tuples(*[st.integers(0, 2)] * J.field.nvars)
    coeffs = st.integers(-9, 9).filter(bool)
    return J.R(draw(st.dictionaries(exps, coeffs, min_size=1, max_size=3)))


@st.composite
def denominators(draw, J):
    """(den, factors): den is content * a monomial in the positions * the
    product of b^e over the binomials b = +-(x_i - x_j), and factors lists
    the b with e > 0."""
    N = J.field.N
    mono = draw(st.tuples(*[st.integers(0, 2)] * N)) + (0, 0, 0)
    den = J.R({mono: draw(st.integers(-6, 6).filter(bool))})
    xs = J.gens[:N]
    factors = []
    for i in range(N):
        for j in range(i + 1, N):
            b = xs[i] - xs[j] if draw(st.booleans()) else xs[j] - xs[i]
            e = draw(st.integers(0, 2))
            if e:
                den *= b ** e
                factors.append(b)
    return den, factors


@st.composite
def operands(draw, J):
    """A field element from the ring, built through ``frac`` alone."""
    num = draw(numerators(J))
    den, factors = draw(denominators(J))
    # factors shared with the denominator give frac something to cancel
    for b in factors:
        if draw(st.booleans()):
            num *= b
    return J.frac(num, den)


@st.composite
def samples(draw, count):
    """(judge, operands): ``count`` elements of one field, N = 1..4."""
    J = judge(draw(st.integers(1, 4)))
    return J, [draw(operands(J)) for _ in range(count)]


def check(J, f, value):
    """f is canonical and equals the ring fraction value = (P, Q)."""
    (G, H), (P, Q) = J.pair(f), value
    assert G * Q == P * H


# -- field operations ---------------------------------------------------------


def _ring_checks(J, a, b):
    (N1, D1), (N2, D2) = J.pair(a), J.pair(b)
    check(J, a + b, (N1 * D2 + N2 * D1, D1 * D2))
    check(J, a - b, (N1 * D2 - N2 * D1, D1 * D2))
    check(J, a * b, (N1 * N2, D1 * D2))
    check(J, -a, (-N1, D1))
    check(J, a / b, (N1 * D2, D1 * N2))
    zero = (J.R.zero, J.R.one)
    check(J, a + -a, zero)
    check(J, J.frac(J.R.zero, D1), zero)
    with pytest.raises(PoleError):
        a / (b - b)
    # negation chains, which the shared negation answers by identity
    check(J, -(-a), (N1, D1))
    check(J, (-a) + a, zero)
    check(J, a - (-b), (N1 * D2 + N2 * D1, D1 * D2))
    check(J, -(a * b) + b * a, zero)


@REFERENCE
@given(samples(2))
def test_ring_operations_match_sympy(sample):
    J, (a, b) = sample
    _ring_checks(J, a, b)
    # again inside the memo, where shared results and the identity
    # shortcuts answer most requests
    with J.field.arithmetic_memo():
        _ring_checks(J, a, b)


@REFERENCE
@given(samples(1), st.integers(-7, 7),
       st.fractions(-9, 9, max_denominator=5))
def test_scalars_match_sympy(sample, k, c):
    J, (a,) = sample
    G, H = J.pair(a)
    K, L = J.R(c.numerator), J.R(c.denominator)
    check(J, a._scale_int(k), (G * k, H))
    check(J, a * k, (G * k, H))
    check(J, k * a, (G * k, H))
    check(J, a + k, (G + H * k, H))
    check(J, k - a, (H * k - G, H))
    check(J, a - c, (G * L - K * H, H * L))
    check(J, a * c, (G * K, H * L))
    check(J, J.field.const(c), (K, L))
    if c:
        check(J, a / c, (G * L, H * K))


@REFERENCE
@given(samples(1))
def test_diff_in_every_slot_matches_sympy(sample):
    J, (a,) = sample
    G, H = J.pair(a)
    for slot, v in enumerate(J.gens):
        check(J, a.diff(slot), (G.diff(v) * H - G * H.diff(v), H * H))


@REFERENCE
@given(samples(1), st.fractions(-5, 5, max_denominator=4))
def test_substitute_lambda_matches_sympy(sample, c):
    J, (a,) = sample
    RQ = J.RQ
    lam = RQ.gens[J.field.slot_lambda]
    v = QQ(c.numerator, c.denominator)
    G, H = (p.set_ring(RQ).subs(lam, v) for p in J.pair(a))
    if not H:
        with pytest.raises(PoleError):
            a.substitute_lambda(c)
        return
    P, Q = (p.set_ring(RQ) for p in J.pair(a.substitute_lambda(c)))
    assert P * H == G * Q


@REFERENCE
@given(samples(1), st.data())
def test_relabel_matches_sympy(sample, data):
    J, (a,) = sample
    N = J.field.N
    sigma = data.draw(st.permutations(range(1, N + 1)))
    xs = J.gens[:N]
    renamed = [(xs[k], xs[s - 1]) for k, s in enumerate(sigma)]
    G, H = (p.compose(renamed) for p in J.pair(a))
    image = a.relabel(sigma)
    check(J, image, (G, H))
    assert image == J.frac(G, H)


# -- the gcd -----------------------------------------------------------------


@st.composite
def gcd_operands(draw):
    """(judge, a, b): ring-shaped polynomials with a drawn common part."""
    J = judge(draw(st.integers(1, 4)))
    common, _ = draw(denominators(J))
    a = common * draw(denominators(J))[0]
    b = common * draw(denominators(J))[0] * draw(numerators(J))
    return J, a, b


@REFERENCE
@given(gcd_operands())
def test_gcd_matches_sympy(drawn):
    J, a, b = drawn
    want = a.gcd(b)
    for x, y in ((a, b), (b, a)):
        got = poly_gcd(J.packed(x), J.packed(y), J.field.shifts,
                       J.field.candidates)
        g, qx, qy = map(J.poly, got)
        assert g == want
        assert g * qx == x and g * qy == y

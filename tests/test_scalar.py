"""Coefficient field: canonical forms, calculus, substitution.

The frozen identities here (omega/theta relations and their derivatives)
were computed by hand once and act as the oracle for everything the
operator layer builds on top.  The random-input tests draw their operands
from ``test_reference`` and judge results with sympy's polynomial ring.
"""

from contextlib import nullcontext
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_reference import REFERENCE, check, judge, samples

from colorcs import PoleError, ScalarField
from colorcs.errors import ContextMismatchError
from colorcs._kernel import poly_mul
from colorcs.scalar import RationalFunction


@pytest.fixture(scope="module")
def F3():
    return ScalarField(3)


def test_omega_antisymmetry(F3):
    for i in range(1, 4):
        for j in range(1, 4):
            if i != j:
                assert F3.omega(i, j) + F3.omega(j, i) == F3.zero
                assert -F3.omega(i, j) == F3.omega(j, i)


def test_theta_partition_of_unity(F3):
    for i, j in [(1, 2), (2, 1), (1, 3), (3, 2)]:
        assert F3.theta(i, j) + F3.theta(j, i) == F3.one


def test_theta_product_closed_form(F3):
    # theta_12 * theta_21 = -x1*x2/(x1-x2)^2
    lhs = F3.theta(1, 2) * F3.theta(2, 1)
    num = -(F3.x(1) * F3.x(2))
    b = F3.x(1) - F3.x(2)
    assert lhs == num / (b * b)


def test_omega_derivative(F3):
    w = F3.omega(1, 2)
    assert w.d_dx(1) == -(w * w)
    assert w.d_dx(2) == w * w
    assert w.d_dx(3) == F3.zero


def test_theta_derivative(F3):
    t = F3.theta(1, 2)
    b = F3.x(1) - F3.x(2)
    expected = -F3.x(2) / (b * b)
    assert t.d_dx(1) == expected
    # theta depends on x1, x2 only
    assert t.d_dx(3) == F3.zero


def _derivative_cases():
    R, x1, x2, x3 = judge(3).R, *judge(3).gens[:3]
    return {
        # an x1-free binomial of the denominator cancels
        "free-binomial": ((x1 * (x2 - x3) + 1, x2 - x3), (R.one, R.one)),
        # integer content cancels; the denominator is free of x1
        "content": ((2 * x1 + 1, R(2)), (R.one, R.one)),
        # the x1 binomial rises by one and does not cancel
        "x1-binomial": ((x1 + x2, x1 - x2), (-2 * x2, (x1 - x2) ** 2)),
        "x1-power": ((R.one, (x1 - x2) ** 2), (R(-2), (x1 - x2) ** 3)),
    }


@pytest.mark.parametrize("name", list(_derivative_cases()))
def test_derivative_cancels_only_x1_free_factors(name):
    J = judge(3)
    (num, den), want = _derivative_cases()[name]
    d = J.frac(num, den).diff(0)
    # the exact canonical pair: value and form at once
    assert J.pair(d) == want


@REFERENCE
@given(samples(2))
def test_arithmetic_never_calls_frac(sample):
    J, (a, b) = sample

    def refuse(*args):
        raise AssertionError("frac called by arithmetic")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ScalarField, "frac", refuse)
        results = [a + b, a - b, a * b, a / b, a + 3, 2 - a,
                   a * Fraction(2, 3), a / 5, a.substitute_lambda(2)]
        results += [f.diff(slot) for f in (a, b)
                    for slot in range(J.field.nvars)]
    for r in results:
        J.pair(r)


def test_mixed_partials_commute(F3):
    f = F3.theta(1, 2) * F3.omega(2, 3) + F3.x(1) * F3.lam
    assert f.d_dx(1).d_dx(2) == f.d_dx(2).d_dx(1)


def test_point_values():
    # omega_ij = 1/(x_i - x_j) and theta_ij = x_i/(x_i - x_j), symbolically
    J = judge(3)
    F = J.field
    xs = J.gens[:3]
    for i, j in permutations(range(1, 4), 2):
        b = xs[i - 1] - xs[j - 1]
        check(J, F.omega(i, j), (J.R.one, b))
        check(J, F.theta(i, j), (xs[i - 1], b))
    b = xs[0] - xs[2]
    w = F.omega(1, 3)
    check(J, w * w * 4 - F.one / 5, (20 - b ** 2, 5 * b ** 2))


OUT_OF_RANGE_SITES = {
    "x(0)": lambda F: F.x(0),
    "x(4)": lambda F: F.x(4),
    "omega(0, 2)": lambda F: F.omega(0, 2),
    "omega(1, 4)": lambda F: F.omega(1, 4),
    "omega(2, 2)": lambda F: F.omega(2, 2),
    "theta(4, 1)": lambda F: F.theta(4, 1),
    "theta(-1, 2)": lambda F: F.theta(-1, 2),
    "theta(3, 3)": lambda F: F.theta(3, 3),
    "d_dx(0)": lambda F: F.x(1).d_dx(0),
    "d_dx(4)": lambda F: F.x(1).d_dx(4),
}


@pytest.mark.parametrize("call", OUT_OF_RANGE_SITES.values(),
                         ids=list(OUT_OF_RANGE_SITES))
def test_site_indices_are_checked(F3, call):
    # an index outside 1..3 would otherwise reach the lam, x or y slot
    with pytest.raises(ValueError):
        call(F3)


def test_pole_detection(F3):
    with pytest.raises(PoleError):
        F3.one / F3.zero


def test_canonical_form_is_route_independent(F3):
    a = F3.theta(1, 2) - F3.theta(1, 3)
    b = (F3.theta(1, 2) * F3.one * 2 - F3.theta(1, 3) * 2) / 2
    assert a == b and hash(a) == hash(b)
    # same value built from raw num/den with a junk common factor
    junk = (F3.x(1) + F3.x(2)) * (F3.x(1) + F3.x(2))
    w = F3.omega(1, 2)
    assert F3.frac(_pm(F3, w.num, junk.num), _pm(F3, w.den, junk.num)) == w


def test_denominator_sign_is_read_at_the_largest_key(F3):
    # x2^2 - x1 is not homogeneous: its graded-lex lead is x2^2, but its
    # largest packed key (lex, x1 first) is x1, so the canonical pair is
    # (-1)/(x1 - x2^2)
    x1, x2 = F3.x(1), F3.x(2)
    f = F3.frac({0: 1}, (x2 * x2 - x1).num)
    assert f.den[max(f.den)] > 0
    assert (f.num, f.den) == ({0: -1}, (x1 - x2 * x2).num)
    # division and a renaming of the sites follow the same sign rule
    assert F3.one / (x2 * x2 - x1) == f
    assert F3.frac({0: 1}, (x1 * x1 - x2).num).relabel((2, 1, 3)) == f


def _pm(field, a, b):
    from colorcs._kernel import poly_mul

    return poly_mul(a, b, field.shifts)


def test_constants_and_fractions(F3):
    c = F3.const(Fraction(3, 4))
    assert c * F3.const(Fraction(4, 3)) == F3.one
    assert (F3.one * 2) / 3 == F3.const(Fraction(2, 3))
    assert F3.const(0) == F3.zero and not F3.const(0)
    assert (c + Fraction(1, 4)) == F3.one
    assert 2 - F3.one == F3.one


def test_const_reads_integer_pairs_and_integer_ratios(F3):
    assert F3.const(3, -6) == F3.const(-1, 2)
    assert F3.const(0, 5) is F3.zero and F3.const(4, 4) is F3.one
    with pytest.raises(PoleError):
        F3.const(1, 0)
    # an int, a Fraction and a float land on the pair Fraction(c) reads
    for c in (7, -1, Fraction(-3, 4), Fraction(6, 8), 0.5, -2.25, 0.1):
        want = Fraction(c)
        f = F3.const(c)
        assert f.num == {0: want.numerator}
        assert f.den == {0: want.denominator}
        assert f == F3.const(want.numerator, want.denominator)


def test_operands_coerce_from_ints_and_fractions_not_floats(F3):
    f = F3.x(1) / (F3.x(2) - F3.x(3))
    assert f * Fraction(3, 2) == f * F3.const(3, 2)
    assert Fraction(3, 2) * f == f * F3.const(3, 2)
    assert f + 1 == 1 + f == f + F3.one
    with pytest.raises(TypeError):
        f * 0.5
    with pytest.raises(TypeError):
        f + 0.5


def test_field_operands_skip_coercion(F3, monkeypatch):
    # a function of the same field is taken as it is; numbers still coerce
    f = F3.x(1) / (F3.x(2) - F3.x(3))
    g = F3.x(2) * F3.lam
    seen = []
    coerce = RationalFunction._coerce

    def counted(self, other):
        seen.append(other)
        return coerce(self, other)

    monkeypatch.setattr(RationalFunction, "_coerce", counted)
    f + g, f - g, f * g
    assert not seen
    assert f + 1 == f + F3.one
    assert 1 - f == F3.one - f
    assert f * Fraction(1, 2) == f * F3.const(1, 2)
    assert seen == [1, 1, Fraction(1, 2)]


def test_equality_is_between_functions(F3):
    # a constant function is not the number it takes, so == agrees with hash
    assert F3.one != 1 and F3.zero != 0
    assert F3.const(Fraction(1, 2)) != Fraction(1, 2)
    assert len({F3.one, 1}) == 2


@pytest.mark.parametrize("N", [1, 2, 3])
def test_candidates_are_the_position_binomials(N):
    F = ScalarField(N)
    want = [(F.x(i) - F.x(j)).num
            for i in range(1, N + 1) for j in range(i + 1, N + 1)]
    assert list(F.candidates) == want


@pytest.mark.parametrize("N", [2, 3])
def test_factor_outside_the_candidates_cancels(N, monkeypatch):
    import colorcs.gcdtools as gcdtools

    F = ScalarField(N)
    a = F.x(1) - F.aux_x
    assert a.num not in F.candidates
    heu = []
    heugcd = gcdtools._heugcd

    def counting_heugcd(*args):
        heu.append(args)
        return heugcd(*args)

    monkeypatch.setattr(gcdtools, "_heugcd", counting_heugcd)
    num = a * (F.x(2) + 1)
    den = a * (F.x(1) - F.x(2))
    want = (F.x(2) + 1) / (F.x(1) - F.x(2))
    assert num / den == want and hash(num / den) == hash(want)
    assert F.frac(num.num, den.num) == want
    assert heu


def test_substitute(F3):
    t = F3.aux_x / (F3.aux_x - F3.x(1))
    got = t.substitute(F3.slot_x, F3.x(2))
    assert got == F3.theta(2, 1)
    f = F3.lam * F3.lam + F3.lam * F3.x(1)
    assert f.substitute_lambda(2) == F3.x(1) * 2 + 4
    assert f.substitute_lambda(Fraction(1, 2)) == F3.x(1) / 2 + Fraction(1, 4)
    with pytest.raises(PoleError):
        F3.omega(1, 2).substitute(0, F3.x(2))


def test_substitute_into_zero(F3):
    for value in (2, Fraction(1, 2), F3.x(2), F3.omega(1, 2)):
        assert F3.zero.substitute(0, value) == F3.zero
        assert F3.zero.substitute_lambda(value) == F3.zero
    with pytest.raises(ContextMismatchError):
        F3.zero.substitute(0, ScalarField(3).x(1))


def test_substitute_every_slot():
    F = ScalarField(2)
    var = [F.monomial({slot: 1}) for slot in range(F.nvars)]
    total = sum(var, F.zero)
    for slot in range(F.nvars):
        assert total.substitute(slot, 7) == total - var[slot] + 7


def test_substitute_rejects_slot_out_of_range():
    F = ScalarField(2)
    f = F.monomial({F.slot_y: 1}) + F.x(1)
    for slot in (-1, F.nvars):
        with pytest.raises(ValueError, match="out of range"):
            f.substitute(slot, 5)


def test_context_mismatch():
    a = ScalarField(2)
    b = ScalarField(2)
    with pytest.raises(ContextMismatchError):
        a.one + b.one


def test_to_str_deterministic(F3):
    assert str(F3.theta(1, 2)) == "(x1)/(x1 - x2)"
    assert str(F3.omega(2, 1)) == "(-1)/(x1 - x2)"
    assert str(F3.zero) == "0"
    assert str(F3.x(1) * 2 - F3.lam) == "2*x1 - lam"
    assert str((F3.one * 2) / 4) == "(1)/2"


@REFERENCE
@given(samples(3))
def test_field_axioms_random(sample):
    J, (a, b, c) = sample
    (N1, D1), (N2, D2), (N3, D3) = map(J.pair, (a, b, c))
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    check(J, a * (b + c), (N1 * (N2 * D3 + N3 * D2), D1 * D2 * D3))
    assert a * (b + c) == a * b + a * c
    assert a - a == J.field.zero
    assert (a / b) * b == a


@REFERENCE
@given(samples(2))
def test_leibniz_rule_random(sample):
    J, (a, b) = sample
    ab = a * b
    for slot in range(J.field.nvars):
        assert ab.diff(slot) == a.diff(slot) * b + a * b.diff(slot)
    # the value in x1; test_reference judges every slot
    P, Q = J.pair(ab)
    x1 = J.gens[0]
    check(J, ab.diff(0), (P.diff(x1) * Q - P * Q.diff(x1), Q * Q))


def _value(f, point):
    """f with every slot substituted: a constant of f's field."""
    for slot, v in enumerate(point):
        f = f.substitute(slot, v)
    return f


@REFERENCE
@given(samples(2), st.data())
def test_evaluation_is_a_homomorphism(sample, data):
    J, (a, b) = sample
    F = J.field
    # distinct nonzero positions miss every pole of a drawn denominator
    small = st.fractions(-9, 9, max_denominator=3)
    point = data.draw(st.lists(small.filter(bool), min_size=F.N,
                               max_size=F.N, unique=True))
    point += data.draw(st.lists(small, min_size=3, max_size=3))
    va, vb = _value(a, point), _value(b, point)
    assert _value(a + b, point) == va + vb
    assert _value(a * b, point) == va * vb
    G, H = J.pair(a)
    assert va == F.const(J.at(G, point) / J.at(H, point))


def _copy(rf):
    """An equal function that is a distinct object."""
    return RationalFunction(rf.field, dict(rf.num), dict(rf.den))


def _memo_operands(field):
    a = field.theta(1, 2) * field.x(3) + field.omega(2, 3)
    b = field.omega(1, 3) + field.lam
    return a, b


def test_arithmetic_memo_shares_equal_computations():
    F = ScalarField(3)
    a, b = _memo_operands(F)
    plain = [a * b, a + b, a.diff(0), a.diff(1)]
    with F.arithmetic_memo():
        first = [a * b, a + b, a.diff(0), a.diff(1)]
        a2, b2 = _copy(a), _copy(b)
        again = [a2 * b2, a2 + b2, a2.diff(0), a2.diff(1)]
    assert first == plain
    assert all(x is y for x, y in zip(first, again))


def test_arithmetic_memo_keys_on_operation_and_slot():
    F = ScalarField(3)
    a, b = _memo_operands(F)
    total, d0, d1 = a + b, a.diff(0), a.diff(1)
    assert d0 != d1
    with F.arithmetic_memo():
        product = a * b
        assert a + b == total != product
        assert a.diff(0) == d0
        assert a.diff(1) == d1


def test_arithmetic_memo_shares_swapped_operands():
    F = ScalarField(3)
    a, b = _memo_operands(F)
    fs = [a, b, F.omega(1, 2), F.theta(2, 3), F.x(1) * F.lam + 1, F.aux_x]
    pairs = [(f, g) for i, f in enumerate(fs) for g in fs[i + 1:]]
    assert len({hash(_copy(f)) for f in fs}) == len(fs)
    plain = [(f * g, f + g) for f, g in pairs]
    with F.arithmetic_memo():
        for (f, g), (prod, total) in zip(pairs, plain):
            # fresh copies have not computed their hashes yet
            product, sum_ = _copy(f) * _copy(g), _copy(f) + _copy(g)
            assert (product, sum_) == (prod, total)
            assert _copy(g) * _copy(f) is product
            assert _copy(g) + _copy(f) is sum_
            assert g * f is product and f * g is product
            assert g + f is sum_ and f + g is sum_
        for tag in ("_add", "_mul"):
            assert sum(1 for k in F._memo if k[0] == tag) == len(pairs)


def test_arithmetic_memo_never_crosses_fields():
    F, G = ScalarField(3), ScalarField(3)
    a, b = _memo_operands(F)
    c, d = _memo_operands(G)
    assert a.num == c.num and a.den == c.den
    with F.arithmetic_memo(), G.arithmetic_memo():
        for x, y, field in ((a, b, F), (c, d, G)):
            assert (x * y).field is field
            assert (x + y).field is field
            assert x.diff(0).field is field


def test_arithmetic_memo_lives_only_inside_its_block():
    F = ScalarField(3)
    a, b = _memo_operands(F)
    assert F._memo is None
    assert a * b is not a * b
    assert F._memo is None
    with F.arithmetic_memo():
        assert F._memo == {}
        product = a * b
        assert a * b is product
        with F.arithmetic_memo():
            assert F._memo == {}
        assert len(F._memo) == 1
    assert F._memo is None
    with pytest.raises(PoleError):
        with F.arithmetic_memo():
            a / F.zero
    assert F._memo is None


def test_arithmetic_memo_shares_denominator_gcds(monkeypatch):
    import colorcs.scalar as scalar

    F = ScalarField(3)
    a, b = F.omega(1, 2), F.theta(1, 3)
    d1, d2 = a.den, b.den
    assert d1 != d2 and not a.is_poly and not b.is_poly
    calls = []
    poly_gcd = scalar.poly_gcd

    def counting_gcd(*args):
        calls.append(args)
        return poly_gcd(*args)

    monkeypatch.setattr(scalar, "poly_gcd", counting_gcd)
    F._gcd_dens(d1, d2)
    F._gcd_dens(d1, d2)
    assert len(calls) == 2 and F._memo is None
    with F.arithmetic_memo():
        a + b
        assert sum(1 for k in F._memo if k[0] == "gcd") == 1
        g, q1, q2 = F._gcd_dens(d1, d2)
        assert F._gcd_dens(dict(d1), dict(d2))[0] is g
        assert F._gcd_dens(d2, d1)[0] is g
        assert len(calls) == 3
    assert F._memo is None
    assert poly_mul(g, q1, F.shifts) == d1
    assert poly_mul(g, q2, F.shifts) == d2


def test_gcd_dens_reads_swapped_cofactors(monkeypatch):
    import colorcs.scalar as scalar

    F = ScalarField(3)
    w12 = F.omega(1, 2)
    d1 = (w12 * F.omega(1, 3)).den
    d2 = (w12 * w12 * F.omega(2, 3)).den
    calls = []
    poly_gcd = scalar.poly_gcd

    def counting_gcd(*args):
        calls.append(args[:2])
        return poly_gcd(*args)

    monkeypatch.setattr(scalar, "poly_gcd", counting_gcd)
    for first, second in ((d1, d2), (d2, d1)):
        with F.arithmetic_memo():
            g, q1, q2 = F._gcd_dens(first, second)
            assert g == w12.den
            assert poly_mul(g, q1, F.shifts) == first
            assert poly_mul(g, q2, F.shifts) == second
            rg, r2, r1 = F._gcd_dens(second, first)
            assert rg is g and r1 is q1 and r2 is q2
            assert sum(1 for k in F._memo if k[0] == "gcd") == 1
        # computed once, in the order of the first call
        assert calls.pop() == (first, second) and not calls


def test_unit_coefficient_is_canonical(F3):
    one = F3.one
    assert F3.const(1) is one and F3.const(Fraction(2, 2)) is one
    assert F3.monomial({}) is one
    # a quotient that reduces to 1 lands on the same object
    assert F3.omega(1, 2) * (F3.x(1) - F3.x(2)) is one
    assert F3.theta(1, 2) / F3.theta(1, 2) is one
    assert F3.one / F3.one is one
    assert -F3.const(-1) is one and F3.const(-1)._scale_int(-1) is one
    assert 2 - F3.one is one


def test_unit_products_skip_the_memo():
    F = ScalarField(3)
    a, b = _memo_operands(F)
    with F.arithmetic_memo():
        for f in (a, b, F.lam, F.zero, F.one):
            assert F.one * f is f
            assert f * F.one is f
        assert F._memo == {}
        assert a * _copy(F.one) == a
        assert len(F._memo) == 1


def test_equal_differences_skip_the_memo():
    F = ScalarField(3)
    a, b = _memo_operands(F)
    with F.arithmetic_memo():
        for f in (a, b, F.one, F.zero):
            assert f - f is F.zero
            assert f - _copy(f) is F.zero
        assert F._memo == {}
        # equal numerators over different denominators do not cancel
        t = F.theta(1, 2)
        assert t.num == F.x(1).num
        assert t - F.x(1) == t + (-F.x(1)) != F.zero
        assert F.x(1) - t == -(t - F.x(1))


def _scopes(field):
    """No memo, then the field's arithmetic memo."""
    yield nullcontext()
    yield field.arithmetic_memo()


def test_negation_is_one_shared_object():
    F = ScalarField(3)
    a, b = _memo_operands(F)
    for scope in _scopes(F):
        with scope:
            for f in (a, b, a * b, F.lam, F.one, F.const(2, 3)):
                assert -f is -f
                assert -(-f) is f
            assert -F.zero is F.zero
            assert -F.const(-1) is F.one
            assert -(-F.one) is F.one


def test_opposite_sums_cancel_by_identity(monkeypatch):
    from colorcs import scalar

    F = ScalarField(3)
    a, b = _memo_operands(F)
    fs = (a, b, a * b, F.lam, F.one)
    calls = []
    real = scalar.poly_add
    monkeypatch.setattr(
        scalar, "poly_add", lambda p, q: calls.append(1) or real(p, q))
    for scope in _scopes(F):
        with scope:
            for f in fs:
                assert f + (-f) is F.zero
                assert (-f) + f is F.zero
            if F._memo is not None:
                assert F._memo == {}
    assert calls == []


def test_repeated_difference_builds_no_new_object(monkeypatch):
    from colorcs import scalar

    F = ScalarField(3)
    a, b = _memo_operands(F)
    built, negated = [], []
    init, poly_neg = RationalFunction.__init__, scalar.poly_neg

    def counted_init(self, *args):
        built.append(self)
        init(self, *args)

    def counted_neg(p):
        negated.append(p)
        return poly_neg(p)

    monkeypatch.setattr(RationalFunction, "__init__", counted_init)
    monkeypatch.setattr(scalar, "poly_neg", counted_neg)
    for scope in _scopes(F):
        with scope:
            first = a - b
            del built[:], negated[:]
            again = a - b
            assert again == first and negated == []
            if F._memo is None:
                # only the sum is computed again, not the negation of b
                assert built == [again]
            else:
                assert again is first and built == []


def test_equal_monomials_are_one_object():
    F = ScalarField(3)
    for scope in _scopes(F):
        with scope:
            assert F.monomial({0: 2, 4: 1}, -3) is F.monomial({4: 1, 0: 2}, -3)
            assert F.monomial({0: 2}, 3) is not F.monomial({0: 2}, -3)
            assert F.x(2) is F.x(2) is F.monomial({1: 1})
            assert F.lam is F.lam and F.aux_y is F.aux_y
            assert F.monomial({}) is F.one
            assert F.monomial({0: 1}, 0) is F.zero


@REFERENCE
@given(samples(2), st.integers(-3, 3))
def test_difference_is_sum_with_negation(sample, c):
    J, (f, g) = sample
    F = J.field
    (N1, D1), (N2, D2) = J.pair(f), J.pair(g)
    check(J, f - g, (N1 * D2 - N2 * D1, D1 * D2))
    assert f - g == f + (-g)
    assert g - f == -(f - g)
    assert f - F.zero is f
    assert F.zero - g == -g
    assert c - f == F.const(c) + (-f)
    assert f - c == f + F.const(-c)


@REFERENCE
@given(samples(1))
def test_negation_by_scaling_matches_the_product(sample):
    J, (f,) = sample
    G, H = J.pair(f)
    check(J, f._scale_int(-3), (-3 * G, H))
    assert f._scale_int(-1) == -f == f * J.field.const(-1)
    assert f._scale_int(-3) == -(f._scale_int(3))

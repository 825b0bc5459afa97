"""Operator algebra: unit relations, Leibniz products, action semantics.

The load-bearing test here is the composition property: multiplying
operators and then acting on a state must equal acting twice.  That ties
the graded word product, the Leibniz rule and the canonical merge to the
concrete representation on polynomial-amplitude color states.
"""

import itertools
import random
from fractions import Fraction

import pytest

from colorcs.errors import (
    CapExceededError,
    ContextMismatchError,
    MixedParityError,
)
from colorcs.operators import AlgebraContext, OperatorSum, term_budget
from colorcs.scalar import RationalFunction


@pytest.fixture(scope="module")
def A11():
    return AlgebraContext(1, 1, 2)


@pytest.fixture(scope="module")
def A21():
    return AlgebraContext(2, 1, 2)


def eta(g, a, b, c, d):
    return (g.parity(a) + g.parity(b)) * (g.parity(c) + g.parity(d))


def test_unit_bracket_relation(A21):
    # [e(ab), e(cd)} = delta_bc e(ad) - (-1)^eta delta_ad e(cb), same site
    g = A21.grading
    cs = g.colors
    for a in cs:
        for b in cs:
            for c in cs:
                for d in cs:
                    lhs = A21.unit(1, a, b).bracket(A21.unit(1, c, d))
                    rhs = A21.zero()
                    if b == c:
                        rhs = rhs + A21.unit(1, a, d)
                    if a == d:
                        sgn = -1 if eta(g, a, b, c, d) % 2 else 1
                        rhs = rhs - A21.unit(1, c, b).scale(sgn)
                    assert lhs == rhs, (a, b, c, d)


def test_units_supercommute_across_sites(A11):
    g = A11.grading
    cs = g.colors
    for a in cs:
        for b in cs:
            for c in cs:
                for d in cs:
                    assert A11.unit(1, a, b).bracket(A11.unit(2, c, d)).is_zero


def test_heisenberg_relation(A11):
    d1 = A11.deriv(1)
    x1 = A11.coord(1)
    x2 = A11.coord(2)
    assert d1.mul(x1) - x1.mul(d1) == A11.identity()
    assert d1.mul(x2) - x2.mul(d1) == A11.zero()


def test_leibniz_first_and_second_order(A11):
    f = A11.field.omega(1, 2)
    fo = A11.scalar(f)
    d1 = A11.deriv(1)
    assert d1.mul(fo) == fo.mul(d1) + A11.scalar(f.d_dx(1))
    d2 = A11.deriv(1, 2)
    expect = (
        fo.mul(d2)
        + A11.scalar(f.d_dx(1) * 2).mul(d1)
        + A11.scalar(f.d_dx(1).d_dx(1))
    )
    assert d2.mul(fo) == expect


def test_scalar_ops_multiply_pointwise(A11):
    f = A11.field.theta(1, 2)
    g = A11.field.omega(2, 1)
    assert A11.scalar(f).mul(A11.scalar(g)) == A11.scalar(f * g)
    assert A11.identity().mul(A11.scalar(f)) == A11.scalar(f)


def test_conjugation_by_function(A11):
    b = A11.field.x(1) - A11.field.x(2)
    f = b * b
    finv = A11.field.one / f
    got = A11.scalar(finv).mul(A11.deriv(1)).mul(A11.scalar(f))
    expect = A11.deriv(1) + A11.scalar(f.d_dx(1) / f)
    assert got == expect


def test_every_coefficient_door_refuses_another_field(A11):
    # constructors, scale and substitute all coerce through
    # ScalarField.const, so a function of another field never enters an
    # operator, zero included
    other = AlgebraContext(1, 1, 2).field
    for g in (other.x(1), other.one, other.zero):
        with pytest.raises(ContextMismatchError):
            A11.from_units([(1, 1, 2)], coeff=g)
        with pytest.raises(ContextMismatchError):
            A11.unit(1, 1, 2, coeff=g)
        with pytest.raises(ContextMismatchError):
            A11.scalar(g)
        with pytest.raises(ContextMismatchError):
            A11.coord(1).scale(g)
        with pytest.raises(ContextMismatchError):
            A11.field.x(2).substitute(0, g)
    f = A11.field
    assert A11.unit(1, 1, 2, coeff=f.x(1)) == A11.unit(1, 1, 2).scale(f.x(1))
    assert A11.unit(1, 1, 2, coeff=0) == A11.zero()


def test_swap_squares_to_identity(A11):
    p = A11.swap(1, 2)
    assert p.mul(p) == A11.identity()
    assert p.parity() == 0


def test_swap_conjugates_units(A21):
    p = A21.swap(1, 2)
    g = A21.grading
    for a in g.colors:
        for b in g.colors:
            got = p.mul(A21.unit(1, a, b)).mul(p)
            assert got == A21.unit(2, a, b), (a, b)


def test_parity_bookkeeping(A11):
    assert A11.unit(1, 1, 2).parity() == 1
    assert A11.unit(1, 2, 2).parity() == 0
    assert A11.zero().parity() == 0
    with pytest.raises(MixedParityError):
        (A11.unit(1, 1, 2) + A11.unit(1, 1, 1)).parity()


def test_odd_bracket_is_anticommutator(A11):
    # {e(12), e(21)} at one site = e(11) + e(22), the site identity
    lhs = A11.unit(1, 1, 2).bracket(A11.unit(1, 2, 1))
    ident_site = A11.unit(1, 1, 1) + A11.unit(1, 2, 2)
    assert lhs == ident_site


def test_substitute_lambda(A11):
    lam = A11.field.lam
    op = A11.deriv(1).scale(lam) + A11.coord(1)
    got = op.substitute_lambda(Fraction(1, 2))
    expect = A11.deriv(1).scale(Fraction(1, 2)) + A11.coord(1)
    assert got == expect


def test_term_budget_caps_products(A11):
    d1 = A11.deriv(1)
    x1 = A11.coord(1)
    with term_budget(3):
        with pytest.raises(CapExceededError):
            big = d1.mul(x1) + x1.mul(d1) + A11.swap(1, 2)
            big.mul(big)


def rand_deriv_operator(ctx, rng):
    """A few terms with derivative order 1 or 2 on each of two sites."""
    f = ctx.field
    coeffs = (f.omega(1, 2), f.theta(2, 1), f.x(1) * f.x(2) * f.lam,
              f.omega(1, 2) * f.omega(1, 2) + f.x(2))
    op = ctx.zero()
    for _ in range(rng.randint(1, 3)):
        unit = (rng.randint(1, 2), rng.choice(ctx.grading.colors),
                rng.choice(ctx.grading.colors))
        deriv = (rng.randint(1, 2), rng.randint(1, 2))
        op = op + ctx.from_units([unit], coeff=rng.choice(coeffs), deriv=deriv)
    return op


def test_truncated_mul_matches_filtered_full(A11, A21):
    f = A11.field.omega(1, 2)
    a = A11.deriv(1, 2).scale(f) + A11.coord(2).mul(A11.deriv(2))
    b = A11.deriv(2).scale(A11.field.theta(2, 1)) + A11.scalar(f)
    full = a.mul(b)
    for cut in (0, 1, 2, 3):
        assert a.mul(b, cut=cut) == full.filtered(cut)
    rng = random.Random(71)
    for ctx in (A11, A21):
        for _ in range(6):
            a = rand_deriv_operator(ctx, rng)
            b = rand_deriv_operator(ctx, rng)
            full = a.mul(b)
            for cut in range(full.max_deriv_degree() + 2):
                assert a.mul(b, cut=cut) == full.filtered(cut), cut


def test_leibniz_product_takes_each_derivative_once(A11, monkeypatch):
    # D1^2 D2^2 * g: the nonzero t <= (2, 2) are 8 distinct derivatives of
    # g; walking each t again from g would take 1+2+1+2+3+2+3+4 = 18
    f = A11.field
    g = f.omega(1, 2) * f.x(1) * f.x(2)
    units = [(1, 1, 1), (2, 1, 1)]
    a = A11.from_units(units, deriv=(2, 2))
    b = A11.from_units(units, coeff=g)
    assert len(a) == len(b) == 1
    calls = []
    diff = RationalFunction.diff

    def counting_diff(self, slot):
        calls.append(slot)
        return diff(self, slot)

    monkeypatch.setattr(RationalFunction, "diff", counting_diff)
    prod = a.mul(b)
    assert len(calls) == 8
    assert len(prod) == 9
    del calls[:]
    a.mul(b, cut=3)
    # only |t| <= 1 keeps degree >= 3
    assert len(calls) == 2


def test_truncated_mul_skips_word_products_below_the_cut(A11, monkeypatch):
    import colorcs.operators as operators

    units = [(1, 1, 1), (2, 1, 1)]
    a = A11.from_units(units, deriv=(1, 0))
    b = A11.from_units(units, coeff=A11.field.omega(1, 2))
    calls = []
    full_word_mul = operators.full_word_mul

    def counting_word_mul(*args):
        calls.append(args)
        return full_word_mul(*args)

    monkeypatch.setattr(operators, "full_word_mul", counting_word_mul)
    # every Leibniz term of the one pair has degree at most 1
    assert not a.mul(b, cut=2)
    assert not calls
    assert a.mul(b, cut=1)
    assert len(calls) == 1


def rand_operator(ctx, rng, depth=0):
    pick = rng.randrange(7 if depth else 5)
    if pick == 0:
        return ctx.unit(
            rng.randint(1, ctx.N),
            rng.choice(ctx.grading.colors),
            rng.choice(ctx.grading.colors),
        )
    if pick == 1:
        return ctx.deriv(rng.randint(1, ctx.N), rng.randint(1, 2))
    if pick == 2:
        return ctx.coord(rng.randint(1, ctx.N))
    if pick == 3:
        return ctx.scalar(ctx.field.omega(*rng.sample(range(1, ctx.N + 1), 2)))
    if pick == 4:
        return ctx.swap(1, 2)
    a = rand_operator(ctx, rng, depth - 1)
    b = rand_operator(ctx, rng, depth - 1)
    return a + b if pick == 5 else a.mul(b)


def rand_state(ctx, rng, nterms=2):
    """A probe-shaped state {(colors, t exponents): amplitude} with
    random monomial amplitudes and random powers of t."""
    f = ctx.field
    st = {}
    for _ in range(nterms):
        colors = tuple(
            rng.choice(ctx.grading.colors) for _ in range(ctx.N)
        )
        t = tuple(rng.randint(0, 2) for _ in range(ctx.N))
        amp = f.monomial(
            {i: rng.randint(0, 2) for i in range(ctx.N)},
            rng.randint(1, 3),
        )
        st[colors, t] = st.get((colors, t), f.zero) + amp
    return {k: v for k, v in st.items() if v}


@pytest.fixture(scope="module")
def join_contexts(A11, A21):
    # two colors on two sites can hide a mis-sliced join index
    return (A11, A21, AlgebraContext(1, 1, 3))


def test_product_acts_as_composition(join_contexts):
    for ctx in join_contexts:
        rng = random.Random(61)
        for _ in range(40):
            a = rand_operator(ctx, rng, depth=1)
            b = rand_operator(ctx, rng, depth=1)
            st = rand_state(ctx, rng)
            via_product = a.mul(b).apply_to(st)
            via_steps = a.apply_to(b.apply_to(st))
            assert via_product == via_steps, ctx


def test_associativity_random(join_contexts):
    for ctx in join_contexts:
        rng = random.Random(67)
        for _ in range(15):
            a = rand_operator(ctx, rng)
            b = rand_operator(ctx, rng)
            c = rand_operator(ctx, rng)
            assert a.mul(b.mul(c)) == a.mul(b).mul(c), ctx
            assert a.mul(b + c) == a.mul(b) + a.mul(c), ctx


def test_apply_matches_unit_action(A11):
    f = A11.field
    t0 = (0, 0)
    st = {((1, 1), t0): f.one, ((2, 1), (0, 1)): f.x(1)}
    got = A11.unit(2, 2, 1).apply_to(st)
    # e(2,2,1): site 2 color 1 -> 2; Koszul minus when site 1 holds color 2
    assert got == {((1, 2), t0): f.one, ((2, 2), (0, 1)): -f.x(1)}
    # on e^(t.x) x1^2, d1 acts as d1 + t1
    got = A11.deriv(1).apply_to({((1, 1), t0): f.x(1) * f.x(1)})
    assert got == {((1, 1), t0): f.x(1) * 2,
                   ((1, 1), (1, 0)): f.x(1) * f.x(1)}


def test_display_order_reads_words_site_by_site(A11):
    from colorcs.verify import residual_records

    # out (1,1) in (2,1) reads 1,2,1,1 site by site; out (1,2) in (1,1)
    # reads 1,1,2,1.  Ordered as (out, in) pairs the first would come first.
    op = A11.from_units([(1, 1, 2), (2, 1, 1)], coeff=2) + A11.from_units(
        [(1, 1, 1), (2, 2, 1)], coeff=3
    )
    assert op.to_str().splitlines() == [
        "(3) * e(1,1,1)e(2,2,1)",
        "(2) * e(1,1,2)e(2,1,1)",
    ]
    assert [r["word"] for r in residual_records(op)] == [
        [[1, 1, 1], [2, 2, 1]],
        [[1, 1, 2], [2, 1, 1]],
    ]


def _snapshot(op):
    return [(k, id(f), f) for k, f in op.terms.items()]


def test_difference_is_termwise(A11, A21):
    rng = random.Random(73)
    for ctx in (A11, A21):
        zero = ctx.zero()
        for _ in range(15):
            a = rand_operator(ctx, rng, depth=1)
            b = rand_operator(ctx, rng, depth=1)
            assert a - b == a + (-b)
            assert b - a == -(a - b)
            assert (a - a).is_zero
            assert (a - OperatorSum(ctx, dict(a.terms))).is_zero
            assert a - zero is a
            assert zero - b == -b
            assert a.scale(-1) == -a == a.scale(Fraction(-1))


def test_join_index_is_built_once_per_right_operand(A11, A21):
    rng = random.Random(79)
    for ctx in (A11, A21):
        for _ in range(10):
            a1 = rand_operator(ctx, rng, depth=1)
            a2 = rand_operator(ctx, rng, depth=1)
            b = rand_operator(ctx, rng, depth=1)
            if not (a1 and b):
                continue
            p1 = a1.mul(b)
            idx = b._by_out
            assert idx is not None
            p2 = a2.mul(b, cut=1)
            assert b._by_out is idx
            fresh = OperatorSum(ctx, dict(b.terms))
            assert p1 == a1.mul(fresh)
            assert p2 == a2.mul(OperatorSum(ctx, dict(b.terms)), cut=1)
            assert fresh._by_out == idx


def test_action_index_is_built_once_per_operator(A11, A21):
    rng = random.Random(89)
    for ctx in (A11, A21):
        for _ in range(10):
            a = rand_operator(ctx, rng, depth=1)
            if not a:
                continue
            before = _snapshot(a)
            s1 = rand_state(ctx, rng)
            s2 = rand_state(ctx, rng)
            got = a.apply_to(s1)
            idx = a._by_in
            assert idx is not None
            assert a.apply_to(s2) == OperatorSum(ctx, dict(a.terms)).apply_to(s2)
            assert a._by_in is idx
            assert a.apply_to(s1) == got
            assert _snapshot(a) == before


def test_operations_never_mutate_operand_terms(A11, A21):
    # the join index and the models memo both rely on this
    rng = random.Random(83)
    for ctx in (A11, A21):
        f = ctx.field
        for _ in range(12):
            a = rand_operator(ctx, rng, depth=1)
            b = rand_operator(ctx, rng, depth=1)
            st = rand_state(ctx, rng)
            before = (_snapshot(a), _snapshot(b), dict(st))
            a.mul(b)
            b.mul(a, cut=1)
            a + b
            b + a
            a - b
            b - a
            a.scale(-1)
            a.scale(3)
            a.scale(f.omega(1, 2))
            a.apply_to(st)
            assert (_snapshot(a), _snapshot(b), dict(st)) == before


def rand_graded_operator(ctx, rng, parity, poly=False):
    """A nonzero sum of one to three units of word parity `parity`, with
    coefficients (polynomials only when `poly`) and first-order
    derivatives."""
    g = ctx.grading
    f = ctx.field
    coeffs = (f.one, f.omega(1, 2), f.x(1) * f.x(2), f.x(2) + f.lam)
    if poly:
        coeffs = (f.one, f.x(1) - f.lam, f.x(1) * f.x(2), f.x(2) + f.lam)
    op = ctx.zero()
    while not op:
        for _ in range(rng.randint(1, 3)):
            a = rng.choice(g.colors)
            b = rng.choice([c for c in g.colors
                            if (g.parity(a) + g.parity(c)) % 2 == parity])
            deriv = tuple(rng.randint(0, 1) for _ in range(ctx.N))
            op = op + ctx.unit(rng.randint(1, ctx.N), a, b,
                               coeff=rng.choice(coeffs), deriv=deriv)
    assert op.parity() == parity
    return op


def graded_pairs(ctx, seed, poly=False):
    """Random operand pairs of every parity combination, both orders."""
    rng = random.Random(seed)
    for pa, pb in ((0, 0), (0, 1), (1, 0), (1, 1)):
        for _ in range(3):
            yield (rand_graded_operator(ctx, rng, pa, poly),
                   rand_graded_operator(ctx, rng, pb, poly))


@pytest.fixture
def mul_calls(monkeypatch):
    calls = []
    mul = OperatorSum.mul

    def counting_mul(self, other, cut=0, **private):
        calls.append(cut)
        return mul(self, other, cut, **private)

    monkeypatch.setattr(OperatorSum, "mul", counting_mul)
    return calls


@pytest.fixture
def merge_calls(monkeypatch):
    calls = []
    merge = OperatorSum._merge

    def counting_merge(self, other, sign):
        calls.append(sign)
        return merge(self, other, sign)

    monkeypatch.setattr(OperatorSum, "_merge", counting_merge)
    return calls


def test_polynomial_bracket_adds_both_products_into_one_accumulator(
        A11, A21, mul_calls, merge_calls):
    for ctx in (A11, A21):
        for a, b in graded_pairs(ctx, 131, poly=True):
            assert a._is_poly() and b._is_poly()
            assert not (a._is_multiplication() or b._is_multiplication())
            sign = 1 if a.parity() and b.parity() else -1
            for cut in (0, 1, 2):
                want = a.mul(b, cut) + b.mul(a, cut).scale(sign)
                del mul_calls[:]
                del merge_calls[:]
                assert a.bracket(b, cut) == want
                # two products, both made inside ``mul``, and no merge
                assert mul_calls == [cut, cut]
                assert not merge_calls


def test_rational_bracket_keeps_two_products_and_one_merge(
        join_contexts, mul_calls, merge_calls):
    merged = 0
    for ctx in join_contexts:
        rng = random.Random(137)
        omega = ctx.field.omega(1, 2)
        for pa, pb in ((0, 0), (0, 1), (1, 1)):
            a = spin_operand(ctx, rng, pa).scale(omega)
            b = spin_operand(ctx, rng, pb, poly=True)
            assert b._is_poly() and not a._is_poly()
            for x, y in ((a, b), (b, a)):
                for cut in (0, 1):
                    # a difference with a zero product needs no merge
                    both = bool(x.mul(y, cut)) and bool(y.mul(x, cut))
                    del mul_calls[:]
                    del merge_calls[:]
                    x.bracket(y, cut)
                    assert mul_calls == [cut, cut]
                    assert len(merge_calls) == both
                    merged += both
    assert merged >= 12


def test_polynomial_bracket_budget_bounds_the_running_sum(A21):
    # on site 1, [e(1,2), e(2,1)] = e(1,1) - e(2,2): each product has one
    # term per color of site 2, three, and the two share none
    a, b = A21.unit(1, 1, 2), A21.unit(1, 2, 1)
    with term_budget(3):
        assert len(a.mul(b)) == len(b.mul(a)) == 3
        with pytest.raises(CapExceededError):
            a.bracket(b)
        # a rational bracket bounds each product alone, not the merge
        assert len(a.scale(A21.field.omega(1, 2)).bracket(b)) == 6
    with term_budget(6):
        assert len(a.bracket(b)) == 6


def test_negation_is_a_link(A11, A21):
    zero = A11.zero()
    assert -zero is zero
    for ctx in (A11, A21):
        for a, b in graded_pairs(ctx, 139):
            neg = -a
            assert -a is neg and -neg is a and a.scale(-1) is neg
            assert neg.terms == {k: -f for k, f in a.terms.items()}
            with ctx.field.arithmetic_memo():
                a.bracket(b)
                # a swap served off the memo hands out one object
                assert b.bracket(a) is b.bracket(a)


def test_bracket_memo_serves_repeats_and_swaps(A11, A21, mul_calls):
    for ctx in (A11, A21):
        field = ctx.field
        for a, b in graded_pairs(ctx, 89):
            for cut in (0, 1):
                fresh_ab = a.bracket(b, cut)
                fresh_ba = b.bracket(a, cut)
                with field.arithmetic_memo():
                    ab = a.bracket(b, cut)
                    del mul_calls[:]
                    assert a.bracket(b, cut) is ab
                    ba = b.bracket(a, cut)
                    assert not mul_calls
                assert ab == fresh_ab
                assert ba == fresh_ba
                if a.parity() and b.parity():
                    assert ba == ab
                else:
                    assert ba == -ab


def test_bracket_memo_keeps_truncated_and_full_apart(A11, A21, mul_calls):
    for ctx in (A11, A21):
        for a, b in graded_pairs(ctx, 97):
            with ctx.field.arithmetic_memo():
                full = a.bracket(b)
                del mul_calls[:]
                top = a.bracket(b, 1)
                assert mul_calls == [1, 1]
                assert top == full.filtered(1)
                del mul_calls[:]
                sign = 1 if a.parity() and b.parity() else -1
                assert b.bracket(a, 1) == top.scale(sign)
                assert not mul_calls
                assert a.bracket(b, 2) == full.filtered(2)
                assert mul_calls == [2, 2]
                keys = [k for k in ctx.field._memo if k[0] == "bracket"]
                assert len(keys) == 3


def test_bracket_memo_pins_its_operands(A11, A21):
    import gc
    import weakref

    class Tracked(OperatorSum):
        __slots__ = ("__weakref__",)

    for ctx in (A11, A21):
        for a, b in graded_pairs(ctx, 101):
            a = Tracked(ctx, dict(a.terms))
            b = Tracked(ctx, dict(b.terms))
            refs = (weakref.ref(a), weakref.ref(b))
            with ctx.field.arithmetic_memo():
                a.bracket(b)
                del a, b
                gc.collect()
                assert all(r() is not None for r in refs)
            gc.collect()
            assert all(r() is None for r in refs)


def test_bracket_memo_stores_nothing_outside_a_scope(A11, mul_calls):
    for a, b in graded_pairs(A11, 103):
        assert A11.field._memo is None
        first = a.bracket(b)
        second = a.bracket(b)
        b.bracket(a)
        assert len(mul_calls) == 6
        assert first == second and first is not second
        assert A11.field._memo is None
        del mul_calls[:]


def multiplication_operands(ctx):
    """Multiplication operators by a polynomial, a rational function and
    two x-free constants."""
    f = ctx.field
    x2 = f.zero
    for i in range(1, ctx.N + 1):
        x2 = x2 + f.x(i) * f.x(i)
    return (ctx.scalar(x2), ctx.scalar(f.omega(1, 2)),
            ctx.scalar(Fraction(-3, 2)), ctx.scalar(f.lam))


def spin_operand(ctx, rng, parity, poly=False):
    """A random graded operator with derivative orders up to 3 on a site,
    so that Leibniz walks take several nonzero t."""
    op = rand_graded_operator(ctx, rng, parity, poly)
    return op + op.mul(ctx.deriv(rng.randint(1, ctx.N), 2))


def test_bracket_with_a_multiplication_operator_is_its_leibniz_tail(
        join_contexts, mul_calls):
    for ctx in join_contexts:
        rng = random.Random(107)
        for parity in (0, 1, 0, 1):
            q = spin_operand(ctx, rng, parity)
            for g in multiplication_operands(ctx):
                for cut in (0, 1, 2):
                    gq = g.mul(q, cut) - q.mul(g, cut)
                    del mul_calls[:]
                    assert g.bracket(q, cut) == gq
                    assert q.bracket(g, cut) == -gq
                    # one product per bracket, made inside ``mul``
                    assert mul_calls == [cut, cut]


def test_bracket_of_two_multiplication_operators_vanishes(A11, mul_calls):
    g, h = multiplication_operands(A11)[:2]
    assert g.bracket(h).is_zero
    assert g.bracket(g, 1).is_zero
    assert len(mul_calls) == 2


def test_diagonal_operators_that_do_not_multiply_take_two_products(
        join_contexts, mul_calls):
    for ctx in join_contexts:
        f = ctx.field
        rng = random.Random(109)
        x1 = f.x(1)
        one_site = ctx.unit(1, 1, 1, coeff=x1)
        unequal = ctx.scalar(x1) + ctx.unit(1, 2, 2, coeff=f.x(2))
        terms = dict(ctx.scalar(x1).terms)
        (word, _), coeff = terms.popitem()
        moved = OperatorSum(ctx, {**terms, (word, (1,) + (0,) * (ctx.N - 1)):
                                  coeff})
        # one term per diagonal word: only the coefficient and derivative
        # checks tell these two from a multiplication operator
        assert len(unequal) == len(moved) == len(ctx.scalar(x1))
        for g, parity in itertools.product((one_site, unequal, moved), (0, 1)):
            q = spin_operand(ctx, rng, parity)
            for cut in (0, 1):
                want = g.mul(q, cut) - q.mul(g, cut)
                del mul_calls[:]
                assert g.bracket(q, cut) == want
                assert q.bracket(g, cut) == -want
                assert len(mul_calls) == 4


# -- site relabelling ----------------------------------------------------------


@pytest.fixture(scope="module")
def three_site_contexts():
    return (AlgebraContext(1, 1, 3), AlgebraContext(1, 2, 3))


def test_relabel_is_an_automorphism(three_site_contexts):
    for ctx in three_site_contexts:
        rng = random.Random(113)
        for pa, pb in ((0, 0), (0, 1), (1, 1)):
            a = spin_operand(ctx, rng, pa)
            b = spin_operand(ctx, rng, pb)
            ab, br = a.mul(b), a.bracket(b)
            for sigma in itertools.permutations((1, 2, 3)):
                ra, rb = a.relabel(sigma), b.relabel(sigma)
                assert ab.relabel(sigma) == ra.mul(rb), (ctx, sigma)
                assert br.relabel(sigma) == ra.bracket(rb), (ctx, sigma)


def test_relabel_renames_units_and_swaps(three_site_contexts):
    for ctx in three_site_contexts:
        f = ctx.field
        colors = ctx.grading.colors
        for sigma in itertools.permutations((1, 2, 3)):
            for i in (1, 2, 3):
                si = sigma[i - 1]
                dv, dw = [0, 0, 0], [0, 0, 0]
                dv[i - 1] = dw[si - 1] = 2
                for a in colors:
                    for b in colors:
                        assert ctx.unit(i, a, b).relabel(sigma) \
                            == ctx.unit(si, a, b)
                        assert ctx.unit(i, a, b, coeff=f.omega(i, 1 + i % 3),
                                        deriv=dv).relabel(sigma) \
                            == ctx.unit(si, a, b, deriv=dw,
                                        coeff=f.omega(si, sigma[i % 3]))
            for i, j in itertools.permutations((1, 2, 3), 2):
                assert ctx.swap(i, j).relabel(sigma) \
                    == ctx.swap(sigma[i - 1], sigma[j - 1])


def test_relabel_keeps_shared_coefficients_shared(A11):
    f = A11.field
    x1, x2 = f.x(1), f.x(2)
    op = A11.scalar(f.omega(1, 2) * x2) \
        + A11.unit(1, 1, 2, coeff=x1) + A11.unit(2, 2, 1, coeff=x1)
    assert len({id(g) for g in op.terms.values()}) == 2
    image = op.relabel((2, 1))
    assert image == A11.scalar(f.omega(2, 1) * x1) \
        + A11.unit(2, 1, 2, coeff=x2) + A11.unit(1, 2, 1, coeff=x2)
    assert len({id(g) for g in image.terms.values()}) == 2


@pytest.mark.parametrize("sigma", [(1,), (1, 1), (2, 3), (0, 1), (1, 2, 3)])
def test_relabel_needs_a_permutation_of_the_sites(A11, sigma):
    with pytest.raises(ValueError):
        A11.deriv(1).relabel(sigma)

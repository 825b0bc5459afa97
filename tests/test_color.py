"""Color units and words: normalization signs, Koszul action, expansion."""

import random

import pytest

from colorcs.color import (
    ColorWord,
    GradingContext,
    full_word_act,
    full_word_mul,
    full_word_parity,
    word_from_units,
)
from colorcs.operators import AlgebraContext


@pytest.fixture(scope="module")
def sup2():
    # one even color (1), one odd color (2), two sites
    return GradingContext(1, 1, 2)


@pytest.fixture(scope="module")
def sup3():
    return GradingContext(2, 1, 3)


def test_parity_split(sup3):
    assert [sup3.parity(a) for a in sup3.colors] == [0, 0, 1]
    with pytest.raises(ValueError):
        sup3.parity(4)
    with pytest.raises(ValueError):
        sup3.parity(0)


def test_reordering_sign(sup2):
    # both units odd: swapping sites costs a sign
    s, w = word_from_units(sup2, [(2, 1, 2), (1, 1, 2)])
    assert s == -1
    assert w.units == ((1, 1, 2), (2, 1, 2))
    # one even unit: free to move
    s, w = word_from_units(sup2, [(2, 1, 1), (1, 1, 2)])
    assert s == 1
    assert w.units == ((1, 1, 2), (2, 1, 1))
    # already ordered: no sign
    s, w = word_from_units(sup2, [(1, 1, 2), (2, 1, 2)])
    assert s == 1


def test_same_site_contraction(sup2):
    s, w = word_from_units(sup2, [(1, 1, 2), (1, 2, 1)])
    assert s == 1 and w.units == ((1, 1, 1),)
    s, w = word_from_units(sup2, [(1, 1, 2), (1, 1, 2)])
    assert s == 0 and w is None


def test_contraction_after_reorder(sup2):
    # e(1,1,2) e(2,1,2) e(1,2,1): the site-1 units contract after the
    # rightmost crosses the odd site-2 unit
    s, w = word_from_units(sup2, [(1, 1, 2), (2, 1, 2), (1, 2, 1)])
    assert s == -1
    assert w.units == ((1, 1, 1), (2, 1, 2))


def test_koszul_action_frozen(sup2):
    s, w = word_from_units(sup2, [(2, 2, 1)])
    assert s == 1
    # no odd colors to the left: plus sign
    assert w.act_basis((1, 1)) == (1, (1, 2))
    # odd color at site 1: minus sign
    assert w.act_basis((2, 1)) == (-1, (2, 2))
    # delta mismatch
    assert w.act_basis((1, 2)) is None
    # even unit never picks up a sign
    s, w = word_from_units(sup2, [(2, 1, 1)])
    assert w.act_basis((2, 1)) == (1, (2, 1))


def test_action_composes_like_multiplication(sup2):
    s1, w1 = word_from_units(sup2, [(1, 2, 1)])
    s2, w2 = word_from_units(sup2, [(2, 2, 1)])
    # w1 * w2 acting = w1 acting after w2
    for st in sup2.basis_states():
        hit = w2.act_basis(st)
        if hit is None:
            continue
        sgn, mid = hit
        hit2 = w1.act_basis(mid)
        direct_units = list(w1.units) + list(w2.units)
        s, w = word_from_units(sup2, direct_units)
        direct = None
        if s and w is not None:
            got = w.act_basis(st)
            if got is not None:
                direct = (s * got[0], got[1])
        composed = None if hit2 is None else (sgn * hit2[0], hit2[1])
        assert direct == composed


def _basis_probe(ctx, st):
    """The color basis state st as a probe of ``OperatorSum.apply_to``."""
    return {(tuple(st), ctx.zero_deriv): ctx.field.one}


def test_permutation_is_graded_swap():
    # AlgebraContext.swap, the color trace of the graded contraction, acts
    # on every basis state as the graded permutation of its two sites
    for n, m, N, i, j in ((1, 1, 2, 1, 2), (1, 2, 2, 1, 2), (2, 1, 3, 1, 3)):
        ctx = AlgebraContext(n, m, N)
        g = ctx.grading
        swap = ctx.swap(i, j)
        for st in g.basis_states():
            swapped = list(st)
            swapped[i - 1], swapped[j - 1] = st[j - 1], st[i - 1]
            # the two colors also pass the colors between them
            pi, pj = g.parity(st[i - 1]), g.parity(st[j - 1])
            between = sum(g.parity(c) for c in st[i:j - 1])
            odd = (pi * pj + (pi + pj) * between) % 2
            assert swap.apply_to(_basis_probe(ctx, st)) == {
                (tuple(swapped), ctx.zero_deriv):
                    ctx.field.const(-1 if odd else 1)}, (n, m, N, st)
    with pytest.raises(ValueError):
        AlgebraContext(1, 1, 2).swap(2, 2)


def test_permutation_squares_to_identity():
    for n, m, N, i, j in ((2, 1, 3, 1, 3), (1, 2, 2, 1, 2)):
        ctx = AlgebraContext(n, m, N)
        swap = ctx.swap(i, j)
        assert swap.mul(swap) == ctx.identity(), (n, m, N)
        for st in ctx.grading.basis_states():
            probe = _basis_probe(ctx, st)
            assert swap.apply_to(swap.apply_to(probe)) == probe, (n, m, N, st)


def rand_full_key(ctx, rng):
    out = tuple(rng.choice(ctx.colors) for _ in range(ctx.N))
    return out, tuple(rng.choice(ctx.colors) for _ in range(ctx.N))


def as_word(ctx, key):
    """The full-support (out, in) key as a ColorWord, whose act_basis is
    the reference action."""
    return ColorWord(
        ctx, tuple((i + 1, key[0][i], key[1][i]) for i in range(ctx.N))
    )


def test_full_word_act_matches_reference(sup3):
    rng = random.Random(37)
    states = list(sup3.basis_states())
    for _ in range(100):
        k = rand_full_key(sup3, rng)
        ref = as_word(sup3, k)
        for st in states:
            if st == k[1]:
                assert full_word_act(sup3, k) == ref.act_basis(st)
            else:
                assert ref.act_basis(st) is None


def test_full_word_mul_matches_action(sup3):
    rng = random.Random(41)
    states = list(sup3.basis_states())
    for _ in range(200):
        w1 = rand_full_key(sup3, rng)
        other = rand_full_key(sup3, rng)
        # w2 matches w1 (out(w2) == in(w1)); other almost never does
        w2 = (w1[1], other[1])
        ref1 = as_word(sup3, w1)
        for right in (w2, other):
            ref2 = as_word(sup3, right)
            composed = {}
            for st in states:
                hit = ref2.act_basis(st)
                if hit is not None:
                    hit2 = ref1.act_basis(hit[1])
                    if hit2 is not None:
                        composed[st] = (hit[0] * hit2[0], hit2[1])
            if w1[1] != right[0]:
                assert composed == {}
                continue
            psgn, pkey = full_word_mul(sup3, w1, right)
            assert pkey[1] == right[1] and pkey[0] == w1[0]
            ref = as_word(sup3, pkey)
            direct = {}
            for st in states:
                got = ref.act_basis(st)
                if got is not None:
                    direct[st] = (psgn * got[0], got[1])
            assert direct == composed


def _site_by_site_sign(ctx, w1, w2):
    """The sign of w1 w2 one site at a time: each odd unit of w1 passes
    the odd units of w2 at lower sites."""
    par = ctx._par
    exp = 0
    pref = 0
    for a1, b1, a2, b2 in zip(w1[0], w1[1], w2[0], w2[1]):
        if (par[a1] + par[b1]) & 1:
            exp += pref
        pref += (par[a2] + par[b2]) & 1
    return -1 if exp & 1 else 1


@pytest.mark.parametrize(
    "nmN", [(1, 1, 1), (0, 2, 2), (1, 1, 2), (2, 1, 2), (1, 2, 3), (1, 1, 4)],
    ids="{0[0]},{0[1]},{0[2]}".format)
def test_word_sign_table_matches_the_site_rule(nmN):
    ctx = GradingContext(*nmN)
    states = list(ctx.basis_states())
    for out in states:
        for mid in states:
            for inn in states:
                w1, w2 = (out, mid), (mid, inn)
                want = _site_by_site_sign(ctx, w1, w2)
                assert full_word_mul(ctx, w1, w2) == (want, (out, inn))


def test_full_word_parity(sup3):
    rng = random.Random(43)
    for _ in range(50):
        k = rand_full_key(sup3, rng)
        ref = sum(sup3.parity(c) for c in k[0] + k[1]) & 1
        assert full_word_parity(sup3, k) == ref


def test_expand_full_reproduces_sparse_action(sup3):
    rng = random.Random(47)
    states = list(sup3.basis_states())
    for _ in range(60):
        nunits = rng.randint(0, 2)
        units = []
        for _ in range(nunits):
            units.append(
                (
                    rng.randint(1, 3),
                    rng.choice(sup3.colors),
                    rng.choice(sup3.colors),
                )
            )
        s, w = word_from_units(sup3, units)
        if not s:
            continue
        keys = w.expand_full()
        assert len(keys) == sup3.dim ** (sup3.N - len(w.units))
        for st in states:
            sparse = w.act_basis(st)
            total = {}
            for k in keys:
                if k[1] != st:
                    continue
                sg, out = full_word_act(sup3, k)
                total[out] = total.get(out, 0) + sg
            total = {k: v for k, v in total.items() if v}
            expect = {}
            if sparse is not None:
                expect = {sparse[1]: sparse[0]}
            assert total == expect

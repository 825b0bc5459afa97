"""Kernel polynomial arithmetic against an independent tuple-keyed model."""

import random

import pytest

from colorcs import _kernel, monomials
from colorcs.gcdtools import HeuristicGcdError, poly_gcd, poly_primitive

NVARS = 4
SHIFTS = monomials.make_shifts(NVARS)


# -- reference arithmetic on exponent-tuple keys --------------------------


def r_add(a, b):
    out = dict(a)
    for k, c in b.items():
        s = out.get(k, 0) + c
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def r_mul(a, b):
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            s = out.get(k, 0) + ca * cb
            if s:
                out[k] = s
            else:
                out.pop(k, None)
    return out


def r_diff(a, slot):
    out = {}
    for k, c in a.items():
        if k[slot]:
            kk = list(k)
            kk[slot] -= 1
            out[tuple(kk)] = c * k[slot]
    return out


def to_packed(a):
    return {monomials.pack(k, SHIFTS): c for k, c in a.items()}


def rand_poly(rng, nterms=6, maxexp=3, nvars=NVARS):
    out = {}
    for _ in range(rng.randint(1, nterms)):
        k = tuple(rng.randint(0, maxexp) for _ in range(nvars))
        c = rng.randint(-9, 9)
        if c:
            out[k] = out.get(k, 0) + c
    return {k: c for k, c in out.items() if c}


# -- packing ---------------------------------------------------------------


def test_pack_roundtrip():
    rng = random.Random(7)
    for _ in range(200):
        exps = tuple(rng.randint(0, monomials.MAX_EXP) for _ in range(NVARS))
        assert monomials.unpack(monomials.pack(exps, SHIFTS), SHIFTS) == exps


def test_pack_is_lex_order():
    rng = random.Random(8)
    for _ in range(500):
        a = tuple(rng.randint(0, 40) for _ in range(NVARS))
        b = tuple(rng.randint(0, 40) for _ in range(NVARS))
        ka = monomials.pack(a, SHIFTS)
        kb = monomials.pack(b, SHIFTS)
        assert (ka < kb) == (a < b)


def test_pack_range_check():
    with pytest.raises(OverflowError):
        monomials.pack((0, monomials.MAX_EXP + 1, 0, 0), SHIFTS)


# -- ring operations --------------------------------------------------------


def test_add_mul_match_reference():
    rng = random.Random(11)
    for _ in range(60):
        a = rand_poly(rng)
        b = rand_poly(rng)
        pa, pb = to_packed(a), to_packed(b)
        assert _kernel.poly_add(pa, pb) == to_packed(r_add(a, b))
        assert _kernel.poly_mul(pa, pb, SHIFTS) == to_packed(r_mul(a, b))


def test_sub_neg_scale():
    rng = random.Random(12)
    for _ in range(40):
        a = rand_poly(rng)
        pa = to_packed(a)
        assert _kernel.poly_neg(pa) == to_packed({k: -c for k, c in a.items()})
        assert _kernel.poly_scale(pa, 3) == \
            to_packed({k: 3 * c for k, c in a.items()})
        assert _kernel.poly_scale(pa, 0) == {}


def test_mul_never_mutates_inputs():
    a = to_packed({(1, 0, 0, 0): 2, (0, 1, 0, 0): -1})
    b = to_packed({(1, 0, 0, 0): 5})
    a0, b0 = dict(a), dict(b)
    _kernel.poly_mul(a, b, SHIFTS)
    _kernel.poly_add(a, b)
    assert a == a0 and b == b0


def test_mul_overflow_guard():
    big = {monomials.pack((600, 0, 0, 0), SHIFTS): 1}
    with pytest.raises(OverflowError):
        _kernel.poly_mul(big, big, SHIFTS)


def test_diff_matches_reference():
    rng = random.Random(13)
    for _ in range(40):
        a = rand_poly(rng)
        slot = rng.randrange(NVARS)
        assert _kernel.poly_diff(to_packed(a), slot, SHIFTS) == to_packed(
            r_diff(a, slot)
        )


def test_eval_var_partial():
    rng = random.Random(15)
    for _ in range(40):
        a = rand_poly(rng)
        slot = rng.randrange(NVARS)
        xi = rng.randint(2, 50)
        got = _kernel.poly_eval_var(to_packed(a), slot, xi, SHIFTS)
        ref = {}
        for k, c in a.items():
            kk = list(k)
            w = c * xi ** kk[slot]
            kk[slot] = 0
            kk = tuple(kk)
            s = ref.get(kk, 0) + w
            if s:
                ref[kk] = s
            else:
                ref.pop(kk, None)
        assert got == to_packed(ref)


def test_wide_layouts_match_reference():
    # six and seven variable layouts push packed keys past 64 bits;
    # shift handling must stay exact there
    rng = random.Random(21)
    for nvars in (6, 7):
        shifts = monomials.make_shifts(nvars)

        def pk(a):
            return {monomials.pack(k, shifts): c for k, c in a.items()}

        for _ in range(20):
            a = rand_poly(rng, nvars=nvars)
            b = rand_poly(rng, nvars=nvars)
            assert _kernel.poly_mul(pk(a), pk(b), shifts) == pk(r_mul(a, b))
            slot = rng.randrange(nvars)
            assert _kernel.poly_diff(pk(a), slot, shifts) == \
                pk(r_diff(a, slot))
            got = _kernel.poly_eval_var(pk(a), slot, 2, shifts)
            ref = {}
            for k, c in a.items():
                kk = list(k)
                w = c * 2 ** kk[slot]
                kk[slot] = 0
                s = ref.get(tuple(kk), 0) + w
                if s:
                    ref[tuple(kk)] = s
                else:
                    ref.pop(tuple(kk), None)
            assert got == pk(ref)


# -- exact division and gcd --------------------------------------------------


def test_divexact_roundtrip():
    rng = random.Random(17)
    for _ in range(60):
        a = to_packed(rand_poly(rng))
        b = to_packed(rand_poly(rng))
        if not b:
            continue
        prod = _kernel.poly_mul(a, b, SHIFTS)
        q = _kernel.poly_divexact(prod, b, SHIFTS)
        assert q == a


def test_divexact_rejects_inexact():
    x1 = {monomials.pack((1, 0, 0, 0), SHIFTS): 1}
    x2 = {monomials.pack((0, 1, 0, 0), SHIFTS): 1}
    one = {0: 1}
    assert _kernel.poly_divexact(x1, x2, SHIFTS) is None
    assert _kernel.poly_divexact(_kernel.poly_add(x1, one), x1, SHIFTS) is None


def test_divexact_bounds_each_quotient_term_by_the_degrees(monkeypatch):
    # an exact quotient has degree deg_v(a) - deg_v(b) in each variable v;
    # past that bound the key-order loop would push x2's exponent over the
    # cap, where x2^512 + x2^512 carries into x1's field and the remainder
    # cancels to zero with a wrong quotient
    shifts = monomials.make_shifts(2)
    x1, x2 = 1 << shifts[0], 1 << shifts[1]
    assert _kernel.poly_divexact(
        {2 * x1: 1, 512 * x2: -1}, {x1: 1, 512 * x2: -1}, shifts) is None

    steps = []

    def counting_max(p):
        # b's lead once, then one remainder lead per step
        if isinstance(p, dict):
            steps.append(len(p))
        return max(p)

    monkeypatch.setattr(_kernel, "max", counting_max, raising=False)
    for m in (1, 600, monomials.MAX_EXP):
        for k in (1, 2, 3):
            b = {x1: 1, k * x2: -1}
            # x1^m / (x1 - x2^k): b has x2 and a does not
            del steps[:]
            assert _kernel.poly_divexact({m * x1: 1}, b, shifts) is None
            assert len(steps) <= 2
            # x1^m x2^k / (x1 - x2^k): the first quotient term's remainder
            # has x2^(2k), past a's degree
            del steps[:]
            assert _kernel.poly_divexact({m * x1 + k * x2: 1}, b, shifts) \
                is None
            assert len(steps) <= 3


def test_divexact_near_the_cap_is_exact_or_none():
    rng = random.Random(31)
    shifts = monomials.make_shifts(2)
    big = (monomials.MAX_EXP - 1) // 2
    exps = (0, 1, 2, 3, big - 1, big)

    def near(n):
        return {(rng.choice(exps), rng.choice(exps)):
                rng.choice((-2, -1, 1, 2)) for _ in range(n)}

    def pk(a):
        return {monomials.pack(k, shifts): c for k, c in a.items()}

    for _ in range(300):
        a, b, q = near(rng.randint(1, 3)), near(rng.randint(2, 3)), near(2)
        if len(b) < 2:
            continue
        got = _kernel.poly_divexact(pk(a), pk(b), shifts)
        if got is not None:
            got = {monomials.unpack(k, shifts): c for k, c in got.items()}
            assert r_mul(got, b) == a
        assert _kernel.poly_divexact(pk(r_mul(q, b)), pk(b), shifts) == pk(q)


def binom(sa, sb):
    return {1 << SHIFTS[sa]: 1, 1 << SHIFTS[sb]: -1}


def test_gcd_extracts_known_factor():
    rng = random.Random(18)
    cands = (binom(0, 1), binom(0, 2), binom(1, 2))
    for _ in range(30):
        # g primitive with positive lead; cofactors forced coprime by
        # building them in disjoint variables
        g = {}
        while len(g) < 2:
            g = rand_poly(rng, nterms=4, maxexp=2)
        _, gp = poly_primitive(to_packed(g))
        a = to_packed({(rng.randint(1, 3), 0, 0, 0): 1, (0, 0, 0, 0): rng.randint(1, 7)})
        b = to_packed({(0, rng.randint(1, 3), 0, 0): 1, (0, 0, 0, 0): rng.randint(1, 5)})
        from colorcs._kernel import poly_mul

        ga = poly_mul(gp, a, SHIFTS)
        gb = poly_mul(gp, b, SHIFTS)
        got, qa, qb = poly_gcd(ga, gb, SHIFTS, cands)
        assert got == gp
        assert (qa, qb) == (a, b)


def test_gcd_binomial_powers_via_candidates():
    w = binom(0, 1)
    w2 = _kernel.poly_mul(w, w, SHIFTS)
    w3 = _kernel.poly_mul(w2, w, SHIFTS)
    p = _kernel.poly_mul(w3, {monomials.pack((0, 0, 1, 0), SHIFTS): 2}, SHIFTS)
    q = _kernel.poly_mul(
        w2, {monomials.pack((0, 0, 0, 2), SHIFTS): 3, 0: 1}, SHIFTS)
    got, qp, qq = poly_gcd(p, q, SHIFTS, (w,))
    assert got == w2
    assert _kernel.poly_mul(got, qp, SHIFTS) == p
    assert _kernel.poly_mul(got, qq, SHIFTS) == q


def test_gcd_contents_and_zero():
    six = {0: 6}
    four = {0: -4}
    assert poly_gcd(six, four, SHIFTS) == ({0: 2}, {0: 3}, {0: -2})
    x1 = {monomials.pack((1, 0, 0, 0), SHIFTS): -3}
    assert poly_gcd(x1, {}, SHIFTS) == \
        ({monomials.pack((1, 0, 0, 0), SHIFTS): 3}, {0: -1}, {})
    assert poly_gcd({}, x1, SHIFTS) == \
        ({monomials.pack((1, 0, 0, 0), SHIFTS): 3}, {}, {0: -1})
    assert poly_gcd({}, {}, SHIFTS) == ({}, {}, {})


def test_gcd_divides_both_random():
    rng = random.Random(19)
    from colorcs._kernel import poly_divexact, poly_mul

    for _ in range(25):
        g = to_packed(rand_poly(rng, nterms=3, maxexp=2))
        a = to_packed(rand_poly(rng, nterms=3, maxexp=2))
        b = to_packed(rand_poly(rng, nterms=3, maxexp=2))
        if not (g and a and b):
            continue
        ga = poly_mul(g, a, SHIFTS)
        gb = poly_mul(g, b, SHIFTS)
        try:
            got, qa, qb = poly_gcd(ga, gb, SHIFTS)
        except HeuristicGcdError:
            pytest.fail("heuristic gcd gave up on tame input")
        assert poly_divexact(ga, got, SHIFTS) is not None
        assert poly_divexact(gb, got, SHIFTS) is not None
        assert poly_mul(got, qa, SHIFTS) == ga
        assert poly_mul(got, qb, SHIFTS) == gb
        _, gp = poly_primitive(g)
        assert poly_divexact(got, gp, SHIFTS) is not None


def test_gcd_cofactors_random(monkeypatch):
    import colorcs.gcdtools as gcdtools
    from colorcs._kernel import poly_mul

    heu_calls = []
    heugcd = gcdtools._heugcd

    def counting_heugcd(*args):
        heu_calls.append(args)
        return heugcd(*args)

    monkeypatch.setattr(gcdtools, "_heugcd", counting_heugcd)
    rng = random.Random(23)
    cands = (binom(0, 1), binom(0, 2), binom(1, 2))

    def rand_factor():
        # integer content of either sign, a monomial and a random poly
        mono = tuple(rng.randint(0, 2) for _ in range(NVARS))
        p = {}
        while not p:
            p = rand_poly(rng, nterms=3, maxexp=2)
        c = rng.choice((-6, -2, -1, 1, 3, 4))
        return poly_mul(to_packed({mono: c}), to_packed(p), SHIFTS)

    def check(a, b, candidates):
        """g of (a, b); both operand orders give g times their cofactors."""
        g, qa, qb = poly_gcd(a, b, SHIFTS, candidates)
        assert poly_mul(g, qa, SHIFTS) == a
        assert poly_mul(g, qb, SHIFTS) == b
        if g == {0: 1}:
            assert qa is a and qb is b
        assert poly_gcd(b, a, SHIFTS, candidates) == (g, qb, qa)
        return g

    for _ in range(30):
        shared = rand_factor()
        for cand in cands:
            for _ in range(rng.randint(0, 2)):
                shared = poly_mul(shared, cand, SHIFTS)
        a = poly_mul(shared, rand_factor(), SHIFTS)
        b = poly_mul(shared, rand_factor(), SHIFTS)
        # the candidates only save work: the heuristic path finds the same g
        assert check(a, b, cands) == check(a, b, ())
        # equal primitive parts after content and monomial: no heuristic gcd
        seen = len(heu_calls)
        check(a, poly_mul(a, to_packed({(0, 1, 0, 1): -5}), SHIFTS), cands)
        assert len(heu_calls) == seen
        check(a, {}, cands)
        check({}, b, ())
    check({}, {}, cands)
    assert heu_calls


# -- division by a position binomial x_u - x_v ---------------------------------

# the coefficient field's layouts for two and three sites: x_1..x_N, lam, x, y
BINOMIAL_LAYOUTS = (5, 6)


def _binomials(nvars):
    """(u, v, tuple-keyed x_u - x_v) for every ordered pair u != v."""
    out = []
    for u in range(nvars):
        for v in range(nvars):
            if u != v:
                eu = tuple(int(i == u) for i in range(nvars))
                ev = tuple(int(i == v) for i in range(nvars))
                out.append((u, v, {eu: 1, ev: -1}))
    return out


def _near_cap(rng, nvars, u, v):
    """Tuple-keyed poly whose x_u and x_v exponents sum to MAX_EXP - 2 ..
    MAX_EXP + 1 in each term, each exponent below MAX_EXP."""
    top = monomials.MAX_EXP
    out = {}
    for _ in range(rng.randint(1, 4)):
        exps = [rng.randint(0, 2) for _ in range(nvars)]
        exps[u] = rng.randint(top // 2, top - 1)
        exps[v] = max(0, min(top - 1, top - exps[u] + rng.randint(-2, 1)))
        out[tuple(exps)] = rng.choice((-3, -1, 1, 2, 5))
    return out


def _carries(a, u, v):
    return any(k[u] + k[v] > monomials.MAX_EXP for k in a)


def test_divexact_binomial_matches_general_loop():
    rng = random.Random(23)
    for nvars in BINOMIAL_LAYOUTS:
        shifts = monomials.make_shifts(nvars)

        def pk(a):
            return {monomials.pack(k, shifts): c for k, c in a.items()}

        for u, v, bt in _binomials(nvars):
            b = pk(bt)
            quotients = [rand_poly(rng, nvars=nvars) for _ in range(6)]
            quotients += [_near_cap(rng, nvars, u, v) for _ in range(6)]
            for q in quotients:
                if not q:
                    continue
                a = r_mul(q, bt)
                # no monomial is a multiple of b, so a plus one is not either
                r = {tuple(rng.randint(0, 1) for _ in range(nvars)): 1}
                off = r_add(a, r)
                assert _kernel.poly_divexact(pk(a), b, shifts) == pk(q)
                assert _kernel.poly_divexact(pk(off), b, shifts) is None
                for x in (a, off, q):
                    assert _kernel.poly_divexact(pk(x), b, shifts) == \
                        _kernel._divexact_general(pk(x), b, shifts)


def test_divexact_binomial_branch_skips_the_general_loop(monkeypatch):
    calls = []
    general = _kernel._divexact_general

    def spy(a, b, shifts):
        calls.append(b)
        return general(a, b, shifts)

    monkeypatch.setattr(_kernel, "_divexact_general", spy)
    rng = random.Random(29)
    for nvars in BINOMIAL_LAYOUTS:
        shifts = monomials.make_shifts(nvars)
        for u, v, bt in _binomials(nvars):
            b = {monomials.pack(k, shifts): c for k, c in bt.items()}
            for _ in range(4):
                a = r_mul(_near_cap(rng, nvars, u, v), bt)
                del calls[:]
                _kernel.poly_divexact(
                    {monomials.pack(k, shifts): c for k, c in a.items()},
                    b, shifts)
                # only an exponent that would carry sends it to the loop
                assert calls == ([b] if _carries(a, u, v) else [])

    # binomials that are not x_u - x_v always take the loop
    x1, x2 = (1, 0, 0, 0), (0, 1, 0, 0)
    others = (
        {x1: 2, x2: -1},              # 2 x1 - x2
        {x1: 1, x2: 1},               # x1 + x2
        {(2, 0, 0, 0): 1, x2: -1},    # x1^2 - x2
        {x1: 1, (0, 0, 0, 0): -1},    # x1 - 1
        {(1, 1, 0, 0): 1, x2: -1},    # x1 x2 - x2
    )
    for bt in others:
        b = to_packed(bt)
        for _ in range(10):
            q = rand_poly(rng)
            if not q:
                continue
            a = to_packed(r_mul(q, bt))
            del calls[:]
            assert _kernel.poly_divexact(a, b, SHIFTS) == to_packed(q)
            assert calls == [b]
            off = _kernel.poly_add(a, {0: 1})
            assert _kernel.poly_divexact(off, b, SHIFTS) is None

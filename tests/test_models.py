"""Builder-level checks with hand-frozen expected operators."""

import functools
import inspect
import itertools
from fractions import Fraction

import pytest

from colorcs.errors import UnknownNameError
from colorcs.models import RATIONAL, TRIG, ModelWorkspace
from colorcs.operators import OperatorSum
from colorcs.verify import CASES, RunConfig, verify_case


@pytest.fixture(scope="module")
def ws112():
    return ModelWorkspace(1, 1, 2)


@pytest.fixture(scope="module")
def ws102():
    return ModelWorkspace(1, 0, 2)


def test_rational_hamiltonian_colorless_limit(ws102):
    # with a single color the exchange collapses to the identity and the
    # pair sum folds into -lam(lam+1)/(x1-x2)^2
    ws = ws102
    ctx, f = ws.ctx, ws.ctx.field
    w = f.omega(1, 2)
    expected = (ctx.deriv(1, 2) + ctx.deriv(2, 2)).scale(Fraction(1, 2)) \
        - ctx.scalar(f.lam * (f.lam + 1) * w * w)
    assert ws.hamiltonian(RATIONAL) == expected


def test_trig_hamiltonian_free_limit(ws112):
    ws = ws112
    ctx = ws.ctx
    free = ctx.zero()
    for i in (1, 2):
        xd = ctx.coord(i).mul(ctx.deriv(i))
        free = free + xd.mul(xd).scale(Fraction(1, 2))
    assert ws.hamiltonian(TRIG).substitute_lambda(0) == free


def test_rational_hamiltonian_is_half_the_summed_lax_square():
    # H = 1/2 sum_ij (L^2)_ij relates the Hamiltonian's pair kernels to
    # the separately built Lax matrix; the trigonometric H differs from
    # its 1/2 sum (L^2)_ij by first-order terms
    for triple in ((1, 1, 1), (2, 0, 1), (2, 0, 2), (1, 1, 2), (2, 1, 2),
                   (0, 2, 2), (1, 1, 3)):
        ws = ModelWorkspace(*triple)
        half = ws.ctx.field.const(1, 2)
        assert ws.hamiltonian(RATIONAL) == ws.j_scalar(2).scale(half), triple


def test_hamiltonians_symmetric_under_site_swap(ws112):
    p12 = ws112.ctx.swap(1, 2)
    for kind in (RATIONAL, TRIG):
        h = ws112.hamiltonian(kind)
        assert p12.mul(h).mul(p12) == h


def test_builders_at_one_site():
    # with one site the pair sums are empty: H is its kinetic part, M is
    # zero and L is its diagonal
    ws = ModelWorkspace(1, 1, 1)
    ctx = ws.ctx
    half = Fraction(1, 2)
    xd = ctx.coord(1).mul(ctx.deriv(1))
    assert ws.hamiltonian(RATIONAL) == ctx.deriv(1, 2).scale(half)
    assert ws.hamiltonian(TRIG) == xd.mul(xd).scale(half)
    for kind in (RATIONAL, TRIG):
        assert ws.lax(kind, "M") == ((ctx.zero(),),)
    assert ws.lax(RATIONAL, "L") == ((ctx.deriv(1),),)
    assert ws.lax(TRIG, "L") == ((xd + ctx.identity().scale(half),),)


def test_lax_diagonals(ws112):
    ws = ws112
    ctx = ws.ctx
    Lc = ws.lax(RATIONAL, "L")
    Ls = ws.lax(TRIG, "L")
    for i in (1, 2):
        assert Lc[i - 1][i - 1] == ctx.deriv(i)
        expected = ctx.coord(i).mul(ctx.deriv(i)) \
            + ctx.identity().scale(Fraction(1, 2))
        assert Ls[i - 1][i - 1] == expected


def test_lax_partner_sum_rule(ws112):
    # rows and columns of the M matrix add up to zero
    ws = ws112
    for kind in (RATIONAL, TRIG):
        M = ws.lax(kind, "M")
        for i in range(2):
            row = M[i][0] + M[i][1]
            col = M[0][i] + M[1][i]
            assert row.is_zero and col.is_zero


def test_level_zero_is_the_plain_color_sum(ws112):
    ws = ws112
    for a in ws.colors():
        for b in ws.colors():
            expected = ws.unit(1, a, b) + ws.unit(2, a, b)
            assert ws.yangian_T(0, a, b) == expected
            assert ws.loop_J(0, a, b) == expected
            assert ws.loop_K(0, a, b) == expected


def test_row_sums_match_the_matrix_power():
    # the builders read L^p only through its row sums; check them against
    # the entries of L^p multiplied out in full, on three sites
    ws = ModelWorkspace(2, 0, 3)
    for kind in (RATIONAL, TRIG):
        L = ws.lax(kind, "L")
        power = [[ws.ctx.identity() if i == j else ws.ctx.zero()
                  for j in range(3)] for i in range(3)]
        for p in range(3):
            for i in range(3):
                want = power[i][0] + power[i][1] + power[i][2]
                assert ws._row_sum(kind, p, i + 1) == want, (kind, p, i)
            power = [[sum((power[i][k].mul(L[k][j]) for k in range(3)),
                          ws.ctx.zero()) for j in range(3)] for i in range(3)]


def test_level_one_matches_direct_lax_contraction(ws112):
    ws = ws112
    ctx, f = ws.ctx, ws.ctx.field
    for a in ws.colors():
        for b in ws.colors():
            expected = ctx.zero()
            for i in (1, 2):
                diag = ctx.coord(i).mul(ctx.deriv(i)) \
                    + ctx.identity().scale(Fraction(1, 2))
                expected = expected + ws.unit(i, a, b).mul(diag)
                j = 3 - i
                hop = ctx.swap(i, j).scale(f.lam * f.theta(i, j))
                expected = expected + ws.unit(i, a, b).mul(hop)
            assert ws.yangian_T(1, a, b) == expected


def test_single_site_tower():
    ws = ModelWorkspace(1, 1, 1)
    ctx = ws.ctx
    for a in ws.colors():
        for b in ws.colors():
            diag = ctx.coord(1).mul(ctx.deriv(1)) \
                + ctx.identity().scale(Fraction(1, 2))
            assert ws.yangian_T(1, a, b) == ws.unit(1, a, b).mul(diag)


def test_degree_generators_on_one_color():
    ws = ModelWorkspace(1, 0, 3)
    f = ws.ctx.field
    for p in range(3):
        tot = f.zero
        for i in (1, 2, 3):
            tot = tot + f.monomial({i - 1: p})
        assert ws.loop_K(p, 1, 1) == ws.ctx.scalar(tot)


def test_rational_tower_free_limit(ws102):
    ws = ws102
    ctx = ws.ctx
    for p in range(4):
        expected = ctx.deriv(1, p) + ctx.deriv(2, p) if p else \
            ctx.identity().scale(2)
        assert ws.loop_J(p, 1, 1).substitute_lambda(0) == expected


def test_level_two_matches_termwise_expansion(ws112):
    # the Lax-squared contraction agrees with the written-out three-block
    # form, including the i = k corner of the triple sum
    ws = ws112
    for a in ws.colors():
        for b in ws.colors():
            assert ws.yangian_T(2, a, b) == ws.t2_explicit(a, b)


def test_level_two_matches_termwise_expansion_three_sites():
    ws = ModelWorkspace(1, 1, 3)
    assert ws.yangian_T(2, 1, 2) == ws.t2_explicit(1, 2)


def test_formal_unit_variants(ws112):
    f = ws112.ctx.field
    inv = f.one / f.lam
    ident = ws112.ctx.identity()
    assert ws112.t_minus1(1, 1, True) == ident.scale(inv)
    assert ws112.t_minus1(2, 2, True) == ident.scale(-inv)
    assert ws112.t_minus1(1, 2, True).is_zero
    assert ws112.t_minus1(2, 2, False) == ident.scale(inv)


def test_generator_parities(ws112):
    ws = ws112
    for p in range(3):
        for a in ws.colors():
            for b in ws.colors():
                want = (ws.parity(a) + ws.parity(b)) % 2
                assert ws.yangian_T(p, a, b).parity() == want
                assert ws.loop_J(p, a, b).parity() == want
    assert ws.hamiltonian(RATIONAL).parity() == 0
    assert ws.hamiltonian(TRIG).parity() == 0


def test_defect_tensor_unsigned_on_even_colors(ws102):
    ws = ws102
    t0, t1 = ws.yangian_T(0, 1, 1), ws.yangian_T(1, 1, 1)
    assert ws.tensor_O(1, 1, 1, 1) == (t0.mul(t1) - t1.mul(t0)).scale(-1)


def _shifts(ws):
    """The shifts (x, y) of eq3.22, eq3.23 and eq3.27."""
    f = ws.ctx.field
    return ((1, 0), (0, 1), (f.aux_x, f.aux_y))


def test_defect_tensors_have_homogeneous_parity(ws112):
    ws = ws112
    cs = list(ws.colors())
    for a in cs:
        for b in cs:
            for c in cs:
                for d in cs:
                    want = (ws.parity(a) + ws.parity(b)
                            + ws.parity(c) + ws.parity(d)) % 2
                    for op in [ws.tensor_O(a, b, c, d)] + [
                            ws.tensor_P(a, b, c, d, *xy)
                            for xy in _shifts(ws)]:
                        if op.is_zero:
                            continue
                        assert op.parity() == want


def test_defect_tensors_build_their_two_site_factors_once(monkeypatch):
    # the shifted tensors' blocks are built from color words, each two-site
    # word with its derivative, so a second color quad builds no
    # coordinate, derivative or multiplication operator
    from colorcs.operators import AlgebraContext

    ws = ModelWorkspace(1, 1, 3)
    for xy in _shifts(ws):
        ws.tensor_P(1, 2, 2, 1, *xy)
    calls = []
    for attr in ("deriv", "scalar"):
        def counted(self, *args, _fn=getattr(AlgebraContext, attr),
                    _attr=attr):
            calls.append(_attr)
            return _fn(self, *args)
        monkeypatch.setattr(AlgebraContext, attr, counted)
    second = [ws.tensor_P(2, 1, 1, 2, *xy) for xy in _shifts(ws)]
    assert not calls
    monkeypatch.undo()
    # the same operators a workspace builds at that quad first
    fresh = ModelWorkspace(1, 1, 3)
    assert [op.to_str() for op in second] == \
        [fresh.tensor_P(2, 1, 1, 2, *xy).to_str() for xy in _shifts(fresh)]


def test_two_parameter_tensor_restricts_to_plain_one(ws112):
    # symbolic P at an integer shift is P built there, and tensor_O at 0
    ws = ws112
    f = ws.ctx.field
    for a in ws.colors():
        for b in ws.colors():
            for c in ws.colors():
                for d in ws.colors():
                    pt = ws.tensor_P(a, b, c, d, f.aux_x, f.aux_y)
                    for x, y in ((0, 0), (1, 0), (0, 1)):
                        fixed = pt.substitute_parameter("x", x) \
                            .substitute_parameter("y", y)
                        assert fixed == ws.tensor_P(a, b, c, d, x, y)
                    assert ws.tensor_P(a, b, c, d, 0, 0) is \
                        ws.tensor_O(a, b, c, d)


def _spin_recursion(ws):
    """The bracket recursion W_{s,p} = [x^2, W_{s-1,p+2}] / (2(p+s)) run
    from the spin-1 seeds j_scalar and loop_J, as references for w_gen
    and q_gen."""
    x2 = ws.x_squared()
    ref = {}

    def recursion(s, p, seed):
        key = (s, p, seed)
        if key not in ref:
            if s == 1:
                ref[key] = seed(p)
            else:
                ref[key] = x2.bracket(recursion(s - 1, p + 2, seed)) \
                    .scale(Fraction(1, 2 * (p + s)))
        return ref[key]

    seeds = {(): ws.j_scalar}
    for a in ws.colors():
        for b in ws.colors():
            seeds[a, b] = lambda p, a=a, b=b: ws.loop_J(p, a, b)
    return (lambda s, p: recursion(s, p, seeds[()]),
            lambda s, p, a, b: recursion(s, p, seeds[a, b]))


def test_spin_recursion_agrees_with_closed_form(ws112):
    # w_gen and q_gen are closed forms on site-1 rows
    ws = ws112
    w_ref, q_ref = _spin_recursion(ws)
    for s in (1, 2, 3):
        for p in (0, 1, 2):
            assert ws.w_gen(s, p) == w_ref(s, p), (s, p)
    assert ws.q_gen(2, 1, 1, 2) == q_ref(2, 1, 1, 2)


def test_spin_two_prefactor(ws112):
    ws = ws112
    raw = ws.x_squared().bracket(ws.j_scalar(3))
    assert ws.w_gen(2, 1) == raw.scale(Fraction(1, 6))


def test_spin_three_prefactor(ws112):
    ws = ws112
    x2 = ws.x_squared()
    raw = x2.bracket(x2.bracket(ws.j_scalar(4)))
    assert ws.w_gen(3, 0) == raw.scale(Fraction(1, 48))


def test_spin_leading_symbol(ws112):
    ws = ws112
    for s, p in ((1, 2), (2, 1), (3, 0), (2, 2)):
        top = p + s - 1
        w = ws.w_gen(s, p)
        assert w.max_deriv_degree() == top
        assert w.filtered(top) == ws.w_leading(s, p)
        q = ws.q_gen(s, p, 1, 2)
        assert q.max_deriv_degree() == top
        assert q.filtered(top) == ws.q_leading(s, p, 1, 2)


def test_free_generator_bracket_closes(ws112):
    # spin-1 free generators: the graded bracket contracts color indices;
    # here eta = (p(1)+p(2))(p(2)+p(1)) = 1, so both deltas enter with +
    ws = ws112
    lhs = ws.q_free(1, 1, 1, 2).bracket(ws.q_free(1, 2, 2, 1))
    assert lhs == ws.q_free(1, 3, 1, 1) + ws.q_free(1, 3, 2, 2)


def test_conserved_color_charge(ws112):
    # the total color sum commutes with both Hamiltonians
    ws = ws112
    for a in ws.colors():
        for b in ws.colors():
            t0 = ws.yangian_T(0, a, b)
            assert t0.bracket(ws.hamiltonian(TRIG)).is_zero
            assert ws.loop_J(0, a, b).bracket(ws.hamiltonian(RATIONAL)).is_zero


def test_lax_evolution_single_entry(ws112):
    # d/dt check for one off-diagonal entry of the rational pair
    ws = ws112
    H = ws.hamiltonian(RATIONAL)
    L = ws.lax(RATIONAL, "L")
    M = ws.lax(RATIONAL, "M")
    i, j = 0, 1
    lhs = H.mul(L[i][j]) - L[i][j].mul(H)
    rhs = ws.ctx.zero()
    for k in range(2):
        rhs = rhs + L[i][k].mul(M[k][j]) - M[i][k].mul(L[k][j])
    assert lhs == rhs


def test_registry_resolves_names(ws112):
    ws = ws112
    assert ws.build("H_c") == ws.hamiltonian(RATIONAL)
    assert ws.build("H_s") == ws.hamiltonian(TRIG)
    assert ws.build("T[1,1,2]") == ws.yangian_T(1, 1, 2)
    assert ws.build("J[2,2,1]") == ws.loop_J(2, 2, 1)
    assert ws.build("Js[2]") == ws.j_scalar(2)
    assert ws.build("K[1,1,1]") == ws.loop_K(1, 1, 1)
    assert ws.build("E[1,1,2]") == ws.unit(1, 1, 2)
    assert ws.build("P[1,2]") == ws.ctx.swap(1, 2)
    assert ws.build("W[2,1]") == ws.w_gen(2, 1)
    assert ws.build("Q[2,1,1,2]") == ws.q_gen(2, 1, 1, 2)
    assert ws.build("Q0[1,2,1,1]") == ws.q_free(1, 2, 1, 1)
    assert ws.build("O[1,2,2,1]") == ws.tensor_O(1, 2, 2, 1)
    assert ws.build("X2") == ws.x_squared()
    assert ws.build("Lc[1,2]") == ws.lax(RATIONAL, "L")[0][1]
    assert ws.build("Ms[2,2]") == ws.lax(TRIG, "M")[1][1]
    assert ws.build(" Tm1[2,2] ") == ws.t_minus1(2, 2, True)


@pytest.mark.parametrize("bad", [
    "", "Zz", "T", "T[1]", "T[1,2]", "T[1,1,2,3]", "T[x,1,1]",
    "E[9,1,1]", "E[1,7,1]", "W[0,1]", "W[1,-1]", "Lc[3,1]", "H_c[1]",
    "Tm1[9,8]", "Tm1_plain[9,9]", "Tm1[1,7]", "Wcl[2,1]", "Qcl[2,0,1,2]",
    "K[2000,1,1]",
    # degrees past the recursion depth of the Lax-power and spin builds
    "J[3000,1,1]", "W[1,5000]", "T[3000,1,1]", "Q[2000,0,1,1]",
])
def test_registry_rejects_bad_names(ws112, bad):
    with pytest.raises(UnknownNameError):
        ws112.build(bad)


# one argument tuple per memoized builder
_MEMOIZED = {
    "unit": (1, 1, 2),
    "swap": (1, 2),
    "hamiltonian": (TRIG,),
    "lax": (RATIONAL, "M"),
    "_row_sum": (RATIONAL, 1, 2),
    "_spin_row": (2, 1, 2),
    "yangian_T": (1, 1, 2),
    "t_minus1": (2, 2, False),
    "loop_J": (1, 2, 1),
    "loop_K": (2, 1, 2),
    "j_scalar": (1,),
    "contracted_pair": (1, 2, 1, 2),
    "contracted_triple": (1, 2, 1, 1, 2),
    "j0_squared": (1, 2),
    "t2_explicit": (1, 2),
    "tensor_O": (1, 2, 2, 1),
    "_j_block": (1, 2, 2, 1),
    "_k_block": (2, 1, 1, 2),
    "tensor_P": (1, 1, 2, 2, 1, 0),
    "q1_family": (1, 2, 0, 1),
    "x_squared": (),
    "w_gen": (2, 1),
    "w_leading": (2, 1),
    "q_gen": (2, 0, 1, 2),
    "q_leading": (2, 0, 1, 2),
    "q_free": (2, 1, 2, 1),
}


def test_every_builder_is_memoized(ws112):
    wrapped = {name for name, fn in vars(ModelWorkspace).items()
               if inspect.isfunction(fn) and hasattr(fn, "__wrapped__")}
    assert wrapped == set(_MEMOIZED)
    for name, args in _MEMOIZED.items():
        build = getattr(ws112, name)
        assert build(*args) is build(*args), name


def test_memoized_builders_default_only_the_cut():
    # the memo keys on positional arguments and takes no keyword but cut,
    # so a defaulted parameter would give one operator two entries
    for name, fn in vars(ModelWorkspace).items():
        if inspect.isfunction(fn) and hasattr(fn, "__wrapped__"):
            params = inspect.signature(fn.__wrapped__).parameters.values()
            defaulted = [p.name for p in params if p.default is not p.empty]
            assert defaulted in ([], ["cut"]), name


def test_failed_build_leaves_no_memo_entry():
    ws = ModelWorkspace(1, 1, 2)
    for _ in range(2):
        with pytest.raises(ValueError):
            ws.yangian_T(-1, 1, 1)
    assert ws._memo == {}


# -- site relabelling and color-blind rows ------------------------------------


def test_relabel_fixes_the_symmetric_builders():
    ws = ModelWorkspace(1, 1, 3)
    fixed = [ws.hamiltonian(RATIONAL), ws.hamiltonian(TRIG), ws.x_squared()]
    fixed += [ws.j_scalar(p) for p in range(3)]
    # the colored sums sum_i e(i,a,b) (row i) are fixed as well
    fixed += [ws.yangian_T(1, 1, 2), ws.loop_J(2, 2, 1), ws.loop_K(1, 1, 2),
              ws.w_gen(2, 0), ws.q_gen(2, 0, 1, 2)]
    for sigma in itertools.permutations((1, 2, 3)):
        for op in fixed:
            assert op.relabel(sigma) == op, sigma


def _direct_rows(ws, kind, top):
    """rows[p][i - 1] = sum over j of (L^p)_{ij}, by the recursion on
    every site (no relabelling)."""
    L = ws.lax(kind, "L")
    rows = [[ws.ctx.identity()] * ws.N]
    for _ in range(top):
        rows.append([sum((L[i][k].mul(rows[-1][k]) for k in range(ws.N)),
                         ws.ctx.zero()) for i in range(ws.N)])
    return rows


# the largest row degree p + 2s - 2 checked on each context; on three
# sites the spin rows of degree 5 to 7 take tens of seconds to build
_ROW_CONTEXTS = {(1, 1, 2): 7, (0, 2, 2): 7, (2, 1, 2): 7, (1, 1, 3): 4}


@pytest.mark.parametrize("nmN", sorted(_ROW_CONTEXTS),
                         ids=lambda c: "-".join(map(str, c)))
def test_rows_match_their_definitions(nmN):
    ws = ModelWorkspace(*nmN)
    top = _ROW_CONTEXTS[nmN]
    for kind in (TRIG, RATIONAL):
        rows = _direct_rows(ws, kind, top if kind == RATIONAL else 3)
        for p in range(4):
            for i in range(1, ws.N + 1):
                assert ws._row_sum(kind, p, i) == rows[p][i - 1], (kind, p, i)
    x2 = ws.x_squared()
    for s in (1, 2, 3):
        for p in range(4):
            if p + 2 * s - 2 > top:
                continue
            for i in range(1, ws.N + 1):
                # the spin recursion run on row i itself
                want = rows[p + 2 * s - 2][i - 1]
                for k in range(2, s + 1):
                    want = x2.bracket(want).scale(
                        Fraction(1, 2 * (p + 2 * (s - k) + k)))
                assert ws._spin_row(s, p, i) == want, (s, p, i)


@pytest.mark.parametrize("nmN", sorted(_ROW_CONTEXTS),
                         ids=lambda c: "-".join(map(str, c)))
def test_colored_spin_generators_follow_the_bracket_recursion(nmN):
    # the builders make W and Q as closed forms on site-1 rows; the
    # reference runs the bracket recursion on the summed and colored
    # generators from their spin-1 seeds
    ws = ModelWorkspace(*nmN)
    w_ref, q_ref = _spin_recursion(ws)
    for s in (1, 2, 3):
        for p in range(4):
            if p + 2 * s - 2 > _ROW_CONTEXTS[nmN]:
                continue
            assert ws.w_gen(s, p) == w_ref(s, p), (s, p)
            for a in ws.colors():
                for b in ws.colors():
                    want = q_ref(s, p, a, b)
                    assert ws.q_gen(s, p, a, b) == want, (s, p, a, b)


def test_colored_spin_brackets_run_once_on_site_one_rows(monkeypatch):
    calls = []
    bracket = OperatorSum.bracket

    def counting_bracket(self, other, cut=0):
        out = bracket(self, other, cut)
        calls.append((other, out))
        return out

    monkeypatch.setattr(OperatorSum, "bracket", counting_bracket)
    ws = ModelWorkspace(1, 1, 2)
    ws.q_gen(3, 0, 1, 2)
    one_pair = len(calls)
    for a in ws.colors():
        for b in ws.colors():
            ws.q_gen(3, 0, a, b)
    ws.w_gen(3, 0)
    assert len(calls) == one_pair == 2
    # ad_{x^2}^2 of row 1 of L^4: the second bracket takes the first's result
    (first, once), (second, _) = calls
    assert first is ws._row_sum(RATIONAL, 4, 1)
    assert second is once


# -- power sums -----------------------------------------------------------------


def _power_sum_by_products(ws, k, d, pair=None, sign=1):
    """sum_i (sign x_i)^k d_i^d, each term multiplied out of coordinate,
    derivative and unit operators, dressed with e(i,a,b) for pair (a, b)."""
    ctx = ws.ctx
    op = ctx.zero()
    for i in range(1, ws.N + 1):
        term = ctx.deriv(i, d)
        for _ in range(k):
            term = ctx.coord(i).scale(sign).mul(term)
        if pair is not None:
            term = ctx.unit(i, *pair).mul(term)
        op = op + term
    return op


@pytest.mark.parametrize("nmN", [(1, 1, 3), (2, 1, 2)],
                         ids=lambda c: "-".join(map(str, c)))
def test_power_sums_match_their_formulas(nmN):
    ws = ModelWorkspace(*nmN)
    ref = functools.partial(_power_sum_by_products, ws)
    # every color pair, the odd ones included
    pairs = list(itertools.product(ws.colors(), repeat=2))
    for p in range(4):
        for pair in pairs:
            assert ws.loop_K(p, *pair) == ref(p, 0, pair), (p, pair)
    for s in (1, 2, 3):
        for p in range(3):
            k, d = s - 1, p + s - 1
            assert ws.w_leading(s, p) == ref(k, d, sign=-1), (s, p)
            for pair in pairs:
                assert ws.q_leading(s, p, *pair) \
                    == ref(k, d, pair, sign=-1), (s, p, pair)
                assert ws.q_free(s, p, *pair) == ref(k, d, pair), (s, p, pair)


# -- builds with a derivative cut ---------------------------------------------


# the largest rational row degree p + 2s - 2 built on each context
_CUT_CONTEXTS = {(1, 1, 2): 7, (2, 0, 2): 7, (0, 2, 2): 7, (1, 1, 3): 4}


@pytest.mark.parametrize("nmN", sorted(_CUT_CONTEXTS),
                         ids=lambda c: "-".join(map(str, c)))
def test_cut_builds_are_the_full_builds_filtered(nmN):
    # a build at cut c holds exactly the full build's terms at derivative
    # degree >= c, and nothing once c passes the top degree
    ws = ModelWorkspace(*nmN)
    top_row = _CUT_CONTEXTS[nmN]
    for kind, top_p in ((RATIONAL, top_row), (TRIG, 3)):
        for p in range(top_p + 1):
            for i in range(1, ws.N + 1):
                full = ws._row_sum(kind, p, i)
                for cut in range(p + 2):
                    assert ws._row_sum(kind, p, i, cut=cut) \
                        == full.filtered(cut), (kind, p, i, cut)
    for s in (1, 2, 3):
        for p in range(4):
            if p + 2 * s - 2 > top_row:
                continue
            top = p + s - 1
            for cut in range(top + 2):
                for i in range(1, ws.N + 1):
                    assert ws._spin_row(s, p, i, cut=cut) \
                        == ws._spin_row(s, p, i).filtered(cut), (s, p, i, cut)
                assert ws.w_gen(s, p, cut=cut) \
                    == ws.w_gen(s, p).filtered(cut), (s, p, cut)
                for a in ws.colors():
                    for b in ws.colors():
                        assert ws.q_gen(s, p, a, b, cut=cut) \
                            == ws.q_gen(s, p, a, b).filtered(cut), \
                            (s, p, a, b, cut)
            assert ws.w_gen(s, p, cut=top + 1).is_zero
            assert ws.q_gen(s, p, 1, 1, cut=top + 1).is_zero


def test_a_full_build_has_one_memo_entry():
    # a cut of 0 or less is the full build under the full build's key
    ws = ModelWorkspace(1, 1, 2)
    q, w = ws.q_gen(2, 1, 1, 2), ws.w_gen(2, 1)
    entries = len(ws._memo)
    for cut in (0, -1):
        assert ws.q_gen(2, 1, 1, 2, cut=cut) is q
        assert ws.w_gen(2, 1, cut=cut) is w
    assert len(ws._memo) == entries
    top = ws.q_gen(2, 1, 1, 2, cut=2)
    assert ws._memo["q_gen", (2, 1, 1, 2), 2] is top


def test_colored_spin_brackets_build_their_right_side_at_the_cut():
    # eq3.36 reads Q_{s+s'-1,p+q} only at its top degree; at spin 2 and
    # degree 0 its largest right side is Q_{3,0}, a double bracket on
    # row 1 of L^4, and neither that row nor the spin row is built in full
    ws = ModelWorkspace(1, 1, 2)
    cfg = RunConfig(contexts=((1, 1, 2),), cases=("eq3.36",),
                    max_spin=2, max_degree=0)
    report = verify_case(ws, CASES["eq3.36"], cfg)
    assert report.verdict == "pass" and report.oracle_agrees
    assert ("_spin_row", (3, 0, 1)) not in ws._memo
    assert ("_row_sum", (RATIONAL, 4, 1)) not in ws._memo
    assert ("_spin_row", (3, 0, 1), 2) in ws._memo
    # every right side here is read at its top degree, so each row of L^p
    # built with a cut is built at p, its own top, and nothing below
    cut_rows = [key for key in ws._memo
                if key[0] == "_row_sum" and len(key) == 3]
    assert ("_row_sum", (RATIONAL, 4, 1), 4) in cut_rows
    assert all(cut == p for _, (_, p, _), cut in cut_rows), cut_rows

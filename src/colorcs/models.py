"""Named operator builders for the color Calogero-Sutherland models.

A :class:`ModelWorkspace` owns one algebra context and hands out the
operators the verifier and the command line talk about: the two
Hamiltonians, the Lax pairs, the Yangian generators T, the loop
generators J and K, the Serre defect tensors, and the higher-spin
W and Q families.  Every builder that constructs an operator is wrapped
in one memo, a dict on the workspace keyed by (builder name, positional
arguments), so repeated requests (the verifier loops over thousands of
color tuples) cost one dict lookup.  Operators are never mutated after
construction, so handing every caller the same object is safe.

Every generator is a site sum, built by one of two recipes, with each
site's piece dressed as e(i,a,b) (piece) when it carries a color pair:

  * Rows (``_site_sum``): T, J, W and Q sum rows.  x^2 = sum_i x_i^2 is
    even and color-blind, so [x^2, e(i,a,b) R] = e(i,a,b) [x^2, R], and
    W_{s,p} and Q_{s,p} share the rows ``_spin_row(s, p, i)``, the closed
    form ad_{x^2}^{s-1} of row i of L^(p+2s-2) over 2^{s-1} (p+s)_{s-1},
    bracketed once for all dim^2 color pairs.  The seeds are the s = 1
    members: J_p is Q_{1,p} and ``j_scalar`` is W_{1,p}, on row i of L^p.
    T sums the rows of the trigonometric L^p.  The bracket recursion of
    eqs. 3.31 and 3.32 is checked against these builds, not used to make
    them.
  * Power sums (``_power_sum``): K_p, the free generators Q0 and the
    leading symbols of W and Q are sum_i (+-x_i)^k d_i^d, built term by
    term.

Each row is built once, and a build makes only the derivative degrees its
caller reads:

  * The Lax entries of both kinds and x^2 are natural under renaming the
    sites, so row i of L^p and of the spin closed form is row 1's image
    under the swap of sites 1 and i (``OperatorSum.relabel``); only row 1
    is built, as the site sum sum_k L_1k (row k of L^(p-1)), and bracketed.
  * The rows and the generators summed from them take a derivative cut:
    a build at ``cut=c`` is exactly the full build's terms at derivative
    degree >= c, zero once c passes the top degree, and a leading-order
    verdict asks for its right side there.  The cut propagates by two
    rules, both from "Leibniz only lowers the degree" (see ``operators``).
    Entries of L have derivative degree <= 1, so row i of L^p at c is
    sum_k L_ik (row k of L^(p-1) at c - 1), each product truncated at c.
    ad_{x^2} lowers the degree by 1 or 2, so the spin row at c needs the
    row of L^(p+2s-2) at c + s - 1, and the k-th bracket is truncated at
    c + s - 1 - k.  Dressing a row with e(i,a,b) and renaming its sites
    keep degrees, so they pass the cut through.  A cut is an int, as in
    ``operators``: 0 or less is the full build, under its usual memo key,
    and a cut build is memoized under (name, args, cut).

Site indices are 1-based, color indices run 1..n+m.
"""

from __future__ import annotations

import functools
import re

from .errors import UnknownNameError
from .operators import AlgebraContext, OperatorSum

RATIONAL = "calogero"
TRIG = "sutherland"
_KINDS = (RATIONAL, TRIG)


def _pochhammer(a: int, k: int) -> int:
    """Rising factorial a(a+1)...(a+k-1)."""
    out = 1
    for t in range(k):
        out *= a + t
    return out


def _memoized(build):
    """Cache a builder's result on the workspace under (name, args), and
    a build with a derivative cut under (name, args, cut).

    A cut of 0 or less keeps every term: it is the full build, under the
    full build's key.  The builder runs, argument checks included, before
    anything is stored, so a builder that raises leaves no entry."""
    name = build.__name__

    @functools.wraps(build)
    def cached(self, *args, cut=0):
        if cut > 0:
            key, kw = (name, args, cut), {"cut": cut}
        else:
            key, kw = (name, args), {}
        op = self._memo.get(key)
        if op is None:
            op = self._memo[key] = build(self, *args, **kw)
        return op

    return cached


class ModelWorkspace:
    """Builder and cache front end for one (n, m, N) triple."""

    def __init__(self, n: int, m: int, N: int):
        self.ctx = AlgebraContext(n, m, N)
        self.n = n
        self.m = m
        self.N = N
        self.dim = n + m
        f = self.ctx.field
        self._half = f.const(1, 2)
        self._lam = f.lam
        self._memo = {}

    # -- small helpers ---------------------------------------------------

    def parity(self, a: int) -> int:
        return self.ctx.grading.parity(a)

    def colors(self):
        return range(1, self.dim + 1)

    @_memoized
    def unit(self, i: int, a: int, b: int) -> OperatorSum:
        return self.ctx.unit(i, a, b)

    def _require_pairs(self, what: str):
        if self.N < 2:
            raise ValueError(f"{what} needs at least two sites")

    # -- Hamiltonians ------------------------------------------------------

    @_memoized
    def hamiltonian(self, kind: str) -> OperatorSum:
        if kind not in _KINDS:
            raise ValueError(f"unknown model kind {kind!r}")
        self._require_pairs("the Hamiltonian")
        ctx, f = self.ctx, self.ctx.field
        lam = self._lam
        kinetic = ctx.zero()
        pair = ctx.zero()
        if kind == RATIONAL:
            for i in range(1, self.N + 1):
                kinetic = kinetic + ctx.deriv(i, 2).scale(self._half)
            for i in range(1, self.N + 1):
                for j in range(1, self.N + 1):
                    if i == j:
                        continue
                    w = f.omega(i, j)
                    pair = pair + ctx.swap(i, j).scale(w.d_dx(i))
                    pair = pair + ctx.scalar(lam * w * f.omega(j, i))
        else:
            for i in range(1, self.N + 1):
                xd = ctx.coord(i).mul(ctx.deriv(i))
                kinetic = kinetic + xd.mul(xd).scale(self._half)
            for i in range(1, self.N + 1):
                for j in range(1, self.N + 1):
                    if i == j:
                        continue
                    kern = (f.x(i) * f.x(j)) / ((f.x(i) - f.x(j)) * (f.x(j) - f.x(i)))
                    pair = pair + (ctx.swap(i, j) + ctx.scalar(lam)).scale(kern)
        return kinetic + pair.scale(lam * self._half)

    # -- Lax pairs ---------------------------------------------------------

    def lax(self, kind: str, which: str):
        """The N x N Lax matrix "L" or its partner "M", row-major tuples."""
        self._require_pairs("a Lax matrix")
        return self._lax_matrix(kind, which)

    def _kernel(self, kind: str, i: int, j: int):
        f = self.ctx.field
        return f.omega(i, j) if kind == RATIONAL else f.theta(i, j)

    @_memoized
    def _lax_matrix(self, kind: str, which: str):
        if kind not in _KINDS:
            raise ValueError(f"unknown model kind {kind!r}")
        if which not in ("L", "M"):
            raise ValueError("which must be 'L' or 'M'")
        ctx, lam = self.ctx, self._lam
        rows = []
        for i in range(1, self.N + 1):
            row = []
            for j in range(1, self.N + 1):
                if which == "L":
                    if i == j:
                        if kind == RATIONAL:
                            ent = ctx.deriv(i)
                        else:
                            ent = ctx.coord(i).mul(ctx.deriv(i)) \
                                + ctx.identity().scale(self._half)
                    else:
                        ent = ctx.swap(i, j).scale(lam * self._kernel(kind, i, j))
                else:
                    if i == j:
                        ent = ctx.zero()
                        for k in range(1, self.N + 1):
                            if k == i:
                                continue
                            kern = self._kernel(kind, i, k) * self._kernel(kind, k, i)
                            ent = ent - ctx.swap(i, k).scale(lam * kern)
                    else:
                        kern = self._kernel(kind, i, j) * self._kernel(kind, j, i)
                        ent = ctx.swap(i, j).scale(lam * kern)
                row.append(ent)
            rows.append(tuple(row))
        return tuple(rows)

    def _site_image(self, i: int, op: OperatorSum) -> OperatorSum:
        """op, a site-1 row, renamed by the swap of sites 1 and i."""
        sigma = list(range(1, self.N + 1))
        sigma[0], sigma[i - 1] = i, 1
        return op.relabel(sigma)

    @_memoized
    def _row_sum(self, kind: str, p: int, i: int, cut: int = 0) -> OperatorSum:
        """Sum over j of (L^p)_{ij}; shared by every color pair.

        The row sums of L^p are the vector L^p 1, so they follow from
        those of L^(p-1) as sum_k L_ik (row sum k of L^(p-1)), with N
        products per entry instead of N^2 for the whole matrix power.
        Only row 1 is built that way; row i is its image under the swap
        of sites 1 and i.  At a cut, each product is truncated there and
        takes the rows of L^(p-1) at cut - 1."""
        if p < 0:
            raise ValueError("matrix power must be nonnegative")
        if p == 0:
            return self.ctx.zero() if cut else self.ctx.identity()
        if i > 1:
            return self._site_image(i, self._row_sum(kind, p, 1, cut=cut))
        lax = self._lax_matrix(kind, "L")
        return self._site_sum(lambda k: lax[0][k - 1].mul(
            self._row_sum(kind, p - 1, k, cut=cut - 1), cut))

    def _site_sum(self, row, pair=None) -> OperatorSum:
        """sum_i row(i), each row dressed as e(i,a,b) row(i) when the
        color pair (a, b) is given."""
        op = self.ctx.zero()
        for i in range(1, self.N + 1):
            r = row(i)
            op = op + (r if pair is None else self.unit(i, *pair).mul(r))
        return op

    def _power_sum(self, k: int, d: int, pair=None,
                   sign: int = 1) -> OperatorSum:
        """sum_i (sign x_i)^k d_i^d, dressed like ``_site_sum``; each
        term is built as the one normal-ordered term it is."""
        f = self.ctx.field

        def term(i):
            dv = [0] * self.N
            dv[i - 1] = d
            return self.ctx.from_units(
                [] if pair is None else [(i, *pair)],
                coeff=f.monomial({i - 1: k}, sign ** k), deriv=dv)

        return self._site_sum(term)

    # -- Yangian generators --------------------------------------------------

    @_memoized
    def yangian_T(self, p: int, a: int, b: int) -> OperatorSum:
        """T_p with color indices (a, b), built from the trigonometric Lax."""
        if p < 0:
            raise ValueError("use t_minus1 for the formal level -1 unit")
        return self._site_sum(lambda i: self._row_sum(TRIG, p, i), (a, b))

    def t_minus1(self, a: int, b: int, graded: bool = True) -> OperatorSum:
        """Formal level -1 generator: a multiple of delta_ab / lambda.

        The graded variant carries an extra sign (-1)^p(a); the plain
        variant is the unsigned unit.  Both are exposed so the defining
        relation can be checked against either convention.
        """
        for c in (a, b):
            self.parity(c)  # ValueError for a color out of range
        if a != b:
            return self.ctx.zero()
        f = self.ctx.field
        coeff = f.one / f.lam
        if graded and self.parity(a):
            coeff = -coeff
        return self.ctx.identity().scale(coeff)

    # -- loop generators -------------------------------------------------------

    @_memoized
    def loop_J(self, p: int, a: int, b: int, cut: int = 0) -> OperatorSum:
        """J_p with color indices (a, b), built from the rational Lax: the
        spin-1 member of the Q family."""
        return self.q_gen(1, p, a, b, cut=cut)

    @_memoized
    def loop_K(self, p: int, a: int, b: int) -> OperatorSum:
        """K_p = sum_i e(i,a,b) x_i^p."""
        if p < 0:
            raise ValueError("loop degree must be nonnegative")
        return self._power_sum(p, 0, (a, b))

    @_memoized
    def j_scalar(self, p: int, cut: int = 0) -> OperatorSum:
        """Colorless total sum of (L^p)_{ij}: the spin-1 member of the W
        family."""
        return self.w_gen(1, p, cut=cut)

    # -- signed color contractions --------------------------------------------

    @_memoized
    def contracted_pair(self, i: int, j: int, a: int, b: int) -> OperatorSum:
        """(E_i E_j)^{ab} = sum_c (-1)^p(c) e(i,a,c) e(j,c,b)."""
        op = self.ctx.zero()
        for c in self.colors():
            sign = -1 if self.parity(c) else 1
            op = op + self.ctx.from_units([(i, a, c), (j, c, b)], coeff=sign)
        return op

    @_memoized
    def contracted_triple(self, i: int, j: int, k: int, a: int, b: int) -> OperatorSum:
        """(E_i E_j E_k)^{ab}; i and k may coincide."""
        op = self.ctx.zero()
        for c in self.colors():
            for d in self.colors():
                sign = -1 if (self.parity(c) + self.parity(d)) % 2 else 1
                op = op + self.ctx.from_units(
                    [(i, a, c), (j, c, d), (k, d, b)], coeff=sign)
        return op

    @_memoized
    def j0_squared(self, c: int, d: int) -> OperatorSum:
        """(J_0 J_0)^{cd} = sum_e (-1)^p(e) J_0^{ce} J_0^{ed}."""
        op = self.ctx.zero()
        for e in self.colors():
            sign = -1 if self.parity(e) else 1
            op = op + self.loop_J(0, c, e).mul(self.loop_J(0, e, d)).scale(sign)
        return op

    # -- explicit level-2 Yangian generator -------------------------------------

    @_memoized
    def t2_explicit(self, a: int, b: int) -> OperatorSum:
        """T_2 written out termwise rather than through the Lax square.

        Single-site block e(i,a,b)(x d + 1/2)^2, a two-site block with the
        kernel x_i (d theta_ij / d x_i) + theta_ij (x_i d_i + x_j d_j + 1),
        and a three-site block theta_ij theta_jk where only i != j and
        j != k are required (i = k contributes).
        """
        ctx, f = self.ctx, self.ctx.field
        lam = self._lam
        acc = ctx.zero()
        for i in range(1, self.N + 1):
            xd = ctx.coord(i).mul(ctx.deriv(i)) + ctx.identity().scale(self._half)
            acc = acc + self.unit(i, a, b).mul(xd.mul(xd))
        two = ctx.zero()
        for i in range(1, self.N + 1):
            for j in range(1, self.N + 1):
                if i == j:
                    continue
                th = f.theta(i, j)
                inner = ctx.scalar(f.x(i) * th.d_dx(i)) \
                    + (ctx.coord(i).mul(ctx.deriv(i))
                       + ctx.coord(j).mul(ctx.deriv(j))
                       + ctx.identity()).scale(th)
                two = two + self.contracted_pair(i, j, a, b).mul(inner)
        acc = acc + two.scale(lam)
        three = ctx.zero()
        for i in range(1, self.N + 1):
            for j in range(1, self.N + 1):
                if j == i:
                    continue
                for k in range(1, self.N + 1):
                    if k == j:
                        continue
                    kern = f.theta(i, j) * f.theta(j, k)
                    three = three + self.contracted_triple(i, j, k, a, b).scale(kern)
        return acc + three.scale(lam * lam)

    # -- Serre defect tensors -----------------------------------------------

    def _beta_sign(self, b: int, c: int, d: int) -> int:
        pb, pc, pd = self.parity(b), self.parity(c), self.parity(d)
        beta = pb * pc + pc * pd + pb * pd
        return -1 if beta % 2 else 1

    @_memoized
    def tensor_O(self, a: int, b: int, c: int, d: int) -> OperatorSum:
        """Defect of the double T-bracket: an antisymmetrized T0 T1 product."""
        t0ad = self.yangian_T(0, a, d)
        t1cb = self.yangian_T(1, c, b)
        t1ad = self.yangian_T(1, a, d)
        t0cb = self.yangian_T(0, c, b)
        return (t0ad.mul(t1cb) - t1ad.mul(t0cb)).scale(-self._beta_sign(b, c, d))

    def _distinct_triples(self):
        for i in range(1, self.N + 1):
            for j in range(1, self.N + 1):
                if j == i:
                    continue
                for k in range(1, self.N + 1):
                    if k == i or k == j:
                        continue
                    yield i, j, k

    def _mixed_core(self, a, b, c, d, deriv_part, kern2, kern3, kern_tail):
        """Shared shape of the three graded defect tensors.

        deriv_part(i, j) supplies the two-site operator factor; kern2 and
        kern3 supply the coefficient functions of the two triple sums, and
        kern_tail(i, j) that of the unsigned two-site tail
        e(i,a,b) e(j,c,d).
        """
        ctx = self.ctx
        core = ctx.zero()
        tail = ctx.zero()
        for i in range(1, self.N + 1):
            for j in range(1, self.N + 1):
                if i == j:
                    continue
                word = ctx.from_units([(i, a, d), (j, c, b)])
                core = core + word.mul(deriv_part(i, j))
                tail = tail + ctx.from_units([(i, a, b), (j, c, d)]) \
                    .scale(kern_tail(i, j))
        for i, j, k in self._distinct_triples():
            core = core + self.contracted_pair(i, j, a, d) \
                .mul(self.unit(k, c, b)).scale(kern2(i, j, k))
            core = core - self.unit(i, a, d) \
                .mul(self.contracted_pair(j, k, c, b)).scale(kern3(i, j, k))
        return core.scale(self._beta_sign(b, c, d)) + tail

    @_memoized
    def tensor_M(self, a: int, b: int, c: int, d: int) -> OperatorSum:
        """Defect tensor of the Serre test run on J1 + T1."""
        ctx, f = self.ctx, self.ctx.field
        lam = self._lam

        def deriv_part(i, j):
            return (ctx.coord(i) + ctx.identity()).mul(ctx.deriv(i)) \
                - (ctx.coord(j) + ctx.identity()).mul(ctx.deriv(j))

        return self._mixed_core(
            a, b, c, d, deriv_part,
            lambda i, j, k: lam * (f.x(i) + 1) / (f.x(i) - f.x(j)),
            lambda i, j, k: lam * (f.x(j) + 1) / (f.x(j) - f.x(k)),
            lambda i, j: lam * (f.x(i) + f.x(j) + 2) / (f.x(i) - f.x(j)),
        )

    @_memoized
    def tensor_N(self, a: int, b: int, c: int, d: int) -> OperatorSum:
        """Defect tensor of the Serre test run on K1 + T1.

        Every x-dependent slot mirrors the K1 + T1 diagonal x(1 + d/dx):
        the two-site block carries x d/dx differences plus a linear drift,
        the triple kernels are x_i/(x_i - x_j), and the trailing two-site
        sum carries (x_i + x_j)/(x_i - x_j).
        """
        ctx, f = self.ctx, self.ctx.field
        lam = self._lam

        def deriv_part(i, j):
            return ctx.coord(i).mul(ctx.deriv(i)) \
                - ctx.coord(j).mul(ctx.deriv(j)) \
                + ctx.scalar(f.x(i) - f.x(j))

        return self._mixed_core(
            a, b, c, d, deriv_part,
            lambda i, j, k: lam * f.x(i) / (f.x(i) - f.x(j)),
            lambda i, j, k: lam * f.x(j) / (f.x(j) - f.x(k)),
            lambda i, j: lam * (f.x(i) + f.x(j)) / (f.x(i) - f.x(j)),
        )

    @_memoized
    def tensor_P(self, a: int, b: int, c: int, d: int) -> OperatorSum:
        """Defect tensor for the two-parameter family T1 + x J1 + y K1.

        At x = y = 0 it reduces to tensor_O.  The x block mirrors the J1
        diagonal (bare derivative differences, coupling-weighted kernels);
        the y block is the commutator remnant linear in x_i - x_j.
        """
        ctx, f = self.ctx, self.ctx.field
        lam = self._lam

        def deriv_part(i, j):
            return ctx.deriv(i) - ctx.deriv(j)

        xblock = self._mixed_core(
            a, b, c, d, deriv_part,
            lambda i, j, k: lam / (f.x(i) - f.x(j)),
            lambda i, j, k: lam / (f.x(j) - f.x(k)),
            lambda i, j: (lam + lam) / (f.x(i) - f.x(j)),
        )
        ytail = ctx.zero()
        for i in range(1, self.N + 1):
            for j in range(1, self.N + 1):
                if i == j:
                    continue
                ytail = ytail + ctx.from_units([(i, a, d), (j, c, b)]) \
                    .scale(f.x(i) - f.x(j))
        return self.tensor_O(a, b, c, d) \
            + xblock.scale(f.aux_x) \
            + ytail.scale(self._beta_sign(b, c, d)).scale(f.aux_y)

    @_memoized
    def q1_family(self, a: int, b: int) -> OperatorSum:
        """T1 + x J1 + y K1 with the two formal parameters left symbolic."""
        f = self.ctx.field
        return self.yangian_T(1, a, b) \
            + self.loop_J(1, a, b).scale(f.aux_x) \
            + self.loop_K(1, a, b).scale(f.aux_y)

    # -- higher-spin family -----------------------------------------------

    @_memoized
    def x_squared(self) -> OperatorSum:
        """Multiplication by sum_i x_i^2, the spin raising kernel."""
        f = self.ctx.field
        tot = f.zero
        for i in range(1, self.N + 1):
            tot = tot + f.x(i) * f.x(i)
        return self.ctx.scalar(tot)

    @_memoized
    def w_gen(self, s: int, p: int, cut: int = 0) -> OperatorSum:
        """Spin-s scalar generator: the sum of the spin rows over the
        sites."""
        self._check_spin(s, p)
        return self._site_sum(lambda i: self._spin_row(s, p, i, cut=cut))

    @_memoized
    def w_leading(self, s: int, p: int) -> OperatorSum:
        """Top derivative part: sum_j (-x_j)^(s-1) d_j^(p+s-1)."""
        self._check_spin(s, p)
        return self._power_sum(s - 1, p + s - 1, sign=-1)

    @_memoized
    def _spin_row(self, s: int, p: int, i: int, cut: int = 0) -> OperatorSum:
        """Site i's color-blind part of W_{s,p} and Q_{s,p}: the closed
        form ad_{x^2}^{s-1} of row i of L^(p+2s-2), over a single
        rising-factorial prefactor, built at site 1 and renamed to
        site i.  At a cut c the row is taken at c + s - 1 and the k-th
        bracket is truncated at c + s - 1 - k."""
        self._check_spin(s, p)
        if s == 1:
            return self._row_sum(RATIONAL, p, i, cut=cut)
        if i > 1:
            return self._site_image(i, self._spin_row(s, p, 1, cut=cut))
        op = self._row_sum(RATIONAL, p + 2 * s - 2, 1,
                           cut=cut + s - 1 if cut else 0)
        x2 = self.x_squared()
        for k in range(1, s):
            op = x2.bracket(op, cut + s - 1 - k if cut else 0)
        return op.scale(self.ctx.field.const(
            1, 2 ** (s - 1) * _pochhammer(p + s, s - 1)))

    @_memoized
    def q_gen(self, s: int, p: int, a: int, b: int,
              cut: int = 0) -> OperatorSum:
        """Spin-s colored generator: the spin rows dressed with the color
        pair (a, b)."""
        self._check_spin(s, p)
        return self._site_sum(
            lambda i: self._spin_row(s, p, i, cut=cut), (a, b))

    @_memoized
    def q_leading(self, s: int, p: int, a: int, b: int) -> OperatorSum:
        """Top derivative part: sum_j e(j,a,b) (-x_j)^(s-1) d_j^(p+s-1)."""
        self._check_spin(s, p)
        return self._power_sum(s - 1, p + s - 1, (a, b), sign=-1)

    @_memoized
    def q_free(self, s: int, p: int, a: int, b: int) -> OperatorSum:
        """Decoupled generator sum_i e(i,a,b) x_i^(s-1) d_i^(p+s-1).

        This is the lambda = 0 shape, normalized without the alternating
        sign, for which the bracket algebra closes with exact binomial
        coefficients.
        """
        self._check_spin(s, p)
        return self._power_sum(s - 1, p + s - 1, (a, b))

    @staticmethod
    def _check_spin(s: int, p: int):
        if s < 1:
            raise ValueError("spin label must be at least 1")
        if p < 0:
            raise ValueError("degree label must be nonnegative")

    # -- name registry ---------------------------------------------------

    def build(self, name: str) -> OperatorSum:
        """Resolve a stable textual name like "T[1,1,2]" to an operator."""
        mt = re.fullmatch(r"\s*([A-Za-z_][A-Za-z0-9_]*)\s*(?:\[([^\]]*)\])?\s*",
                          name or "")
        if not mt:
            raise UnknownNameError(f"cannot parse operator name {name!r}")
        head, argtext = mt.group(1), mt.group(2)
        args = []
        if argtext is not None:
            for piece in argtext.split(","):
                piece = piece.strip()
                if not re.fullmatch(r"-?\d+", piece):
                    raise UnknownNameError(
                        f"bad argument {piece!r} in operator name {name!r}")
                args.append(int(piece))
        table = {
            "H_c": (0, lambda: self.hamiltonian(RATIONAL)),
            "H_s": (0, lambda: self.hamiltonian(TRIG)),
            "X2": (0, self.x_squared),
            "E": (3, lambda i, a, b: self.unit(i, a, b)),
            "P": (2, self.ctx.swap),
            "T": (3, self.yangian_T),
            "Tm1": (2, lambda a, b: self.t_minus1(a, b, graded=True)),
            "Tm1_plain": (2, lambda a, b: self.t_minus1(a, b, graded=False)),
            "T2x": (2, self.t2_explicit),
            "J": (3, self.loop_J),
            "K": (3, self.loop_K),
            "Js": (1, self.j_scalar),
            "O": (4, self.tensor_O),
            "Mt": (4, self.tensor_M),
            "Nt": (4, self.tensor_N),
            "Pt": (4, self.tensor_P),
            "Q1": (2, self.q1_family),
            "W": (2, self.w_gen),
            "Q": (4, self.q_gen),
            "Q0": (4, self.q_free),
            "Lc": (2, lambda i, j: self._entry(RATIONAL, "L", i, j)),
            "Ls": (2, lambda i, j: self._entry(TRIG, "L", i, j)),
            "Mc": (2, lambda i, j: self._entry(RATIONAL, "M", i, j)),
            "Ms": (2, lambda i, j: self._entry(TRIG, "M", i, j)),
        }
        if head not in table:
            raise UnknownNameError(f"unknown operator name {head!r}")
        arity, fn = table[head]
        if len(args) != arity:
            raise UnknownNameError(
                f"operator {head!r} takes {arity} argument(s), got {len(args)}")
        try:
            return fn(*args)
        except (ValueError, KeyError, OverflowError, RecursionError) as exc:
            # the Lax-power and spin recursions go one frame per degree, so
            # a huge degree runs out of stack; a failed build stores no entry
            raise UnknownNameError(f"cannot build {name!r}: {exc}") from exc

    def _entry(self, kind, which, i, j):
        if not (1 <= i <= self.N and 1 <= j <= self.N):
            raise ValueError("matrix entry out of range")
        return self.lax(kind, which)[i - 1][j - 1]

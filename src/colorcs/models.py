"""Named operator builders for the color Calogero-Sutherland models.

A :class:`ModelWorkspace` owns one algebra context and hands out the
operators the verifier and the command line talk about: the two
Hamiltonians, the Lax pairs, the Yangian generators T, the loop
generators J and K, the Serre defect tensors, and the higher-spin
W and Q families.  Every builder that constructs an operator is wrapped
in one memo, a dict on the workspace keyed by (builder name, positional
arguments), so repeated requests (the verifier loops over thousands of
color tuples) cost one dict lookup.  That includes the site swap P_ij
(``swap``) and the formal level -1 unit (``t_minus1``), so no case and
no other builder calls ``AlgebraContext.swap`` itself.  Operators are
never mutated once handed out (the one dict changed after it is wrapped
is a bracket's accumulator, inside ``OperatorSum.bracket``, before the
bracket returns), so handing every caller the same object is safe.

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

Site indices are 1-based, color indices run 1..n+m.  Every builder works
at every N >= 1: a sum over site pairs or triples runs over the ordered
tuples of distinct sites (``_site_tuples``), which are none at one site,
so there H is its kinetic part, M = 0 and L is its diagonal.
"""

from __future__ import annotations

import functools
import itertools
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
    full build's key.  The key is the positional arguments as passed, so a
    builder defaults no parameter but ``cut``: a default would give one
    operator two entries.  The builder runs, argument checks included,
    before anything is stored, so a builder that raises leaves no entry."""
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

    @_memoized
    def swap(self, i: int, j: int) -> OperatorSum:
        """Graded permutation of sites i and j."""
        return self.ctx.swap(i, j)

    def _site_tuples(self, k: int):
        """Ordered k-tuples of distinct sites."""
        return itertools.permutations(range(1, self.N + 1), k)

    # -- Hamiltonians ------------------------------------------------------

    @_memoized
    def hamiltonian(self, kind: str) -> OperatorSum:
        if kind not in _KINDS:
            raise ValueError(f"unknown model kind {kind!r}")
        ctx, lam = self.ctx, self._lam
        kinetic = ctx.zero()
        for i in range(1, self.N + 1):
            if kind == RATIONAL:
                kinetic = kinetic + ctx.deriv(i, 2).scale(self._half)
            else:
                xd = ctx.coord(i).mul(ctx.deriv(i))
                kinetic = kinetic + xd.mul(xd).scale(self._half)
        # (lam/2) sum_{i != j} (P_ij + lam) K_ij K_ji, with M's off-diagonal
        # kernel product; for the rational kernel d_i omega_ij is
        # omega_ij omega_ji
        pair = ctx.zero()
        for i, j in self._site_tuples(2):
            kern = self._kernel(kind, i, j) * self._kernel(kind, j, i)
            pair = pair + (self.swap(i, j) + ctx.scalar(lam)).scale(kern)
        return kinetic + pair.scale(lam * self._half)

    # -- Lax pairs ---------------------------------------------------------

    def _kernel(self, kind: str, i: int, j: int):
        f = self.ctx.field
        return f.omega(i, j) if kind == RATIONAL else f.theta(i, j)

    @_memoized
    def lax(self, kind: str, which: str):
        """The N x N Lax matrix "L" or its partner "M", row-major tuples.

        Off the diagonal, L_ij = lam K_ij P_ij and M_ij = lam K_ij K_ji P_ij
        for the model's kernel K; L_ii is d_i or x_i d_i + 1/2, and M_ii is
        minus the rest of row i, so the rows of M sum to zero."""
        if kind not in _KINDS:
            raise ValueError(f"unknown model kind {kind!r}")
        if which not in ("L", "M"):
            raise ValueError("which must be 'L' or 'M'")
        ctx, lam = self.ctx, self._lam
        rows = [[ctx.zero()] * self.N for _ in range(self.N)]
        for i, j in self._site_tuples(2):
            kern = self._kernel(kind, i, j)
            if which == "M":
                kern = kern * self._kernel(kind, j, i)
            rows[i - 1][j - 1] = self.swap(i, j).scale(lam * kern)
        for i, row in enumerate(rows, 1):
            if which == "M":
                row[i - 1] = -sum(row, ctx.zero())
            elif kind == RATIONAL:
                row[i - 1] = ctx.deriv(i)
            else:
                row[i - 1] = ctx.coord(i).mul(ctx.deriv(i)) \
                    + ctx.identity().scale(self._half)
        return tuple(map(tuple, rows))

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
        lax = self.lax(kind, "L")
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

    def _deriv_at(self, i: int, k: int) -> tuple:
        """Derivative tuple of order k at site i and 0 at every other."""
        return tuple(k if s == i else 0 for s in range(1, self.N + 1))

    def _power_sum(self, k: int, d: int, pair=None,
                   sign: int = 1) -> OperatorSum:
        """sum_i (sign x_i)^k d_i^d, dressed like ``_site_sum``; each
        term is built as the one normal-ordered term it is."""
        f = self.ctx.field

        def term(i):
            return self.ctx.from_units(
                [] if pair is None else [(i, *pair)],
                coeff=f.monomial({i - 1: k}, sign ** k),
                deriv=self._deriv_at(i, d))

        return self._site_sum(term)

    # -- Yangian generators --------------------------------------------------

    @_memoized
    def yangian_T(self, p: int, a: int, b: int) -> OperatorSum:
        """T_p with color indices (a, b), built from the trigonometric Lax."""
        if p < 0:
            raise ValueError("use t_minus1 for the formal level -1 unit")
        return self._site_sum(lambda i: self._row_sum(TRIG, p, i), (a, b))

    @_memoized
    def t_minus1(self, a: int, b: int, graded: bool) -> OperatorSum:
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
    def loop_J(self, p: int, a: int, b: int) -> OperatorSum:
        """J_p with color indices (a, b), built from the rational Lax: the
        spin-1 member of the Q family."""
        return self.q_gen(1, p, a, b)

    @_memoized
    def loop_K(self, p: int, a: int, b: int) -> OperatorSum:
        """K_p = sum_i e(i,a,b) x_i^p."""
        if p < 0:
            raise ValueError("loop degree must be nonnegative")
        return self._power_sum(p, 0, (a, b))

    @_memoized
    def j_scalar(self, p: int) -> OperatorSum:
        """Colorless total sum of (L^p)_{ij}: the spin-1 member of the W
        family."""
        return self.w_gen(1, p)

    # -- signed color contractions --------------------------------------------

    @_memoized
    def contracted(self, sites: tuple, a: int, b: int) -> OperatorSum:
        """(E_s1 ... E_sk)^{ab} (``AlgebraContext.contracted``) for a
        tuple of sites, which may recur."""
        return self.ctx.contracted(sites, a, b)

    @_memoized
    def j0_squared(self, c: int, d: int) -> OperatorSum:
        """(J_0 J_0)^{cd} = sum_e (-1)^p(e) J_0^{ce} J_0^{ed}, which is
        sum_{i != j} (E_i E_j)^{cd} + (n - m) J_0^{cd}."""
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
        for i, j in self._site_tuples(2):
            th = f.theta(i, j)
            inner = ctx.scalar(f.x(i) * th.d_dx(i)) \
                + (ctx.coord(i).mul(ctx.deriv(i))
                   + ctx.coord(j).mul(ctx.deriv(j))
                   + ctx.identity()).scale(th)
            two = two + self.contracted((i, j), a, b).mul(inner)
        acc = acc + two.scale(lam)
        three = ctx.zero()
        # i -> j -> k either returns to i or goes on to a third site
        walks = itertools.chain(((i, j, i) for i, j in self._site_tuples(2)),
                                self._site_tuples(3))
        for i, j, k in walks:
            kern = f.theta(i, j) * f.theta(j, k)
            three = three + self.contracted((i, j, k), a, b).scale(kern)
        return acc + three.scale(lam * lam)

    # -- Serre defect tensors -----------------------------------------------

    @_memoized
    def tensor_O(self, a: int, b: int, c: int, d: int) -> OperatorSum:
        """Defect of the double T-bracket: an antisymmetrized T0 T1 product."""
        t0ad = self.yangian_T(0, a, d)
        t1cb = self.yangian_T(1, c, b)
        t1ad = self.yangian_T(1, a, d)
        t0cb = self.yangian_T(0, c, b)
        beta = self.ctx.grading.e2_sign(b, c, d)
        return (t0ad.mul(t1cb) - t1ad.mul(t0cb)).scale(-beta)

    @_memoized
    def _j_block(self, a: int, b: int, c: int, d: int) -> OperatorSum:
        """T1's Serre cross term with J1: beta times the core on
        e(i,a,d) e(j,c,b) (d_i - d_j) and the triple sums with kernels
        lam/(x_i - x_j) and lam/(x_j - x_k), plus the unsigned tail
        e(i,a,b) e(j,c,d) 2 lam/(x_i - x_j)."""
        ctx, f = self.ctx, self.ctx.field
        lam = self._lam
        core = ctx.zero()
        tail = ctx.zero()
        for i, j in self._site_tuples(2):
            word = [(i, a, d), (j, c, b)]
            core = core + ctx.from_units(word, deriv=self._deriv_at(i, 1)) \
                - ctx.from_units(word, deriv=self._deriv_at(j, 1))
            tail = tail + ctx.from_units([(i, a, b), (j, c, d)],
                                         coeff=2 * lam / (f.x(i) - f.x(j)))
        for i, j, k in self._site_tuples(3):
            core = core + self.contracted((i, j), a, d) \
                .mul(self.unit(k, c, b)).scale(lam / (f.x(i) - f.x(j)))
            core = core - self.unit(i, a, d) \
                .mul(self.contracted((j, k), c, b)) \
                .scale(lam / (f.x(j) - f.x(k)))
        return core.scale(ctx.grading.e2_sign(b, c, d)) + tail

    @_memoized
    def _k_block(self, a: int, b: int, c: int, d: int) -> OperatorSum:
        """T1's Serre cross term with K1:
        beta sum_{i != j} e(i,a,d) e(j,c,b) (x_i - x_j)."""
        ctx, f = self.ctx, self.ctx.field
        beta = ctx.grading.e2_sign(b, c, d)
        return sum((ctx.from_units([(i, a, d), (j, c, b)],
                                   coeff=beta * (f.x(i) - f.x(j)))
                    for i, j in self._site_tuples(2)), ctx.zero())

    @_memoized
    def tensor_P(self, a: int, b: int, c: int, d: int, x, y) -> OperatorSum:
        """Defect tensor of the Serre test run on ``q1_family`` at the
        shift (x, y): tensor_O + x (J block) + y (K block), a block added
        only where its shift is nonzero.  eq3.22 runs it at (1, 0), eq3.23
        at (0, 1) and eq3.27 at the field's symbolic (x, y).  The Serre
        form is quadratic in the level-1 generator; eq3.12 and eq3.18
        remove the x^2 and y^2 self-terms, and it has no xy term because
        the J1-K1 cross term vanishes, which eq3.27 checks."""
        op = self.tensor_O(a, b, c, d)
        if x:
            op = op + self._j_block(a, b, c, d).scale(x)
        if y:
            op = op + self._k_block(a, b, c, d).scale(y)
        return op

    @_memoized
    def q1_family(self, a: int, b: int, x, y) -> OperatorSum:
        """T1 + x J1 + y K1, a tower added only where its shift is
        nonzero; x and y are numbers or the field's symbolic parameters."""
        op = self.yangian_T(1, a, b)
        if x:
            op = op + self.loop_J(1, a, b).scale(x)
        if y:
            op = op + self.loop_K(1, a, b).scale(y)
        return op

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
        xy = (self.ctx.field.aux_x, self.ctx.field.aux_y)
        table = {
            "H_c": (0, lambda: self.hamiltonian(RATIONAL)),
            "H_s": (0, lambda: self.hamiltonian(TRIG)),
            "X2": (0, self.x_squared),
            "E": (3, lambda i, a, b: self.unit(i, a, b)),
            "P": (2, self.swap),
            "T": (3, self.yangian_T),
            "Tm1": (2, lambda a, b: self.t_minus1(a, b, True)),
            "Tm1_plain": (2, lambda a, b: self.t_minus1(a, b, False)),
            "T2x": (2, self.t2_explicit),
            "J": (3, self.loop_J),
            "K": (3, self.loop_K),
            "Js": (1, self.j_scalar),
            "O": (4, self.tensor_O),
            "Mt": (4, lambda a, b, c, d: self.tensor_P(a, b, c, d, 1, 0)),
            "Nt": (4, lambda a, b, c, d: self.tensor_P(a, b, c, d, 0, 1)),
            "Pt": (4, lambda a, b, c, d: self.tensor_P(a, b, c, d, *xy)),
            "Q1": (2, lambda a, b: self.q1_family(a, b, *xy)),
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

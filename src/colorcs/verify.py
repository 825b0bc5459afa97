"""Identity verification engine.

Every algebraic identity the package claims is registered here as a
case.  A case expands into instances (one per color tuple, site pair,
level choice and so on), each holding a left and a right expression
tree over cached model operators.  A node speaks the operator's own
protocol (``filtered``, ``parity``, ``reach``, ``apply_to``), so an
operator is a leaf as it stands.  Each instance is then judged twice:

* symbolically: the trees are collapsed at the instance's derivative
  cut with the canonical operator arithmetic and the residual must
  vanish, and
* by action: the same trees are applied compositionally to one
  exponential probe state per color basis state, never forming an
  operator product, and the outcome must agree with the symbolic verdict.

The second pass is the double-entry bookkeeping: it exercises only
``apply_to`` on the leaf operators plus state linear algebra, so a bug
in the product, Leibniz or merge code cannot cancel itself.  To keep the
two paths independent, ``apply_to``'s lookup of a word's in tuple in the
state and ``mul``'s join of in tuples against out tuples are deliberately
separate code, and so are their sign functions (``full_word_act`` and
``full_word_mul``).  The two verdicts are compared on a few instances
per case, picked by a seeded hash of their labels, and any disagreement
is a hard failure of the whole run.  Both paths run on the same
coefficient field, and each verdict runs inside that field's arithmetic
memo (see ``scalar``), so a sum, product or derivative one path computed
is handed to the other.  A hit returns the canonical result
recomputation would return, so the memo saves work without coupling the
two paths: the independence lives in the operator product and action
code.  The memo also shares whole brackets
(``OperatorSum.bracket``), but only the symbolic path reads them; the
action path applies a bracket's operands to states itself.

Every instance has a derivative cut: 0 for an exact identity, the
leading degree for a leading-order one (eqs. 3.34-3.36 and the leading
symbols of eqs. 3.31 and 3.32).  Every node collapses at a cut; products
take full operands.  ``filtered(cut)`` is the node's terms at
derivative degree >= cut: a leaf is an operator and filters its terms
(at 0 it is the operator itself), a sum or a scaling passes the cut to
its items, and a product or a bracket collapses its operands in full,
because its top needs their lower terms, and truncates only its own
``mul`` or ``bracket`` (sound by the rule in ``operators``: Leibniz only
lowers the degree).  The residual is lhs - rhs at the cut, each side
collapsed as written.  When the two sides hold the same terms with equal
coefficients it is the context's one zero and no difference is built:
canonical forms make structural equality mathematical equality (see
``scalar``), so every passing instance is read off that one comparison.
A leading-order right side is read only at degree >= its cut, so eqs.
3.34-3.36 build their right-side generator at that cut (the ``cut`` of
the ``models`` builders): W or Q_{s+s'-2,p+q}, or Q_{s+s'-1,p+q}, holds
only its top degree, without the high Lax powers and brackets below it.
The left-side generators stay full builds, shared with the exact
instances.

The oracle checks the residual the symbolic verdict was read from: the
picked instances are drawn before the symbolic pass, which keeps their
residuals and hands them over instead of recomputing them.  On every
probe state the residual's action must equal the part of the
compositional action of the two sides at t-degree >= the cut, and the
residual must vanish exactly when all those parts do.  The oracle forms
no operator product, so a truncated residual is never checked through the
``mul`` that computed it; it applies the full leaves, asking each side
only for its components at t-degree >= the cut (see below).

Why one probe per color state suffices: the probe for a basis state c is
e^(t.x) |c> with formal t_1..t_N, a state {(color tuple, t exponents):
amplitude} holding 1 at (c, 0).  Since e^(-t.x) d_i e^(t.x) = d_i + t_i,
a normal form sum f_{w,k}(x) w d^k sends this probe to
e^(t.x) sum over the terms with in(w) = c of +-f_{w,k} t^k |out(w)>.
Full-support words with one in tuple have pairwise distinct out tuples,
and distinct k are distinct monomials in t, so every term of the normal
form reaches its own (out tuple, t exponents) component with its own
coefficient.  An operator is therefore zero exactly when it annihilates
all dim^N probes, whatever its derivative degree: the probe set needs no
degree, reads nothing from the operators it checks and is never cut.  A
term's derivative degree is the total degree of the t exponents it
reaches, so the terms of lhs - rhs at degree >= d act on a probe as
exactly the components of the compositional action at t-degree >= d:
the probes read a leading-order top off without the full product.
A state holds no zero amplitude: every step that makes one drops it
(``operators._bump``, ``Scale``, the oracle's coupling), so a state is
zero exactly when it is empty.  No node writes into a state another node
returned; ``Add`` sums into a dict of its own.

Why the oracle may act at its cut: a term f w d^p acts on a component
t^e A as the parts C(p, k) t^(e+k) (d^(p-k) A), so it never lowers a
component's t-degree and raises it by at most |p|.  A node's ``reach()``
bounds what its action adds: a leaf's top derivative degree, the sum of
the operands' reaches for a product or a bracket, the largest item's for
a sum, the inner node's for a scaling.  So a component below need - r,
with r the reach still to act on it, can reach no output component at
t-degree >= need, and ``apply_to(state, need)`` never builds it: a
product or a bracket asks the operand that acts first for need minus the
other operand's reach, and a leaf skips the components and the parts of
(d + t)^p that cannot get there.  Every action is linear and the kept
components are sums of kept parts only, so the result is exactly the full
action's components at t-degree >= need: an exact projection, not an
approximation.  The reach is read off the leaf whose ``apply_to`` runs
and the probe set is unchanged, so the prune reads nothing that ``mul``
computed; the oracle passes the instance's cut as the need of both sides,
and an exact instance, at cut 0, acts in full.

Why one instance per color orbit suffices: let sigma permute the even
colors 1..n among themselves and the odd colors n+1..n+m among
themselves, and relabel each word's out and in tuples through sigma,
with no sign.  The Koszul signs of ``full_word_mul`` and
``full_word_act`` read only parities, which sigma keeps, so the
relabelling is an automorphism of sums, products, brackets and
``filtered(cut)``.  The builders and the cases' right sides read a color
only through equality and parity (a delta, a grading sign, a sum over
all colors), so each builder at sigma.x is the relabelled builder at x,
and the residual of an instance obeys R(sigma.x) = sigma.R(x): zero
exactly when R(x) is, with the same term count.  So the pair, quad and
sextuple quantifiers run one representative per orbit of S_n x S_m, and
an instance's ``weight`` is its orbit size: a report's ``instances``,
``failed`` and ``residual_term_count`` sum weights, and equal those of
the full quantifier.  At three or more colors only SEXTUPLE_SAMPLE
sextuple representatives are checked, ranked like the oracle's picks,
each of weight 1.  Hence the rule for every case and builder: read a
color only through equality and parity, never through its order or its
value.  The oracle still applies full leaves to full probes; it checks
representatives as it checks any instance.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
import zlib

from .errors import CapExceededError
from .models import RATIONAL, TRIG, ModelWorkspace
from .operators import OperatorSum, _bump, term_budget

DEFAULT_SEED = 20257
DEFAULT_CONTEXTS = ((2, 0, 2), (1, 1, 2), (2, 1, 2), (1, 1, 3))
SEXTUPLE_SAMPLE = 60
ORACLE_INSTANCES = 3

VERDICT_PASS = "pass"
VERDICT_FAIL = "fail"
VERDICT_EMPTY = "empty-quantifier"
VERDICT_TRUNCATED = "truncated"


# -- expression trees ---------------------------------------------------------


class Expr:
    """Tiny two-way expression node: collapses to an operator, or acts
    on a state compositionally without ever multiplying operators.

    The node protocol is the operator protocol, so an ``OperatorSum`` is
    a leaf as it stands: ``filtered(cut)`` is the node's terms at
    derivative degree >= cut (a cut of 0 or less keeps them all),
    ``parity()`` its word parity, read off the tree so the action path
    never has to collapse a subtree into an operator product,
    ``reach()`` the most t-degree its action adds to a probe component,
    and ``apply_to(state, need=0)`` the components of its action on a
    probe state at t-degree >= need (the module docstring says why that
    is exact)."""

    __slots__ = ()


class Mul(Expr):
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def filtered(self, cut):
        # a top needs its operands' lower terms: they collapse in full
        return self.a.filtered(0).mul(self.b.filtered(0), cut)

    def parity(self):
        return (self.a.parity() + self.b.parity()) % 2

    def reach(self):
        return self.a.reach() + self.b.reach()

    def apply_to(self, state, need=0):
        inner = self.b.apply_to(state, _inner_need(need, self.a))
        return self.a.apply_to(inner, need)


class Bracket(Expr):
    """Graded commutator node; the sign is read off the operand parities."""

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def _sign(self) -> int:
        # coefficient of the reversed product: -(-1)^{p(A) p(B)}
        return 1 if self.a.parity() and self.b.parity() else -1

    def parity(self):
        return (self.a.parity() + self.b.parity()) % 2

    def filtered(self, cut):
        # operands in full, as in Mul
        return self.a.filtered(0).bracket(self.b.filtered(0), cut)

    def reach(self):
        return self.a.reach() + self.b.reach()

    def apply_to(self, state, need=0):
        a, b = self.a, self.b
        left = a.apply_to(b.apply_to(state, _inner_need(need, a)), need)
        right = b.apply_to(a.apply_to(state, _inner_need(need, b)), need)
        return _state_add(left, right, self._sign())


class Add(Expr):
    __slots__ = ("items",)

    def __init__(self, *items):
        self.items = items

    def filtered(self, cut):
        op = self.items[0].filtered(cut)
        for it in self.items[1:]:
            op = op + it.filtered(cut)
        return op

    def parity(self):
        # summands of a well-formed identity share one word parity
        return self.items[0].parity()

    def reach(self):
        return max(it.reach() for it in self.items)

    def apply_to(self, state, need=0):
        out = {}
        for it in self.items:
            for st, amp in it.apply_to(state, need).items():
                _bump(out, st, amp, False)
        return out


class Scale(Expr):
    __slots__ = ("inner", "coeff")

    def __init__(self, inner, coeff):
        self.inner = inner
        self.coeff = coeff

    def filtered(self, cut):
        return self.inner.filtered(cut).scale(self.coeff)

    def parity(self):
        return self.inner.parity()

    def reach(self):
        return self.inner.reach()

    def apply_to(self, state, need=0):
        c = self.coeff
        out = {}
        for st, amp in self.inner.apply_to(state, need).items():
            v = amp * c
            if v:
                out[st] = v
        return out


def _inner_need(need, outer):
    """The need of the operand that acts first, so that `outer`, acting
    after it, can still reach `need`.  A need of 0 or less asks for every
    component and is passed on as it is, without walking `outer`."""
    return need - outer.reach() if need > 0 else need


def _state_add(s1, s2, sign: int):
    out = dict(s1)
    subtract = sign < 0
    for st, amp in s2.items():
        _bump(out, st, amp, subtract)
    return out


# -- instances and cases ------------------------------------------------------
#
# Plain classes with __slots__, not dataclasses: a dataclass generates and
# compiles its methods when the module is imported, which would be most of
# a short run's start-up.


class Instance:
    __slots__ = ("label", "lhs", "rhs", "cut", "weight")

    def __init__(self, label: str, lhs, rhs, cut: int = 0, weight: int = 1):
        self.label = label
        self.lhs = lhs
        self.rhs = rhs
        self.cut = cut   # 0: exact; else the leading-order derivative degree
        # the instances this one stands for: its color orbit's size
        self.weight = weight


class CaseSpec:
    """One catalogued identity; ``instances(ws, cfg)`` yields its
    Instances at one context.

    The quantifier alone decides whether a context has instances; none
    gives the verdict ``empty-quantifier``.  ``min_sites`` is the fewest
    sites at which it has any, so the manifest comparison expects
    ``empty-quantifier`` below it: 2 for the cases quantified over site
    pairs, 1 for every other."""
    __slots__ = ("id", "suite", "title", "min_sites", "instances")

    def __init__(self, id: str, suite: str, title: str, min_sites: int,
                 instances):
        self.id = id
        self.suite = suite
        self.title = title
        self.min_sites = min_sites
        self.instances = instances


class _Record:
    """repr and field-wise == for a record whose fields are its
    ``__slots__``, in order."""
    __slots__ = ()

    def __repr__(self):
        fields = ", ".join(f"{k}={getattr(self, k)!r}" for k in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(getattr(self, k) == getattr(other, k)
                   for k in self.__slots__)

    __hash__ = None


class RunConfig(_Record):
    __slots__ = ("contexts", "cases", "lam", "seed", "max_spin",
                 "max_degree", "term_budget", "workers", "dump_residual")

    def __init__(self, contexts: tuple = DEFAULT_CONTEXTS,
                 cases: tuple | None = None,   # None: the full catalog
                 lam=None,                     # None: keep the coupling symbolic
                 seed: int = DEFAULT_SEED, max_spin: int = 3,
                 max_degree: int = 2, term_budget: int | None = None,
                 workers: int = 1, dump_residual: bool = False):
        self.contexts = contexts
        self.cases = cases
        self.lam = lam
        self.seed = seed
        self.max_spin = max_spin
        self.max_degree = max_degree
        self.term_budget = term_budget
        self.workers = workers
        self.dump_residual = dump_residual


class IdentityReport(_Record):
    __slots__ = ("id", "suite", "n", "m", "N", "verdict", "oracle_agrees",
                 "instances", "failed", "residual_term_count", "millis",
                 "note", "residuals")

    def __init__(self, id: str, suite: str, n: int, m: int, N: int,
                 verdict: str, oracle_agrees: bool, instances: int,
                 failed: int, residual_term_count: int, millis: int,
                 note: str = "", residuals: list | None = None):
        self.id = id
        self.suite = suite
        self.n = n
        self.m = m
        self.N = N
        self.verdict = verdict
        self.oracle_agrees = oracle_agrees
        self.instances = instances
        self.failed = failed
        self.residual_term_count = residual_term_count
        self.millis = millis
        self.note = note
        self.residuals = [] if residuals is None else residuals

    def as_dict(self):
        """The fields in declaration order, an empty note or residual
        list left out."""
        out = {k: getattr(self, k) for k in self.__slots__}
        for optional in ("note", "residuals"):
            if not out[optional]:
                del out[optional]
        return out


# -- quantifier helpers -------------------------------------------------------


@functools.cache
def _orbits(n, m, k):
    """One representative per orbit of the same-parity color permutations
    S_n x S_m on k-tuples of the colors 1..n+m, each with its orbit size.

    A tuple represents its orbit when its even colors first appear in the
    order 1, 2, ... and its odd colors in the order n+1, n+2, ...; that
    pattern of equalities and parities is the orbit, so its size is
    perm(n, k_even) perm(m, k_odd), with k_even and k_odd the distinct
    colors of each parity in the tuple.  Returns ((tuple, size), ...) in
    ``itertools.product`` order."""
    reps = []
    for tup in itertools.product(range(1, n + m + 1), repeat=k):
        even, odd = 1, n + 1    # the next unseen color of each parity
        for c in tup:
            nxt = even if c <= n else odd
            if c > nxt:
                break
            if c == nxt:
                if c <= n:
                    even += 1
                else:
                    odd += 1
        else:
            reps.append((tup, math.perm(n, even - 1)
                         * math.perm(m, odd - n - 1)))
    return tuple(reps)


def _pairs(ws):
    """Color pairs (a, b), one per orbit, with the orbit size as weight."""
    return _orbits(ws.n, ws.m, 2)


def _quads(ws):
    """Color quadruples, one per orbit, with the orbit size as weight."""
    return _orbits(ws.n, ws.m, 4)


def _seeded_lowest(ws, cfg, case_id, keys, k):
    """Indices, ascending, of the k `keys` (bytes) ranked lowest by crc32
    of "seed|case|n,m,N|" + key: dropping an unpicked key moves no pick."""
    tag = zlib.crc32(f"{cfg.seed}|{case_id}|{ws.n},{ws.m},{ws.N}|".encode())
    ranked = sorted(range(len(keys)), key=lambda i: zlib.crc32(keys[i], tag))
    return sorted(ranked[:k])


def _sextuples(ws, cfg, case_id):
    """Color sextuples with weights: one per orbit when there are at most
    2^6 orbits (two colors), else the SEXTUPLE_SAMPLE `_seeded_lowest`
    ranks lowest by bytes(tuple), in product order, each of weight 1."""
    reps = _orbits(ws.n, ws.m, 6)
    if len(reps) <= 2 ** 6:
        return reps
    keys = [bytes(tup) for tup, _ in reps]
    return [(reps[i][0], 1)
            for i in _seeded_lowest(ws, cfg, case_id, keys, SEXTUPLE_SAMPLE)]


def _eta(ws, a, b, c, d):
    return ((ws.parity(a) + ws.parity(b)) * (ws.parity(c) + ws.parity(d))) % 2


def _loop_rhs(ws, G, level, a, b, c, d):
    """delta_bc G^{ad} - (-1)^eta delta_da G^{cb} at the given level, where
    G(level, x, y) is the operator G^{xy}."""
    items = []
    if b == c:
        items.append(G(level, a, d))
    if d == a:
        sign = -1 if _eta(ws, a, b, c, d) == 0 else 1
        items.append(Scale(G(level, c, b), sign))
    return Add(*items) if items else ws.ctx.zero()


def _serre_rhs(ws, tensor, a, b, c, d, e, f):
    """The six-delta combination shared by the mixed Serre identities."""
    eta = _eta(ws, a, b, c, d)
    delta = _eta(ws, c, d, e, f)
    gamma = (eta + _eta(ws, a, b, e, f)) % 2
    items = []
    if b == c:
        items.append(tensor(a, d, e, f))
    if d == e:
        items.append(Scale(tensor(a, b, c, f), -1))
    if c == f:
        items.append(Scale(tensor(a, b, e, d), -1 if delta else 1))
    if b == e:
        items.append(Scale(tensor(c, d, a, f), -1 if eta else 1))
    if a == d:
        items.append(Scale(tensor(c, b, e, f), 1 if eta else -1))
    if a == f:
        items.append(Scale(tensor(c, d, e, b), 1 if gamma else -1))
    if not items:
        return ws.ctx.zero()
    return Scale(Add(*items), ws.ctx.field.lam)


def _serre_case(case_id, base0, base1, tensor=None):
    """[A0^{ab}, [A1^{cd}, A1^{ef}}} - [A1^{ab}, [A0^{cd}, A1^{ef}}} over
    the sampled sextuples, where base0(ws, a, b) and base1(ws, a, b) give
    A0^{ab} and A1^{ab}; the right side is zero, or the six-delta
    combination of the defect tensor tensor(ws, a, b, c, d)."""

    def gen(ws, cfg):
        T = None if tensor is None else functools.partial(tensor, ws)
        for (a, b, c, d, e, f), w in _sextuples(ws, cfg, case_id):
            first = Bracket(base0(ws, a, b),
                            Bracket(base1(ws, c, d), base1(ws, e, f)))
            second = Bracket(base1(ws, a, b),
                             Bracket(base0(ws, c, d), base1(ws, e, f)))
            lhs = Add(first, Scale(second, -1))
            rhs = ws.ctx.zero() if T is None else \
                _serre_rhs(ws, T, a, b, c, d, e, f)
            yield Instance(f"abcdef={a}{b}{c}{d}{e}{f}", lhs, rhs, weight=w)

    return gen


def _level(gen_name, level):
    """A Serre base: generator `gen_name` at a fixed level."""
    return lambda ws, a, b: getattr(ws, gen_name)(level, a, b)


def _shifted_serre_case(case_id, shift):
    """The Serre test on J0 and the family T1 + x J1 + y K1 against its
    defect tensor, both at the shift (x, y) = shift(field)."""
    return _serre_case(
        case_id, _level("loop_J", 0),
        lambda ws, a, b: ws.q1_family(a, b, *shift(ws.ctx.field)),
        lambda ws, *abcd: ws.tensor_P(*abcd, *shift(ws.ctx.field)))


# -- the case catalog ---------------------------------------------------------


def _case_unit_bracket(ws, cfg):
    for i in range(1, ws.N + 1):
        for (a, b, c, d), w in _quads(ws):
            lhs = Bracket(ws.unit(i, a, b), ws.unit(i, c, d))
            rhs = _loop_rhs(ws, lambda _lv, x, y: ws.unit(i, x, y),
                            0, a, b, c, d)
            yield Instance(f"i={i} abcd={a}{b}{c}{d}", lhs, rhs, weight=w)


def _case_exchange_rules(ws, cfg):
    ident = ws.ctx.identity()
    for i, j in itertools.combinations(range(1, ws.N + 1), 2):
        pij = ws.swap(i, j)
        yield Instance(f"sym {i}{j}", pij, ws.swap(j, i))
        yield Instance(f"inv {i}{j}", Mul(pij, pij), ident)
    for i, j, k in itertools.permutations(range(1, ws.N + 1), 3):
        pij = ws.swap(i, j)
        pjk = ws.swap(j, k)
        pik = ws.swap(i, k)
        yield Instance(f"braid {i}{j}{k}", Mul(pij, pjk), Mul(pik, pij))


def _case_supercommutation(ws, cfg):
    for i, j in itertools.combinations(range(1, ws.N + 1), 2):
        for (a, b, c, d), w in _quads(ws):
            ei = ws.unit(i, a, b)
            ej = ws.unit(j, c, d)
            sign = -1 if _eta(ws, a, b, c, d) else 1
            lhs = Add(Mul(ei, ej), Scale(Mul(ej, ei), -sign))
            yield Instance(f"ij={i}{j} abcd={a}{b}{c}{d}", lhs, ws.ctx.zero(),
                           weight=w)


def _case_exchange_conjugation(ws, cfg):
    for i, j in itertools.permutations(range(1, ws.N + 1), 2):
        p = ws.swap(i, j)
        for (a, b), w in _pairs(ws):
            lhs = Mul(Mul(p, ws.unit(i, a, b)), p)
            yield Instance(f"ij={i}{j} ab={a}{b}", lhs, ws.unit(j, a, b),
                           weight=w)


def _case_lax_evolution(ws, cfg):
    for kind in (RATIONAL, TRIG):
        h = ws.hamiltonian(kind)
        L = ws.lax(kind, "L")
        M = ws.lax(kind, "M")
        for i in range(ws.N):
            for j in range(ws.N):
                lhs = Bracket(h, L[i][j])
                items = []
                for k in range(ws.N):
                    items.append(Mul(L[i][k], M[k][j]))
                    items.append(Scale(Mul(M[i][k], L[k][j]), -1))
                yield Instance(f"{kind} entry={i + 1}{j + 1}", lhs, Add(*items))


def _case_partner_sum_rule(ws, cfg):
    for kind in (RATIONAL, TRIG):
        M = ws.lax(kind, "M")
        for i in range(ws.N):
            row = Add(*[M[i][k] for k in range(ws.N)])
            col = Add(*[M[k][i] for k in range(ws.N)])
            yield Instance(f"{kind} row={i + 1}", row, ws.ctx.zero())
            yield Instance(f"{kind} col={i + 1}", col, ws.ctx.zero())


def _conservation_case(gen_name, kind, levels):
    """[G_level^{ab}, H] = 0 for the generator `gen_name` and the
    Hamiltonian of model `kind`, at each level and color pair."""

    def gen(ws, cfg):
        G = getattr(ws, gen_name)
        h = ws.hamiltonian(kind)
        for level in levels:
            for (a, b), w in _pairs(ws):
                lhs = Bracket(G(level, a, b), h)
                yield Instance(f"level={level} ab={a}{b}", lhs, ws.ctx.zero(),
                               weight=w)

    return gen


def _yangian_defining(graded_unit: bool):
    def gen(ws, cfg):
        f = ws.ctx.field

        def T(level, a, b):
            if level < 0:
                return ws.t_minus1(a, b, graded_unit)
            return ws.yangian_T(level, a, b)

        e2_sign = ws.ctx.grading.e2_sign
        for s in (-1, 0, 1):
            for q in (-1, 0, 1):
                for (a, b, c, d), w in _quads(ws):
                    lhs = Add(
                        Bracket(T(s, a, b), T(q + 1, c, d)),
                        Scale(Bracket(T(s + 1, a, b), T(q, c, d)), -1),
                    )
                    inner = Add(
                        Mul(T(q, c, b), T(s, a, d)),
                        Scale(Mul(T(s, c, b), T(q, a, d)), -1),
                    )
                    rhs = Scale(inner, f.lam * e2_sign(a, b, c))
                    yield Instance(f"s={s} p={q} abcd={a}{b}{c}{d}", lhs, rhs,
                                   weight=w)

    return gen


def _tower_case(gen_name, levels):
    """[G_s^{ab}, G_p^{cd}} closes on level s + p of the generator
    `gen_name`, for each level pair (s, p) and color quadruple."""

    def gen(ws, cfg):
        build = getattr(ws, gen_name)
        # each generator is looked up once per verdict
        G = functools.cache(build)
        for s, q in levels:
            for (a, b, c, d), w in _quads(ws):
                lhs = Bracket(G(s, a, b), G(q, c, d))
                rhs = _loop_rhs(ws, G, s + q, a, b, c, d)
                yield Instance(f"s={s} p={q} abcd={a}{b}{c}{d}", lhs, rhs,
                               weight=w)

    return gen


# the level pairs whose sum stays below 4: eqs. 3.15 and 3.17
_LEVEL_SUMS = tuple((s, q) for s in range(4) for q in range(4 - s))


def _case_level_one_bracket(ws, cfg):
    f = ws.ctx.field
    for (a, b, c, d), w in _quads(ws):
        lhs = Bracket(ws.yangian_T(1, a, b), ws.yangian_T(1, c, d))
        beta = ws.ctx.grading.e2_sign(b, c, d)
        defect = Add(
            Mul(ws.yangian_T(0, a, d), ws.yangian_T(1, c, b)),
            Scale(Mul(ws.yangian_T(1, a, d), ws.yangian_T(0, c, b)), -1),
        )
        rhs = Add(
            _loop_rhs(ws, ws.yangian_T, 2, a, b, c, d),
            Scale(defect, f.lam * -beta),
        )
        yield Instance(f"abcd={a}{b}{c}{d}", lhs, rhs, weight=w)


def _case_level_two_explicit(ws, cfg):
    for (a, b), w in _pairs(ws):
        yield Instance(f"ab={a}{b}", ws.yangian_T(2, a, b),
                       ws.t2_explicit(a, b), weight=w)


def _unification_case(plain):
    """The mixed towers reproduce twice the trigonometric level 1, with
    -k lam [J0^{ab}, J0^{cd}] added for k = plain(n, m) (no such term at
    k = 0)."""

    def gen(ws, cfg):
        f = ws.ctx.field
        k = plain(ws.n, ws.m)
        for (a, b, c, d), w in _quads(ws):
            parts = [
                Bracket(ws.loop_J(1, a, b), ws.loop_K(1, c, d)),
                Bracket(ws.loop_K(1, a, b), ws.loop_J(1, c, d)),
                Scale(Bracket(ws.loop_J(0, a, b),
                              ws.j0_squared(c, d)), f.lam),
            ]
            if k:
                parts.append(Scale(Bracket(ws.loop_J(0, a, b),
                                           ws.loop_J(0, c, d)), f.lam * -k))
            rhs = Scale(_loop_rhs(ws, ws.yangian_T, 1, a, b, c, d), 2)
            yield Instance(f"abcd={a}{b}{c}{d}", Add(*parts), rhs, weight=w)

    return gen


def _recursion_instances(ws, cfg, gen, leading, tag, weight=1):
    """One bracket recursion step W_{s,q} = [x^2, W_{s-1,q+2}] / (2(q+s))
    on the built generators, plus its leading symbol.

    The builders make every spin generator as its closed form on
    color-blind site rows; this step brackets the summed (or colored)
    generator instead, so the two sides meet only if the closed form's
    prefactors 1/(2^{s-1} (q+s)_{s-1}) differ by exactly 2(q+s) from one
    spin to the next.  The oracle applies both sides to probes and never
    sees how either was built.  At s = 1 there is no step: the spin-1
    generator is its seed (J_q, or the colorless row sum) by construction,
    so only its leading symbol is checked."""
    x2 = ws.x_squared()
    for s in range(1, cfg.max_spin + 1):
        for q in range(0, cfg.max_degree + 1):
            if s == 1:
                yield Instance(f"leading s=1 p={q}{tag}",
                               gen(1, q), leading(1, q), cut=q, weight=weight)
                continue
            step = Bracket(x2, gen(s - 1, q + 2))
            yield Instance(f"closed s={s} p={q}{tag}",
                           Scale(step, ws.ctx.field.const(1, 2 * (q + s))),
                           gen(s, q), weight=weight)
            yield Instance(f"leading s={s} p={q}{tag}", step,
                           Scale(leading(s, q), 2 * (q + s)),
                           cut=q + s - 1, weight=weight)


def _case_spin_recursion_scalar(ws, cfg):
    yield from _recursion_instances(ws, cfg, ws.w_gen, ws.w_leading, "")


def _case_spin_recursion_color(ws, cfg):
    for (a, b), w in _pairs(ws):
        yield from _recursion_instances(
            ws, cfg,
            lambda s, q: ws.q_gen(s, q, a, b),
            lambda s, q: ws.q_leading(s, q, a, b),
            f" ab={a}{b}", w)


def _spin_pairs(cfg, top):
    """(s, s', p, q) with spins 1..top and degrees 0..cfg.max_degree."""
    for s in range(1, top + 1):
        for sp in range(1, top + 1):
            for p in range(0, cfg.max_degree + 1):
                for q in range(0, cfg.max_degree + 1):
                    yield s, sp, p, q


def _spin_bracket_case(colored):
    """[W_{s,p}, G_{s',q}] = ((s-1)q - (s'-1)p) G_{s+s'-2,p+q} at leading
    order, for G = W (eq3.34) or G = Q with each color pair (eq3.35)."""

    def gen(ws, cfg):
        G = ws.q_gen if colored else ws.w_gen
        for s, sp, p, q in _spin_pairs(cfg, min(cfg.max_spin, 2)):
            for pair, w in _pairs(ws) if colored else [((), 1)]:
                lhs = Bracket(ws.w_gen(s, p), G(sp, q, *pair))
                coeff = (s - 1) * q - (sp - 1) * p
                cut = (p + s - 1) + (q + sp - 1) - 1
                rhs = Scale(G(s + sp - 2, p + q, *pair, cut=cut),
                            coeff) if coeff else ws.ctx.zero()
                tag = " ab={}{}".format(*pair) if pair else ""
                yield Instance(f"s={s} s'={sp} p={p} q={q}{tag}",
                               lhs, rhs, cut=cut, weight=w)

    return gen


def _case_spin_bracket_color(ws, cfg):
    for s, sp, p, q in _spin_pairs(cfg, min(cfg.max_spin, 2)):
        for (a, b, c, d), w in _quads(ws):
            lhs = Bracket(ws.q_gen(s, p, a, b), ws.q_gen(sp, q, c, d))
            cut = (p + s - 1) + (q + sp - 1)
            rhs = _loop_rhs(
                ws, lambda lv, x, y: ws.q_gen(s + sp - 1, p + q, x, y,
                                              cut=cut),
                0, a, b, c, d)
            yield Instance(f"s={s} s'={sp} p={p} q={q} abcd={a}{b}{c}{d}",
                           lhs, rhs, cut=cut, weight=w)


def _case_free_spin_algebra(ws, cfg):
    for s, sp, p, q in _spin_pairs(cfg, cfg.max_spin):
        for (a, b, c, d), w in _quads(ws):
            yield _free_spin_instance(ws, s, sp, p, q, a, b, c, d, w)


def _free_spin_instance(ws, s, sp, p, q, a, b, c, d, weight):
    lhs = Bracket(ws.q_free(s, p, a, b), ws.q_free(sp, q, c, d))
    items = []
    if b == c:
        deg = p + s - 1
        for k in range(0, min(deg, sp - 1) + 1):
            coeff = math.comb(deg, k) * math.perm(sp - 1, k)
            items.append(Scale(ws.q_free(s + sp - 1 - k, p + q, a, d), coeff))
    if d == a:
        deg = q + sp - 1
        sign = -1 if _eta(ws, a, b, c, d) == 0 else 1
        for k in range(0, min(deg, s - 1) + 1):
            coeff = sign * math.comb(deg, k) * math.perm(s - 1, k)
            items.append(Scale(ws.q_free(s + sp - 1 - k, p + q, c, b), coeff))
    rhs = Add(*items) if items else ws.ctx.zero()
    return Instance(f"s={s} s'={sp} p={p} q={q} abcd={a}{b}{c}{d}", lhs, rhs,
                    weight=weight)


CASES = {}


def _register(case: CaseSpec):
    CASES[case.id] = case


for _spec in [
    CaseSpec("eq2.7", "structural",
             "single-site color unit bracket", 1, _case_unit_bracket),
    CaseSpec("eq2.10", "structural",
             "exchange operators: symmetry, involution, braid", 2,
             _case_exchange_rules),
    CaseSpec("supercommutation", "structural",
             "distinct-site units commute up to the grading sign", 2,
             _case_supercommutation),
    CaseSpec("p-conjugation", "structural",
             "exchange conjugation moves a unit between sites", 2,
             _case_exchange_conjugation),
    CaseSpec("eq2.11", "integrability",
             "Lax evolution equation, both models, every entry", 1,
             _case_lax_evolution),
    CaseSpec("eq2.16", "integrability",
             "row and column sums of the Lax partner vanish", 1,
             _case_partner_sum_rule),
    CaseSpec("eq2.21", "integrability",
             "levels 0 and 1 commute with the trigonometric Hamiltonian", 1,
             _conservation_case("yangian_T", TRIG, (0, 1))),
    CaseSpec("jp-conservation", "integrability",
             "levels 0..2 commute with the rational Hamiltonian", 1,
             _conservation_case("loop_J", RATIONAL, (0, 1, 2))),
    CaseSpec("eq2.17", "yangian",
             "defining relation with the graded formal unit at level -1", 1,
             _yangian_defining(True)),
    CaseSpec("eq2.17-plain", "yangian",
             "defining relation with the unsigned formal unit at level -1", 1,
             _yangian_defining(False)),
    CaseSpec("eq3.1", "yangian",
             "level 0 bracket closes on level 0", 1,
             _tower_case("yangian_T", ((0, 0),))),
    CaseSpec("eq3.2", "yangian",
             "level 0 with level 1 closes on level 1", 1,
             _tower_case("yangian_T", ((0, 1),))),
    CaseSpec("eq3.3", "yangian",
             "level 1 bracket closes on level 2 plus a coupling defect", 1,
             _case_level_one_bracket),
    CaseSpec("eq3.4", "yangian",
             "level 2 generator equals its termwise expansion", 1,
             _case_level_two_explicit),
    CaseSpec("eq3.5", "yangian",
             "nested level-1 bracket measured by the defect tensor", 1,
             _serre_case("eq3.5", _level("yangian_T", 0),
                         _level("yangian_T", 1), ModelWorkspace.tensor_O)),
    CaseSpec("eq3.10", "loop",
             "rational tower: level 0 with level 1", 1,
             _tower_case("loop_J", ((0, 1),))),
    CaseSpec("eq3.11", "loop",
             "rational tower: level 1 bracket closes on level 2", 1,
             _tower_case("loop_J", ((1, 1),))),
    CaseSpec("eq3.12", "loop",
             "rational tower satisfies the Serre property", 1,
             _serre_case("eq3.12", _level("loop_J", 0), _level("loop_J", 1))),
    CaseSpec("eq3.15", "loop",
             "rational tower brackets add levels", 1,
             _tower_case("loop_J", _LEVEL_SUMS)),
    CaseSpec("eq3.17", "loop",
             "coordinate tower brackets add levels", 1,
             _tower_case("loop_K", _LEVEL_SUMS)),
    CaseSpec("eq3.18", "loop",
             "coordinate tower satisfies the Serre property", 1,
             _serre_case("eq3.18", _level("loop_K", 0), _level("loop_K", 1))),
    CaseSpec("eq3.21", "loop",
             "mixed towers reproduce the trigonometric level 1", 1,
             _unification_case(lambda n, m: 1)),
    CaseSpec("eq3.21-alt", "loop",
             "mixed tower identity without the plain level-0 bracket", 1,
             _unification_case(lambda n, m: 0)),
    CaseSpec("eq3.21-sdim", "loop",
             "mixed towers with the plain level-0 bracket weighted by n - m",
             1, _unification_case(lambda n, m: n - m)),
    CaseSpec("eq3.22", "loop",
             "shifted rational Serre defect matches its tensor", 1,
             _shifted_serre_case("eq3.22", lambda f: (1, 0))),
    CaseSpec("eq3.23", "loop",
             "shifted coordinate Serre defect matches its tensor", 1,
             _shifted_serre_case("eq3.23", lambda f: (0, 1))),
    CaseSpec("eq3.27", "loop",
             "two-parameter family Serre defect matches its tensor", 1,
             _shifted_serre_case("eq3.27", lambda f: (f.aux_x, f.aux_y))),
    CaseSpec("eq3.31", "winf",
             "scalar spin recursion equals the closed form", 1,
             _case_spin_recursion_scalar),
    CaseSpec("eq3.32", "winf",
             "colored spin recursion equals the closed form", 1,
             _case_spin_recursion_color),
    CaseSpec("eq3.34", "winf",
             "scalar spin brackets close to leading order", 1,
             _spin_bracket_case(colored=False)),
    CaseSpec("eq3.35", "winf",
             "mixed scalar-color spin brackets close to leading order", 1,
             _spin_bracket_case(colored=True)),
    CaseSpec("eq3.36", "winf",
             "colored spin brackets contract to leading order", 1,
             _case_spin_bracket_color),
    CaseSpec("eq3.38", "winf",
             "decoupled spin brackets close with binomial weights", 1,
             _case_free_spin_algebra),
]:
    _register(_spec)


# -- verdicts ---------------------------------------------------------------


def residual_records(op, max_terms=200):
    """Residual terms in a plain-data form, in ``to_str`` order: coefficient
    numerator and denominator strings, the (out, in) color word as one
    (site, out color, in color) triple per site, and the derivative
    exponent vector."""
    from .scalar import poly_str

    field = op.ctx.field
    out = []
    for key in op.display_keys()[:max_terms]:
        word, p = key
        f = op.terms[key]
        out.append({
            "num": poly_str(f.num, field),
            "den": poly_str(f.den, field),
            "word": [[s + 1, a, b] for s, (a, b) in enumerate(zip(*word))],
            "deriv": list(p),
        })
    return out


def _residual(inst, lam):
    """lhs - rhs at the instance's cut; the context's one zero, with no
    difference built, when the two sides are equal term by term."""
    lhs = inst.lhs.filtered(inst.cut)
    rhs = inst.rhs.filtered(inst.cut)
    res = lhs.ctx.zero() if lhs.terms == rhs.terms else lhs - rhs
    return res if lam is None else res.substitute_lambda(lam)


# verdictbench's tracer wraps both names; it moves every binding of the
# function to one wrapper, so the span is still counted once
_exact_residual = _leading_residual = _residual


def _probe_states(ws):
    """One exponential probe e^(t.x) |c> per color basis state c: the
    amplitude 1 at t exponents 0 (see the module docstring)."""
    one = ws.ctx.field.one
    t0 = (0,) * ws.N
    for colors in ws.ctx.grading.basis_states():
        yield {(colors, t0): one}


def _oracle_instance(ws, cfg, inst, residual):
    """Double-entry check of one instance against `residual`, the very
    residual its symbolic verdict was read from; returns (agrees, note),
    the note saying which check failed.

    One check serves both kinds: the composed action of lhs - rhs at
    t-degree >= the instance's cut (0 for an exact instance), which each
    side builds alone as its ``apply_to`` need, must equal the residual's
    full action on every probe, and the residual must vanish exactly when
    all those actions do.  The oracle forms no operator product."""
    action_zero = True
    for psi in _probe_states(ws):
        composed = _state_add(inst.lhs.apply_to(psi, inst.cut),
                              inst.rhs.apply_to(psi, inst.cut), -1)
        if cfg.lam is not None:
            composed = {st: g for st, amp in composed.items()
                        if (g := amp.substitute_lambda(cfg.lam))}
        direct = residual.apply_to(psi)
        if _state_add(composed, direct, -1):
            return False, "action path disagrees with the product path"
        if composed:
            action_zero = False
    if action_zero != residual.is_zero:
        return False, "action verdict disagrees with the symbolic verdict"
    return True, ""


def _oracle_picks(ws, cfg, case_id, instances):
    """Indices of the ORACLE_INSTANCES instances whose labels rank lowest
    in `_seeded_lowest`, in list order."""
    labels = [inst.label.encode() for inst in instances]
    return _seeded_lowest(ws, cfg, case_id, labels, ORACLE_INSTANCES)


def verify_case(ws: ModelWorkspace, case: CaseSpec, cfg: RunConfig) -> IdentityReport:
    t0 = time.perf_counter()
    report = IdentityReport(
        id=case.id, suite=case.suite, n=ws.n, m=ws.m, N=ws.N,
        verdict=VERDICT_PASS, oracle_agrees=True, instances=0, failed=0,
        residual_term_count=0, millis=0)
    notes = []
    try:
        with term_budget(cfg.term_budget), ws.ctx.field.arithmetic_memo():
            instances = list(case.instances(ws, cfg))
            # the picks depend only on the labels, so they are drawn first
            # and only the picked residuals are kept for the oracle
            kept = dict.fromkeys(_oracle_picks(ws, cfg, case.id, instances))
            # an instance stands for its color orbit (module docstring)
            for idx, inst in enumerate(instances):
                residual = _residual(inst, cfg.lam)
                if idx in kept:
                    kept[idx] = residual
                report.instances += inst.weight
                if not residual.is_zero:
                    report.failed += inst.weight
                    report.residual_term_count += inst.weight * len(residual)
                    if cfg.dump_residual and len(report.residuals) < 5:
                        report.residuals.append(
                            {"instance": inst.label,
                             "terms": residual_records(residual)})
            if not instances:
                report.verdict = VERDICT_EMPTY
            elif report.failed:
                report.verdict = VERDICT_FAIL
            for idx, residual in kept.items():
                agrees, note = _oracle_instance(
                    ws, cfg, instances[idx], residual)
                if not agrees:
                    report.oracle_agrees = False
                    notes.append(note)
                    notes.append(f"oracle mismatch at {instances[idx].label}")
                    break
    except CapExceededError as exc:
        report.verdict = VERDICT_TRUNCATED
        notes.append(str(exc))
    report.note = "; ".join(dict.fromkeys(notes))
    report.millis = int((time.perf_counter() - t0) * 1000)
    return report


# -- suite driver -------------------------------------------------------------


def _selected_cases(cfg):
    if cfg.cases is None:
        return tuple(CASES)
    unknown = [c for c in cfg.cases if c not in CASES]
    if unknown:
        raise KeyError(f"unknown case ids: {', '.join(unknown)}")
    return tuple(cfg.cases)


def _run_one_context(context, ids, cfg):
    n, m, N = context
    ws = ModelWorkspace(n, m, N)
    return [verify_case(ws, CASES[cid], cfg) for cid in ids]


def run_suite(cfg: RunConfig):
    """Run the selected cases over the selected contexts.

    With more than one worker and more than one context, the contexts go
    to a process pool of at most one worker per context; otherwise the run
    stays in this process and never imports the pool.  Returns reports
    sorted by (case id, context); the order and content are deterministic
    for a fixed config and seed (timing aside).
    """
    ids = _selected_cases(cfg)
    contexts = [tuple(c) for c in cfg.contexts]
    reports = []
    if cfg.workers > 1 and len(contexts) > 1:
        # imported here so that a serial run never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        # fork starts all max_workers at the first submit: one per context
        with ProcessPoolExecutor(
                max_workers=min(cfg.workers, len(contexts))) as pool:
            for chunk in pool.map(_run_one_context, contexts,
                                  itertools.repeat(ids),
                                  itertools.repeat(cfg)):
                reports.extend(chunk)
    else:
        for ctx in contexts:
            reports.extend(_run_one_context(ctx, ids, cfg))
    reports.sort(key=lambda r: (r.id, r.n, r.m, r.N))
    return reports


# -- manifest comparison ------------------------------------------------------


def compare_to_manifest(reports, manifest, cfg) -> list:
    """List of human-readable deviations between a run and the manifest.

    A report without an override is expected to have the manifest's
    default verdict, or ``empty-quantifier`` below its case's
    ``min_sites``."""
    deviations = []
    default = manifest.get("default", VERDICT_PASS)
    overrides = manifest.get("overrides", {})
    pinned_seed = manifest.get("seed")
    for rep in reports:
        ckey = f"{rep.n},{rep.m},{rep.N}"
        entry = overrides.get(rep.id, {}).get(ckey)
        want = VERDICT_EMPTY if rep.N < CASES[rep.id].min_sites else default
        if entry:
            want = entry.get("verdict", want)
        if rep.verdict != want:
            deviations.append(
                f"{rep.id} at ({ckey}): verdict {rep.verdict}, expected {want}")
        if entry and "residual_term_count" in entry \
                and pinned_seed == cfg.seed and cfg.lam is None:
            if rep.residual_term_count != entry["residual_term_count"]:
                deviations.append(
                    f"{rep.id} at ({ckey}): residual terms "
                    f"{rep.residual_term_count}, expected "
                    f"{entry['residual_term_count']}")
        if not rep.oracle_agrees:
            deviations.append(
                f"{rep.id} at ({ckey}): double-entry check failed")
    return deviations

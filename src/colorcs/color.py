"""Graded color units, words, and their action on the color basis.

Colors are 1-based labels 1..n+m; the first n are even, the rest odd.  A
unit e(i, a, b) replaces color b by color a at site i.  Units at distinct
sites supercommute with the sign read off their parities, and a same-site
pair contracts with a plain delta and no sign.  A word is the normal form
of a product of units: at most one unit per site, sites ascending, with the
overall sign and possible vanishing tracked during normalization.  Signed
sums of unit chains, the graded site swap among them, are operators, built
by ``AlgebraContext.contracted`` in ``operators``.

Acting on a basis state, a unit picks up the Koszul sign counting odd
colors strictly left of its site; a word acts with its rightmost (highest
site) unit first.  Words kept sparse are convenient to build with, but they
are linearly dependent as operators (summing e(i, c, c) over c gives the
identity), so canonical operator bookkeeping uses full-support words: one
unit at every site.

A full-support word is, up to sign, the matrix unit |out><in| on the color
space, and it is stored as that pair: a tuple (out, in) of two basis
states, out = (a1, ..., aN) and in = (b1, ..., bN).  It acts only on the
basis state equal to in, and a product w1 w2 is nonzero only when
w1[1] == w2[0].  Callers find those matches with a dictionary lookup on the
tuples; ``full_word_mul`` and ``full_word_act`` then compute only the sign,
and the resulting word or state reuses tuples the operands already hold.
``full_word_mul`` reads its sign from two tables its ``GradingContext``
builds once: the odd-color mask of each basis state (bit k for site
k + 1), whose xor over a word's out and in states is the mask of its odd
units, and the sign of w1 w2 for every pair of odd-unit masks.
``full_word_act`` keeps its site-by-site loop, so the oracle's action
shares no code with the product's sign.
``full_word_relabel`` renames the sites of a word and returns the Koszul
sign of putting its odd units back in ascending site order.
"""

from __future__ import annotations

from itertools import product


class GradingContext:
    """Fixed choice of gl(n|m) color space and site count N."""

    def __init__(self, n: int, m: int, N: int):
        if n < 0 or m < 0 or n + m < 1:
            raise ValueError("need a nonempty color set")
        if N < 1:
            raise ValueError("need at least one site")
        self.n = n
        self.m = m
        self.N = N
        self.dim = n + m
        self.colors = tuple(range(1, n + m + 1))
        self._par = (None,) + (0,) * n + (1,) * m
        # full_word_mul's tables (module docstring): the odd-color mask
        # of each basis state, bit k for site k + 1, and the sign of a
        # product at index m1 << N | m2 of its odd-unit masks
        self._odd_mask = {
            st: sum(1 << k for k, c in enumerate(st) if self._par[c])
            for st in self.basis_states()
        }
        self._word_sign = _word_sign_table(N)

    def parity(self, a: int) -> int:
        if not 1 <= a <= self.dim:
            raise ValueError(f"color {a} out of range 1..{self.dim}")
        return self._par[a]

    def e2_sign(self, a: int, b: int, c: int) -> int:
        """(-1)^(p(a)p(b) + p(b)p(c) + p(a)p(c)), the sign of the Yangian
        structure constants: the exponent is the second elementary
        symmetric polynomial of the three parities."""
        pa, pb, pc = self.parity(a), self.parity(b), self.parity(c)
        return -1 if (pa * pb + pb * pc + pa * pc) % 2 else 1

    def basis_states(self):
        """All color basis states, lexicographic."""
        return product(self.colors, repeat=self.N)

    def __repr__(self):
        return f"GradingContext(n={self.n}, m={self.m}, N={self.N})"


class ColorWord:
    """Normalized product of units, at most one per site, sites ascending."""

    __slots__ = ("ctx", "units")

    def __init__(self, ctx, units):
        self.ctx = ctx
        self.units = units

    def __repr__(self):
        body = " ".join(f"e({i},{a},{b})" for i, a, b in self.units)
        return f"ColorWord<{body or '1'}>"

    def act_basis(self, state):
        """(sign, new_state) for this word applied to a basis state.

        Returns None when a delta kills the term.  Rightmost unit acts
        first; the Koszul sign counts odd colors strictly left of the site.
        """
        ctx = self.ctx
        par = ctx._par
        st = list(state)
        sign = 1
        for i, a, b in reversed(self.units):
            if st[i - 1] != b:
                return None
            if (par[a] + par[b]) & 1:
                acc = 0
                for k in range(i - 1):
                    acc += par[st[k]]
                if acc & 1:
                    sign = -sign
            st[i - 1] = a
        return sign, tuple(st)

    def expand_full(self):
        """Full-support (out, in) words summing to this word.

        Absent sites are filled with diagonal units in all colors; these
        are even, so every expanded word carries coefficient +1.
        """
        sites = range(1, self.ctx.N + 1)
        have = {i: (a, b) for i, a, b in self.units}
        missing = [i for i in sites if i not in have]
        words = []
        for fill in product(self.ctx.colors, repeat=len(missing)):
            pairs = dict(zip(missing, zip(fill, fill)))
            pairs.update(have)
            words.append(tuple(zip(*(pairs[i] for i in sites))))
        return words


def word_from_units(ctx, units):
    """Normalize a product of units, leftmost factor first.

    Returns (sign, word); sign 0 with word None when the product vanishes.
    """
    par = ctx._par
    slots = []
    sign = 1
    dim = ctx.dim
    for i, a, b in units:
        if not 1 <= i <= ctx.N:
            raise ValueError(f"site {i} out of range 1..{ctx.N}")
        if not (1 <= a <= dim and 1 <= b <= dim):
            raise ValueError(f"color out of range 1..{dim}")
        p_new = (par[a] + par[b]) & 1
        pos = len(slots)
        while pos > 0 and slots[pos - 1][0] > i:
            prev = slots[pos - 1]
            if p_new and (par[prev[1]] + par[prev[2]]) & 1:
                sign = -sign
            pos -= 1
        if pos > 0 and slots[pos - 1][0] == i:
            site, wa, wb = slots[pos - 1]
            if wb != a:
                return 0, None
            slots[pos - 1] = (i, wa, b)
        else:
            slots.insert(pos, (i, a, b))
    return sign, ColorWord(ctx, tuple(slots))


# -- full-support word kernel ------------------------------------------------


def _word_sign_table(N):
    """The sign of w1 w2 for every pair of odd-unit masks, at index
    m1 << N | m2: (-1) to the number of pairs of an odd unit of w1 and
    an odd unit of w2 at a lower site."""
    # below[m2]: the sites with an odd number of m2's sites below them
    below = []
    for m2 in range(1 << N):
        b = 0
        for k in range(1, N):
            if (m2 & ((1 << k) - 1)).bit_count() & 1:
                b |= 1 << k
        below.append(b)
    return tuple(
        -1 if (m1 & b).bit_count() & 1 else 1
        for m1 in range(1 << N) for b in below
    )


def full_word_mul(ctx, w1, w2):
    """(sign, word) for the product w1 w2 of full-support words that
    match: in(w1) == out(w2), that is w1[1] == w2[0].

    The sign moves each unit of w2 left past the units of w1 at higher
    sites; same-site contraction itself is sign-free.  A unit is odd
    where its out and in colors differ in parity, so a word's odd-unit
    mask is the xor of its two states' odd-color masks, and the sign is
    read from the context's table of mask pairs.  The product is
    (out(w1), in(w2)).
    """
    mask = ctx._odd_mask
    mid = mask[w1[1]]
    sign = ctx._word_sign[(mask[w1[0]] ^ mid) << ctx.N | mid ^ mask[w2[1]]]
    return sign, (w1[0], w2[1])


def full_word_relabel(ctx, key, dest):
    """(sign, word) for the full-support word key with site k + 1 renamed
    to site dest[k] + 1 (dest a 0-based permutation).

    The renamed units, still in the old site order, are reordered into
    ascending sites; each pair of odd units that swaps order gives a sign.
    """
    par = ctx._par
    out, inn = key
    new_out = [0] * len(dest)
    new_in = [0] * len(dest)
    exp = 0
    odd_dest = []
    for a, b, d in zip(out, inn, dest):
        new_out[d] = a
        new_in[d] = b
        if (par[a] + par[b]) & 1:
            for e in odd_dest:
                if e > d:
                    exp += 1
            odd_dest.append(d)
    word = (tuple(new_out), tuple(new_in))
    if exp & 1:
        return -1, word
    return 1, word


def full_word_act(ctx, key):
    """(sign, new_state) for a full-support word (out, in) on its in state
    key[1]; the new state is out.

    The rightmost unit acts first, so an odd unit at a site sees only in
    colors to its left in the Koszul sign.
    """
    par = ctx._par
    exp = 0
    pref = 0
    for a, b in zip(key[0], key[1]):
        if (par[a] + par[b]) & 1:
            exp += pref
        pref += par[b]
    if exp & 1:
        return -1, key[0]
    return 1, key[0]


def full_word_parity(ctx, key) -> int:
    par = ctx._par
    acc = 0
    for c in key[0]:
        acc += par[c]
    for c in key[1]:
        acc += par[c]
    return acc & 1

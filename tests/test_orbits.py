"""Color quantifiers by orbit: the soundness of running one instance per
orbit of the same-parity color permutations S_n x S_m (see the ``verify``
module docstring), and the seeded selections: the oracle's picks by label
and the sampled sextuples by orbit representative."""

import itertools

import pytest

from colorcs import verify as vf
from colorcs.models import RATIONAL, TRIG, ModelWorkspace
from colorcs.operators import OperatorSum

ORBIT_CONTEXTS = ((2, 1, 2), (1, 2, 2), (2, 2, 2))


def recolor(op, sigma):
    """op with each word's out and in colors mapped through sigma, no sign."""
    move = lambda cs: tuple(sigma[c] for c in cs)  # noqa: E731
    return OperatorSum(op.ctx, {((move(out), move(inn)), p): f
                                for ((out, inn), p), f in op.terms.items()})


def same_parity_perms(n, m):
    """Every permutation of the colors 1..n+m that keeps parities, as a
    dict, the identity first."""
    for evens in itertools.permutations(range(1, n + 1)):
        for odds in itertools.permutations(range(n + 1, n + m + 1)):
            yield dict(enumerate(evens + odds, start=1))


def colored_builders(ws):
    """(name, arity, builder) for every builder a color-quantified case
    reaches, at small caps."""
    out = [(f"unit i={i}", 2, lambda a, b, i=i: ws.unit(i, a, b))
           for i in range(1, ws.N + 1)]
    out += [(f"T{p}", 2, lambda a, b, p=p: ws.yangian_T(p, a, b))
            for p in range(3)]
    out += [(f"Tm1 graded={g}", 2,
             lambda a, b, g=g: ws.t_minus1(a, b, g)) for g in (True, False)]
    f = ws.ctx.field
    shifts = ((1, 0), (0, 1), (f.aux_x, f.aux_y))
    out += [("T2 explicit", 2, ws.t2_explicit),
            ("J0 J0", 2, ws.j0_squared)]
    out += [(f"Q1 family {xy}", 2,
             lambda a, b, xy=xy: ws.q1_family(a, b, *xy)) for xy in shifts]
    out += [(f"J{p}", 2, lambda a, b, p=p: ws.loop_J(p, a, b))
            for p in range(3)]
    out += [(f"K{p}", 2, lambda a, b, p=p: ws.loop_K(p, a, b))
            for p in range(4)]
    for s, p in itertools.product((1, 2), (0, 1)):
        out += [
            (f"Q{s},{p}", 2, lambda a, b, s=s, p=p: ws.q_gen(s, p, a, b)),
            (f"Q{s},{p} cut", 2,
             lambda a, b, s=s, p=p: ws.q_gen(s, p, a, b, cut=p + s - 1)),
            (f"Q{s},{p} leading", 2,
             lambda a, b, s=s, p=p: ws.q_leading(s, p, a, b)),
            (f"Q{s},{p} free", 2,
             lambda a, b, s=s, p=p: ws.q_free(s, p, a, b)),
        ]
    out += [("tensor_O", 4, ws.tensor_O)]
    out += [(f"tensor_P {xy}", 4,
             lambda a, b, c, d, xy=xy: ws.tensor_P(a, b, c, d, *xy))
            for xy in shifts]
    return out


@pytest.mark.parametrize("context", ORBIT_CONTEXTS)
def test_builders_are_color_equivariant(context):
    ws = ModelWorkspace(*context)
    sigmas = list(same_parity_perms(ws.n, ws.m))[1:]
    assert sigmas
    fixed = [ws.hamiltonian(RATIONAL), ws.hamiltonian(TRIG),
             ws.x_squared()] + [ws.swap(i, j) for i, j in
                                itertools.permutations(range(1, ws.N + 1), 2)]
    for sigma in sigmas:
        for op in fixed:
            assert recolor(op, sigma) == op
        for name, arity, build in colored_builders(ws):
            for idx in itertools.product(ws.colors(), repeat=arity):
                image = build(*(sigma[c] for c in idx))
                assert image == recolor(build(*idx), sigma), (name, idx, sigma)


def test_recolor_is_an_automorphism_of_products_and_brackets():
    ws = ModelWorkspace(2, 2, 2)
    sigma = {1: 2, 2: 1, 3: 4, 4: 3}
    a = ws.yangian_T(1, 1, 3)
    b = ws.loop_K(1, 3, 2)
    assert recolor(a.mul(b), sigma) == recolor(a, sigma).mul(recolor(b, sigma))
    assert recolor(a.bracket(b), sigma) == \
        recolor(a, sigma).bracket(recolor(b, sigma))
    assert recolor(a.filtered(1), sigma) == recolor(a, sigma).filtered(1)


# (n, m): orbit counts of color pairs, quads and sextuples
ORBIT_COUNTS = {
    (2, 0): (2, 8, 32),
    (1, 1): (4, 16, 64),
    (2, 1): (5, 41, 365),
    (3, 0): (2, 14, 122),
    (2, 2): (6, 72, 1056),
    (3, 1): (5, 51, 715),
}


@pytest.mark.parametrize("colors", sorted(ORBIT_COUNTS))
def test_orbits_tile_the_tuples_once(colors):
    n, m = colors
    sigmas = list(same_parity_perms(n, m))
    for k, count in zip((2, 4, 6), ORBIT_COUNTS[colors]):
        reps = vf._orbits(n, m, k)
        assert len(reps) == count
        covered = {}
        for rep, weight in reps:
            orbit = {tuple(s[c] for c in rep) for s in sigmas}
            assert len(orbit) == weight, (rep, weight)
            for tup in orbit:
                assert covered.setdefault(tup, rep) == rep, (tup, rep)
        assert len(covered) == (n + m) ** k


def test_quantifiers_yield_orbits_with_weights():
    ws = ModelWorkspace(2, 1, 2)
    assert list(vf._pairs(ws)) == list(vf._orbits(2, 1, 2))
    assert sum(w for _, w in vf._quads(ws)) == 81
    # exhaustive only up to 2^6 sextuples; above, the seeded sample
    ws202 = ModelWorkspace(2, 0, 2)
    sext = list(vf._sextuples(ws202, vf.RunConfig(), "eq3.5"))
    assert len(sext) == 32 and sum(w for _, w in sext) == 64
    sampled = list(vf._sextuples(ws, vf.RunConfig(), "eq3.5"))
    assert len(sampled) == vf.SEXTUPLE_SAMPLE


def _full_product(ws):
    return ((tup, 1) for tup in itertools.product(ws.colors(), repeat=2))


def _full_quads(ws):
    return ((tup, 1) for tup in itertools.product(ws.colors(), repeat=4))


def _reports(cases, context, **kw):
    cfg = vf.RunConfig(contexts=(context,), cases=tuple(cases), **kw)
    out = []
    for rep in vf.run_suite(cfg):
        d = rep.as_dict()
        del d["millis"]
        out.append(d)
    return out


@pytest.mark.parametrize("cases, context", [
    (tuple(vf.CASES), (1, 2, 2)),
    (("eq3.17", "eq3.21", "eq3.21-alt", "eq2.17-plain"), (2, 2, 2)),
])
def test_orbit_reports_equal_full_reports(cases, context, monkeypatch):
    orbit = _reports(cases, context)
    monkeypatch.setattr(vf, "_pairs", _full_product)
    monkeypatch.setattr(vf, "_quads", _full_quads)
    full = _reports(cases, context)
    assert orbit == full
    # the comparison covers failing counts too
    assert any(r["verdict"] == "fail" for r in orbit)
    assert all(r["oracle_agrees"] for r in orbit)


# -- the oracle's picks ---------------------------------------------------


@pytest.mark.parametrize("context", [(1, 1, 1), (1, 1, 2), (2, 1, 2),
                                     (1, 2, 2), (2, 2, 2)])
def test_labels_are_unique_within_each_case(context):
    ws = ModelWorkspace(*context)
    cfg = vf.RunConfig(max_spin=2, max_degree=1)
    for cid, case in vf.CASES.items():
        labels = [inst.label for inst in case.instances(ws, cfg)]
        assert len(labels) == len(set(labels)), cid


def test_oracle_picks_follow_labels_not_positions():
    ws = ModelWorkspace(2, 1, 2)
    cfg = vf.RunConfig()
    lists = {cid: list(vf.CASES[cid].instances(ws, cfg))
             for cid in ("eq3.1", "eq3.10", "eq3.17")}

    def picked(cid, instances):
        return [instances[i].label
                for i in vf._oracle_picks(ws, cfg, cid, instances)]

    before = {cid: picked(cid, insts) for cid, insts in lists.items()}
    assert all(len(p) == vf.ORACLE_INSTANCES for p in before.values())
    # a different seed picks differently somewhere
    other = vf.RunConfig(seed=cfg.seed + 1)
    assert any(before[cid] != [insts[i].label for i in
                               vf._oracle_picks(ws, other, cid, insts)]
               for cid, insts in lists.items())
    # drop one unpicked and one picked instance from eq3.10 alone
    target = lists["eq3.10"]
    unpicked = next(i for i, inst in enumerate(target)
                    if inst.label not in before["eq3.10"])
    lists["eq3.10"] = target[:unpicked] + target[unpicked + 1:]
    after = {cid: picked(cid, insts) for cid, insts in lists.items()}
    assert after == before
    first = next(i for i, inst in enumerate(target)
                 if inst.label == before["eq3.10"][0])
    lists["eq3.10"] = target[:first] + target[first + 1:]
    after = {cid: picked(cid, insts) for cid, insts in lists.items()}
    assert set(before["eq3.10"][1:]) < set(after["eq3.10"])
    assert before["eq3.10"][0] not in after["eq3.10"]
    assert {cid: after[cid] for cid in ("eq3.1", "eq3.17")} == \
        {cid: before[cid] for cid in ("eq3.1", "eq3.17")}


# -- the sampled sextuples ------------------------------------------------

SERRE_CASES = ("eq3.5", "eq3.12", "eq3.18", "eq3.22", "eq3.23", "eq3.27")


def canonical(tup, n):
    """The representative of tup's orbit: the colors of each parity
    renamed in order of first appearance (even from 1, odd from n + 1)."""
    seen, nxt = {}, [1, n + 1]
    for c in tup:
        if c not in seen:
            seen[c] = nxt[c > n]
            nxt[c > n] += 1
    return tuple(seen[c] for c in tup)


@pytest.mark.parametrize("context",
                         [(2, 1, 2), (1, 2, 2), (3, 0, 2), (2, 2, 2)])
def test_sampled_sextuples_are_distinct_orbit_representatives(
        context, monkeypatch):
    ws = ModelWorkspace(*context)
    reps = vf._orbits(ws.n, ws.m, 6)
    assert len(reps) > 2 ** 6
    for seed, cid in itertools.product((20257, 7), SERRE_CASES):
        cfg = vf.RunConfig(seed=seed)
        sample = list(vf._sextuples(ws, cfg, cid))
        drawn = [tup for tup, _ in sample]
        assert all(w == 1 for _, w in sample)
        orbits = {canonical(tup, ws.n) for tup in drawn}
        assert len(orbits) == len(drawn) == vf.SEXTUPLE_SAMPLE, (seed, cid)
        assert orbits == set(drawn)  # each drawn as its representative
        assert drawn == sorted(drawn)  # itertools.product order
        # the draw follows keys, not positions: dropping an undrawn
        # representative changes nothing, dropping a drawn one replaces it
        for gone in (next(r for r in reps if r[0] not in drawn),
                     next(r for r in reps if r[0] == drawn[0])):
            with monkeypatch.context() as mp:
                mp.setattr(vf, "_orbits", lambda n, m, k, gone=gone:
                           tuple(r for r in reps if r != gone))
                after = [tup for tup, _ in vf._sextuples(ws, cfg, cid)]
            assert len(after) == vf.SEXTUPLE_SAMPLE
            if gone[0] in drawn:
                assert set(drawn[1:]) < set(after) and drawn[0] not in after
            else:
                assert after == drawn, (seed, cid)

import pickle
from fractions import Fraction

import pytest

from colorcs import verify as vf
from colorcs.models import ModelWorkspace


@pytest.fixture(scope="module")
def ws112():
    return ModelWorkspace(1, 1, 2)


@pytest.fixture(scope="module")
def ws202():
    return ModelWorkspace(2, 0, 2)


def run_one(ws, case_id, **kw):
    cfg = vf.RunConfig(contexts=((ws.n, ws.m, ws.N),), **kw)
    return vf.verify_case(ws, vf.CASES[case_id], cfg)


def test_catalog_names_and_suites():
    ids = tuple(vf.CASES)
    assert len(ids) == len(set(ids)) == 32
    suites = {vf.CASES[c].suite for c in ids}
    assert suites == {"structural", "integrability", "yangian", "loop", "winf"}
    for probe in ("eq2.7", "eq2.17-plain", "eq3.21-alt", "eq3.38",
                  "supercommutation", "p-conjugation", "jp-conservation"):
        assert probe in ids


def test_probe_states_are_one_per_basis_state(ws112):
    states = list(vf._probe_states(ws112))
    # one exponential probe e^(t.x)|c> for each of the 4 color states
    assert len(states) == 4
    one = ws112.ctx.field.one
    seen = set()
    for psi in states:
        ((colors, t), amp), = psi.items()
        assert t == (0, 0) and amp is one
        seen.add(colors)
    assert seen == set(ws112.ctx.grading.basis_states())


def test_expr_bracket_matches_operator_bracket(ws112):
    a = ws112.unit(1, 1, 2)
    b = ws112.unit(2, 2, 1)
    node = vf.Bracket(vf.Leaf(a), vf.Leaf(b))
    assert node.par() == 0
    assert node._sign() == 1  # both operands odd: anticommutator
    assert node.operator() == a.bracket(b)
    assert node.operator(0) == a.bracket(b)


def test_every_node_collapses_at_a_cut(ws112):
    # operands with terms at several derivative degrees, so a product's
    # top needs its operands' lower terms
    t1 = vf.Leaf(ws112.yangian_T(1, 1, 2))
    h = vf.Leaf(ws112.hamiltonian("sutherland"))
    x2 = vf.Leaf(ws112.x_squared())
    nodes = [
        h,
        vf.Mul(t1, h),
        vf.Bracket(x2, h),
        vf.Bracket(t1, vf.Leaf(ws112.yangian_T(1, 2, 1))),
        vf.Scale(h, Fraction(1, 3)),
        vf.Add(vf.Mul(h, t1), vf.Scale(vf.Bracket(x2, h), -1), t1),
    ]
    for node in nodes:
        full = node.operator()
        top = full.max_deriv_degree()
        assert top >= 1
        for cut in range(-1, top + 2):
            assert node.operator(cut) == full.filtered(cut), (node, cut)
        assert node.operator(top + 1).is_zero
    op = ws112.yangian_T(1, 1, 2)
    assert vf.Leaf(op).operator(0) is op
    assert vf.Leaf(op).operator(-1) is op


def test_expr_apply_matches_collapsed_operator(ws112):
    f = ws112.ctx.field
    expr = vf.Add(
        vf.Bracket(vf.Leaf(ws112.yangian_T(1, 1, 2)),
                   vf.Leaf(ws112.yangian_T(0, 2, 1))),
        vf.Scale(vf.Leaf(ws112.hamiltonian("sutherland")), Fraction(1, 3)),
    )
    psi = {((1, 2), (0, 1)): f.monomial({0: 1, 1: 2})}
    via_tree = expr.apply(psi)
    via_op = expr.operator().apply_to(psi)
    assert not vf._state_is_zero(via_op)
    assert vf._state_is_zero(vf._state_add(via_tree, via_op, -1))


def test_nested_bracket_apply_never_multiplies(ws112, monkeypatch):
    from colorcs.operators import OperatorSum

    def boom(self, other, cut=0):
        raise AssertionError("action path formed an operator product")

    inner = vf.Bracket(vf.Leaf(ws112.yangian_T(1, 1, 2)),
                       vf.Leaf(ws112.yangian_T(1, 2, 1)))
    outer = vf.Bracket(vf.Leaf(ws112.yangian_T(0, 1, 1)), inner)
    psi = {((1, 2), (0, 0)): ws112.ctx.field.one}
    monkeypatch.setattr(OperatorSum, "mul", boom)
    outer.apply(psi)


def test_structural_case_passes(ws112):
    rep = run_one(ws112, "eq2.7")
    assert rep.verdict == "pass"
    assert rep.oracle_agrees
    assert rep.instances == 2 * 16
    assert rep.failed == 0
    assert rep.residual_term_count == 0


def test_braid_instances_need_three_sites(ws112):
    rep2 = run_one(ws112, "eq2.10")
    rep3 = run_one(ModelWorkspace(1, 1, 3), "eq2.10")
    assert rep2.verdict == rep3.verdict == "pass"
    # N=2 has sym+inv only; N=3 adds braid triples
    assert rep3.instances > rep2.instances


def test_plain_formal_unit_fails_with_odd_colors(ws112):
    rep = run_one(ws112, "eq2.17-plain")
    assert rep.verdict == "fail"
    assert rep.failed > 0
    assert rep.residual_term_count > 0
    assert rep.oracle_agrees


def test_plain_formal_unit_holds_on_even_colors(ws202):
    rep = run_one(ws202, "eq2.17-plain")
    assert rep.verdict == "pass"
    assert rep.oracle_agrees


def test_empty_quantifier_below_min_sites():
    ws = ModelWorkspace(1, 1, 1)
    rep = run_one(ws, "eq2.11")
    assert rep.verdict == "empty-quantifier"
    assert rep.instances == 0


def test_single_site_context_still_runs_site_local_cases():
    ws = ModelWorkspace(1, 1, 1)
    rep = run_one(ws, "eq2.7")
    assert rep.verdict == "pass"
    assert rep.instances == 16


def test_sextuple_sample_is_seeded():
    ws = ModelWorkspace(2, 1, 2)
    cfg = vf.RunConfig(seed=7)
    one = list(vf._sextuples(ws, cfg, "eq3.5"))
    two = list(vf._sextuples(ws, cfg, "eq3.5"))
    assert one == two
    assert len(one) == vf.SEXTUPLE_SAMPLE
    assert all(1 <= c <= 3 for tup in one for c in tup)
    other = list(vf._sextuples(ws, vf.RunConfig(seed=8), "eq3.5"))
    assert one != other


def test_sextuples_enumerated_fully_on_two_colors(ws112):
    cfg = vf.RunConfig()
    assert len(list(vf._sextuples(ws112, cfg, "eq3.5"))) == 64


def test_leading_order_case_passes(ws112):
    rep = run_one(ws112, "eq3.34")
    assert rep.verdict == "pass"
    assert rep.oracle_agrees


@pytest.mark.parametrize("case_id", ["eq3.31", "eq3.32"])
def test_recursion_cases_catch_a_wrong_spin_three_prefactor(
        case_id, monkeypatch):
    # the builders make W and Q as closed forms; eq3.31 and eq3.32 bracket
    # the built spin-2 generators, so a spin-3 prefactor off by one fails
    from colorcs import models

    pochhammer = models._pochhammer
    monkeypatch.setattr(models, "_pochhammer",
                        lambda a, k: pochhammer(a, k) + (k == 2))
    ws = ModelWorkspace(1, 1, 2)
    rep = run_one(ws, case_id, max_spin=3, max_degree=0)
    assert rep.verdict == "fail"
    assert rep.oracle_agrees


def test_numeric_coupling_substitution(ws112):
    rep = run_one(ws112, "eq3.3", lam=Fraction(3, 2))
    assert rep.verdict == "pass"
    assert rep.oracle_agrees


def test_term_budget_reports_truncation(ws112):
    rep = run_one(ws112, "eq3.5", term_budget=3)
    assert rep.verdict == "truncated"
    assert "terms" in rep.note
    assert ws112.ctx.field._memo is None


def test_verdict_runs_inside_its_own_arithmetic_memo(ws112):
    seen = []

    def record(ws, cfg):
        seen.append(ws.ctx.field._memo)
        return []

    def fail(ws, cfg):
        raise RuntimeError("case generator failed")

    cfg = vf.RunConfig()
    rep = vf.verify_case(ws112, vf.CaseSpec("probe", "structural", "", 1,
                                            record), cfg)
    assert rep.verdict == "empty-quantifier"
    assert seen == [{}]
    assert ws112.ctx.field._memo is None
    run_one(ws112, "eq2.7")
    assert ws112.ctx.field._memo is None
    with pytest.raises(RuntimeError):
        vf.verify_case(ws112, vf.CaseSpec("boom", "structural", "", 1, fail),
                       cfg)
    assert ws112.ctx.field._memo is None


def test_residual_dump_is_bounded(ws112):
    rep = run_one(ws112, "eq2.17-plain", dump_residual=True)
    assert 0 < len(rep.residuals) <= 5
    for entry in rep.residuals:
        assert entry["instance"]
        for term in entry["terms"]:
            assert set(term) == {"num", "den", "word", "deriv"}
            assert len(term["word"]) == 2
            assert len(term["deriv"]) == 2
            assert term["num"] != "0"


def test_run_suite_sorted_and_deterministic():
    cfg = vf.RunConfig(contexts=((2, 0, 2), (1, 1, 2)),
                       cases=("eq3.1", "eq2.7"))
    def strip(reports):
        out = []
        for r in reports:
            d = r.as_dict()
            d.pop("millis")
            out.append(d)
        return out

    one = strip(vf.run_suite(cfg))
    two = strip(vf.run_suite(cfg))
    assert one == two
    keys = [(d["id"], d["n"], d["m"], d["N"]) for d in one]
    assert keys == sorted(keys)
    assert len(one) == 4


def test_parallel_contexts_match_serial():
    base = dict(contexts=((2, 0, 2), (1, 1, 2)), cases=("eq2.7", "eq3.2"))
    serial = vf.run_suite(vf.RunConfig(**base))
    parallel = vf.run_suite(vf.RunConfig(workers=2, **base))

    def strip(reports):
        out = []
        for r in reports:
            d = r.as_dict()
            d.pop("millis")
            out.append(d)
        return out

    assert strip(serial) == strip(parallel)


def test_pool_gets_one_worker_per_context(monkeypatch):
    import concurrent.futures

    requested = []

    class SerialPool:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    cfg = vf.RunConfig(workers=64, contexts=((2, 0, 2), (1, 1, 2)),
                       cases=("eq2.7",))
    reports = vf.run_suite(cfg)
    assert requested == [2]
    assert sorted((r.n, r.m, r.N) for r in reports) == [(1, 1, 2), (2, 0, 2)]


def test_unknown_case_is_rejected():
    with pytest.raises(KeyError, match="no-such-case"):
        vf.run_suite(vf.RunConfig(cases=("no-such-case",)))


def _report(**kw):
    base = dict(id="eq3.1", suite="yangian", n=1, m=1, N=2,
                verdict="pass", oracle_agrees=True, instances=16,
                failed=0, residual_term_count=0, millis=1)
    base.update(kw)
    return vf.IdentityReport(**base)


def test_report_dict_keeps_field_order():
    keys = ["id", "suite", "n", "m", "N", "verdict", "oracle_agrees",
            "instances", "failed", "residual_term_count", "millis"]
    assert list(_report().as_dict()) == keys
    full = _report(note="budget", residuals=["r"]).as_dict()
    assert list(full) == keys + ["note", "residuals"]
    assert (full["note"], full["residuals"]) == ("budget", ["r"])


@pytest.mark.parametrize("extra", [
    {}, dict(note="budget", residuals=[{"instance": "ab=12", "terms": []}])])
def test_report_rebuilds_from_its_dict(extra):
    rep = _report(**extra)
    assert vf.IdentityReport(**rep.as_dict()) == rep
    assert rep != _report(**extra, millis=2)
    assert _report().residuals is not _report().residuals
    text = repr(rep)
    assert "id='eq3.1'" in text and "verdict='pass'" in text


def test_run_config_defaults_and_pickle():
    cfg = vf.RunConfig()
    assert (cfg.contexts, cfg.cases, cfg.lam, cfg.seed, cfg.max_spin,
            cfg.max_degree, cfg.term_budget, cfg.workers,
            cfg.dump_residual) == (vf.DEFAULT_CONTEXTS, None, None,
                                   vf.DEFAULT_SEED, 3, 2, None, 1, False)
    custom = vf.RunConfig(contexts=((1, 1, 2),), cases=("eq2.7",),
                          lam=Fraction(3, 2), seed=7, term_budget=50,
                          workers=2, dump_residual=True)
    back = pickle.loads(pickle.dumps(custom))
    assert back == custom and back is not custom
    assert back != cfg
    assert "seed=7" in repr(custom)


def test_manifest_verdict_deviation():
    manifest = {"seed": vf.DEFAULT_SEED, "default": "pass",
                "overrides": {"eq3.1": {"1,1,2": {"verdict": "fail"}}}}
    cfg = vf.RunConfig()
    assert vf.compare_to_manifest([_report()], manifest, cfg)
    assert not vf.compare_to_manifest(
        [_report(verdict="fail")], manifest, cfg)


def test_manifest_residual_count_gated_by_seed():
    manifest = {"seed": vf.DEFAULT_SEED, "default": "pass",
                "overrides": {"eq3.1": {"1,1,2": {
                    "verdict": "fail", "residual_term_count": 9}}}}
    rep = _report(verdict="fail", residual_term_count=5)
    assert vf.compare_to_manifest([rep], manifest, vf.RunConfig())
    shifted = vf.RunConfig(seed=vf.DEFAULT_SEED + 1)
    assert not vf.compare_to_manifest([rep], manifest, shifted)


def test_manifest_flags_oracle_disagreement():
    manifest = {"seed": vf.DEFAULT_SEED, "default": "pass", "overrides": {}}
    rep = _report(oracle_agrees=False)
    out = vf.compare_to_manifest([rep], manifest, vf.RunConfig())
    assert any("double-entry" in line for line in out)


def _instance(ws, case_id, label):
    cfg = vf.RunConfig(contexts=((ws.n, ws.m, ws.N),))
    for inst in vf.CASES[case_id].instances(ws, cfg):
        if inst.label == label:
            return cfg, inst
    raise LookupError(label)


def test_oracle_rejects_a_wrong_exact_residual(ws112):
    cfg, inst = _instance(ws112, "eq2.7", "i=1 abcd=1221")
    residual = vf._residual(inst, None)
    assert vf._oracle_instance(ws112, cfg, inst, residual) == (True, "")
    wrong = residual + ws112.unit(1, 1, 2)
    agrees, note = vf._oracle_instance(ws112, cfg, inst, wrong)
    assert not agrees
    assert "product path" in note


def test_oracle_rejects_a_wrong_truncated_residual(ws112):
    from colorcs.operators import OperatorSum

    cfg, inst = _instance(ws112, "eq3.34", "s=1 s'=2 p=1 q=1")
    residual = vf._residual(inst, None)
    assert vf._oracle_instance(ws112, cfg, inst, residual) == (True, "")
    # the truncated residual of a top with one term dropped
    top = inst.lhs.operator(inst.cut)
    dropped = OperatorSum(top.ctx, dict(list(top.terms.items())[1:]))
    wrong = (dropped - inst.rhs.operator()).filtered(inst.cut)
    assert not wrong.is_zero
    agrees, note = vf._oracle_instance(ws112, cfg, inst, wrong)
    assert not agrees
    assert "product path" in note


def test_oracle_reads_the_top_from_the_cut_up(ws112):
    # lhs - rhs has terms at derivative degree 0 and 1 here; cut at 1, the
    # residual keeps the degree-1 terms, and the oracle must match them
    # with the probes' t-degree >= 1 components, no more and no fewer
    cfg = vf.RunConfig(contexts=((1, 1, 2),), max_spin=2, max_degree=1)
    inst = next(inst for inst in vf.CASES["eq3.36"].instances(ws112, cfg)
                if inst.label == "s=1 s'=2 p=1 q=0 abcd=1111")
    inst.cut = 0
    full = vf._residual(inst, None)
    assert {sum(p) for _, p in full.terms} == {0, 1}
    inst.cut = 1
    residual = vf._residual(inst, None)
    assert residual == full.filtered(1)
    assert vf._oracle_instance(ws112, cfg, inst, residual) == (True, "")


def test_oracle_rejects_a_residual_its_probes_cannot_see(ws112, monkeypatch):
    # with the probe of state (1, 1) left out, a residual acting only on
    # that state agrees with the action path on every probe, so only the
    # verdict comparison can fire
    cfg, inst = _instance(ws112, "eq2.7", "i=1 abcd=1221")
    probes = vf._probe_states
    monkeypatch.setattr(vf, "_probe_states", lambda ws: [
        psi for psi in probes(ws) if ((1, 1), (0, 0)) not in psi])
    wrong = ws112.ctx.from_units([(1, 1, 1), (2, 1, 1)], deriv=(1, 0))
    assert vf._oracle_instance(ws112, cfg, inst, wrong) == (
        False, "action verdict disagrees with the symbolic verdict")


def test_oracle_sees_a_residual_of_any_degree(ws112):
    # the exponential probes have no degree bound: d1^7 reaches the
    # action-vs-product check, which a degree-1 monomial probe would miss
    cfg, inst = _instance(ws112, "eq2.7", "i=1 abcd=1221")
    wrong = ws112.ctx.deriv(1, 7)
    assert vf._oracle_instance(ws112, cfg, inst, wrong) == (
        False, "action path disagrees with the product path")


def _dropping_top(mul):
    from colorcs.operators import OperatorSum

    def dropping_mul(self, other, cut=0, **private):
        out = mul(self, other, cut, **private)
        top = out.max_deriv_degree()
        if top < 2:
            return out
        return OperatorSum(out.ctx, {k: f for k, f in out.terms.items()
                                     if sum(k[1]) < top})
    return dropping_mul


def _shifted_cap(shift):
    def wrap(mul):
        def shifted_mul(self, other, cut=0, **private):
            if cut > 0:
                cut += shift
            return mul(self, other, cut, **private)
        return shifted_mul
    return wrap


@pytest.mark.parametrize("case_id,mutation", [
    pytest.param("eq3.36", _dropping_top, id="eq3.36"),
    pytest.param("eq3.15", _dropping_top, id="eq3.15"),
] + [pytest.param(case_id, _shifted_cap(shift), id=f"{case_id}-cap{shift:+d}")
     for shift in (1, -1) for case_id in ("eq3.34", "eq3.35", "eq3.36")])
def test_oracle_catches_a_product_that_drops_its_top_degree(
        case_id, mutation, monkeypatch):
    from colorcs.operators import OperatorSum

    ws = ModelWorkspace(1, 1, 2)
    cfg = vf.RunConfig(contexts=((1, 1, 2),), max_spin=2, max_degree=1)

    # the leaves are built and cached by the honest product; the
    # expression nodes above them are built afresh under the mutation
    truth = [vf._residual(inst, cfg.lam)
             for inst in vf.CASES[case_id].instances(ws, cfg)]
    fresh = list(vf.CASES[case_id].instances(ws, cfg))
    monkeypatch.setattr(OperatorSum, "mul", mutation(OperatorSum.mul))
    changed = 0
    for inst, right in zip(fresh, truth):
        wrong = vf._residual(inst, cfg.lam)
        if wrong == right:
            continue
        changed += 1
        agrees, _ = vf._oracle_instance(ws, cfg, inst, wrong)
        assert not agrees, inst.label
    assert changed > 0


@pytest.mark.parametrize("case_id", ["eq3.34", "eq3.36"])
def test_oracle_forms_no_product_on_a_leading_instance(
        ws112, case_id, monkeypatch):
    from colorcs.operators import OperatorSum

    cfg = vf.RunConfig(contexts=((1, 1, 2),), max_spin=2, max_degree=1)
    inst = next(inst for inst in vf.CASES[case_id].instances(ws112, cfg)
                if inst.cut)
    residual = vf._residual(inst, cfg.lam)
    calls = []
    mul = OperatorSum.mul

    def counting_mul(self, other, cut=0, **private):
        calls.append(cut)
        return mul(self, other, cut, **private)

    monkeypatch.setattr(OperatorSum, "mul", counting_mul)
    assert vf._oracle_instance(ws112, cfg, inst, residual) == (True, "")
    assert calls == []


def test_bracket_memo_leaves_verdicts_unchanged(monkeypatch):
    from colorcs.operators import OperatorSum

    def plain_bracket(self, other, cut=0):
        ab = self.mul(other, cut)
        ba = other.mul(self, cut)
        return ab + ba if self.parity() and other.parity() else ab - ba

    def reports():
        ws = ModelWorkspace(1, 1, 2)
        out = []
        for cid in ("eq3.17", "eq3.21", "eq3.32", "eq3.36"):
            d = run_one(ws, cid).as_dict()
            d.pop("millis")
            out.append(d)
        return out

    mul = OperatorSum.mul
    calls = []

    def counting_mul(self, other, cut=0, **private):
        calls.append(cut)
        return mul(self, other, cut, **private)

    monkeypatch.setattr(OperatorSum, "mul", counting_mul)
    shipped = reports()
    shared = len(calls)
    del calls[:]
    monkeypatch.setattr(OperatorSum, "bracket", plain_bracket)
    assert reports() == shipped
    # the memo served some brackets of these verdicts
    assert shared < len(calls)


def _built_nodes(monkeypatch):
    """The Scale and Add nodes whose operator is built from here on."""
    built = []
    for cls in (vf.Scale, vf.Add):
        def spy(self, cut=0, operator=cls.operator):
            built.append(self)
            return operator(self, cut)
        monkeypatch.setattr(cls, "operator", spy)
    return built


def test_add_subtracts_a_negated_summand(ws112, monkeypatch):
    built = _built_nodes(monkeypatch)
    a = ws112.yangian_T(1, 1, 2)
    b = ws112.hamiltonian("sutherland")
    neg_b = vf.Scale(vf.Leaf(b), -1)
    assert vf.Add(vf.Leaf(a), neg_b).operator() == a - b
    # subtracted termwise: the negated copy of b is never built
    assert neg_b not in built
    neg_a = vf.Scale(vf.Leaf(a), -1)
    assert vf.Add(neg_a, vf.Leaf(b)).operator() == b - a
    assert vf.Add(vf.Leaf(a), vf.Scale(vf.Leaf(b), Fraction(-1))).operator() \
        == a - b


def test_residual_adds_a_negated_right_summand(ws112, monkeypatch):
    built = _built_nodes(monkeypatch)
    a = ws112.yangian_T(1, 1, 2)
    b = ws112.yangian_T(1, 2, 1)
    h = ws112.hamiltonian("sutherland")
    lhs = vf.Bracket(vf.Leaf(a), vf.Leaf(h))
    neg_b = vf.Scale(vf.Leaf(b), -1)
    for rhs, value in ((neg_b, -b),
                       (vf.Add(neg_b, vf.Leaf(a)), a - b),
                       (vf.Add(vf.Leaf(a), neg_b), a - b)):
        inst = vf.Instance("signed", lhs, rhs)
        full = lhs.operator() - value
        assert vf._residual(inst, None) == full
        inst.cut = 1
        assert vf._residual(inst, None) == full.filtered(1)
        # summand by summand: neither -b nor the right side was built
        assert neg_b not in built
        assert rhs not in built

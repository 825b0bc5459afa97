import pickle
from fractions import Fraction

import pytest

from colorcs import verify as vf
from colorcs.models import ModelWorkspace
from colorcs.operators import OperatorSum


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
    assert len(ids) == len(set(ids)) == 33
    suites = {vf.CASES[c].suite for c in ids}
    assert suites == {"structural", "integrability", "yangian", "loop", "winf"}
    for probe in ("eq2.7", "eq2.17-plain", "eq3.21-alt", "eq3.21-sdim",
                  "eq3.38", "supercommutation", "p-conjugation",
                  "jp-conservation"):
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
    node = vf.Bracket(a, b)
    assert node.parity() == 0
    assert node._sign() == 1  # both operands odd: anticommutator
    assert node.filtered(0) == a.bracket(b)


def test_every_node_collapses_at_a_cut(ws112):
    # operands with terms at several derivative degrees, so a product's
    # top needs its operands' lower terms
    t1 = ws112.yangian_T(1, 1, 2)
    h = ws112.hamiltonian("sutherland")
    x2 = ws112.x_squared()
    nodes = [
        h,
        vf.Mul(t1, h),
        vf.Bracket(x2, h),
        vf.Bracket(t1, ws112.yangian_T(1, 2, 1)),
        vf.Scale(h, Fraction(1, 3)),
        vf.Add(vf.Mul(h, t1), vf.Scale(vf.Bracket(x2, h), -1), t1),
    ]
    for node in nodes:
        full = node.filtered(0)
        top = full.max_deriv_degree()
        assert top >= 1
        for cut in range(-1, top + 2):
            assert node.filtered(cut) == full.filtered(cut), (node, cut)
        assert node.filtered(top + 1).is_zero
    op = ws112.yangian_T(1, 1, 2)
    assert op.filtered(0) is op
    assert op.filtered(-1) is op


def test_expr_apply_matches_collapsed_operator(ws112):
    f = ws112.ctx.field
    expr = vf.Add(
        vf.Bracket(ws112.yangian_T(1, 1, 2), ws112.yangian_T(0, 2, 1)),
        vf.Scale(ws112.hamiltonian("sutherland"), Fraction(1, 3)),
    )
    psi = {((1, 2), (0, 1)): f.monomial({0: 1, 1: 2})}
    via_tree = expr.apply_to(psi)
    via_op = expr.filtered(0).apply_to(psi)
    assert via_op
    assert not vf._state_add(via_tree, via_op, -1)


def test_nested_bracket_apply_never_multiplies(ws112, monkeypatch):
    from colorcs.operators import OperatorSum

    def boom(self, other, cut=0):
        raise AssertionError("action path formed an operator product")

    inner = vf.Bracket(ws112.yangian_T(1, 1, 2), ws112.yangian_T(1, 2, 1))
    outer = vf.Bracket(ws112.yangian_T(0, 1, 1), inner)
    psi = {((1, 2), (0, 0)): ws112.ctx.field.one}
    monkeypatch.setattr(OperatorSum, "mul", boom)
    outer.apply_to(psi)


def test_signs_build_no_new_coefficients(monkeypatch):
    # eq3.17's loop brackets subtract and sign-flip the same few
    # coefficients thousands of times; with one shared negation per
    # coefficient the verdict builds 159 functions and negates 66
    # polynomials (168 and 76 when every color quad ran, not one per
    # same-parity orbit, and the oracle picked instances by position, not
    # by label; 6,588 and 6,409 when each sign built a new function;
    # 161 and 72 when the residual subtracted the right side summand by
    # summand instead of collapsing it first; 155 and 72 when each bracket
    # merged two finished products, before its polynomial brackets added
    # BA into AB's accumulator pair by pair, whose partial sums are new
    # functions)
    from colorcs import scalar

    counts = {"init": 0, "poly_neg": 0}
    init, poly_neg = scalar.RationalFunction.__init__, scalar.poly_neg

    def counted_init(self, *args):
        counts["init"] += 1
        init(self, *args)

    def counted_neg(p):
        counts["poly_neg"] += 1
        return poly_neg(p)

    ws = ModelWorkspace(2, 2, 2)
    monkeypatch.setattr(scalar.RationalFunction, "__init__", counted_init)
    monkeypatch.setattr(scalar, "poly_neg", counted_neg)
    rep = run_one(ws, "eq3.17", max_spin=2, max_degree=0)
    assert rep.verdict == "pass" and rep.oracle_agrees
    assert counts == {"init": 159, "poly_neg": 66}


def test_passing_residual_is_read_off_equality(ws112, monkeypatch):
    from colorcs.operators import OperatorSum

    cfg = vf.RunConfig(contexts=((1, 1, 2),), max_spin=2, max_degree=0)
    with ws112.ctx.field.arithmetic_memo():
        instances = list(vf.CASES["eq3.17"].instances(ws112, cfg))
        # collapse each side once, so the brackets come from the memo
        for inst in instances:
            inst.lhs.filtered(inst.cut)
            inst.rhs.filtered(inst.cut)

        def boom(self, other):
            raise AssertionError("a passing residual built a difference")

        monkeypatch.setattr(OperatorSum, "__sub__", boom)
        for inst in instances:
            assert vf._residual(inst, None).is_zero
    monkeypatch.undo()
    # a failing instance still subtracts: eq3.21's pinned residual terms
    rep = run_one(ws112, "eq3.21")
    assert (rep.verdict, rep.residual_term_count) == ("fail", 40)


def _label_fields(label):
    """{"s": "0", "abcd": "1221", ...} from an instance label."""
    return dict(part.split("=") for part in label.split())


def test_brackets_take_the_workspace_operators_themselves(ws112):
    # an operator is its own expression leaf: each bracket operand is the
    # generator the workspace memoized, with no wrapper in between
    ws = ws112
    cfg = vf.RunConfig(contexts=((1, 1, 2),), max_spin=2, max_degree=0)
    for inst in vf.CASES["eq3.17"].instances(ws, cfg):
        kv = _label_fields(inst.label)
        s, q = int(kv["s"]), int(kv["p"])
        a, b, c, d = map(int, kv["abcd"])
        assert inst.lhs.a is ws.loop_K(s, a, b)
        assert inst.lhs.b is ws.loop_K(q, c, d)
    for inst in vf.CASES["eq3.12"].instances(ws, cfg):
        a, b, c, d, e, f = map(int, _label_fields(inst.label)["abcdef"])
        first, second = inst.lhs.items[0], inst.lhs.items[1].inner
        assert first.a is ws.loop_J(0, a, b)
        assert first.b.a is ws.loop_J(1, c, d)
        assert first.b.b is ws.loop_J(1, e, f)
        assert second.a is ws.loop_J(1, a, b)
        assert second.b.a is ws.loop_J(0, c, d)
        assert second.b.b is ws.loop_J(1, e, f)
    for inst in vf.CASES["eq3.35"].instances(ws, cfg):
        kv = _label_fields(inst.label)
        a, b = map(int, kv["ab"])
        assert inst.lhs.a is ws.w_gen(int(kv["s"]), int(kv["p"]))
        assert inst.lhs.b is ws.q_gen(int(kv["s'"]), int(kv["q"]), a, b)


def _bracket_operands(node):
    """Every operand of every Bracket node in an expression tree."""
    if isinstance(node, vf.Bracket):
        yield node.a
        yield node.b
    if isinstance(node, (vf.Mul, vf.Bracket)):
        children = (node.a, node.b)
    elif isinstance(node, vf.Add):
        children = node.items
    elif isinstance(node, vf.Scale):
        children = (node.inner,)
    else:
        children = ()
    for child in children:
        yield from _bracket_operands(child)


def test_every_bracket_operand_is_a_built_operator_or_a_bracket():
    # the bracket memo keys on operand identity, so it serves a bracket
    # only when each operand is a bracket or a built operator: the one
    # object the workspace memo hands to every instance that reads it
    ws = ModelWorkspace(1, 1, 2)
    cfg = vf.RunConfig(contexts=((1, 1, 2),), max_spin=2, max_degree=1)
    for case_id, case in vf.CASES.items():
        again = list(case.instances(ws, cfg))
        for one, two in zip(case.instances(ws, cfg), again):
            assert one.label == two.label
            for x, y in zip(_bracket_operands(vf.Add(one.lhs, one.rhs)),
                            _bracket_operands(vf.Add(two.lhs, two.rhs))):
                where = (case_id, one.label)
                assert isinstance(x, (OperatorSum, vf.Bracket)), where
                if isinstance(x, OperatorSum):
                    assert x is y, where


def test_shifted_serre_cases_run_one_family_at_their_shifts(ws112):
    # eq3.22, eq3.23 and eq3.27 bracket T1 + x J1 + y K1 at (1, 0), (0, 1)
    # and the symbolic (x, y), against tensor_P at the same shift
    ws = ws112
    fd = ws.ctx.field
    cfg = vf.RunConfig(contexts=((1, 1, 2),))
    for case_id, (x, y) in (("eq3.22", (1, 0)), ("eq3.23", (0, 1)),
                            ("eq3.27", (fd.aux_x, fd.aux_y))):
        for inst in vf.CASES[case_id].instances(ws, cfg):
            a, b, c, d, e, f = map(int, _label_fields(inst.label)["abcdef"])
            first, second = inst.lhs.items[0], inst.lhs.items[1].inner
            family = ws.q1_family(c, d, x, y)
            assert first.b.a is family
            assert second.a is ws.q1_family(a, b, x, y)
            assert family == ws.yangian_T(1, c, d) \
                + ws.loop_J(1, c, d).scale(x) + ws.loop_K(1, c, d).scale(y)
            want = vf._serre_rhs(
                ws, lambda *q: ws.tensor_P(*q, x, y), a, b, c, d, e, f)
            assert inst.rhs.filtered(0) == want.filtered(0)


def test_one_zero_serves_zero_sides_and_passing_residuals(ws112):
    zero = ws112.ctx.zero()
    assert zero is ws112.ctx.zero() and zero.is_zero
    cfg = vf.RunConfig(contexts=((1, 1, 2),))
    with ws112.ctx.field.arithmetic_memo():
        for inst in vf.CASES["eq3.17"].instances(ws112, cfg):
            a, b, c, d = map(int, _label_fields(inst.label)["abcd"])
            if b != c and d != a:
                assert inst.rhs is zero
            assert vf._residual(inst, None) is zero


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
    # the quantifier alone decides: the Lax evolution has one instance per
    # model at one site, the exchange rules need a site pair
    ws = ModelWorkspace(1, 1, 1)
    lax = run_one(ws, "eq2.11")
    assert (lax.verdict, lax.instances) == ("pass", 2)
    exchange = run_one(ws, "eq2.10")
    assert (exchange.verdict, exchange.instances) == ("empty-quantifier", 0)
    # the manifest comparison expects empty-quantifier below min_sites only
    manifest = {"seed": vf.DEFAULT_SEED, "default": "pass", "overrides": {}}
    cfg = vf.RunConfig(contexts=((1, 1, 1),))
    assert not vf.compare_to_manifest([lax, exchange], manifest, cfg)
    for rep, verdict in ((lax, "empty-quantifier"), (exchange, "pass")):
        rep.verdict = verdict
        assert vf.compare_to_manifest([rep], manifest, cfg)


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
    # the sampled sextuples stand for themselves alone
    assert all(w == 1 and 1 <= c <= 3 for tup, w in one for c in tup)
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
    top = inst.lhs.filtered(inst.cut)
    dropped = OperatorSum(top.ctx, dict(list(top.terms.items())[1:]))
    wrong = (dropped - inst.rhs.filtered(0)).filtered(inst.cut)
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


def test_add_subtracts_a_negated_summand(ws112):
    a = ws112.yangian_T(1, 1, 2)
    b = ws112.hamiltonian("sutherland")
    neg_b = vf.Scale(b, -1)
    assert vf.Add(a, neg_b).filtered(0) == a - b
    neg_a = vf.Scale(a, -1)
    assert vf.Add(neg_a, b).filtered(0) == b - a
    assert vf.Add(a, vf.Scale(b, Fraction(-1))).filtered(0) == a - b


def test_residual_adds_a_negated_right_summand(ws112):
    a = ws112.yangian_T(1, 1, 2)
    b = ws112.yangian_T(1, 2, 1)
    h = ws112.hamiltonian("sutherland")
    lhs = vf.Bracket(a, h)
    neg_b = vf.Scale(b, -1)
    for rhs, value in ((neg_b, -b),
                       (vf.Add(neg_b, a), a - b),
                       (vf.Add(a, neg_b), a - b)):
        inst = vf.Instance("signed", lhs, rhs)
        full = lhs.filtered(0) - value
        assert vf._residual(inst, None) == full
        inst.cut = 1
        assert vf._residual(inst, None) == full.filtered(1)


def test_tower_cases_are_slices_of_the_level_sums():
    # eq3.10 and eq3.11 are eq3.15 at (s, p) = (0, 1) and (1, 1): the same
    # instances, label for label, weight for weight and residual for
    # residual, one per color orbit, their weights covering every quad
    cfg = vf.RunConfig()
    for context, orbits in (((1, 1, 2), 16), ((2, 1, 2), 41)):
        ws = ModelWorkspace(*context)
        sums = list(vf.CASES["eq3.15"].instances(ws, cfg))
        for case_id, prefix in (("eq3.10", "s=0 p=1 "), ("eq3.11", "s=1 p=1 ")):
            got = list(vf.CASES[case_id].instances(ws, cfg))
            want = [inst for inst in sums if inst.label.startswith(prefix)]
            assert len(got) == len(want) == orbits
            assert sum(g.weight for g in got) == ws.dim ** 4
            for g, w in zip(got, want):
                assert g.label == w.label and g.weight == w.weight
                assert vf._residual(g, None) == vf._residual(w, None)


def test_instances_repeat_from_the_workspace_memo(monkeypatch):
    # every operator a case reads comes from the workspace memo: a second
    # generation of the catalog builds no swap and no word
    from colorcs.operators import AlgebraContext

    calls = []
    for name in ("swap", "from_units"):
        build = getattr(AlgebraContext, name)

        def counted(self, *args, _build=build, _name=name, **kw):
            calls.append(_name)
            return _build(self, *args, **kw)

        monkeypatch.setattr(AlgebraContext, name, counted)
    cfg = vf.RunConfig(max_spin=2, max_degree=1)
    for context in ((1, 1, 2), (1, 1, 3)):
        ws = ModelWorkspace(*context)
        for case in vf.CASES.values():
            list(case.instances(ws, cfg))
        assert "swap" in calls and "from_units" in calls
        del calls[:]
        for case in vf.CASES.values():
            list(case.instances(ws, cfg))
        assert calls == [], context

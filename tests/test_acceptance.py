"""End-to-end acceptance gate, one test per criterion.

Every test drives run_suite through the same entry points the CLI uses,
asserts on verdicts, and prints its wall time.  Budgets are intentionally
not asserted; the prints make a slow environment diagnosable without
turning timing jitter into failures.
"""

import itertools
import json
import time

import pytest

from colorcs import cli
from colorcs.models import ModelWorkspace
from colorcs.verify import (
    CASES,
    RunConfig,
    compare_to_manifest,
    run_suite,
    verify_case,
)

STRUCTURAL = ("eq2.7", "eq2.10", "supercommutation", "p-conjugation")
INTEGRABILITY = ("eq2.11", "eq2.16", "eq2.21", "jp-conservation")
YANGIAN = ("eq2.17", "eq3.1", "eq3.2", "eq3.3", "eq3.4", "eq3.5")
LOOP_EXACT = ("eq3.10", "eq3.11", "eq3.12", "eq3.15", "eq3.17", "eq3.18",
              "eq3.22", "eq3.23", "eq3.27")
WINF = ("eq3.31", "eq3.32", "eq3.34", "eq3.35", "eq3.36", "eq3.38")

# reports accumulated across the criterion runs; the double-entry gate
# checks every one of them
_ALL_REPORTS = []


def _run(cases, contexts, **kw):
    cfg = RunConfig(contexts=tuple(contexts), cases=tuple(cases), **kw)
    t0 = time.perf_counter()
    reports = run_suite(cfg)
    elapsed = time.perf_counter() - t0
    _ALL_REPORTS.extend(reports)
    return reports, elapsed, cfg


def _assert_all_pass(reports, what):
    bad = [(r.id, (r.n, r.m, r.N), r.verdict, r.note)
           for r in reports if r.verdict != "pass"]
    assert not bad, f"{what}: non-passing reports {bad}"


@pytest.fixture(scope="session")
def graded_catalog():
    """Every case at the smallest fully graded context."""
    reports, elapsed, _ = _run(tuple(CASES), [(1, 1, 2)])
    print(f"\n[acceptance] full catalog at (1,1,2): {elapsed:.1f}s")
    return reports


def test_criterion_1_structural_suite():
    contexts = [(n, m, N) for n, m in ((2, 0), (1, 1), (2, 1))
                for N in (2, 3)]
    reports, elapsed, _ = _run(STRUCTURAL, contexts)
    print(f"\n[acceptance] structural suite: {elapsed:.1f}s (budget 10s)")
    assert len(reports) == len(STRUCTURAL) * len(contexts)
    _assert_all_pass(reports, "structural suite")


def test_criterion_2_integrability_suite():
    reports, elapsed, _ = _run(
        INTEGRABILITY, [(1, 1, 2), (2, 0, 2), (1, 1, 3)])
    print(f"\n[acceptance] integrability suite: {elapsed:.1f}s (budget 2min)")
    _assert_all_pass(reports, "integrability suite")


def test_criterion_3_yangian_suite():
    reports, elapsed, _ = _run(YANGIAN, [(1, 1, 2), (2, 0, 2), (2, 1, 2)])
    print(f"\n[acceptance] yangian suite: {elapsed:.1f}s (budget 10min)")
    _assert_all_pass(reports, "yangian suite")
    # the nested-bracket relation is quantified over color sextuples:
    # exhaustive where the space is small, seeded sample on three colors
    by_ctx = {(r.n, r.m, r.N): r for r in reports if r.id == "eq3.5"}
    assert by_ctx[(1, 1, 2)].instances == 64
    assert by_ctx[(2, 1, 2)].instances == 60


def test_criterion_4_loop_suite_and_recorded_verdicts():
    reports, elapsed, cfg = _run(
        LOOP_EXACT + ("eq3.21", "eq3.21-alt"), [(1, 1, 2)])
    print(f"\n[acceptance] loop suite: {elapsed:.1f}s (budget 15min)")
    exact = [r for r in reports if r.id in LOOP_EXACT]
    _assert_all_pass(exact, "loop suite")

    # the mixed-tower identity is recorded, not forced: the manifest pins
    # the observed verdict and residual size of both printed and variant
    # forms, and the run must reproduce them
    manifest = cli.load_manifest()
    for cid in ("eq3.21", "eq3.21-alt"):
        entry = manifest["overrides"].get(cid, {}).get("1,1,2")
        assert entry is not None, f"manifest does not pin {cid} at (1,1,2)"
        assert "verdict" in entry and "residual_term_count" in entry
    recorded = [r for r in reports if r.id.startswith("eq3.21")]
    assert not compare_to_manifest(recorded, manifest, cfg)
    verdicts = {r.id: r.verdict for r in recorded}
    assert verdicts == {"eq3.21": "fail", "eq3.21-alt": "pass"}


def test_criterion_5_winf_suite():
    reports, elapsed, _ = _run(WINF, [(1, 1, 2)])
    print(f"\n[acceptance] spin-tower suite: {elapsed:.1f}s (budget 15min)")
    _assert_all_pass(reports, "spin-tower suite")
    # three sites, with the towers cut to spin 2 and degree 0
    reports, elapsed, cfg = _run(WINF, [(1, 1, 3)], max_spin=2, max_degree=0)
    print(f"\n[acceptance] spin-tower suite at (1,1,3): {elapsed:.1f}s")
    _assert_all_pass(reports, "three-site spin-tower suite")
    assert not compare_to_manifest(reports, cli.load_manifest(), cfg)
    # spin 3 at three sites, where the closed form is a double bracket
    reports, elapsed, cfg = _run(("eq3.31", "eq3.32"), [(1, 1, 3)],
                                 max_spin=3, max_degree=0)
    print(f"\n[acceptance] spin-3 recursion at (1,1,3): {elapsed:.1f}s")
    _assert_all_pass(reports, "three-site spin-3 recursion")
    assert not compare_to_manifest(reports, cli.load_manifest(), cfg)
    # the leading-order brackets at degree 1, whose right sides are built
    # only at their top degree, on three sites and on four
    for context in ((1, 1, 3), (1, 1, 4)):
        reports, elapsed, cfg = _run(("eq3.34", "eq3.35", "eq3.36"), [context],
                                     max_spin=2, max_degree=1)
        print(f"\n[acceptance] leading-order brackets at {context}: "
              f"{elapsed:.1f}s")
        _assert_all_pass(reports, f"leading-order brackets at {context}")
        assert all(r.oracle_agrees for r in reports)
        assert not compare_to_manifest(reports, cli.load_manifest(), cfg)


def test_criterion_6_double_entry_everywhere(graded_catalog):
    assert _ALL_REPORTS, "no criterion runs recorded"
    disagree = [(r.id, (r.n, r.m, r.N)) for r in _ALL_REPORTS
                if not r.oracle_agrees]
    assert not disagree, f"oracle disagreed on {disagree}"


def test_criterion_7_specialization_coherence(graded_catalog):
    # graded-passing means passing on graded contexts generally, so the
    # live (1,1,2) verdicts are intersected with the pinned verdicts at
    # the other graded grid points; a case exact only at n = m (the
    # mixed-tower variant) is not a graded identity and stays out
    passing_112 = {r.id for r in graded_catalog if r.verdict == "pass"}
    fails_elsewhere = set()
    for cid, ctxs in cli.load_manifest()["overrides"].items():
        for key in ("1,1,2", "2,1,2", "1,1,3"):
            ent = ctxs.get(key)
            if ent and ent.get("verdict") != "pass":
                fails_elsewhere.add(cid)
    graded_passing = sorted(passing_112 - fails_elsewhere)
    assert len(graded_passing) >= 28
    reports, elapsed, _ = _run(graded_passing, [(2, 0, 2), (1, 0, 2)])
    print(f"\n[acceptance] specialization runs: {elapsed:.1f}s")
    _assert_all_pass(reports, "even and scalar reductions")


def test_criterion_8_determinism():
    picks = ("eq2.7", "eq2.10", "eq3.3", "eq3.34")
    first, _, _ = _run(picks, [(1, 1, 2)], dump_residual=True)
    second, _, _ = _run(picks, [(1, 1, 2)], dump_residual=True)

    def strip(reports):
        out = []
        for r in reports:
            d = r.as_dict()
            d["millis"] = 0
            out.append(d)
        return out

    assert strip(first) == strip(second)


def test_criterion_9_one_site_contexts(capsys):
    # every case runs at one site; only the site-pair cases have no
    # instances, and the manifest pins the fails the known rules predict
    t0 = time.perf_counter()
    rc = cli.main(["--contexts", "1,1,1;2,0,1;2,1,1",
                   "--format", "structured"])
    elapsed = time.perf_counter() - t0
    reports = json.loads(capsys.readouterr().out)["reports"]
    print(f"\n[acceptance] full catalog at one site: {elapsed:.1f}s")
    assert rc == 0
    assert len(reports) == 3 * len(CASES)
    assert all(r["oracle_agrees"] for r in reports)
    empty = {r["id"] for r in reports if r["verdict"] == "empty-quantifier"}
    assert empty == {"eq2.10", "supercommutation", "p-conjugation"}


MIXED_TOWER_CONTEXTS = ((1, 0, 1), (1, 1, 1), (2, 0, 1), (2, 1, 1),
                        (2, 0, 2), (1, 1, 2), (2, 1, 2))


def test_criterion_10_mixed_tower_rule():
    # eq3.21's residual is (n - m - 1) lam [J0^{ab}, J0^{cd}] and
    # eq3.21-alt's is (n - m) lam times the same bracket: each fails
    # exactly where its factor and the bracket are nonzero, leaving the
    # bracket's term count summed over the quads
    reports, elapsed, _ = _run(("eq3.21", "eq3.21-alt"), MIXED_TOWER_CONTEXTS)
    print(f"\n[acceptance] mixed-tower rule: {elapsed:.1f}s")
    by_key = {(r.id, r.n, r.m, r.N): r for r in reports}
    for n, m, N in MIXED_TOWER_CONTEXTS:
        ws = ModelWorkspace(n, m, N)
        bracket = sum(len(ws.loop_J(0, a, b).bracket(ws.loop_J(0, c, d)))
                      for a, b, c, d in itertools.product(ws.colors(),
                                                          repeat=4))
        for cid, factor in (("eq3.21", n - m - 1), ("eq3.21-alt", n - m)):
            rep = by_key[cid, n, m, N]
            want = bracket if factor else 0
            assert rep.residual_term_count == want, (cid, (n, m, N))
            assert (rep.verdict == "fail") == (want > 0), (cid, (n, m, N))


SUPERDIMENSION_CONTEXTS = ((1, 1, 1), (2, 0, 1), (1, 1, 2), (2, 0, 2),
                           (2, 1, 2), (0, 2, 2), (1, 2, 2), (2, 2, 2),
                           (3, 0, 2), (0, 3, 2), (3, 1, 2), (1, 1, 3),
                           (2, 1, 3), (1, 1, 4))


def test_criterion_11_mixed_towers_hold_with_the_superdimension():
    # with -(n - m) lam [J0^{ab}, J0^{cd}] in place of eq3.21's -lam, the
    # mixed towers reproduce the trigonometric level 1 on every context,
    # one color, m >= 2 and four sites included
    reports, elapsed, cfg = _run(("eq3.21-sdim",), SUPERDIMENSION_CONTEXTS)
    print(f"\n[acceptance] superdimension rule: {elapsed:.1f}s")
    assert len(reports) == len(SUPERDIMENSION_CONTEXTS)
    _assert_all_pass(reports, "eq3.21-sdim")
    assert all(r.oracle_agrees for r in reports)
    assert all(r.instances == (r.n + r.m) ** 4 for r in reports)
    assert not compare_to_manifest(reports, cli.load_manifest(), cfg)


ODD_COLOR_CONTEXTS = ((0, 2, 2), (1, 2, 2), (0, 3, 2))
RULE_CASES = ("eq2.17-plain", "eq3.21", "eq3.21-alt")


def test_criterion_12_several_odd_colors(capsys):
    # with m >= 2 the inner colors of one contraction can be distinct odd
    # colors; every case but the three rule cases holds there, and those
    # fail as README's rules predict: eq2.17-plain wherever m > 0, eq3.21
    # where n - m != 1 and eq3.21-alt where n != m
    rest = [cid for cid in CASES if cid not in RULE_CASES]
    t0 = time.perf_counter()
    rc = cli.main([
        "--contexts", ";".join(",".join(map(str, c))
                               for c in ODD_COLOR_CONTEXTS),
        "--cases", ",".join(rest), "--format", "structured"])
    elapsed = time.perf_counter() - t0
    reports = json.loads(capsys.readouterr().out)["reports"]
    print(f"\n[acceptance] catalog at several odd colors: {elapsed:.1f}s")
    assert rc == 0
    assert len(reports) == len(rest) * len(ODD_COLOR_CONTEXTS)
    bad = [(r["id"], r["n"], r["m"], r["N"]) for r in reports
           if r["verdict"] != "pass" or not r["oracle_agrees"]]
    assert not bad, bad
    cfg = RunConfig(contexts=ODD_COLOR_CONTEXTS, cases=RULE_CASES)
    for context in ODD_COLOR_CONTEXTS:
        ws = ModelWorkspace(*context)
        for cid in RULE_CASES:
            rep = verify_case(ws, CASES[cid], cfg)
            assert rep.verdict == "fail", (cid, context)
            assert rep.oracle_agrees, (cid, context)

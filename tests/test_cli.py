import ast
import json
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction

import pytest

from colorcs import cli
from colorcs.models import ModelWorkspace
from colorcs.verify import CASES, DEFAULT_SEED

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def pass_manifest(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({
        "schema_version": 1,
        "seed": DEFAULT_SEED,
        "default": "pass",
        "overrides": {},
    }))
    return str(path)


def _manifest(tmp_path, overrides):
    path = tmp_path / "override.json"
    path.write_text(json.dumps({
        "schema_version": 1,
        "seed": DEFAULT_SEED,
        "default": "pass",
        "overrides": overrides,
    }))
    return str(path)


def test_list_cases(capsys):
    assert cli.main(["--list-cases"]) == 0
    out = capsys.readouterr().out
    for cid in CASES:
        assert cid in out


def test_rejects_zero_color_context():
    with pytest.raises(SystemExit) as exc:
        cli.main(["--contexts", "0,0,2"])
    assert exc.value.code == 2


def test_rejects_malformed_contexts_string():
    with pytest.raises(SystemExit) as exc:
        cli.main(["--contexts", "1,1", "--cases", "eq2.7"])
    assert exc.value.code == 2


def test_rejects_unknown_case():
    with pytest.raises(SystemExit) as exc:
        cli.main(["--cases", "eq0.0", "--contexts", "1,1,2"])
    assert exc.value.code == 2


def test_rejects_bad_coupling():
    with pytest.raises(SystemExit) as exc:
        cli.main(["--lambda", "pi", "--cases", "eq2.7",
                  "--contexts", "1,1,2"])
    assert exc.value.code == 2


def test_print_operator(capsys):
    rc = cli.main(["--print-operator", "T[1,1,2]",
                   "--contexts", "1,1,2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "e(1," in out and "D1" in out
    ws = ModelWorkspace(1, 1, 2)
    with ws.ctx.field.arithmetic_memo():
        assert out == ws.build("T[1,1,2]").to_str() + "\n"


def test_print_operator_at_a_numeric_coupling(capsys):
    rc = cli.main(["--print-operator", "H_c", "--contexts", "1,1,2",
                   "--lambda", "3/2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "lam" not in out
    ws = ModelWorkspace(1, 1, 2)
    with ws.ctx.field.arithmetic_memo():
        want = ws.build("H_c").substitute_lambda(Fraction(3, 2))
    assert out == want.to_str() + "\n"


@pytest.mark.parametrize("argv,message", [
    (["--print-operator", "H_c", "--lambda", "pi"], "bad coupling 'pi'"),
    (["--print-operator", "Tm1[1,1]", "--lambda", "0"], "pole"),
])
def test_print_operator_rejects_a_bad_coupling(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--contexts", "1,1,2"])
    assert exc.value.code == 2
    err = capsys.readouterr()
    assert message in err.err.splitlines()[-1]
    assert err.out == ""


def test_print_operator_rejects_a_degree_too_deep_to_build(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--print-operator", "J[3000,1,1]", "--contexts", "1,1,2"])
    assert exc.value.code == 2
    err = capsys.readouterr()
    assert "cannot build 'J[3000,1,1]'" in err.err.splitlines()[-1]
    assert err.out == ""


@pytest.mark.parametrize("contexts", [None, "default", "1,1,2;2,0,2"])
def test_print_operator_needs_exactly_one_context(contexts, capsys):
    argv = ["--print-operator", "T[1,1,2]"]
    if contexts is not None:
        argv += ["--contexts", contexts]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "--print-operator" in capsys.readouterr().err


BAD_RUN_OPTIONS = pytest.mark.parametrize("extra", [
    ["--cases", "bogus"],
    ["--workers", "0"],
    ["--max-spin", "0"],
    ["--max-degree", "-1"],
    ["--term-budget", "0"],
    ["--manifest", "/nonexistent/manifest.json"],
    ["--output", "/nonexistent/dir/x"],
    ["--cases", "bogus", "--workers", "0", "--manifest", "/nonexistent"],
], ids=["cases", "workers", "max-spin", "max-degree", "term-budget",
        "manifest", "output", "all"])


@BAD_RUN_OPTIONS
def test_print_operator_checks_the_run_options(extra, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--print-operator", "X2", "--contexts", "1,1,2"] + extra)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@BAD_RUN_OPTIONS
def test_list_cases_checks_the_run_options(extra, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--list-cases", "--contexts", "1,1,2"] + extra)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    ["--print-operator", "T[1,1,2]", "--contexts", "1,1,2"],
    ["--list-cases"],
], ids=["print-operator", "list-cases"])
def test_every_mode_writes_to_output(argv, tmp_path, capsys):
    assert cli.main(argv) == 0
    want = capsys.readouterr().out
    target = tmp_path / "out.txt"
    assert cli.main(argv + ["--output", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_text() == want


def test_rejects_zero_workers(monkeypatch, pass_manifest):
    runs = []
    monkeypatch.setattr(cli, "run_suite", lambda cfg: runs.append(cfg) or [])
    with pytest.raises(SystemExit) as exc:
        cli.main(["--cases", "eq2.7", "--contexts", "1,1,2", "--workers", "0",
                  "--manifest", pass_manifest])
    assert exc.value.code == 2
    assert runs == []


@pytest.mark.parametrize("doc", [
    [],
    {"overrides": []},
    {"overrides": {"eq2.7": []}},
    {"overrides": {"eq2.7": {"1,1,2": "fail"}}},
], ids=["list", "overrides-list", "case-list", "entry-string"])
def test_malformed_manifest_is_a_usage_error(doc, monkeypatch, tmp_path,
                                             capsys):
    runs = []
    monkeypatch.setattr(cli, "run_suite", lambda cfg: runs.append(cfg) or [])
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SystemExit) as exc:
        cli.main(["--cases", "eq2.7", "--contexts", "1,1,2",
                  "--manifest", str(path)])
    assert exc.value.code == 2
    assert runs == []
    assert "cannot read manifest" in capsys.readouterr().err


def test_readme_command_lines_parse():
    # every `colorcs ...` line in the code blocks of "## Command line"
    with open(os.path.join(ROOT, "README.md")) as fh:
        text = fh.read()
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    commands = [shlex.split(line, comments=True)[1:]
                for block in section.split("```")[1::2]
                for line in block.splitlines() if line.startswith("colorcs")]
    assert len(commands) >= 5
    parser = cli._build_parser()
    for argv in commands:
        args = parser.parse_args(argv)
        assert cli._parse_contexts(args, parser)
        cli._parse_cases(args.cases, parser)


def test_readme_layout_names_every_module():
    # the indented entries of the code block under "## Layout"
    with open(os.path.join(ROOT, "README.md")) as fh:
        text = fh.read()
    block = text.split("\n## Layout\n", 1)[1].split("```")[1]
    named = [line.split()[0] for line in block.splitlines()
             if line.startswith("  ")]
    pkg = os.path.join(ROOT, "src", "colorcs")
    modules = {f for f in os.listdir(pkg)
               if f.endswith(".py") and f != "__init__.py"}
    assert len(named) == len(set(named))
    assert set(named) == modules | {"data/"}


@pytest.mark.parametrize("argv", [
    ["--cont", "1,1,2"],
    ["--contexts", "1,1,2", "--work", "2"],
], ids=["cont", "work"])
def test_option_prefixes_are_not_accepted(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--cases", "eq2.7"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_print_operator_builds_inside_the_arithmetic_memo(monkeypatch, capsys):
    memo_open = []
    build = ModelWorkspace.build

    def spy(self, name):
        memo_open.append(self.ctx.field._memo is not None)
        return build(self, name)

    monkeypatch.setattr(ModelWorkspace, "build", spy)
    assert cli.main(["--print-operator", "T[1,1,2]",
                     "--contexts", "1,1,2"]) == 0
    assert memo_open == [True]


def test_print_operator_unknown_name(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--print-operator", "Z[9]",
                  "--contexts", "1,1,2"])
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert err[-1] == "colorcs: error: unknown operator name 'Z'"


def test_print_operator_exponent_out_of_range(capsys):
    # the coefficient field caps exponents; past the cap the name is
    # refused as a usage error, not a traceback
    with pytest.raises(SystemExit) as exc:
        cli.main(["--print-operator", "K[2000,1,1]",
                  "--contexts", "1,1,2"])
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert err[-1] == ("colorcs: error: cannot build 'K[2000,1,1]': "
                       "exponent out of range")


def test_pass_run_text(capsys, pass_manifest):
    rc = cli.main(["--cases", "eq2.7,eq2.10", "--contexts", "1,1,2",
                   "--manifest", pass_manifest])
    assert rc == 0
    out = capsys.readouterr().out
    assert "all verdicts match" in out
    assert "eq2.7" in out and "eq2.10" in out


def test_verdict_deviation_exits_one(capsys, tmp_path):
    manifest = _manifest(tmp_path, {"eq2.7": {"1,1,2": {"verdict": "fail"}}})
    rc = cli.main(["--cases", "eq2.7", "--contexts", "1,1,2",
                   "--manifest", manifest])
    assert rc == 1
    captured = capsys.readouterr()
    assert "deviation" in captured.out
    assert "expected fail" in captured.out
    assert "deviation" in captured.err


def test_term_budget_exit_takes_precedence(capsys, pass_manifest):
    rc = cli.main(["--cases", "eq3.5", "--contexts", "1,1,2",
                   "--term-budget", "3", "--manifest", pass_manifest])
    assert rc == 3
    captured = capsys.readouterr()
    assert "eq3.5" in captured.err
    assert "budget" in captured.err


def test_structured_output_deterministic(capsys, pass_manifest):
    argv = ["--cases", "eq2.7", "--contexts", "1,1,2",
            "--format", "structured", "--manifest", pass_manifest]
    assert cli.main(argv) == 0
    first = json.loads(capsys.readouterr().out)
    assert cli.main(argv) == 0
    second = json.loads(capsys.readouterr().out)
    assert first["schema_version"] == 1
    for doc in (first, second):
        for rep in doc["reports"]:
            rep["millis"] = 0
    assert first == second


def test_structured_report_fields(capsys, pass_manifest):
    argv = ["--cases", "eq2.7", "--contexts", "1,1,2;2,0,2",
            "--format", "structured", "--manifest", pass_manifest]
    assert cli.main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["coupling"] == "symbolic"
    assert doc["contexts"] == [[1, 1, 2], [2, 0, 2]]
    assert [r["n"] for r in doc["reports"]] == [1, 2]
    for rep in doc["reports"]:
        for key in ("id", "suite", "n", "m", "N", "verdict",
                    "oracle_agrees", "instances", "failed",
                    "residual_term_count", "millis"):
            assert key in rep


def test_output_to_file(tmp_path, capsys, pass_manifest):
    target = tmp_path / "report.json"
    rc = cli.main(["--cases", "eq2.7", "--contexts", "1,1,2",
                   "--format", "structured", "--output", str(target),
                   "--manifest", pass_manifest])
    assert rc == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(target.read_text())
    assert doc["reports"][0]["id"] == "eq2.7"


def test_unwritable_output_is_a_usage_error(monkeypatch, tmp_path,
                                            pass_manifest):
    runs = []
    monkeypatch.setattr(cli, "run_suite", lambda cfg: runs.append(cfg) or [])
    with pytest.raises(SystemExit) as exc:
        cli.main(["--cases", "eq2.7", "--contexts", "1,1,2",
                  "--output", str(tmp_path / "missing" / "x.json"),
                  "--manifest", pass_manifest])
    assert exc.value.code == 2
    assert runs == []


def test_repeated_context_reports_once(capsys, pass_manifest):
    rc = cli.main(["--cases", "eq2.7,eq2.10", "--contexts", "1,1,2; 1,1,2",
                   "--format", "structured", "--manifest", pass_manifest])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["contexts"] == [[1, 1, 2]]
    assert sorted(r["id"] for r in doc["reports"]) == ["eq2.10", "eq2.7"]


def test_dump_residual_round_trip(capsys, tmp_path):
    manifest = _manifest(
        tmp_path, {"eq2.17-plain": {"1,1,2": {"verdict": "fail"}}})
    rc = cli.main(["--cases", "eq2.17-plain", "--contexts", "1,1,2",
                   "--dump-residual", "--format", "structured",
                   "--manifest", manifest])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    rep = doc["reports"][0]
    assert rep["verdict"] == "fail"
    assert rep["residuals"]
    term = rep["residuals"][0]["terms"][0]
    assert set(term) == {"num", "den", "word", "deriv"}
    assert term["num"] != "0"


def test_numeric_coupling_skips_count_comparison(capsys, tmp_path):
    manifest = _manifest(
        tmp_path,
        {"eq2.7": {"1,1,2": {"verdict": "pass",
                             "residual_term_count": 999}}})
    rc = cli.main(["--cases", "eq2.7", "--contexts", "1,1,2",
                   "--lambda", "3/2", "--manifest", manifest])
    assert rc == 0
    assert "all verdicts match" in capsys.readouterr().out


STARTUP_PROBE = """
import sys
from colorcs import cli
for workers, contexts in (("1", "1,1,2;2,0,2"), ("2", "1,1,2")):
    rc = cli.main(["--cases", "eq2.7", "--contexts", contexts,
                   "--workers", workers, "--format", "structured"])
    assert rc == 0, (workers, contexts, rc)
unused = ("multiprocessing", "concurrent.futures.process", "dataclasses",
          "inspect", "typing", "fractions", "decimal", "numbers",
          "importlib.resources", "zipfile", "tempfile")
loaded = [m for m in unused if m in sys.modules]
assert loaded == [], loaded
"""


def test_serial_run_imports_only_the_modules_it_uses():
    # a fresh interpreter without site, so that neither the test session
    # nor a site-packages .pth file loads a module the run does not use
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-S", "-c", STARTUP_PROBE],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_default_manifest_is_packaged():
    manifest = cli.load_manifest()
    assert manifest["schema_version"] == 1
    assert manifest["default"] == "pass"


def test_test_imports_are_declared():
    # a third-party module the tests import but the "test" extra leaves out
    # fails here, not later as an import error on a fresh install
    import tomllib  # 3.11+; imported here so the module loads on 3.10

    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        project = tomllib.load(fh)["project"]
    requirements = project["dependencies"] \
        + project["optional-dependencies"]["test"]
    declared = {re.match(r"[\w.-]+", r).group().lower().replace("-", "_")
                for r in requirements}
    tests = os.path.join(ROOT, "tests")
    modules = [name for name in os.listdir(tests) if name.endswith(".py")]
    local = {name[:-3] for name in modules} | set(
        os.listdir(os.path.join(ROOT, "src")))
    imported = set()
    for name in modules:
        with open(os.path.join(tests, name)) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported.add(node.module.split(".")[0])
    third_party = imported - local - set(sys.stdlib_module_names)
    assert {"pytest", "hypothesis", "sympy"} <= third_party
    assert third_party <= declared, sorted(third_party - declared)

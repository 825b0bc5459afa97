"""Smoke test of the benchmark's traced mode.

verdictbench's tracer wraps colorcs functions by name (``full_word_mul``,
``OperatorSum.mul``, ...).  A refactor that renames or stops calling one of
them must fail here rather than silently drop or zero a per-layer metric.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# run.py derives these from the whole pass (the report's instance count
# and the traced-minus-untraced wall time), not from the tracer's layers
DERIVED_BY_RUN = ("verify.instances", "trace.overhead_s")


with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)


@pytest.mark.parametrize(
    "workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_traced_pass_reports_every_layer_metric(workload):
    names = [m["name"] for m in BENCHMARK["per_layer"]]
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "verdictbench", "child.py"),
         "--workload", workload, "--seed", "20257", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["exit_code"] == 0
    assert result["error"] is None
    layers = result["layers"]
    missing = [n for n in names if n not in layers and n not in DERIVED_BY_RUN]
    assert missing == []
    assert sum(r["instances"] for r in result["report"]["reports"]) > 0
    # a wrapped function that is no longer called reads as zero calls
    zero = [n for n in names if n.endswith(".calls") and not layers[n]]
    assert zero == []

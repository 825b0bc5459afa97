"""End-to-end benchmark of the colorcs verifier: time to a checked verdict.

    python3 verdictbench/run.py --workload serre-graded --seed 20257 \\
        --seconds 35 --trace 0 [--record FILE]
    python3 verdictbench/run.py --workload all      # one row per workload

Run from the repository root.  Each pass is one fresh process making one
`colorcs` invocation (see child.py); a run makes a fixed number of passes,
derived from --seconds, closed-loop with a single client.  Every report of
every pass is checked against the packaged manifest.  With --trace 0 the
end-to-end metrics are printed; with --trace 1 one plain pass is
followed by two traced passes and the per-layer metrics are printed.  The
last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  README.md has the details.
"""

from __future__ import annotations

import argparse
import compileall
import copy
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from workloads import DEFAULT_SEED, WORKLOADS, pass_seeds  # noqa: E402

# the pass count is fixed from --seconds, but on a slowed machine no timed
# pass starts after CAP_FACTOR * --seconds, which bounds how long a series
# of runs takes; a run must end within 180 s, so a pass still running at
# RUN_LIMIT_S is killed and counted as failed
CAP_FACTOR = 1.2
RUN_LIMIT_S = 175.0
TRACED_PASSES = 2

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("instances_per_s", "1/s"),
              ("verdict_p50_s", "s"), ("verdict_tail_s", "s"),
              ("peak_rss_mb", "MB"))


# -- environment -----------------------------------------------------------


def environment(backend):
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=30)
            commit = git.stdout.strip() if git.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "colorcs")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for fname in sorted(filenames):
            path = os.path.join(dirpath, fname)
            digest.update(os.path.relpath(path, pkg).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return {"backend": backend, "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "commit": commit,
            "source_sha256": digest.hexdigest()}


# -- passes ----------------------------------------------------------------


def run_pass(wl, seed, trace, deadline):
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload",
           wl.name, "--seed", str(seed), "--trace", str(trace)]
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"pass did not finish within {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 and lines:
        try:
            return json.loads(lines[-1])
        except ValueError:
            pass
    tail = proc.stderr.strip().splitlines()[-1:] or ["no result"]
    return {"error": f"pass process exited {proc.returncode}: {tail[0]}"}


class Checker:
    """Judges every report of a pass against the expected manifest."""

    def __init__(self, wl):
        from colorcs.cli import load_manifest
        from colorcs.verify import (VERDICT_TRUNCATED, IdentityReport,
                                    RunConfig, compare_to_manifest)
        self.wl = wl
        self.manifest = load_manifest()
        self._config = RunConfig
        self._report = IdentityReport
        self._compare = compare_to_manifest
        self._truncated = VERDICT_TRUNCATED

    def failures(self, res, seed, manifest=None):
        """{(case id, "n,m,N"): reason} for each failed report of a pass
        run at `seed`."""
        manifest = self.manifest if manifest is None else manifest
        expected = self.wl.expected()
        doc = res.get("report")
        code = res.get("exit_code")
        if res.get("error") or doc is None or doc.get("seed") != seed:
            reason = res.get("error") or \
                f"colorcs exited with code {code} without a report at seed " \
                f"{seed}"
            return {key: reason for key in expected}
        exited = None if code == 0 else f"colorcs exited with code {code}"
        got = {(r["id"], f"{r['n']},{r['m']},{r['N']}"): r
               for r in doc["reports"]}
        if len(got) != len(doc["reports"]) or not set(got) <= set(expected):
            return {key: "reports other than one per selected case and "
                         "context" for key in expected}
        out = {}
        for key in expected:
            raw = got.get(key)
            if raw is None:
                out[key] = "no report"
                continue
            rep = self._report(**raw)
            devs = self._compare([rep], manifest, self._config(seed=seed))
            if rep.verdict == self._truncated:
                devs.append("term budget exceeded")
            if devs or exited:
                out[key] = "; ".join(devs) or exited
        return out

    def flipped_manifest(self):
        """The manifest with the first expected report's verdict flipped."""
        cid, ctx = self.wl.expected()[0]
        doc = copy.deepcopy(self.manifest)
        entry = doc.setdefault("overrides", {}).setdefault(cid, {})
        want = entry.get(ctx, {}).get("verdict", doc.get("default", "pass"))
        entry[ctx] = {"verdict": "fail" if want == "pass" else "pass"}
        return doc


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def tail_percentile(n):
    """Highest whole percentile with at least ten samples beyond it."""
    return 100 * (n - 10) // n if n > 10 else 100


def percentile(xs, p):
    xs = sorted(xs)
    if p >= 100:
        return xs[-1]
    if len(xs) < 2:
        return xs[0]
    return statistics.quantiles(xs, n=100, method="inclusive")[p - 1]


# -- one workload ----------------------------------------------------------


def run_workload(wl, seed, seconds, trace, backend):
    """(outcome, metrics, summary) of one run of one workload."""
    checker = Checker(wl)
    start = time.monotonic()
    # a traced run repeats one input, so its counts can be compared
    seeds = [seed] * (1 + TRACED_PASSES) if trace else \
        pass_seeds(seed, wl.passes(seconds))
    print(f"  {wl.name} pass seeds: {' '.join(map(str, seeds))}")
    results, good, problems, failed = [], [], [], 0
    for i, pass_seed in enumerate(seeds):
        if i and not trace and \
                time.monotonic() - start > CAP_FACTOR * seconds:
            print(f"  note: stopped after {i} passes at the time cap")
            break
        res = run_pass(wl, pass_seed, int(trace and i > 0),
                       start + RUN_LIMIT_S)
        res["seed"] = pass_seed
        bad = checker.failures(res, pass_seed)
        failed += len(bad)
        for (cid, ctx), why in sorted(bad.items()):
            print(f"  pass {i + 1}: {cid} at ({ctx}) failed: {why}")
        if res.get("backend", backend) != backend:
            problems.append(f"pass {i + 1} ran the {res['backend']} backend, "
                            f"not {backend}; refusing to mix backends")
        results.append(res)
        if not bad:
            good.append(res)

    if not good:
        problems.append("no pass succeeded")
    elif not checker.failures(good[0], good[0]["seed"],
                              checker.flipped_manifest()):
        problems.append("self-check: a flipped manifest verdict went unnoticed")
    metrics, summary = {}, {}
    if trace:
        metrics = traced_metrics(wl, results, problems)
    elif good:
        metrics, summary = timed_metrics(good)
    for msg in problems:
        print(f"  problem: {msg}")
    outcome = {"correct": not failed and not problems,
               "attempted": len(results) * len(wl.expected()),
               "failed": failed}
    return outcome, metrics, summary


def timed_metrics(good):
    samples = {
        "setup_s": [r["setup_s"] for r in good],
        "wall_s": [r["wall_s"] for r in good],
        "instances_per_s": [instances(r) / r["wall_s"] for r in good],
        "peak_rss_mb": [r["rss_mb"] for r in good],
    }
    verdict_s = [v[2] for r in good for v in r["verdicts"]]
    p = tail_percentile(len(verdict_s))
    metrics, summary = {}, {}
    for name, unit in END_TO_END:
        if name == "verdict_p50_s":
            value, n, quarts = percentile(verdict_s, 50), len(verdict_s), None
        elif name == "verdict_tail_s":
            value, n, quarts = percentile(verdict_s, p), len(verdict_s), None
        else:
            q1, value, q3 = quartiles(samples[name])
            n, quarts = len(samples[name]), (q1, q3)
        metrics[name] = {"value": value, "unit": unit}
        summary[name] = (value, quarts, n)
    summary["tail_percentile"] = p
    print("  wall_s of each pass: " +
          " ".join(f"{x:.3f}" for x in samples["wall_s"]))
    return metrics, summary


def instances(res):
    return sum(r["instances"] for r in res["report"]["reports"])


def traced_metrics(wl, results, problems):
    plain, traced = results[0], results[1:]
    layers = [r.get("layers") for r in traced]
    if plain.get("error") or len(layers) < TRACED_PASSES or None in layers:
        problems.append("the untraced and traced passes did not all finish")
        return {}
    first = layers[0]
    metrics = {}
    for name, value in first.items():
        if isinstance(value, int):
            if any(other[name] != value for other in layers[1:]):
                problems.append(f"{name} differs between traced passes: "
                                f"{[other[name] for other in layers]}")
            unit = "count"
        else:
            value = statistics.median(other[name] for other in layers)
            unit = "s" if name.endswith("_s") else "ratio"
        metrics[name] = {"value": value, "unit": unit}
    metrics["verify.instances"] = {"value": instances(traced[0]),
                                   "unit": "count"}
    overhead = statistics.median(r["wall_s"] for r in traced) - \
        plain["wall_s"]
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}

    print(f"  per-verdict table, {wl.name} (untraced and traced seconds):")
    plain_s = {(c, x): s for c, x, s in plain["verdicts"]}
    for cid, ctx, secs in sorted(traced[0]["verdicts"], key=lambda v: -v[2]):
        print(f"    {cid:<18} ({ctx})  {plain_s.get((cid, ctx), 0.0):8.3f} "
              f"{secs:8.3f}")
    print(f"  tracing overhead: {overhead:.3f} s on an untraced wall of "
          f"{plain['wall_s']:.3f} s")
    for name, m in metrics.items():
        print(f"  {name:<36} {m['value']:.6g} {m['unit']}")
    return metrics


# -- output ----------------------------------------------------------------


def print_row(wl, seed, outcome, summary):
    ratio = outcome["failed"] / outcome["attempted"]
    cells = [f"{wl.name:<13}", f"seed={seed}"]
    for name, unit in END_TO_END:
        if name not in summary:
            continue
        value, quarts, n = summary[name]
        label = name
        if name == "verdict_tail_s":
            label += f"(p{summary['tail_percentile']})"
        cell = f"{label}={value:.4g} {unit}"
        if quarts is not None:
            cell += f" [{quarts[0]:.4g}, {quarts[1]:.4g}]"
        cells.append(cell + f" n={n}")
    cells.append(f"failed_ratio={ratio:.4g} "
                 f"({outcome['failed']}/{outcome['attempted']})")
    print("  ".join(cells))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", default=None,
                   help="also write the run, with its environment, as JSON")
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "colorcs", "__init__.py")):
        sys.exit(f"no colorcs package under {SRC}: run from a checkout")
    # set-up is measured with the bytecode cache warm, as in an installed
    # package, whether or not the environment lets imports write it
    compileall.compile_dir(os.path.join(SRC, "colorcs"), quiet=1)
    sys.path.insert(0, SRC)
    from colorcs._kernel import BACKEND

    env = environment(BACKEND)
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    total = {"correct": True, "attempted": 0, "failed": 0}
    metrics = {}
    for name in names:
        wl = WORKLOADS[name]
        outcome, wl_metrics, summary = run_workload(
            wl, args.seed, args.seconds, args.trace, BACKEND)
        if summary:
            print_row(wl, args.seed, outcome, summary)
        total["correct"] = total["correct"] and outcome["correct"]
        total["attempted"] += outcome["attempted"]
        total["failed"] += outcome["failed"]
        if len(names) == 1:
            metrics = wl_metrics
        else:
            metrics.update({f"{name}/{k}": v for k, v in wl_metrics.items()})
    result = {**total, "metrics": metrics}
    if args.record:
        os.makedirs(os.path.dirname(os.path.abspath(args.record)),
                    exist_ok=True)
        with open(args.record, "w") as fh:
            json.dump({"env": env, "workload": args.workload,
                       "seed": args.seed, "seconds": args.seconds,
                       "trace": args.trace, **result}, fh, indent=1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()

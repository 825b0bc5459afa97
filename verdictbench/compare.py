"""Compare recorded benchmark runs of two commits, metric by metric.

    python3 verdictbench/compare.py --base a1.json a2.json ... \\
        --new b1.json b2.json ...

Each file is written by ``run.py --record FILE``.  For every metric the
script prints the median and quartiles of each side, the change of the
medians, and, for end-to-end metrics, whether the change stays within the
bound BENCHMARK.json fixes.  It refuses to compare runs made on different
kernel backends, workloads or modes, because those numbers measure
different programs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(paths):
    runs = []
    for path in paths:
        with open(path) as fh:
            runs.append(json.load(fh))
    return runs


def describe(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--base", nargs="+", required=True)
    p.add_argument("--new", nargs="+", required=True)
    args = p.parse_args(argv)
    base, new = load(args.base), load(args.new)

    backends = {r["env"]["backend"] for r in base + new}
    if len(backends) > 1:
        sys.exit(f"refusing to compare runs on different kernel backends: "
                 f"{', '.join(sorted(backends))}")
    for key in ("workload", "trace", "seconds"):
        seen = {json.dumps(r[key]) for r in base + new}
        if len(seen) > 1:
            sys.exit(f"refusing to compare runs with different {key}: "
                     f"{', '.join(sorted(seen))}")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    worse = 0
    for name in base[0]["metrics"]:
        b = describe([r["metrics"][name]["value"] for r in base])
        n = describe([r["metrics"][name]["value"] for r in new])
        change = (n[1] - b[1]) / b[1] if b[1] else 0.0
        line = (f"{name:<36} base {b[1]:.4g} [{b[0]:.4g}, {b[2]:.4g}]  "
                f"new {n[1]:.4g} [{n[0]:.4g}, {n[2]:.4g}]  {change:+.1%}")
        metric = name.split("/")[-1]      # "workload/metric" in --workload all
        if metric in bounds:
            loss = -change if better[metric] == "higher" else change
            if loss > bounds[metric]["bound"]:
                worse += 1
                line += f"  WORSE than the {bounds[metric]['bound']:.0%} bound"
        print(line)
    failed = sum(r["failed"] for r in new)
    print(f"{len(base)} base and {len(new)} new runs; new failed reports: "
          f"{failed}")
    return 1 if worse or failed else 0


if __name__ == "__main__":
    sys.exit(main())

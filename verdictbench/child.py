"""One benchmark pass: a fresh process making one `colorcs` invocation.

run.py starts this file once per pass:

    python3 verdictbench/child.py --workload NAME --seed N --trace 0|1

It times set-up (importing colorcs, selecting the kernel backend, loading
the packaged manifest), then calls ``colorcs.cli.main`` in-process with
the workload's arguments and times that call.  Each ``verify_case`` call,
one (case, context) verdict, is timed by a one-pair wrapper; with
``--trace 1`` the span tracer is installed instead.  The last line of
standard output is one JSON object; correctness is judged by run.py.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _timed_verdicts(verify, sink):
    inner = verify.verify_case

    def verify_case(ws, case, cfg):
        t = time.perf_counter()
        rep = inner(ws, case, cfg)
        sink.append([case.id, f"{ws.n},{ws.m},{ws.N}", time.perf_counter() - t])
        return rep

    verify.verify_case = verify_case


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    from workloads import WORKLOADS
    wl = WORKLOADS[args.workload]

    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import colorcs
    from colorcs import _kernel, cli, verify
    backend = _kernel.BACKEND
    cli.load_manifest()
    setup_s = time.perf_counter() - t0
    if os.path.dirname(os.path.abspath(colorcs.__file__)) != \
            os.path.join(SRC, "colorcs"):
        sys.exit(f"colorcs imported from {colorcs.__file__}, not from {SRC}")

    verdicts = []
    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.install()
    else:
        _timed_verdicts(verify, verdicts)

    out = io.StringIO()
    error = None
    exit_code = None
    t = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            exit_code = cli.main(wl.argv(args.seed))
    except SystemExit as exc:
        exit_code = exc.code
    except Exception as exc:  # the pass fails; run.py counts it
        error = f"{type(exc).__name__}: {exc}"
    wall_s = time.perf_counter() - t
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    try:
        report = json.loads(out.getvalue())
    except ValueError:
        report = None
    result = {
        "backend": backend,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "rss_mb": rss_mb,
        "exit_code": exit_code,
        "error": error,
        "report": report,
        "verdicts": tracer.verdicts() if tracer else verdicts,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
    print(json.dumps(result))


if __name__ == "__main__":
    main()

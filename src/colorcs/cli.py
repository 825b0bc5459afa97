"""Command line front end.

Selects contexts and cases, runs the identity suite, and emits a text
or structured report.  The structured form is a versioned JSON schema
whose content is deterministic for a fixed configuration and seed,
timing fields aside.  Unless --manifest names another, the expected
verdicts are read from ``data/expected_manifest.json`` beside this
module, a plain file path that needs no ``importlib.resources``.

Exit codes: 0 every selected case matched the expected manifest;
1 at least one deviation (with a diff summary); 2 usage error;
3 a term budget was exceeded (the offending cases, or the operator
--print-operator builds, are named).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext

from .errors import CapExceededError, PoleError, UnknownNameError
from .models import ModelWorkspace
from .operators import term_budget
from .verify import (
    CASES,
    DEFAULT_CONTEXTS,
    DEFAULT_SEED,
    RunConfig,
    compare_to_manifest,
    run_suite,
)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_DEVIATION = 1
EXIT_USAGE = 2
EXIT_CAP = 3


def _build_parser():
    p = argparse.ArgumentParser(
        prog="colorcs",
        allow_abbrev=False,
        description="verify the operator identities of the graded "
                    "Calogero-Sutherland models",
    )
    p.add_argument(
        "--contexts", default="default",
        help="semicolon-separated n,m,N triples (even colors, odd colors, "
             "sites), or 'default' for 2,0,2;1,1,2;2,1,2;1,1,3")

    run = p.add_argument_group("run selection")
    run.add_argument("--cases", default="all",
                     help="comma-separated case ids, or 'all'")
    run.add_argument("--list-cases", action="store_true",
                     help="print the case catalog and exit")
    run.add_argument("--lambda", dest="lam", default="symbolic",
                     help="coupling: 'symbolic' or a rational like 3/2")
    run.add_argument("--seed", type=int, default=DEFAULT_SEED,
                     help="seed for sampled quantifiers and oracle picks")
    run.add_argument("--max-spin", type=int, default=3,
                     help="spin cap for the higher-spin cases (>= 1)")
    run.add_argument("--max-degree", type=int, default=2,
                     help="degree cap for the higher-spin cases (>= 0)")
    run.add_argument("--term-budget", type=int, default=None,
                     help="abort any product growing past this many terms")
    run.add_argument("--workers", type=int, default=1,
                     help="context-parallel worker count")

    out = p.add_argument_group("output")
    out.add_argument("--format", choices=("text", "structured"),
                     default="text")
    out.add_argument("--output", default=None,
                     help="write the report, case list or operator here "
                          "instead of stdout")
    out.add_argument("--dump-residual", action="store_true",
                     help="include residual terms of failing instances")
    out.add_argument("--manifest", default=None,
                     help="expected-verdict manifest path "
                          "(default: the packaged one)")
    out.add_argument("--print-operator", metavar="NAME", default=None,
                     help="print a named operator (e.g. 'H_s', 'T[1,1,2]') "
                          "at the one context --contexts names, and exit")
    return p


def _parse_contexts(args, parser):
    """The validated, deduplicated contexts --contexts names; with
    --print-operator it must name exactly one."""
    single = args.print_operator is not None
    if args.contexts == "default":
        if single:
            parser.error("--print-operator needs --contexts with one n,m,N")
        return DEFAULT_CONTEXTS
    out = []
    for chunk in args.contexts.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(",")
        if len(parts) != 3:
            parser.error(f"bad context {chunk!r}, expected n,m,N")
        try:
            out.append(tuple(int(x) for x in parts))
        except ValueError:
            parser.error(f"bad context {chunk!r}, expected integers")
    if not out:
        parser.error("no contexts selected")
    for n, m, N in out:
        if n < 0 or m < 0 or n + m < 1:
            parser.error(f"invalid colors n={n}, m={m}: need n+m >= 1")
        if N < 1:
            parser.error(f"invalid site count N={N}")
    out = tuple(dict.fromkeys(out))
    if single and len(out) != 1:
        parser.error(f"--print-operator takes one context, got {len(out)}")
    return out


def _parse_cases(arg, parser):
    if arg == "all":
        return None
    picked = tuple(dict.fromkeys(
        c.strip() for c in arg.split(",") if c.strip()))
    bad = [c for c in picked if c not in CASES]
    if bad:
        parser.error(f"unknown case ids: {', '.join(bad)}")
    if not picked:
        parser.error("no cases selected")
    return picked


def _parse_lambda(arg, parser):
    if arg == "symbolic":
        return None
    # only a numeric coupling needs the rational type
    from fractions import Fraction
    try:
        return Fraction(arg)
    except (ValueError, ZeroDivisionError):
        parser.error(f"bad coupling {arg!r}: expected a rational or "
                     f"'symbolic'")


def load_manifest(path=None):
    """The expected-verdict manifest at path, or the packaged one,
    ``data/expected_manifest.json`` beside this module.

    Raises ValueError unless the document is a JSON object whose
    "overrides" maps each case id to an object of per-context objects,
    the shape ``compare_to_manifest`` reads.
    """
    if path is None:
        path = os.path.join(os.path.dirname(__file__), "data",
                            "expected_manifest.json")
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("the manifest is not a JSON object")
    overrides = doc.get("overrides", {})
    if not isinstance(overrides, dict):
        raise ValueError("the manifest's overrides are not an object")
    for cid, entries in overrides.items():
        if not isinstance(entries, dict) \
                or not all(isinstance(e, dict) for e in entries.values()):
            raise ValueError(f"the manifest's overrides for {cid!r} are "
                             f"not objects of objects")
    return doc


def _print_operator(args, context, lam, parser, out):
    ws = ModelWorkspace(*context)
    try:
        with term_budget(args.term_budget), ws.ctx.field.arithmetic_memo():
            op = ws.build(args.print_operator)
            if lam is not None:
                op = op.substitute_lambda(lam)
    except CapExceededError:
        print(f"term budget exceeded in: {args.print_operator}",
              file=sys.stderr)
        return EXIT_CAP
    except UnknownNameError as exc:
        # a KeyError's str() quotes its message
        parser.error(exc.args[0])
    except PoleError as exc:
        parser.error(f"{args.print_operator!r} at --lambda {lam}: {exc}")
    except ValueError as exc:
        parser.error(f"cannot build {args.print_operator!r}: {exc}")
    out.write(op.to_str() + "\n")
    return EXIT_OK


def _text_report(reports, deviations, cfg):
    lines = []
    header = (f"{'case':<18} {'suite':<14} {'context':<9} {'verdict':<17} "
              f"{'inst':>5} {'fail':>5} {'resid':>6} {'ms':>7}")
    lines.append(header)
    lines.append("-" * len(header))
    for r in reports:
        ctx = f"({r.n},{r.m},{r.N})"
        lines.append(
            f"{r.id:<18} {r.suite:<14} {ctx:<9} {r.verdict:<17} "
            f"{r.instances:>5} {r.failed:>5} {r.residual_term_count:>6} "
            f"{r.millis:>7}")
        if not r.oracle_agrees:
            lines.append(f"  !! double-entry oracle disagrees: {r.note}")
        elif r.note:
            lines.append(f"  note: {r.note}")
        for entry in r.residuals:
            lines.append(f"  residual at {entry['instance']}:")
            for t in entry["terms"][:8]:
                word = "".join(f"e({s},{a},{b})" for s, a, b in t["word"])
                lines.append(f"    ({t['num']})/({t['den']}) {word} "
                             f"D{t['deriv']}")
            if len(entry["terms"]) > 8:
                lines.append(f"    ... {len(entry['terms']) - 8} more terms")
    counts = {}
    for r in reports:
        counts[r.verdict] = counts.get(r.verdict, 0) + 1
    summary = ", ".join(f"{v} {k}" for k, v in sorted(counts.items()))
    lines.append("")
    lines.append(f"{len(reports)} reports: {summary}; "
                 f"seed {cfg.seed}, coupling "
                 f"{'symbolic' if cfg.lam is None else cfg.lam}")
    if deviations:
        lines.append("")
        lines.append("deviations from the expected manifest:")
        lines.extend(f"  {d}" for d in deviations)
    else:
        lines.append("all verdicts match the expected manifest")
    return "\n".join(lines) + "\n"


def _structured_report(reports, deviations, cfg):
    doc = {
        "schema_version": SCHEMA_VERSION,
        "seed": cfg.seed,
        "coupling": "symbolic" if cfg.lam is None else str(cfg.lam),
        "contexts": [list(c) for c in cfg.contexts],
        "cases": sorted(cfg.cases) if cfg.cases else sorted(CASES),
        "max_spin": cfg.max_spin,
        "max_degree": cfg.max_degree,
        "reports": [r.as_dict() for r in reports],
        "deviations": deviations,
    }
    return json.dumps(doc, indent=2) + "\n"


def _run(cfg, manifest, fmt, out):
    """Run the suite, write its report to out and return the exit code."""
    reports = run_suite(cfg)
    deviations = compare_to_manifest(reports, manifest, cfg)

    report = _structured_report if fmt == "structured" else _text_report
    out.write(report(reports, deviations, cfg))

    truncated = sorted({r.id for r in reports if r.verdict == "truncated"})
    if truncated:
        print(f"term budget exceeded in: {', '.join(truncated)}",
              file=sys.stderr)
        return EXIT_CAP
    if deviations:
        print(f"{len(deviations)} deviation(s) from the expected manifest",
              file=sys.stderr)
        return EXIT_DEVIATION
    return EXIT_OK


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)

    # every option is checked before anything runs or prints, so an
    # option --list-cases or --print-operator does not read is still a
    # usage error
    contexts = _parse_contexts(args, parser)
    lam = _parse_lambda(args.lam, parser)
    cases = _parse_cases(args.cases, parser)
    if args.workers < 1:
        parser.error("--workers must be >= 1")
    if args.max_spin < 1:
        parser.error("--max-spin must be >= 1")
    if args.max_degree < 0:
        parser.error("--max-degree must be >= 0")
    if args.term_budget is not None and args.term_budget < 1:
        parser.error("--term-budget must be >= 1")

    try:
        manifest = load_manifest(args.manifest)
    except (OSError, ValueError) as exc:
        # ValueError covers malformed JSON and a document of the wrong shape
        parser.error(f"cannot read manifest: {exc}")
    # an unwritable --output too, since every mode writes there
    out = nullcontext(sys.stdout)
    if args.output:
        try:
            out = open(args.output, "w")
        except OSError as exc:
            parser.error(f"cannot write output: {exc}")

    with out as fh:
        if args.list_cases:
            for cid in sorted(CASES):
                case = CASES[cid]
                fh.write(f"{cid:<18} {case.suite:<14} {case.title}\n")
            return EXIT_OK
        if args.print_operator is not None:
            return _print_operator(args, contexts[0], lam, parser, fh)
        cfg = RunConfig(
            contexts=contexts, cases=cases, lam=lam, seed=args.seed,
            max_spin=args.max_spin, max_degree=args.max_degree,
            term_budget=args.term_budget,
            workers=args.workers, dump_residual=args.dump_residual,
        )
        return _run(cfg, manifest, args.format, fh)


if __name__ == "__main__":
    sys.exit(main())

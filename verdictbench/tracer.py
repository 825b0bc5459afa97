"""Span tracer for the traced pass.

The tracer lives entirely in the benchmark: it replaces public functions
of the colorcs layers with wrappers, by name, in every colorcs module that
holds them (``colorcs.scalar.poly_mul``, ``colorcs.gcdtools.poly_divexact``,
``colorcs.operators.full_word_mul``, ...) and on the classes
(``OperatorSum``, ``RationalFunction``, ``ScalarField``, ``AlgebraContext``,
``ModelWorkspace``).  The kernel backend modules themselves are left
alone, so a kernel function's own helper calls stay inside its span.

Each call opens a span with a name, the span that was open when it started
(its parent), and its start and end.  Self time is the span's duration
minus the time its child spans cover.  Below ``verify`` the layers are
called up to millions of times per pass, so those spans are folded into
one record per (name, parent) as they close, which bounds memory; the
``verify_case`` spans are also kept whole, which gives the per-verdict
table.
"""

from __future__ import annotations

import sys
import time

_perf = time.perf_counter

# backend modules whose internal calls belong to the kernel function
_SKIP_MODULES = ("colorcs._poly_py", "colorcs._poly_cy")

_KERNEL = ("poly_mul", "poly_add", "poly_diff", "poly_divexact",
           "poly_eval_var")

_NOT_BUILDERS = ("parity", "colors", "build")


class Tracer:
    def __init__(self):
        # open spans: [name, start, time covered by children, flag]; the
        # flag marks a models.build span that opened an operators span
        self.stack = [["<root>", 0.0, 0.0, False]]
        # (name, parent) -> [calls, total_s, child_s, count1, count2]
        self.agg = {}
        self.spans = []      # kept whole: (name, parent, start, end, label)

    def _record(self, name, parent, dur, child):
        rec = self.agg.get((name, parent))
        if rec is None:
            rec = self.agg[(name, parent)] = [0, 0.0, 0.0, 0, 0]
        rec[0] += 1
        rec[1] += dur
        rec[2] += child
        return rec

    def leaf(self, name, fn, hit=None):
        """Wrapper for a function that calls no traced function.

        hit(result) -> bool counts useful outcomes into count1."""
        stack = self.stack
        record = self._record

        def wrapper(*args, **kwargs):
            t = _perf()
            out = fn(*args, **kwargs)
            dur = _perf() - t
            top = stack[-1]
            top[2] += dur
            rec = record(name, top[0], dur, 0.0)
            if hit is not None and hit(out):
                rec[3] += 1
            return out

        return wrapper

    def span(self, name, fn, keep=None, count=None):
        """Wrapper that opens a span others can nest in.

        keep(args) -> label keeps the span whole; count(args, result, rec)
        adds to the record's counters."""
        stack = self.stack
        record = self._record
        spans = self.spans
        opens_operators = name.startswith("operators.")
        is_build = name == "models.build"

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if opens_operators:
                parent[3] = True
            frame = [name, _perf(), 0.0, False]
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                end = _perf()
                stack.pop()
                dur = end - frame[1]
                parent[2] += dur
                rec = record(name, parent[0], dur, frame[2])
                if is_build and frame[3]:
                    rec[3] += 1
                if keep is not None:
                    spans.append((name, parent[0], frame[1], end, keep(args)))
            if count is not None:
                count(args, out, rec)
            return out

        return wrapper

    # -- summaries ---------------------------------------------------------

    def totals(self, name, parent=None, skip_parent=None):
        """[calls, total_s, self_s, count1, count2] summed over parents."""
        out = [0, 0.0, 0.0, 0, 0]
        for (n, p), rec in self.agg.items():
            if n != name or (parent is not None and p != parent) \
                    or (skip_parent is not None and p == skip_parent):
                continue
            out[0] += rec[0]
            out[1] += rec[1]
            out[2] += rec[1] - rec[2]
            out[3] += rec[3]
            out[4] += rec[4]
        return out

    def layer_metrics(self):
        """The per-layer metrics of one traced pass, by name."""
        out = {}
        t = self.totals
        for fname in _KERNEL:
            calls, _, self_s, hits, _ = t(f"kernel.{fname}")
            out[f"kernel.{fname}.calls"] = calls
            if fname != "poly_add" and fname != "poly_diff":
                out[f"kernel.{fname}.self_s"] = self_s
            if fname == "poly_divexact":
                out["kernel.poly_divexact.exact_ratio"] = _ratio(hits, calls)
        for label, name in (("poly_gcd", "gcdtools.poly_gcd"),
                            ("heugcd", "gcdtools.heugcd")):
            calls, _, self_s, _, _ = t(name)
            out[f"gcdtools.{label}.calls"] = calls
            out[f"gcdtools.{label}.self_s"] = self_s
        tried, _, _, exact, _ = t("kernel.poly_divexact",
                                  parent="gcdtools.poly_gcd")
        out["gcdtools.candidate.hit_ratio"] = _ratio(exact, tried)
        for op in ("add", "mul", "diff"):
            calls, _, self_s, _, _ = t(f"scalar.{op}")
            out[f"scalar.{op}.calls"] = calls
            out[f"scalar.{op}.self_s"] = self_s
        out["scalar.frac.calls"] = t("scalar.frac")[0]
        memo_calls = t("scalar.gcd_dens")[0]
        memo_misses = t("gcdtools.poly_gcd", parent="scalar.gcd_dens")[0]
        out["scalar.gcd_memo.hit_ratio"] = \
            1.0 - _ratio(memo_misses, memo_calls)
        calls, _, _, hits, _ = t("color.full_word_mul")
        out["color.full_word_mul.calls"] = calls
        out["color.full_word_mul.hit_ratio"] = _ratio(hits, calls)
        out["color.full_word_act.calls"] = t("color.full_word_act")[0]
        calls, _, self_s, pairs, terms = t("operators.mul")
        out["operators.mul.calls"] = calls
        out["operators.mul.self_s"] = self_s
        out["operators.mul.term_pairs"] = pairs
        out["operators.mul.terms_out"] = terms
        for op in ("add", "apply_to"):
            calls, _, self_s, _, _ = t(f"operators.{op}")
            out[f"operators.{op}.calls"] = calls
            out[f"operators.{op}.self_s"] = self_s
        out["operators.construct.calls"] = t("operators.construct")[0]
        calls, _, self_s, misses, _ = t("models.build")
        out["models.build.calls"] = calls
        out["models.build.misses"] = misses
        out["models.build.self_s"] = self_s
        out["models.cache.hit_ratio"] = 1.0 - _ratio(misses, calls)
        _, total, self_s, _, _ = t("verify.symbolic", skip_parent="verify.oracle")
        out["verify.symbolic.self_s"] = self_s
        out["verify.symbolic.total_s"] = total
        calls, total, self_s, _, _ = t("verify.oracle")
        out["verify.oracle.calls"] = calls
        out["verify.oracle.self_s"] = self_s
        out["verify.oracle.total_s"] = total
        out["cli.main.self_s"] = t("cli.main")[2]
        return out

    def verdicts(self):
        """[(case id, "n,m,N", seconds)] of every verify_case span."""
        return [list(label) + [end - start]
                for name, _, start, end, label in self.spans
                if name == "verify.verify_case"]


def _ratio(num, den):
    return num / den if den else 0.0


def _rebind(old, new):
    """Point every colorcs module name bound to `old` at `new`."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or modname in _SKIP_MODULES:
            continue
        if modname != "colorcs" and not modname.startswith("colorcs."):
            continue
        for attr, val in list(vars(mod).items()):
            if val is old:
                setattr(mod, attr, new)


def _rebind_method(cls, old, new):
    for attr, val in list(vars(cls).items()):
        if val is old:
            setattr(cls, attr, new)


def _count_mul(args, out, rec):
    rec[3] += len(args[0].terms) * len(args[1].terms)
    rec[4] += len(out.terms)


def _case_label(args):
    ws, case = args[0], args[1]
    return (case.id, f"{ws.n},{ws.m},{ws.N}")


def install():
    """Wrap the public functions of every layer; returns the Tracer."""
    from colorcs import _kernel, cli, color, gcdtools, verify
    from colorcs.models import ModelWorkspace
    from colorcs.operators import AlgebraContext, OperatorSum
    from colorcs.scalar import RationalFunction, ScalarField

    tr = Tracer()
    not_none = _not_none
    for fname in _KERNEL:
        fn = getattr(_kernel, fname)
        hit = not_none if fname == "poly_divexact" else None
        _rebind(fn, tr.leaf(f"kernel.{fname}", fn, hit=hit))
    _rebind(color.full_word_mul,
            tr.leaf("color.full_word_mul", color.full_word_mul, hit=not_none))
    _rebind(color.full_word_act,
            tr.leaf("color.full_word_act", color.full_word_act))
    _rebind(gcdtools.poly_gcd, tr.span("gcdtools.poly_gcd", gcdtools.poly_gcd))
    _rebind(gcdtools._heugcd, tr.span("gcdtools.heugcd", gcdtools._heugcd))

    methods = [
        (RationalFunction, "__add__", "scalar.add", None),
        (RationalFunction, "__mul__", "scalar.mul", None),
        (RationalFunction, "diff", "scalar.diff", None),
        (ScalarField, "frac", "scalar.frac", None),
        (ScalarField, "_gcd_dens", "scalar.gcd_dens", None),
        (OperatorSum, "mul", "operators.mul", _count_mul),
        (OperatorSum, "__add__", "operators.add", None),
        (OperatorSum, "apply_to", "operators.apply_to", None),
        (AlgebraContext, "from_units", "operators.construct", None),
        (AlgebraContext, "scalar", "operators.construct", None),
        (AlgebraContext, "deriv", "operators.construct", None),
    ]
    for attr, val in vars(ModelWorkspace).items():
        if callable(val) and not attr.startswith("_") \
                and attr not in _NOT_BUILDERS:
            methods.append((ModelWorkspace, attr, "models.build", None))
    for cls, attr, name, count in methods:
        fn = vars(cls)[attr]
        _rebind_method(cls, fn, tr.span(name, fn, count=count))

    for fn in (verify._exact_residual, verify._leading_residual):
        _rebind(fn, tr.span("verify.symbolic", fn))
    _rebind(verify._oracle_instance,
            tr.span("verify.oracle", verify._oracle_instance))
    _rebind(verify.verify_case,
            tr.span("verify.verify_case", verify.verify_case, keep=_case_label))
    _rebind(cli.main, tr.span("cli.main", cli.main))
    return tr


def _not_none(out):
    return out is not None

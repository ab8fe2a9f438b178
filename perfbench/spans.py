"""Spans around qpmaps' public functions, recorded from outside the package.

The tracer replaces each traced function in every loaded ``qpmaps`` module
that holds it, so a call through the name another module imported is traced
too (``qpmaps.symplectic.rank`` for ``linalg.rank``, ``qpmaps.solve.solver_qmt``,
``qpmaps.core.step`` as called by ``iterate``). Spans are kept in memory and
reduced to per-layer metrics when the run ends; a layer's self time is its
span minus the spans of the traced calls it made.
"""

import functools
import statistics
import sys
import time
from collections import defaultdict

#: Span name -> (module, attribute) of the function it wraps.
SPANS = {
    "documents.parse": (("qpmaps.documents", "map_from_document"),
                        ("qpmaps.documents", "qmt_from_document")),
    "symplectic.check_conditions": (("qpmaps.symplectic", "check_conditions"),),
    "symplectic.check_pattern": (("qpmaps.symplectic", "check_pattern"),),
    "symplectic.rank_bounds": (("qpmaps.symplectic", "rank_bounds"),),
    "symplectic.residual": (("qpmaps.symplectic", "symplectic_residual"),),
    "linalg.rank": (("qpmaps.linalg", "rank"),),
    "linalg.inverse": (("qpmaps.linalg", "inverse"),),
    "linalg.mat_mul": (("qpmaps.linalg", "mat_mul"),),
    "transform.new_qmt": (("qpmaps.transform", "new_qmt"),),
    "transform.solver_qmt": (("qpmaps.transform", "solver_qmt"),),
    "transform.apply_qmt": (("qpmaps.transform", "apply_qmt"),),
    "transform.class_invariant": (("qpmaps.transform", "class_invariant"),),
    "solve.solve_closed_form": (("qpmaps.solve", "solve_closed_form"),),
    "solve.eval_solution": (("qpmaps.solve", "eval_solution"),),
    "solve.verify_solution": (("qpmaps.solve", "verify_solution"),),
    "core.step": (("qpmaps.core", "step"),),
    "core.jacobian": (("qpmaps.core", "jacobian"),),
}
#: Functions that are only counted: they run too often and too briefly for a span.
COUNTED = {"core.as_state": ("qpmaps.core", "as_state")}

#: Top-level spans of an orbits op that are float kernels rather than the solve.
KERNEL_SPANS = ("solve.eval_solution", "solve.verify_solution", "symplectic.residual")

CLI_SUBCOMMANDS = ("check", "solve", "iterate", "transform", "canonical", "verify")

#: Per-layer metrics: name -> (unit, better, what it should move). "/call" values
#: are means over the calls in traced rounds; "/op" values are per workload op.
PER_LAYER = {
    "documents.parse_ms": ("ms/call", "lower",
                           "cli latency_p50_ms; a small share of every workload"),
    "documents.calls": ("count/op", "lower", "cli latency_p50_ms"),
    "symplectic.check_conditions_ms": ("ms/call", "lower",
                                       "classify throughput_ops_s and latency_p90_ms"),
    "symplectic.check_pattern_ms": ("ms/call", "lower",
                                    "classify throughput_ops_s and latency_p90_ms"),
    "symplectic.rank_bounds_ms": ("ms/call", "lower",
                                  "classify throughput_ops_s and latency_p90_ms (self time)"),
    "symplectic.residual_ms": ("ms/call", "lower", "orbits latency_p50_ms (self time)"),
    "symplectic.witnesses_built": ("count/op", "lower",
                                   "classify throughput_ops_s and peak_rss_mb; not orbits"),
    "symplectic.witnesses_shown": ("count/op", "lower",
                                   "classify throughput_ops_s and peak_rss_mb; not orbits"),
    "symplectic.witness_useful_ratio": ("ratio", "higher",
                                        "classify throughput_ops_s and peak_rss_mb; not orbits"),
    "linalg.rank_ms": ("ms/call", "lower", "classify; not transform or orbits"),
    "linalg.rank_calls": ("count/op", "lower", "classify; not transform or orbits"),
    "linalg.inverse_ms": ("ms/call", "lower", "transform; not classify"),
    "linalg.max_denominator_digits": ("digits", "lower", "transform; not classify"),
    "linalg.mat_mul_ms": ("ms/call", "lower", "classify, transform and orbits latency_p90_ms"),
    "linalg.mat_mul_calls": ("count/op", "lower", "classify, transform and orbits latency_p90_ms"),
    "transform.new_qmt_ms": ("ms/call", "lower", "transform throughput_ops_s (self time)"),
    "transform.qmt_verify_ms": ("ms/call", "lower",
                                "transform throughput_ops_s; orbits latency_p90_ms via solver_qmt"),
    "transform.apply_qmt_ms": ("ms/call", "lower", "transform throughput_ops_s"),
    "transform.class_invariant_ms": ("ms/call", "lower", "transform throughput_ops_s; classify"),
    "solve.solve_closed_form_ms": ("ms/call", "lower",
                                   "orbits latency_p90_ms and throughput_ops_s (self time);"
                                   " not orbits p50, classify or transform"),
    "solve.solver_qmt_ms": ("ms/call", "lower", "orbits latency_p90_ms and throughput_ops_s"),
    "solve.eval_solution_us": ("us/call", "lower", "orbits latency_p50_ms"),
    "solve.eval_solution_calls": ("count/op", "lower", "orbits latency_p50_ms"),
    "solve.verify_solution_ms": ("ms/call", "lower", "orbits latency_p50_ms (self time)"),
    "core.step_us": ("us/call", "lower", "orbits latency_p50_ms; not classify or transform"),
    "core.step_calls": ("count/op", "lower", "orbits latency_p50_ms; not classify or transform"),
    "core.jacobian_us": ("us/call", "lower", "orbits latency_p50_ms; not classify or transform"),
    "core.jacobian_calls": ("count/op", "lower",
                            "orbits latency_p50_ms; not classify or transform"),
    "core.as_state_calls": ("count/op", "lower",
                            "orbits latency_p50_ms; not classify or transform"),
    "core.step_flops_computed": ("flop/call", "lower",
                                 "computed from n and m: 4mn + 5n + m, exp and log counted as one"),
    "core.step_bytes_computed": ("B/call", "lower",
        "computed from n and m: float64 A, B, lam, x and output once each"),
    "orbits.small_n.solve_ms": ("ms/op", "lower", "orbits latency_p50_ms (n <= 8 ops)"),
    "orbits.small_n.kernel_ms": ("ms/op", "lower", "orbits latency_p50_ms (n <= 8 ops)"),
    "orbits.large_n.solve_ms": ("ms/op", "lower", "orbits latency_p90_ms (n >= 16 ops)"),
    "orbits.large_n.kernel_ms": ("ms/op", "lower", "orbits latency_p90_ms (n >= 16 ops)"),
    "cli.interpreter_ms": ("ms", "lower", "cli latency_p50_ms; setup_s on the library workloads"),
    "cli.numpy_import_ms": ("ms", "lower", "cli latency_p50_ms; setup_s on the library workloads"),
    "cli.import_ms": ("ms", "lower", "cli latency_p50_ms; setup_s on the library workloads"),
    **{f"cli.{sub}_ms": ("ms/call", "lower", "cli latency_p50_ms") for sub in CLI_SUBCOMMANDS},
    "trace.overhead_frac": ("ratio", "lower", "none: 1 - traced/untraced throughput of this run"),
}

WITNESS_LINES_SHOWN = 5  # per condition, as `qpmap check` prints them


class Tracer:
    """Records spans around the functions named in SPANS while installed."""

    def __init__(self):
        self.spans = []  # (op index, name, parent name, duration s, self s)
        self.counts = defaultdict(int)
        self.witnesses_built = 0
        self.witnesses_shown = 0
        self.max_denominator_digits = 0
        self.step_shapes = []  # (n, m) per step call
        self._op = None
        self._stack = []
        self._pending = []
        self._patches = []

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "qpmaps" or name.startswith("qpmaps.")]
        replace = {}
        for name, sites in SPANS.items():
            for module, attr in sites:
                original = getattr(sys.modules[module], attr)
                replace[id(original)] = self._span(name, original)
        for name, (module, attr) in COUNTED.items():
            original = getattr(sys.modules[module], attr)
            replace[id(original)] = self._counter(name, original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = replace.get(id(value))
                if wrapper is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def begin_op(self, index):
        self._op = index

    def end_op(self):
        """Processes results kept by spans; runs outside the op's timed region."""
        for name, args, result in self._pending:
            if name == "symplectic.check_conditions":
                for _, cond in result.conditions():
                    self.witnesses_built += len(cond.witnesses)
                    self.witnesses_shown += min(len(cond.witnesses), WITNESS_LINES_SHOWN)
            elif name == "linalg.inverse":
                digits = max(len(str(e.denominator)) for row in result for e in row)
                self.max_denominator_digits = max(self.max_denominator_digits, digits)
            elif name == "core.step":
                qp = args[0]
                self.step_shapes.append((qp.n, qp.m))
        self._pending.clear()

    def _span(self, name, fn):
        stack, spans, pending, clock = self._stack, self.spans, self._pending, time.perf_counter
        keep = name in ("symplectic.check_conditions", "linalg.inverse", "core.step")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            parent = stack[-1][1] if stack else None
            stack.append((frame, name))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0][0] += duration
                spans.append((self._op, name, parent, duration, duration - frame[0]))
            if keep:
                pending.append((name, args, result))
            return result

        return traced

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted


def layer_metrics(tracer, traced, groups, cli_probe, cli_times, overhead):
    """Per-layer metrics of one traced run, every name in PER_LAYER.

    ``traced`` holds the indices of the ops run while traced and ``groups``
    the group of every op ("small_n" or "large_n" on orbits). Layers a
    workload does not reach read 0.
    """
    per_op = max(len(traced), 1)
    by_name = defaultdict(list)
    for span in tracer.spans:
        by_name[span[1]].append(span)

    def mean(values):
        return sum(values) / len(values) if values else 0.0

    def self_ms(name):
        return 1e3 * mean([s[4] for s in by_name[name]])

    def total_ms(name):
        return 1e3 * mean([s[3] for s in by_name[name]])

    def calls(name):
        return len(by_name[name]) / per_op

    verify_spans = [s for s in by_name["linalg.mat_mul"]
                    if s[2] in ("transform.new_qmt", "transform.solver_qmt")]
    flops = [4 * m * n + 5 * n + m for n, m in tracer.step_shapes]
    nbytes = [8 * (2 * m * n + 3 * n) for n, m in tracer.step_shapes]
    built, shown = tracer.witnesses_built, tracer.witnesses_shown
    out = {
        "documents.parse_ms": self_ms("documents.parse"),
        "documents.calls": calls("documents.parse"),
        "symplectic.check_conditions_ms": total_ms("symplectic.check_conditions"),
        "symplectic.check_pattern_ms": total_ms("symplectic.check_pattern"),
        "symplectic.rank_bounds_ms": self_ms("symplectic.rank_bounds"),
        "symplectic.residual_ms": self_ms("symplectic.residual"),
        "symplectic.witnesses_built": built / per_op,
        "symplectic.witnesses_shown": shown / per_op,
        "symplectic.witness_useful_ratio": shown / built if built else 1.0,
        "linalg.rank_ms": total_ms("linalg.rank"),
        "linalg.rank_calls": calls("linalg.rank"),
        "linalg.inverse_ms": total_ms("linalg.inverse"),
        "linalg.max_denominator_digits": tracer.max_denominator_digits,
        "linalg.mat_mul_ms": total_ms("linalg.mat_mul"),
        "linalg.mat_mul_calls": calls("linalg.mat_mul"),
        "transform.new_qmt_ms": self_ms("transform.new_qmt"),
        "transform.qmt_verify_ms": 1e3 * mean([s[3] for s in verify_spans]),
        "transform.apply_qmt_ms": total_ms("transform.apply_qmt"),
        "transform.class_invariant_ms": total_ms("transform.class_invariant"),
        "solve.solve_closed_form_ms": self_ms("solve.solve_closed_form"),
        "solve.solver_qmt_ms": total_ms("transform.solver_qmt"),
        "solve.eval_solution_us": 1e3 * total_ms("solve.eval_solution"),
        "solve.eval_solution_calls": calls("solve.eval_solution"),
        "solve.verify_solution_ms": self_ms("solve.verify_solution"),
        "core.step_us": 1e3 * total_ms("core.step"),
        "core.step_calls": calls("core.step"),
        "core.jacobian_us": 1e3 * total_ms("core.jacobian"),
        "core.jacobian_calls": calls("core.jacobian"),
        "core.as_state_calls": tracer.counts["core.as_state"] / per_op,
        "core.step_flops_computed": mean(flops),
        "core.step_bytes_computed": mean(nbytes),
    }
    for group in ("small_n", "large_n"):
        ops = [i for i in traced if groups[i] == group]
        solve_s = defaultdict(float)
        kernel_s = defaultdict(float)
        for op, name, parent, duration, _ in tracer.spans:
            if parent is None and groups[op] == group:
                if name == "solve.solve_closed_form":
                    solve_s[op] += duration
                elif name in KERNEL_SPANS:
                    kernel_s[op] += duration
        out[f"orbits.{group}.solve_ms"] = 1e3 * mean([solve_s[i] for i in ops])
        out[f"orbits.{group}.kernel_ms"] = 1e3 * mean([kernel_s[i] for i in ops])
    out.update(cli_probe)
    for sub in CLI_SUBCOMMANDS:
        times = cli_times.get(sub)
        out[f"cli.{sub}_ms"] = 1e3 * statistics.median(times) if times else 0.0
    out["trace.overhead_frac"] = overhead
    return out

"""Command-line interface.

Subcommands: check | solve | iterate | transform | canonical | verify.
Exit codes: 0 = affirmative/success, 1 = definite negative (not symplectic,
verification failed), 2 = input error, 3 = internal invariant breach.

Machine-readable data (CSV, JSON documents) goes to --out when given,
otherwise to standard output; in the latter case the human summary moves to
standard error so stdout stays parseable. Errors always go to stderr.

check, transform and canonical are exact and run without numpy; solve,
iterate and verify import the float layer (and numpy) when they start, and
exit 2 with one line on stderr when numpy is not installed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import TYPE_CHECKING

from .documents import (
    load_map,
    load_qmt,
    map_to_document,
    parse_rational,
    trajectory_csv_lines,
)
from .errors import (
    DegenerateResult,
    DocumentError,
    NotSymplectic,
    NumericOverflow,
    QPError,
)
from .linalg import augment_column, diagonal, format_rational, is_zero
from .maps import strictness_violations
from .symplectic import (
    WITNESS_LIMIT,
    check_conditions,
    check_pattern,
    jacobian_residual,
    rank_bounds,
)
from .transform import apply_qmt, class_invariant, lv_canonical, new_qmt, solver_qmt

if TYPE_CHECKING:
    import numpy as np

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3

_CONDITION_NAMES = {
    "a": "A pair sums",
    "b": "lambda pair sums",
    "c": "cross-pair products",
    "d": "exponent pair equality",
}


def _err(message: str) -> None:
    print(message, file=sys.stderr)


class _Output:
    """Routes data to --out or stdout, and the summary to the free stream."""

    def __init__(self, out_path):
        self.out_path = out_path

    def info(self, message: str) -> None:
        print(message, file=sys.stderr if self.out_path is None else sys.stdout)

    def write_data(self, blocks) -> None:
        """Write an iterable of text pieces, each as soon as it is produced."""
        if self.out_path is None:
            sys.stdout.writelines(blocks)
        else:
            with open(self.out_path, "w", encoding="utf-8", newline="\n") as fh:
                fh.writelines(blocks)


def _parse_x0(text: str, n: int) -> np.ndarray:
    """The --x0 state, checked before any verdict so a bad state is an input error."""
    from .core import as_state

    parts = [p.strip() for p in text.split(",")]
    if len(parts) != n:
        raise DocumentError(f"--x0 must have {n} comma-separated components, got {len(parts)}")
    values = []
    for i, p in enumerate(parts):
        try:
            values.append(float(parse_rational(p, f"--x0[{i}]")))
        except OverflowError:
            raise DocumentError(f"--x0[{i}]: {p!r} is outside the double range") from None
    return as_state(values, n)


def _matrix_text(m) -> str:
    return "[" + ", ".join("[" + ", ".join(format_rational(v) for v in row) + "]" for row in m) + "]"


def _print_conditions(report, printer) -> None:
    for label, cond in report.conditions():
        name = _CONDITION_NAMES[label]
        if not cond.applicable:
            printer(f"  condition ({label}) {name}: n/a")
        elif cond.holds:
            printer(f"  condition ({label}) {name}: ok")
        else:
            printer(f"  condition ({label}) {name}: VIOLATED")
            for w in cond.witnesses:
                printer(f"    ({w.location()}): {w.detail} != 0")
            extra = cond.count - WITNESS_LIMIT
            if extra > 0:
                printer(f"    ... and {extra} more")


def cmd_check(args) -> int:
    qp = load_map(args.map_file)
    zero_cols, zero_rows = strictness_violations(qp)
    relaxed = bool(zero_cols or zero_rows)
    report = check_conditions(qp)

    pattern_note = None
    if qp.n % 2 == 0 and not relaxed:
        pattern_report = check_pattern(qp)
        if pattern_report.is_symplectic != report.is_symplectic:
            _err("internal error: the two classifier implementations disagree "
                 f"(conditions={report.is_symplectic}, pattern={pattern_report.is_symplectic})")
            return EXIT_INTERNAL
        pattern_note = "agrees"
    elif relaxed:
        pattern_note = "skipped (relaxed map)"

    if report.is_symplectic:
        print(f"SYMPLECTIC (n={qp.n}, s={report.s})")
    else:
        print(f"NOT SYMPLECTIC (n={qp.n})")
        if report.reason:
            print(f"  reason: {report.reason}")
    _print_conditions(report, print)
    if pattern_note:
        print(f"  pattern classifier: {pattern_note}")
    if report.is_symplectic and report.pairing is not None:
        text = " ".join(
            f"p{p + 1}->i={ip}" if ip is not None else f"p{p + 1}->(inert)"
            for p, ip in enumerate(report.pairing)
        )
        print(f"  pairing: {text}")

    ranks = rank_bounds(qp)
    if ranks.bound_satisfied is None:
        bound_text = "n/a (odd n)"
    else:
        bound_text = "satisfied" if ranks.bound_satisfied else "violated"
    print(f"  ranks: rank_A={ranks.rank_A} rank_B={ranks.rank_B} rank_M={ranks.rank_M}"
          f"; bound rank_B<=s and rank_M<=s: {bound_text}")

    bm = class_invariant(qp)
    if is_zero(bm):
        print(f"  class invariant B.M: 0 (null {qp.m}x{qp.m + 1} matrix)")
    else:
        print(f"  class invariant B.M: {_matrix_text(bm)} (nonzero)")
    return EXIT_OK if report.is_symplectic else EXIT_NEGATIVE


def _failing_conditions_text(report) -> str:
    if report.reason:
        return report.reason
    parts = [
        f"({label}) {cond.witnesses[0].detail} != 0"
        for label, cond in report.conditions()
        if not cond.holds and cond.witnesses
    ]
    return "; ".join(parts) if parts else "unknown"


def cmd_solve(args) -> int:
    from .solve import classify_asymptotics, eval_solution, solve_closed_form, verify_solution

    qp = load_map(args.map_file)
    x0 = _parse_x0(args.x0, qp.n)
    t_min, t_max = args.t_min, args.t_max
    for option, t in (("--t-min", t_min), ("--t-max", t_max)):
        try:
            float(t)
        except OverflowError:
            raise DocumentError(f"{option}: {t} is outside the double range") from None
    if t_min > t_max:
        _err(f"--t-min ({t_min}) must not exceed --t-max ({t_max})")
        return EXIT_INPUT

    try:
        sol = solve_closed_form(qp, x0)
    except NotSymplectic as exc:
        _err(f"not symplectic: {_failing_conditions_text(exc.report)}")
        return EXIT_NEGATIVE

    out = _Output(args.out)
    out.info("log multipliers log_k: ["
             + ", ".join(f"{v:.17g}" for v in sol.log_k) + "]")
    out.info("conserved products I_i = x_i*x_{s+i}: ["
             + ", ".join(f"{v:.17g}" for v in sol.invariants_I) + "]")
    for pa in classify_asymptotics(sol):
        line = f"pair {pa.i}: {pa.kind}"
        if pa.kind == "split":
            line += " (one variable tends to zero, its partner diverges)"
        if pa.note:
            line += f" [{pa.note}]"
        out.info(line)

    steps = min(t_max, 30)
    if steps >= 1:
        try:
            resid = verify_solution(qp, sol, steps)
            out.info(f"verification against {steps} iterated steps:"
                     f" max log-space deviation {resid:.3e}")
        except NumericOverflow as exc:
            out.info(f"verification skipped: {exc}")
    else:
        out.info("verification skipped: no forward steps requested")

    # exp(t * log k_i) leaves the double range once |t log k_i| > 746, so only
    # |t| <= 746 / max|log k_i| can be written; every t when all log k_i are 0.
    max_rate = max(abs(v) for v in sol.log_k.tolist())
    limit = 746 / max_rate if max_rate else math.inf
    lo, hi = t_min, t_max
    if limit < max(-t_min, t_max):
        lo, hi = max(t_min, -math.floor(limit)), min(t_max, math.floor(limit))
    written = []  # the first and the last written t; every t between them is written

    def rows():
        for t in range(lo, hi + 1):
            try:
                state = eval_solution(sol, t).tolist()
            except NumericOverflow:
                if written:  # each coordinate is monotone in t: no later t is representable
                    break
                continue
            written[1:] = [t]  # [t] for the first row, then [first, t]
            yield t, state

    out.write_data(trajectory_csv_lines(qp.n, rows()))
    gaps = ((t_min, written[0] - 1), (written[-1] + 1, t_max)) if written else ((t_min, t_max),)
    skipped = ", ".join(f"{a}..{b}" if a < b else f"{a}" for a, b in gaps if a <= b)
    if skipped:
        _err(f"warning: overflow at t in {skipped}; those rows were omitted")
    return EXIT_OK


def cmd_iterate(args) -> int:
    from .core import iterate

    qp = load_map(args.map_file)
    x0 = _parse_x0(args.x0, qp.n)
    if args.steps < 0:
        _err("--steps must be nonnegative")
        return EXIT_INPUT
    out = _Output(args.out)
    try:
        traj = iterate(qp, x0, args.steps)
    except NumericOverflow as exc:
        if exc.partial is None:  # a map entry outside the double range
            raise
        traj = exc.partial
        _err(f"warning: overflow at t={exc.time_index}; truncating"
             f" (last valid t={len(traj) - 1})")
    # row by row: one tolist() of the whole trajectory would hold every value
    # as a Python float at once
    out.write_data(trajectory_csv_lines(qp.n, ((t, row.tolist()) for t, row in enumerate(traj))))
    return EXIT_OK


def cmd_transform(args) -> int:
    qp = load_map(args.map_file)
    if args.scale is not None:
        mu = parse_rational(args.scale, "--scale")
        if mu == 0:
            _err("--scale must be nonzero")
            return EXIT_INPUT
        qmt = new_qmt(diagonal([mu] * qp.n))
    elif args.solver_c:
        if qp.n % 2:
            _err(f"--solver-c requires an even dimension, map has n={qp.n}")
            return EXIT_INPUT
        qmt = solver_qmt(qp.n // 2)
    else:
        qmt = load_qmt(args.qmt)

    before = check_conditions(qp).is_symplectic
    degenerate = False
    try:
        result = apply_qmt(qp, qmt)
    except DegenerateResult as exc:
        result = exc.result
        degenerate = True
        _err(f"warning: {exc}")

    doc = map_to_document(result)
    out = _Output(args.out)
    if degenerate:
        after_text = "n/a (degenerate result, written with relaxed flag)"
    else:
        after = check_conditions(result).is_symplectic
        after_text = "yes" if after else "no"
    out.info(f"symplectic before: {'yes' if before else 'no'}; after: {after_text}")
    out.write_data([json.dumps(doc, indent=2) + "\n"])
    return EXIT_OK


def cmd_canonical(args) -> int:
    qp = load_map(args.map_file)
    degenerate = None
    try:
        lv = lv_canonical(qp)
    except DegenerateResult as exc:
        lv, degenerate = exc.result, exc
    bm = augment_column(lv.lam, lv.A)  # B.M: (lam | A) of the canonical map
    if degenerate:
        if is_zero(bm):
            print(f"class invariant B.M: 0 (null {qp.m}x{qp.m + 1} matrix)")
            print("canonical representative is trivial (identity map); no document written")
            return EXIT_OK
        print(f"class invariant B.M: {_matrix_text(bm)}")
        print(f"canonical representative is degenerate: {degenerate}")
        print(f"raw canonical matrix (lam_c | A_c): {_matrix_text(bm)}")
        return EXIT_OK
    doc = map_to_document(lv)
    out = _Output(args.out)
    out.info(f"class invariant B.M: {_matrix_text(bm)}")
    out.info(f"canonical Lotka-Volterra representative has {lv.n} variables")
    out.write_data([json.dumps(doc, indent=2) + "\n"])
    return EXIT_OK


def cmd_verify(args) -> int:
    import numpy as np

    from .core import jacobian
    from .sampling import random_state

    qp = load_map(args.map_file)
    if qp.n % 2:
        _err(f"verify requires an even dimension, map has n={qp.n}")
        return EXIT_INPUT
    if args.samples < 0:
        _err("--samples must be nonnegative")
        return EXIT_INPUT
    if not args.tol >= 0.0:
        _err(f"--tol must be a nonnegative number, got {args.tol!r}")
        return EXIT_INPUT
    if args.seed < 0:
        _err("--seed must be nonnegative")
        return EXIT_INPUT
    if args.samples == 0:
        _err("warning: no samples requested; the pass is vacuous")
        print("PASS (vacuous: 0 samples)")
        return EXIT_OK

    rng = np.random.default_rng(args.seed)
    # Chunks bound memory for any --samples: no Jacobian array exceeds 2**16 floats.
    chunk = max(1, 2**16 // (qp.n * max(qp.n, qp.m)))
    max_resid = max_det = 0.0
    for start in range(0, args.samples, chunk):
        jac = jacobian(qp, random_state(rng, (min(chunk, args.samples - start), qp.n)))
        resid = jacobian_residual(jac)
        # LU of a Jacobian with inf entries divides by zero: the NaN is caught below
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            det = float(np.abs(np.linalg.det(jac) - 1.0).max())
        # max() would drop a NaN and report a pass, so a non-finite chunk stops here
        if not (np.isfinite(resid) and np.isfinite(det)):
            raise NumericOverflow(f"samples {start + 1}-{start + len(jac)}: a Jacobian, its"
                                  " residual or its determinant leaves the double range;"
                                  " no numeric check is possible")
        max_resid = max(max_resid, resid)
        max_det = max(max_det, det)
    print(f"sampled {args.samples} states log-uniformly in [0.5, 2]^{qp.n} (seed {args.seed})")
    print(f"max symplecticity residual |K^T.S.K - S|: {max_resid:.3e}")
    print(f"max |det(K) - 1|: {max_det:.3e}")
    ok = max_resid <= args.tol and max_det <= args.tol
    print(f"{'PASS' if ok else 'FAIL'} (tolerance {args.tol:g})")
    return EXIT_OK if ok else EXIT_NEGATIVE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpmap",
        description="Classify, transform, iterate and solve quasipolynomial maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="classify a map (exit 0 symplectic, 1 not)")
    p.add_argument("map_file")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("solve", help="closed-form solution of a symplectic map")
    p.add_argument("map_file")
    p.add_argument("--x0", required=True, help="initial state, comma separated (e.g. 1,1)")
    p.add_argument("--t-max", type=int, required=True, dest="t_max")
    p.add_argument("--t-min", type=int, default=0, dest="t_min")
    p.add_argument("--out", default=None, help="CSV output path (default: stdout)")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("iterate", help="raw forward iteration of any map")
    p.add_argument("map_file")
    p.add_argument("--x0", required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_iterate)

    p = sub.add_parser("transform", help="apply a quasimonomial change of variables")
    p.add_argument("map_file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--qmt", help="QMT document file")
    group.add_argument("--scale", help="use C = mu*I with this rational mu")
    group.add_argument("--solver-c", action="store_true", dest="solver_c",
                       help="use the solver's fixed block transformation")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("canonical", help="canonical Lotka-Volterra representative")
    p.add_argument("map_file")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_canonical)

    p = sub.add_parser("verify", help="numeric symplecticity check on random states")
    p.add_argument("map_file")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (QPError, OSError) as exc:
        _err(str(exc))
        return EXIT_INPUT
    except ModuleNotFoundError as exc:
        if exc.name != "numpy":
            raise
        _err(f"qpmap {args.command} needs numpy, which is not installed")
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())

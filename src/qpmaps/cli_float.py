"""The float subcommands of the command line: solve, iterate and verify.

:func:`qpmaps.cli.main` imports this module only when one of them runs, so
check, transform and canonical never compile it. Each command imports the
float layer (and numpy) when it starts.
"""

from .cli import EXIT_INPUT, EXIT_NEGATIVE, EXIT_OK, _err, _Output, _print_lines
from .documents import load_map, parse_rational, trajectory_csv_lines
from .errors import DocumentError, NotSymplectic, NumericOverflow
from .symplectic import sampled_residuals


def _parse_x0(text: str, n: int) -> list[float]:
    """The --x0 state, checked before any verdict so a bad state is an input error."""
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != n:
        raise DocumentError(f"--x0 must have {n} comma-separated components, got {len(parts)}")
    values = []
    for i, p in enumerate(parts):
        try:
            values.append(float(parse_rational(p, f"--x0[{i}]")))
        except OverflowError:
            raise DocumentError(f"--x0[{i}]: {p!r} is outside the double range") from None
        if not values[-1] > 0.0:  # <= 0, or too small to be a nonzero double
            raise DocumentError(f"--x0[{i}]: {p!r} is not a positive double")
    return values


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
    from .solve import (classify_asymptotics, eval_solution, representable_times,
                        solve_closed_form, verify_solution)

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

    times = representable_times(sol, t_min, t_max)
    rows = ((t, eval_solution(sol, t).tolist()) for t in times)
    if not out.write_data(trajectory_csv_lines(qp.n, rows)):
        return EXIT_OK  # the reader closed stdout and takes no more: end quietly
    gaps = ((t_min, times.start - 1), (times.stop, t_max)) if times else ((t_min, t_max),)
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


def cmd_verify(args) -> int:
    from .sampling import STATE_BOX

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
        _print_lines(["PASS (vacuous: 0 samples)"])
        return EXIT_OK

    max_resid, max_det = sampled_residuals(qp, args.samples, args.seed)
    box = "[%g, %g]" % STATE_BOX
    ok = max_resid <= args.tol and max_det <= args.tol
    _print_lines([f"sampled {args.samples} states log-uniformly in {box}^{qp.n} (seed {args.seed})",
                  f"max symplecticity residual |K^T.S.K - S|: {max_resid:.3e}",
                  f"max |det(K) - 1|: {max_det:.3e}",
                  f"{'PASS' if ok else 'FAIL'} (tolerance {args.tol:g})"])
    return EXIT_OK if ok else EXIT_NEGATIVE

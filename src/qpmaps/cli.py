"""Command-line interface.

Subcommands: check | solve | iterate | transform | canonical | verify.
Exit codes: 0 = affirmative/success, 1 = definite negative (not symplectic,
verification failed), 2 = input error, 3 = internal invariant breach.

Machine-readable data (CSV, JSON documents) goes to --out when given,
otherwise to standard output; in the latter case the human summary moves to
standard error so stdout stays parseable. Errors always go to stderr.

check, transform and canonical are exact and run without numpy; solve,
iterate and verify live in :mod:`qpmaps.cli_float`, import the float layer
(and numpy) when they start, and exit 2 with one line on stderr when numpy
is not installed.

:func:`main` is the in-process API; :func:`run` is the process entry point
of ``qpmap`` and ``python -m qpmaps``.
"""

import argparse
import gc
import json
import os
import re
import sys

from .documents import load_map, load_qmt, map_to_document, parse_rational
from .errors import DegenerateResult, QPError
from .linalg import augment_column, diagonal, format_rational, is_zero
from .maps import strictness_violations
from .symplectic import (RESIDUAL_TOLERANCE, WITNESS_LIMIT, check_conditions, check_pattern,
                         rank_bounds)
from .transform import apply_qmt, class_invariant, lv_canonical, new_qmt, solver_qmt

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


def _write_stdout(blocks) -> bool:
    """Write an iterable of text pieces to stdout; False when its reader closed it
    (``| head``): stdout is then os.devnull, so no later write or flush fails."""
    try:
        sys.stdout.writelines(blocks)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return False
    return True


def _print_lines(lines) -> None:
    _write_stdout(f"{line}\n" for line in lines)


class _Output:
    """Routes data to --out or stdout, and the summary to the free stream."""

    def __init__(self, out_path):
        self.out_path = out_path

    def info(self, message: str) -> None:
        if self.out_path is None:
            _err(message)
        else:
            _print_lines([message])

    def write_data(self, blocks) -> bool:
        """Write an iterable of text pieces, each as soon as it is produced; False
        when the reader of stdout closed it."""
        if self.out_path is not None:
            with open(self.out_path, "w", encoding="utf-8", newline="\n") as fh:
                fh.writelines(blocks)
            return True
        return _write_stdout(blocks)


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

    lines = []
    say = lines.append
    if report.is_symplectic:
        say(f"SYMPLECTIC (n={qp.n}, s={report.s})")
    else:
        say(f"NOT SYMPLECTIC (n={qp.n})")
        if report.reason:
            say(f"  reason: {report.reason}")
    _print_conditions(report, say)
    if pattern_note:
        say(f"  pattern classifier: {pattern_note}")
    if report.is_symplectic and report.pairing is not None:
        text = " ".join(
            f"p{p + 1}->i={ip}" if ip is not None
            else f"p{p + 1}->{'(inert)' if p in zero_cols else '(constant)'}"
            for p, ip in enumerate(report.pairing)
        )
        say(f"  pairing: {text}")

    ranks = rank_bounds(qp)
    if ranks.bound_satisfied is None:
        bound_text = "n/a (odd n)"
    else:
        bound_text = "satisfied" if ranks.bound_satisfied else "violated"
    say(f"  ranks: rank_A={ranks.rank_A} rank_B={ranks.rank_B} rank_M={ranks.rank_M}"
        f"; bound rank_B<=s and rank_M<=s: {bound_text}")

    bm = class_invariant(qp)
    if is_zero(bm):
        say(f"  class invariant B.M: 0 (null {qp.m}x{qp.m + 1} matrix)")
    else:
        say(f"  class invariant B.M: {_matrix_text(bm)} (nonzero)")
    _print_lines(lines)
    return EXIT_OK if report.is_symplectic else EXIT_NEGATIVE


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
            _print_lines([f"class invariant B.M: 0 (null {qp.m}x{qp.m + 1} matrix)",
                          "canonical representative is trivial (identity map);"
                          " no document written"])
            return EXIT_OK
        _print_lines([f"class invariant B.M: {_matrix_text(bm)}",
                      f"canonical representative is degenerate: {degenerate}",
                      f"raw canonical matrix (lam_c | A_c): {_matrix_text(bm)}"])
        return EXIT_OK
    doc = map_to_document(lv)
    out = _Output(args.out)
    out.info(f"class invariant B.M: {_matrix_text(bm)}")
    out.info(f"canonical Lotka-Volterra representative has {lv.n} variables")
    out.write_data([json.dumps(doc, indent=2) + "\n"])
    return EXIT_OK


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
    p.set_defaults(func=None)  # cli_float.cmd_solve

    p = sub.add_parser("iterate", help="raw forward iteration of any map")
    p.add_argument("map_file")
    p.add_argument("--x0", required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=None)  # cli_float.cmd_iterate

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
    p.add_argument("--tol", type=float, default=RESIDUAL_TOLERANCE)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=None)  # cli_float.cmd_verify
    return parser


#: A value that starts like a negative number ("-1/3", "-.5", "-1e-3"). argparse
#: takes such a token for an option unless it reads as "-5" or "-0.5"; no qpmap
#: option starts this way.
_NEGATIVE_VALUE = re.compile(r"-[0-9.]")


def _join_negative_values(argv: list[str]) -> list[str]:
    """Rejoin "--opt -1/3" as "--opt=-1/3", up to a "--" that ends the options."""
    out: list[str] = []
    for i, token in enumerate(argv):
        if token == "--":
            return out + argv[i:]
        option = out[-1] if out else ""
        if option.startswith("--") and "=" not in option and _NEGATIVE_VALUE.match(token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    """Run one qpmap command line (``sys.argv[1:]`` by default) and return its
    exit code; argparse raises SystemExit(2) on a usage error."""
    args = build_parser().parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        if args.func is None:  # solve, iterate and verify: compiled only when one runs
            from . import cli_float
            args.func = getattr(cli_float, f"cmd_{args.command}")
        return args.func(args)
    except (QPError, OSError) as exc:
        _err(str(exc))
        return EXIT_INPUT
    except ModuleNotFoundError as exc:
        if exc.name != "numpy":
            raise
        _err(f"qpmap {args.command} needs numpy, which is not installed")
        return EXIT_INPUT


def run():
    """The process entry point: exit with the code of :func:`main`.

    The objects the command built die with the process, so they are frozen
    first (``gc.freeze``): the interpreter's shutdown collections then skip
    them rather than walk them all. atexit handlers still run and the
    standard streams are still flushed; --out files are closed before main
    returns.
    """
    try:
        code = main()
    finally:  # also on argparse's SystemExit
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()

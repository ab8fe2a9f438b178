"""The library workloads: classify, transform and orbits.

Set-up turns the seed into a fixed mix of inputs and serialises each to a
JSON document. An op starts from its document, as a user's request would,
and runs the library calls behind one `qpmap` command; its gate then checks
the result against the paper's results. Calls go through module attributes
(``symplectic.check_conditions``) so that spans.py can wrap them.

A round holds every input once; runs are whole rounds, so each run measures
the same mix whatever its length.
"""

import json
import resource
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from qpmaps import core, documents, linalg, sampling, solve, symplectic, transform
from qpmaps.errors import NumericOverflow


@dataclass
class Op:
    label: str  # names the input wherever a failure is listed
    group: str  # size class or subcommand, for the per-layer breakdown
    doc: str  # the JSON input document the op starts from
    expect: object = None  # what the gate compares against; cli: also the command


class LibraryWorkload:
    SPEED_SLICE = "compute"  # see speed.py

    def __init__(self, tiny=False):
        self.round = self.TINY if tiny else self.ROUND

    def peak_rss_kb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Classify(LibraryWorkload):
    """The library work behind `qpmap check`: both classifiers, ranks and B.M."""

    name = "classify"
    # (kind, n, count); m = n; about 50/30/20 generic/symplectic/perturbed.
    # Latency rises with n and is higher for generic maps, so sorted op
    # latencies form six blocks. The counts put p50 at the centre of the
    # generic n = 16 block (40-60%) and p90 at the centre of the generic
    # n = 24 block (80-100%), away from the jumps between blocks.
    ROUND = (
        ("generic", 8, 4), ("symplectic", 8, 2), ("perturbed", 8, 2),
        ("generic", 16, 6), ("symplectic", 16, 2), ("perturbed", 16, 2),
        ("generic", 24, 6), ("symplectic", 24, 4), ("perturbed", 24, 2),
    )
    TINY = (("generic", 2, 1), ("symplectic", 2, 1), ("perturbed", 4, 1))

    def generate(self, seed, workdir=None):
        rng = np.random.default_rng(seed)
        ops = []
        for kind, n, count in self.round:
            for k in range(count):
                if kind == "generic":
                    qp, expect = sampling.random_valid_map(rng, n, n), None
                else:
                    qp = sampling.random_symplectic_map(rng, n, n, integer_entries=True)
                    expect = True
                    if kind == "perturbed":
                        qp, expect = perturb(rng, qp), False
                doc = json.dumps(documents.map_to_document(qp))
                ops.append(Op(f"{kind}/n{n}/{k}", f"n{n}", doc, expect))
        return ops

    def execute(self, op):
        qp = documents.map_from_document(json.loads(op.doc))
        return (symplectic.check_conditions(qp), symplectic.check_pattern(qp),
                symplectic.rank_bounds(qp), transform.class_invariant(qp))

    def gate(self, op, result):
        conditions, pattern, ranks, bm = result
        if conditions.is_symplectic != pattern.is_symplectic:
            return (f"classifiers disagree: conditions={conditions.is_symplectic}"
                    f" pattern={pattern.is_symplectic}")
        if op.expect is not None and conditions.is_symplectic != op.expect:
            return f"verdict {conditions.is_symplectic}, expected {op.expect}"
        if conditions.is_symplectic and not linalg.is_zero(bm):
            return "symplectic verdict but B.M is not the null matrix"
        if conditions.is_symplectic and not ranks.bound_satisfied:
            return f"symplectic verdict but the rank bound fails: {ranks}"
        return None


def perturb(rng, qp):
    """Change one entry of lam, A or B of a symplectic map to another value.

    Any single change breaks one of the paper's four conditions, so the
    result is not symplectic; it stays strict because A's columns and B's
    rows of a symplectic map carry two nonzero entries each.
    """
    lam, a, b = list(qp.lam), [list(r) for r in qp.A], [list(r) for r in qp.B]
    target = int(rng.integers(0, 3))
    if target == 0:
        row, i = lam, int(rng.integers(0, qp.n))
    elif target == 1:
        row, i = a[int(rng.integers(0, qp.n))], int(rng.integers(0, qp.m))
    else:
        row, i = b[int(rng.integers(0, qp.m))], int(rng.integers(0, qp.n))
    choices = [Fraction(v) for v in range(-2, 3) if v != row[i]]
    row[i] = choices[int(rng.integers(0, len(choices)))]
    return core.new_qp_map(lam, a, b)


class Transform(LibraryWorkload):
    """QMT equivalence: new_qmt (inverse and its check), apply_qmt and B.M."""

    name = "transform"
    SPEED_SLICE = "exact"  # see speed.py
    # (n, count); m = n. Latency doubles or more from one n to the next, so
    # the counts put p50 at the centre of the n = 12 block (30-70%) and p90
    # at the centre of the n = 20 block (80-100%).
    ROUND = ((8, 6), (12, 8), (16, 2), (20, 4))
    TINY = ((2, 1), (3, 1))
    ROUND_TRIP_TOLERANCE = 1e-12

    def generate(self, seed, workdir=None):
        rng = np.random.default_rng(seed)
        ops = []
        for n, count in self.round:
            for k in range(count):
                c = random_invertible(rng, n)
                qp = sampling.random_valid_map(rng, n, n)
                x = sampling.random_state(rng, n)
                doc = json.dumps({"qmt": {"C": c}, "map": documents.map_to_document(qp),
                                  "x": x.tolist()})
                ops.append(Op(f"n{n}/{k}", f"n{n}", doc))
        return ops

    def execute(self, op):
        doc = json.loads(op.doc)
        qmt = documents.qmt_from_document(doc["qmt"])
        qp = documents.map_from_document(doc["map"])
        moved = transform.apply_qmt(qp, qmt, strict=False)
        x = np.array(doc["x"])
        return (transform.class_invariant(qp), transform.class_invariant(moved), x,
                transform.push_state(qmt, transform.pull_state(qmt, x)))

    def gate(self, op, result):
        before, after, x, back = result
        if before != after:
            return "B.M differs before and after the QMT"
        error = float(np.max(np.abs(back - x) / x))
        if not error <= self.ROUND_TRIP_TOLERANCE:
            return f"push_state(pull_state(x)) is off by {error:.3e} (relative)"
        return None


def random_invertible(rng, n):
    """An n x n integer matrix with entries in [-2, 2] and nonzero determinant.

    Singular draws are rejected by their float condition number, which for an
    exactly singular integer matrix is at least ~1e15; new_qmt still decides
    invertibility exactly when the op runs.
    """
    while True:
        c = rng.integers(-2, 3, size=(n, n))
        if np.linalg.cond(c) < 1e8:
            return [[int(e) for e in row] for row in c]


class Orbits(LibraryWorkload):
    """Closed-form solution, its evaluation and its checks on symplectic maps."""

    name = "orbits"
    # (n, count); m = n. 60% of ops at n <= 8, where float kernels dominate
    # and p50 falls (centre of the n = 8 block); 40% at n >= 16, where the
    # exact solve dominates and p90 falls (centre of the n = 24 block). Four
    # inputs per size keep p90 from landing between two single inputs.
    ROUND = ((2, 4), (4, 4), (8, 4), (16, 4), (24, 4))
    TINY = ((2, 1), (4, 1))
    HORIZON = 500  # eval_solution at every integer t in [-HORIZON, HORIZON]
    VERIFY_STEPS = 100
    RESIDUAL_SAMPLES = 100
    # |log k_i| <= PHI_BOUND keeps |t log k_i| + |log x_i(0)| below the double
    # exponent limit (~709) over the whole horizon, so no row is skipped.
    PHI_BOUND = 1.0
    DEVIATION_TOLERANCE = 1e-9

    def generate(self, seed, workdir=None):
        rng = np.random.default_rng(seed)
        ops = []
        for n, count in self.round:
            for k in range(count):
                qp = sampling.random_symplectic_map(rng, n, n, phi_bound=self.PHI_BOUND)
                x0 = sampling.random_state(rng, n)
                samples = [sampling.random_state(rng, n).tolist()
                           for _ in range(self.RESIDUAL_SAMPLES)]
                doc = json.dumps({"map": documents.map_to_document(qp), "x0": x0.tolist(),
                                  "samples": samples})
                ops.append(Op(f"n{n}/{k}", "small_n" if n <= 8 else "large_n", doc))
        return ops

    def execute(self, op):
        doc = json.loads(op.doc)
        qp = documents.map_from_document(doc["map"])
        sol = solve.solve_closed_form(qp, doc["x0"])
        skipped = 0
        for t in range(-self.HORIZON, self.HORIZON + 1):
            try:
                solve.eval_solution(sol, t)
            except NumericOverflow:
                skipped += 1
        deviation = solve.verify_solution(qp, sol, self.VERIFY_STEPS)
        residual = max(symplectic.symplectic_residual(qp, x) for x in doc["samples"])
        return skipped, deviation, residual

    def gate(self, op, result):
        skipped, deviation, residual = result
        if skipped:
            return f"{skipped} closed-form rows overflowed"
        if not deviation <= self.DEVIATION_TOLERANCE:
            return f"closed form deviates from iteration by {deviation:.3e}"
        if not residual <= symplectic.RESIDUAL_TOLERANCE:
            return f"symplectic residual {residual:.3e}"
        return None

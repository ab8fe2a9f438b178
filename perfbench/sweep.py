"""Size sweep: per-layer times as n = m grows, beside the recorded baseline.

    python3 perfbench/run.py --sweep

Not a workload and not part of the repeated runs: it times each layer once
per size (the median of several calls when a call is quick) on maps from
qpmaps.sampling with seed 1. Exact-algebra stages use a generic map; the
solve and the float kernels use a symplectic one; QMT stages run at
min(n, 40).
"""

import json
import time

import numpy as np

from qpmaps import core, documents, sampling, solve, symplectic, transform

SIZES = (4, 20, 60, 100)
QMT_CAP = 40
#: One-off single-run baseline on a 2-core virtual machine, as recorded in ROADMAP.md
#: before this benchmark existed: (layer, n) -> seconds; n None = size not recorded.
BASELINE = {
    ("core.step", None): 39e-6,
    ("core.jacobian", None): 42e-6,
    ("solve.eval_solution", None): 24e-6,
    ("solve.solve_closed_form", 4): 0.72e-3,
    ("solve.solve_closed_form", 20): 58e-3,
    ("solve.solve_closed_form", 60): 1.69,
    ("symplectic.check_conditions", 100): 3.5,
    ("symplectic.check_pattern", 100): 0.023,
    ("transform.new_qmt", 40): 1.08,
    ("transform.apply_qmt", 40): 0.72,
}


def timed(fn, budget=0.2, max_reps=200):
    """Median seconds of fn(), repeated while the total stays under budget."""
    samples = []
    while not samples or (sum(samples) < budget and len(samples) < max_reps):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return sorted(samples)[len(samples) // 2]


def sweep():
    rows = []

    def record(layer, n, seconds):
        base = BASELINE.get((layer, n), BASELINE.get((layer, None)))
        rows.append({"layer": layer, "n": n, "seconds": seconds, "baseline_s": base})
        shown = "" if base is None else f"  baseline {base:.3g} s"
        print(f"{layer:30s} n={n:<4d} {seconds:.4g} s{shown}", flush=True)

    for n in SIZES:
        rng = np.random.default_rng(1)
        generic = sampling.random_valid_map(rng, n, n)
        doc = documents.map_to_document(generic)
        record("documents.parse", n, timed(lambda: documents.map_from_document(doc)))
        record("symplectic.check_conditions", n,
               timed(lambda: symplectic.check_conditions(generic)))
        record("symplectic.check_pattern", n, timed(lambda: symplectic.check_pattern(generic)))
        record("symplectic.rank_bounds", n, timed(lambda: symplectic.rank_bounds(generic)))
        record("transform.class_invariant", n,
               timed(lambda: transform.class_invariant(generic)))
        qp = sampling.random_symplectic_map(rng, n, n)
        x = sampling.random_state(rng, n)
        record("solve.solve_closed_form", n, timed(lambda: solve.solve_closed_form(qp, x)))
        sol = solve.solve_closed_form(qp, x)
        record("solve.eval_solution", n, timed(lambda: solve.eval_solution(sol, 1)))
        record("core.step", n, timed(lambda: core.step(qp, x)))
        record("core.jacobian", n, timed(lambda: core.jacobian(qp, x)))
    for n in sorted({min(n, QMT_CAP) for n in SIZES}):
        rng = np.random.default_rng(1)
        generic = sampling.random_valid_map(rng, n, n)
        c = sampling.random_qmt(rng, n).C
        qmt = transform.new_qmt(c)
        record("transform.new_qmt", n, timed(lambda: transform.new_qmt(c)))
        record("transform.apply_qmt", n,
               timed(lambda: transform.apply_qmt(generic, qmt, strict=False)))
    return rows


def main():
    print(json.dumps({"sweep": sweep()}))
    return 0

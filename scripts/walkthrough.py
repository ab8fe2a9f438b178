#!/usr/bin/env python3
"""End-to-end tour of the library on two worked examples.

Builds the two-variable symplectic map family member lam=(1,-1), A=[[2],[-2]],
B=[[1,1]], classifies it, solves it in closed form, shows that a diagonal
change of variables destroys symplecticity while uniform scaling keeps it,
and repeats the exercise for a four-variable map with two conserved pairs.

Run from the repository root:

    PYTHONPATH=src python3 scripts/walkthrough.py
"""

import numpy as np

from qpmaps import (
    apply_qmt,
    check_conditions,
    class_invariant,
    classify_asymptotics,
    eval_solution,
    iterate,
    new_qmt,
    new_qp_map,
    solve_closed_form,
    solver_qmt,
    symplectic_residual,
    verify_solution,
)
from qpmaps.linalg import diagonal


def banner(text):
    print()
    print("=" * 72)
    print(text)
    print("=" * 72)


def classify(qp, label):
    rep = check_conditions(qp)
    verdict = "symplectic" if rep.is_symplectic else "NOT symplectic"
    print(f"{label}: {verdict}", end="")
    if rep.is_symplectic:
        print(f" (s={rep.s}, pairing={rep.pairing})")
    else:
        failing = [lbl for lbl, cond in rep.conditions() if not cond.holds]
        print(f" (violated: {failing})")
        for lbl, cond in rep.conditions():
            for w in cond.witnesses[:2]:
                print(f"    ({lbl}) {w.detail} != 0")
    return rep


def main():
    banner("Two variables, one quasimonomial")
    dim2 = new_qp_map((1, -1), ((2,), (-2,)), ((1, 1),))
    classify(dim2, "dim2")
    print("class invariant B.M:", class_invariant(dim2))

    x0 = [2.0, 0.5]
    sol = solve_closed_form(dim2, x0)
    print(f"x0={x0}: log multipliers {sol.log_k}, invariants {sol.invariants_I}")
    print("asymptotics:", [(pa.i, pa.kind) for pa in classify_asymptotics(sol)])
    print("closed form vs 30 iterated steps:", f"{verify_solution(dim2, sol, 30):.3e}")
    print("state at t=-3 (backward):", eval_solution(sol, -3))

    traj = iterate(dim2, x0, 10)
    values = traj[:, 0] * traj[:, 1]
    print(f"pair product along 10 steps: min={values.min():.15f} max={values.max():.15f}")

    banner("Changes of variables")
    squeeze = new_qmt(diagonal([1, 2]))
    squeezed = apply_qmt(dim2, squeeze)
    classify(squeezed, "after C=diag(1,2)")
    print("class invariant unchanged:", class_invariant(squeezed) == class_invariant(dim2))

    scaled = apply_qmt(dim2, new_qmt(diagonal([3, 3])))
    classify(scaled, "after C=3*I")

    decoupled = apply_qmt(dim2, solver_qmt(1), strict=False)
    print("solver transform matrices: lam'={} A'={} B'={}".format(
        decoupled.lam, decoupled.A, decoupled.B))

    banner("Four variables, five quasimonomials, two conserved pairs")
    dim4 = new_qp_map(
        (1, 1, -1, -1),
        ((0, 0, 0, 1, 1), (1, 1, 1, 0, 0), (0, 0, 0, -1, -1), (-1, -1, -1, 0, 0)),
        ((0, 1, 0, 1), (0, 1, 0, 1), (0, 1, 0, 1), (1, 0, 1, 0), (1, 0, 1, 0)),
    )
    classify(dim4, "dim4")
    rng = np.random.default_rng(0)
    worst = max(
        symplectic_residual(dim4, np.exp(rng.uniform(np.log(0.5), np.log(2), 4)))
        for _ in range(100)
    )
    print(f"max Jacobian residual over 100 random states: {worst:.3e}")
    sol4 = solve_closed_form(dim4, [1, 1, 1, 1])
    print("log multipliers:", sol4.log_k)
    print("closed form vs 20 iterated steps:", f"{verify_solution(dim4, sol4, 20):.3e}")


if __name__ == "__main__":
    main()

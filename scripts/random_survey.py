#!/usr/bin/env python3
"""Numeric stress survey over random symplectic maps.

Samples random symplectic maps of dimensions 2, 4 and 6, then reports the
worst observed Jacobian residual, determinant deviation, closed-form
reproduction error and conserved-quantity drift. Useful for checking the
float-error headroom behind the documented tolerances.

    PYTHONPATH=src python3 scripts/random_survey.py --maps 200 --seed 0
"""

import argparse

import numpy as np

from qpmaps import (
    iterate,
    quasimonomials,
    sampled_residuals,
    solve_closed_form,
    verify_solution,
)
from qpmaps.sampling import random_state, random_symplectic_map


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--maps", type=int, default=200)
    parser.add_argument("--states-per-map", type=int, default=50)
    parser.add_argument("--steps", type=int, default=30)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    worst = {"residual": 0.0, "det": 0.0, "closed_form": 0.0,
             "pair_drift": 0.0, "quasimonomial_drift": 0.0}

    for k in range(args.maps):
        n = (2, 4, 6)[k % 3]
        qp = random_symplectic_map(rng, n)
        residual, det = sampled_residuals(qp, args.states_per_map, rng)
        worst["residual"] = max(worst["residual"], residual)
        worst["det"] = max(worst["det"], det)

        x0 = random_state(rng, n)
        sol = solve_closed_form(qp, x0)
        worst["closed_form"] = max(worst["closed_form"],
                                   verify_solution(qp, sol, args.steps))

        arr = iterate(qp, x0, args.steps)
        s = n // 2
        products = arr[:, :s] * arr[:, s:]
        worst["pair_drift"] = max(worst["pair_drift"],
                                  float(np.max(np.abs(products / products[0] - 1.0))))
        q = quasimonomials(qp, arr)
        worst["quasimonomial_drift"] = max(worst["quasimonomial_drift"],
                                           float(np.max(np.abs(q / q[0] - 1.0))))

    print(f"surveyed {args.maps} maps x {args.states_per_map} states (seed {args.seed})")
    print(f"worst Jacobian residual |K^T.S.K - S| : {worst['residual']:.3e}")
    print(f"worst |det(K) - 1|                    : {worst['det']:.3e}")
    print(f"worst closed-form log-space error     : {worst['closed_form']:.3e}")
    print(f"worst pair-product drift              : {worst['pair_drift']:.3e}")
    print(f"worst quasimonomial drift             : {worst['quasimonomial_drift']:.3e}")


if __name__ == "__main__":
    main()

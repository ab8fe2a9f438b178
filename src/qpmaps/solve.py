"""Closed-form solutions of symplectic QP maps.

Every symplectic QP map evolves each variable pair geometrically:

    x_i(t) = x_i(0) * k_i**t,      x_{s+i}(t) = x_{s+i}(0) * k_i**(-t)

with positive multipliers read off the initial state: log k_i = phi_i(x0)
for i <= s. The solver change of variables (see
:func:`qpmaps.transform.solver_qmt`) is the constructive proof: under it
the first s coordinates become the conserved pair products and the rest
evolve by the constant factor k_i per step. The test suite checks that
route against phi. All arithmetic is carried in log space: k_i**t
overflows double precision quickly, log_k_i * t does not.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import QPMap, as_state, iterate, phi
from .errors import NotSymplectic, NumericOverflow
from .symplectic import check_conditions

#: |log k_i| at or below this is classified as a constant pair.
CONSTANT_TOLERANCE = 1e-12
#: Split pairs with |log k_i| below this get a proximity warning.
NEAR_CONSTANT_THRESHOLD = 1e-8


@dataclass(frozen=True, eq=False)
class ClosedFormSolution:
    """A solved initial-value problem: x0 plus per-pair log multipliers."""

    s: int
    x0: np.ndarray
    log_k: np.ndarray
    invariants_I: np.ndarray

    @cached_property
    def log_x0(self) -> np.ndarray:
        return np.log(self.x0)

    @cached_property
    def log_rate(self) -> np.ndarray:
        """Per-step log increment of every coordinate: (log_k, -log_k)."""
        return np.concatenate([self.log_k, -self.log_k])


@dataclass(frozen=True)
class PairAsymptotics:
    """Long-run behaviour of pair i: 'constant' (k_i = 1) or 'split'
    (one variable tends to zero while its partner diverges)."""

    i: int
    kind: str
    note: str | None = None


def solve_closed_form(qp: QPMap, x0) -> ClosedFormSolution:
    """Construct the closed-form solution of a symplectic map from x0.

    The multipliers are the first s log-increments at the start,
    log_k_i = phi_i(x0) = lam_i + sum_j A[i][j] * prod_k x0_k**B[j][k],
    and the conserved products are I_i = x0_i * x0_{s+i}. The solver QMT
    route to the same multipliers is the paper's constructive proof; the
    test suite keeps it as an oracle.

    Raises NotSymplectic (carrying the classification report),
    NonPositiveState, or NumericOverflow naming the first pair whose
    log_k_i or I_i is not finite.
    """
    report = check_conditions(qp)
    if not report.is_symplectic:
        raise NotSymplectic("map is not symplectic: no closed form is available",
                            report=report)
    s = report.s
    x = as_state(x0, qp.n)
    log_k = phi(qp, x)[:s]
    with np.errstate(over="ignore"):
        invariants = x[:s] * x[s:]
    finite = np.isfinite(log_k) & np.isfinite(invariants)
    if not finite.all():
        i = int(np.argmin(finite)) + 1
        raise NumericOverflow(
            f"pair {i}: log k_{i} = {log_k[i - 1]:g}, I_{i} = {invariants[i - 1]:g};"
            " the closed form needs both finite"
        )
    return ClosedFormSolution(s=s, x0=x, log_k=log_k, invariants_I=invariants)


def _out_of_range(t: int) -> NumericOverflow:
    return NumericOverflow(
        f"closed-form state at t={t} leaves the representable positive range",
        time_index=t,
    )


def eval_solution(sol: ClosedFormSolution, t: int) -> np.ndarray:
    """State at any integer time t (negative allowed), in log space.

    t = 0 returns a copy of x0 itself: exp(log(x)) can differ from x in
    the last bit. Raises NumericOverflow when |t * log_k_i| leaves the
    double exponent range in either direction.
    """
    if t == 0:
        return sol.x0.copy()
    with np.errstate(over="ignore", under="ignore"):
        out = np.exp(sol.log_x0 + t * sol.log_rate)
    if not ((out > 0.0) & (out < np.inf)).all():
        raise _out_of_range(t)
    return out


def classify_asymptotics(sol: ClosedFormSolution) -> list[PairAsymptotics]:
    """Per-pair behaviour: constant when log_k_i = 0 (within 1e-12), else split."""
    out = []
    for i, lk in enumerate(sol.log_k, start=1):
        if abs(lk) <= CONSTANT_TOLERANCE:
            out.append(PairAsymptotics(i=i, kind="constant"))
        else:
            note = None
            if abs(lk) < NEAR_CONSTANT_THRESHOLD:
                note = (f"|log k_{i}| = {abs(lk):.3e} is close to zero;"
                        " the split verdict is sensitive to roundoff")
            out.append(PairAsymptotics(i=i, kind="split", note=note))
    return out


def verify_solution(qp: QPMap, sol: ClosedFormSolution, steps: int) -> float:
    """Max log-space deviation between iteration and the closed form over
    t = 0..steps, with the closed form at t = 0 taken as x0 exactly.
    Callers choose steps small enough to avoid overflow; NumericOverflow
    from iteration propagates, and the closed form raises it at the first
    t that leaves the range."""
    states = iterate(qp, sol.x0, steps).as_array()
    times = np.arange(steps + 1)[:, None]
    with np.errstate(over="ignore", under="ignore"):
        predicted = np.exp(sol.log_x0 + times * sol.log_rate)
    predicted[0] = sol.x0
    in_range = ((predicted > 0.0) & (predicted < np.inf)).all(axis=1)
    if not in_range.all():
        raise _out_of_range(int(np.argmin(in_range)))
    return float(np.abs(np.log(states) - np.log(predicted)).max())

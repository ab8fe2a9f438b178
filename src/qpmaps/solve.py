"""Closed-form solutions of symplectic QP maps.

Every symplectic QP map evolves each variable pair geometrically:

    x_i(t) = x_i(0) * k_i**t,      x_{s+i}(t) = x_{s+i}(0) * k_i**(-t)

with positive multipliers read off the initial state: log k_i = phi_i(x0)
for i <= s. The solver change of variables (see
:func:`qpmaps.transform.solver_qmt`) is the constructive proof: under it
the first s coordinates become the conserved pair products and the rest
evolve by the constant factor k_i per step. The test suite checks that
route against phi. A state is evaluated as x(0) * exp(t * log_rate) with
log_rate = (log k, -log k); exp(0) = 1 makes t = 0 give x(0) exactly.

Whether that value is in range is decided once per solution: inside its
safe horizon (every integer |t| <= T) no log-magnitude can pass SAFE_LOG,
so no floating-point flag is raised and every state is positive and
finite. Only times beyond it, numpy integers and columns of times are
range-checked, under np.errstate.
"""

import math
from decimal import Decimal
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .core import QPMap, as_state, first_nonpositive_row, iterate, phi
from .errors import DimensionMismatch, NotSymplectic, NumericOverflow
from .maps import FrozenRecord
from .symplectic import check_conditions

#: |log k_i| at or below this is classified as a constant pair.
CONSTANT_TOLERANCE = 1e-12
#: Split pairs with |log k_i| below this get a proximity warning.
NEAR_CONSTANT_THRESHOLD = 1e-8
#: Bound on |t * log_rate_i| and |log x_i(t)| inside the safe horizon.
#: Doubles overflow above log 709.78 and turn subnormal below -708.39; the
#: margin covers the rounding of log, exp and the products.
SAFE_LOG = 700.0


class ClosedFormSolution(FrozenRecord):
    """A solved initial-value problem: x0 plus per-pair log multipliers.

    Two solutions are equal only when they are the same object: their
    fields are arrays, which compare element-wise.
    """

    __match_args__ = _fields = ("s", "x0", "log_k", "invariants_I")
    __eq__ = object.__eq__
    __hash__ = object.__hash__
    s: int
    x0: np.ndarray
    log_k: np.ndarray
    invariants_I: np.ndarray

    def __init__(self, s, x0, log_k, invariants_I):
        self._init(s, x0, log_k, invariants_I)

    @cached_property
    def log_rate(self) -> np.ndarray:
        """Per-step log increment of every coordinate: (log_k, -log_k)."""
        return np.concatenate([self.log_k, -self.log_k])

    @cached_property
    def safe_horizon(self) -> int:
        """Largest integer T <= 2**53 such that every |t| <= T keeps both
        |t * log_rate_i| and |log x0_i + t * log_rate_i| within SAFE_LOG;
        -1 when some |log x0_i| already exceeds it (a subnormal x0_i, say).

        T is 2**53 when every log_rate_i is 0, or when SAFE_LOG divided by
        the rates passes 2**53; beyond 2**53 not every int is a double.
        """
        room = SAFE_LOG - np.abs(np.log(self.x0))
        if not (room.min() >= 0.0 and np.isfinite(self.log_rate).all()):
            return -1
        rate = np.abs(self.log_rate)
        with np.errstate(over="ignore"):  # a subnormal rate: room / rate = inf
            steps = np.divide(room, rate, out=np.full_like(room, np.inf), where=rate > 0.0)
        bound = steps.min()
        return 2**53 if bound >= 2**53 else math.floor(bound)


class PairAsymptotics(NamedTuple):
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
    NonPositiveState, DimensionMismatch for a stack of states, or
    NumericOverflow naming the first pair whose log_k_i or I_i is not finite.
    """
    report = check_conditions(qp)
    if not report.is_symplectic:
        raise NotSymplectic("map is not symplectic: no closed form is available",
                            report=report)
    s = report.s
    x = as_state(x0, qp.n)
    if x.ndim != 1:
        raise DimensionMismatch(f"x0 must be one state of shape ({qp.n},), got {x.shape}")
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


def eval_solution(sol: ClosedFormSolution, t: int | np.ndarray) -> np.ndarray:
    """State at integer time t (negative allowed): x0 * exp(t * log_rate).

    exp(0) is exactly 1, so t = 0 gives x0 bit for bit. A column of times,
    shape (k, 1), gives one state per row. Raises NumericOverflow naming the
    first time where exp(t * log_rate) or the state leaves the positive range,
    also for an int t too large to convert to a double.

    An int t with |t| <= sol.safe_horizon returns without a range check and
    without entering np.errstate: no flag can be raised there. It is
    computed in one new array, float(t) * log_rate, exponentiated and then
    multiplied by x0 in place: float(t) is exact for |t| <= 2**53 and IEEE
    products commute, so these are the bits of x0 * exp(t * log_rate). Every
    other t is checked with that formula.
    """
    if isinstance(t, int) and abs(t) <= sol.safe_horizon:
        v = float(t) * sol.log_rate
        np.exp(v, out=v)
        v *= sol.x0
        return v
    with np.errstate(over="ignore", under="ignore"):
        try:
            rate = t * sol.log_rate
        except OverflowError:  # an int t beyond the double range
            # Decimal prints every digit; str(int) stops at 4300
            raise NumericOverflow(f"t={Decimal(t)} is outside the double range",
                                  time_index=t) from None
        out = sol.x0 * np.exp(rate)
        row = first_nonpositive_row(out)
        if row is not None:
            t = int(np.ravel(t)[row])
            raise NumericOverflow(f"closed-form state at t={t} leaves the representable"
                                  " positive range", time_index=t)
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
    t = 0..steps. Callers choose steps small enough to avoid overflow;
    NumericOverflow from iteration propagates, and the closed form raises
    it at the first t that leaves the range."""
    states = iterate(qp, sol.x0, steps)
    predicted = eval_solution(sol, np.arange(steps + 1)[:, None])
    return float(np.abs(np.log(states) - np.log(predicted)).max())

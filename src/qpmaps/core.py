"""Quasipolynomial (QP) maps: construction, evaluation, iteration, Jacobians.

A QP map acts on the positive orthant of R^n and updates each coordinate as

    x_i <- x_i * exp(lam_i + sum_j A[i][j] * prod_k x_k**B[j][k])

where the inner products over k (one per row of B) are the quasimonomials
of the map. The structural data (lam, A, B) is exact rational so that all
classification decisions elsewhere in the package are tolerance-free;
trajectory evaluation is ordinary double precision.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatch,
    NonPositiveState,
    NumericOverflow,
    ZeroColumnOfA,
    ZeroRowOfB,
)
from .linalg import (
    RMatrix,
    RVector,
    rmatrix,
    rvector,
    to_float_matrix,
    to_float_vector,
    zero_column_indices,
    zero_row_indices,
)


@dataclass(frozen=True)
class QPMap:
    """A QP map (lam, A, B) with n state variables and m quasimonomials.

    Constructing the dataclass directly performs dimension checks only
    ("relaxed" form, which tolerates zero columns of A / zero rows of B and
    is needed internally by the solver pipeline). Use :func:`new_qp_map`
    for the strict public form.
    """

    lam: RVector
    A: RMatrix
    B: RMatrix

    def __post_init__(self):
        lam = rvector(self.lam)
        a = rmatrix(self.A)
        b = rmatrix(self.B)
        n, m = len(a), len(a[0])
        if len(lam) != n:
            raise DimensionMismatch(f"lambda has {len(lam)} entries, A has {n} rows")
        if len(b) != m or len(b[0]) != n:
            raise DimensionMismatch(
                f"B must be {m}x{n} to match A ({n}x{m}), got {len(b)}x{len(b[0])}"
            )
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "B", b)

    @property
    def n(self) -> int:
        return len(self.A)

    @property
    def m(self) -> int:
        return len(self.A[0])

    @cached_property
    def lam_f(self) -> np.ndarray:
        return to_float_vector(self.lam, "lambda")

    @cached_property
    def A_f(self) -> np.ndarray:
        return to_float_matrix(self.A, "A")

    @cached_property
    def B_f(self) -> np.ndarray:
        return to_float_matrix(self.B, "B")


def new_qp_map(lam, A, B) -> QPMap:
    """Validated construction of a QP map.

    Raises:
        DimensionMismatch: inconsistent shapes, or n < 1 / m < 1.
        ZeroColumnOfA: a quasimonomial would have no effect on any variable.
        ZeroRowOfB: a quasimonomial would be the constant 1.
    """
    qp = QPMap(lam, A, B)
    zero_cols = zero_column_indices(qp.A)
    if zero_cols:
        raise ZeroColumnOfA(zero_cols[0])
    zero_rows = zero_row_indices(qp.B)
    if zero_rows:
        raise ZeroRowOfB(zero_rows[0])
    return qp


def strictness_violations(qp: QPMap) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Return (zero columns of A, zero rows of B); both empty for strict maps."""
    return zero_column_indices(qp.A), zero_row_indices(qp.B)


def first_nonpositive_row(x: np.ndarray) -> int | None:
    """Index of the first row of x (a single state is row 0) with a component
    that is not finite and strictly positive; None when there is none."""
    ok = (x > 0.0) & (x < np.inf)
    return None if ok.all() else int(np.argmin(ok.all(axis=-1).reshape(-1)))


def as_state(x, n: int) -> np.ndarray:
    """Coerce to a strictly positive float state of length n, shape (n,),
    or to a stack of such states, one per row, shape (k, n)."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim not in (1, 2) or arr.shape[-1] != n:
        raise DimensionMismatch(f"state must have shape ({n},) or (k, {n}), got {arr.shape}")
    if first_nonpositive_row(arr) is not None:
        raise NonPositiveState("state components must be finite and strictly positive")
    return arr


@dataclass(frozen=True, eq=False)
class Trajectory:
    """States x(t0), x(t0+1), ... produced by forward iteration."""

    t0: int
    states: tuple[np.ndarray, ...]

    def __len__(self) -> int:
        return len(self.states)

    def __getitem__(self, k):
        return self.states[k]

    def __iter__(self):
        return iter(self.states)

    @property
    def times(self) -> range:
        return range(self.t0, self.t0 + len(self.states))

    def as_array(self) -> np.ndarray:
        return np.stack(self.states)


def rowwise_matvec(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """m @ v for v = x or for each row v of a stack x, each row on its own,
    so a state in a stack gives bit for bit what it gives alone."""
    return (m @ x[..., None])[..., 0]


def quasimonomials(qp: QPMap, x) -> np.ndarray:
    """The m quasimonomial values q_j = prod_k x_k**B[j][k], evaluated as
    exp(B @ ln x); one row of values per row of a stack of states."""
    x = as_state(x, qp.n)
    with np.errstate(over="ignore", under="ignore"):
        return np.exp(rowwise_matvec(qp.B_f, np.log(x)))


def phi(qp: QPMap, x) -> np.ndarray:
    """Per-coordinate log-increment of one step: phi_i = lam_i + (A @ q(x))_i."""
    x = as_state(x, qp.n)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        return qp.lam_f + rowwise_matvec(qp.A_f, np.exp(rowwise_matvec(qp.B_f, np.log(x))))


def step(qp: QPMap, x) -> np.ndarray:
    """One forward step x_i * exp(phi_i(x)), of each row of a stack too; raises
    NumericOverflow if a result leaves the strictly-positive finite double range."""
    x = as_state(x, qp.n)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        q = np.exp(rowwise_matvec(qp.B_f, np.log(x)))
        out = x * np.exp(qp.lam_f + rowwise_matvec(qp.A_f, q))
    if first_nonpositive_row(out) is not None:
        raise NumericOverflow(
            "step left the representable positive range (exponent overflow or underflow)"
        )
    return out


def iterate(qp: QPMap, x0, steps: int, t0: int = 0) -> Trajectory:
    """Forward trajectory of steps+1 states (or stacks) starting at x0.

    On overflow the raised NumericOverflow carries the failing time index
    and the partial trajectory computed so far. A map entry outside the
    double range raises NumericOverflow naming it, before any step.
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    x = as_state(x0, qp.n)
    # Convert the map up front: an entry outside the double range is an
    # input error (NumericOverflow naming it), not an overflow at step 1.
    qp.lam_f, qp.A_f, qp.B_f
    states = [x]
    for k in range(steps):
        try:
            x = step(qp, x)
        except NumericOverflow as exc:
            partial = Trajectory(t0, tuple(states))
            raise NumericOverflow(
                f"overflow at time index {t0 + k + 1}",
                time_index=t0 + k + 1,
                partial=partial,
            ) from exc
        states.append(x)
    return Trajectory(t0, tuple(states))


def jacobian(qp: QPMap, x) -> np.ndarray:
    """Exact-formula Jacobian of one step: n x n, or (k, n, n) for k states.

    L[i][j] = (delta_ij + x_i * dphi_i/dx_j) * exp(phi_i), with
    dphi_i/dx_j = sum_p A[i][p] * B[p][j] * q_p(x) / x_j.
    """
    x = as_state(x, qp.n)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        q = np.exp(rowwise_matvec(qp.B_f, np.log(x)))
        ph = qp.lam_f + rowwise_matvec(qp.A_f, q)
        d = qp.A_f @ (q[..., :, None] * qp.B_f)  # d[i][j] = sum_p A_ip q_p B_pj
        return (np.eye(qp.n) + (x[..., :, None] / x[..., None, :]) * d) * np.exp(ph)[..., :, None]

"""Quasipolynomial (QP) maps in floats: evaluation, iteration, Jacobians.

A QP map acts on the positive orthant of R^n and updates each coordinate as

    x_i <- x_i * exp(lam_i + sum_j A[i][j] * prod_k x_k**B[j][k])

where the inner products over k (one per row of B) are the quasimonomials
of the map. The structural data (lam, A, B) is exact rational so that all
classification decisions elsewhere in the package are tolerance-free;
trajectory evaluation is ordinary double precision. The exact QPMap record
and its validation live in the numpy-free :mod:`qpmaps.maps` and are
re-exported here; this module is the float layer and imports numpy.
"""

from functools import cache

import numpy as np

from .errors import DimensionMismatch, NonPositiveState, NumericOverflow
from .maps import QPMap, new_qp_map  # re-exported

#: Steps the first trajectory buffer of :func:`iterate` holds; it doubles as needed.
_FIRST_ROWS = 1024


def first_nonpositive_row(x: np.ndarray) -> int | None:
    """Index of the first row of x (a single state is row 0) with a component
    that is not finite and strictly positive; None when there is none.

    Two whole-array ufunc reductions, np.minimum.reduce and
    np.maximum.reduce (the bits of x.min() and x.max() without their Python
    wrappers), decide the common all-valid case. A NaN makes the minimum
    NaN, which fails 0.0 < min, so only then is the per-entry mask built.
    """
    if x.size == 0 or (0.0 < np.minimum.reduce(x, axis=None)
                       and np.maximum.reduce(x, axis=None) < np.inf):
        return None
    ok = (x > 0.0) & (x < np.inf)
    return int(np.argmin(ok.all(axis=-1).reshape(-1)))


def as_state(x, n: int) -> np.ndarray:
    """Coerce to a strictly positive float state of length n, shape (n,),
    or to a stack of such states, one per row, shape (k, n)."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim not in (1, 2) or arr.shape[-1] != n:
        raise DimensionMismatch(f"state must have shape ({n},) or (k, {n}), got {arr.shape}")
    if first_nonpositive_row(arr) is not None:
        raise NonPositiveState("state components must be finite and strictly positive")
    return arr


def rowwise_matvec(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """m @ v for v = x or for each row v of a stack x, each row on its own,
    so a state in a stack gives bit for bit what it gives alone."""
    return (m @ x[..., None])[..., 0]


def monomials(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """exp(m @ ln x), row by row: the quasimonomials x**B of a map and the
    change of variables y**C of a QMT alike. x must be an already checked
    state or stack (see :func:`as_state`); overflow gives inf, underflow 0."""
    with np.errstate(over="ignore", under="ignore"):
        return np.exp(rowwise_matvec(m, np.log(x)))


def quasimonomials(qp: QPMap, x) -> np.ndarray:
    """The m quasimonomial values q_j = prod_k x_k**B[j][k], evaluated as
    exp(B @ ln x); one row of values per row of a stack of states."""
    return monomials(qp.B_f, as_state(x, qp.n))


def _phi(qp: QPMap, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(q, phi) at an already checked state or stack: q = exp(B @ ln x) as in
    :func:`monomials`, phi = lam + A @ q. It enters no np.errstate of its
    own, so a step runs under one: its caller's."""
    q = np.exp(rowwise_matvec(qp.B_f, np.log(x)))
    return q, qp.lam_f + rowwise_matvec(qp.A_f, q)


def phi(qp: QPMap, x) -> np.ndarray:
    """Per-coordinate log-increment of one step: phi_i = lam_i + (A @ q(x))_i."""
    x = as_state(x, qp.n)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        return _phi(qp, x)[1]


def step(qp: QPMap, x) -> np.ndarray:
    """One forward step x_i * exp(phi_i(x)), of each row of a stack too: row 1
    of :func:`iterate`, so it raises NumericOverflow with time_index 1."""
    return iterate(qp, x, 1)[1]


def iterate(qp: QPMap, x0, steps: int) -> np.ndarray:
    """Forward trajectory x(0), ..., x(steps) from x0 as one array: shape
    (steps+1, n), or (steps+1, k, n) for a stack of k states.

    x0 is checked once. The first computed state that leaves the strictly
    positive finite double range raises NumericOverflow with its time index
    and, as ``partial``, a copy of the states before it. A map entry outside
    the double range raises NumericOverflow naming it, before any step.
    States are written into a buffer that doubles as needed, up to
    steps + 1 rows, so memory follows the states computed, not the steps
    requested.
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    x = as_state(x0, qp.n)
    # Convert the map up front: an entry outside the double range is an
    # input error (NumericOverflow naming it), not an overflow at step 1.
    qp.lam_f, qp.A_f, qp.B_f
    # steps may come from the command line, so the buffer is not sized by it.
    traj = np.empty((min(steps, _FIRST_ROWS) + 1, *x.shape))
    traj[0] = x
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        for t in range(1, steps + 1):
            x = x * np.exp(_phi(qp, x)[1])
            if first_nonpositive_row(x) is not None:
                raise NumericOverflow(f"overflow at time index {t}", time_index=t,
                                      partial=traj[:t].copy())
            if t == len(traj):
                grown = np.empty((min(2 * t, steps + 1), *x.shape))
                grown[:t] = traj
                traj = grown
            traj[t] = x
    return traj


@cache
def _identity(n: int) -> np.ndarray:
    """np.eye(n), built once per n and read-only."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


@np.errstate(over="ignore", under="ignore", invalid="ignore")
def jacobian(qp: QPMap, x) -> np.ndarray:
    """Exact-formula Jacobian of one step: n x n, or (k, n, n) for k states.

    L[i][j] = (delta_ij + x_i * dphi_i/dx_j) * exp(phi_i), with
    dphi_i/dx_j = sum_p A[i][p] * B[p][j] * q_p(x) / x_j.
    """
    return _jacobian(qp, x)


def _jacobian(qp: QPMap, x) -> np.ndarray:
    """:func:`jacobian` without an np.errstate of its own, for a caller that
    already entered one. In place, it gives the bits of (I + (x_i/x_j) d) e."""
    x = as_state(x, qp.n)
    q, ph = _phi(qp, x)
    d = qp.A_f @ (q[..., None] * qp.B_f)  # d[i][j] = sum_p A_ip q_p B_pj
    L = x[..., None] / x[..., None, :]
    L *= d
    L += _identity(qp.n)
    L *= np.exp(ph)[..., None]
    return L

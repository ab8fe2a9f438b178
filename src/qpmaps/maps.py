"""QP maps as exact data: the (lam, A, B) dataclass and its validation.

This module is part of the exact layer and imports no numpy. The float
copies ``lam_f``, ``A_f`` and ``B_f`` are built on first use by the
``to_float_*`` converters, which load numpy then; evaluation lives in
:mod:`qpmaps.core`, which re-exports everything defined here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

from .errors import DimensionMismatch, ZeroColumnOfA, ZeroRowOfB
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

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class QPMap:
    """A QP map (lam, A, B) with n state variables and m quasimonomials.

    Constructing the dataclass directly performs dimension checks only:
    this "relaxed" form tolerates zero columns of A and zero rows of B,
    which QMT results, canonical representatives and documents marked
    "relaxed" may carry. Use :func:`new_qp_map` for the strict form.
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

"""Quasimonomial transformations (QMTs) and the QP equivalence-class tools.

A QMT with invertible matrix C changes variables by x_i = prod_j y_j**C[i][j].
It maps QP maps to QP maps with M' = C^-1 M and B' = B C, where M = (lam | A),
and is a topological conjugacy, so transformed maps are dynamically equivalent.
The product B.M is therefore identical for all members of a class
and is the M matrix of the class's canonical Lotka-Volterra representative.
All of this is exact and imports no numpy; the float state maps
``push_state`` and ``pull_state`` load it, and :mod:`qpmaps.core`, on their
first call (:func:`qpmaps.maps.float_layer`).
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING

from .errors import DegenerateResult, DimensionMismatch
from .linalg import (
    RMatrix,
    augment_column,
    identity,
    inverse,
    is_inverse,
    mat_mul,
    rmatrix,
    to_float_matrix,
    zero_column_indices,
)
from .maps import FrozenRecord, QPMap, float_layer, strictness_violations

if TYPE_CHECKING:
    import numpy as np


class QMT(FrozenRecord):
    """An invertible rational change of variables x_i = prod_j y_j**C[i][j].

    Construction checks that C and C_inv are n x n (DimensionMismatch) and that
    C.C_inv = I exactly, by the exact product (:func:`qpmaps.linalg.is_inverse`).
    """

    __match_args__ = _fields = ("C", "C_inv")
    C: RMatrix
    C_inv: RMatrix

    def __init__(self, C, C_inv):
        c = rmatrix(C)
        c_inv = rmatrix(C_inv)
        if not is_inverse(c, c_inv):
            raise ValueError("C_inv is not the exact inverse of C")
        self._init(c, c_inv)

    @property
    def n(self) -> int:
        return len(self.C)

    @cached_property
    def C_f(self) -> np.ndarray:
        return to_float_matrix(self.C, "C")

    @cached_property
    def C_inv_f(self) -> np.ndarray:
        return to_float_matrix(self.C_inv, "C_inv")


def new_qmt(C) -> QMT:
    """Build a QMT from its matrix, computing the exact inverse.

    Raises SingularMatrix when det(C) = 0.
    """
    c = rmatrix(C)
    if len(c) != len(c[0]):
        raise DimensionMismatch(f"QMT matrix must be square, got {len(c)}x{len(c[0])}")
    return QMT(c, inverse(c))


def solver_qmt(s: int) -> QMT:
    """The fixed self-inverse block transformation [[I, I], [0, -I]] of size 2s.

    Applied to a symplectic map it decouples the dynamics: the first s new
    variables are the conserved pair products and stay constant, the last s
    evolve geometrically. This is the change of variables behind the
    closed-form solver.
    """
    if s < 1:
        raise ValueError("s must be a positive integer")
    one, zero = 1, 0
    c = [
        [one if (j == i or j == i + s) else zero for j in range(2 * s)]
        for i in range(s)
    ] + [
        [-one if j == i + s else zero for j in range(2 * s)]
        for i in range(s)
    ]
    m = rmatrix(c)
    return QMT(m, m)


def apply_qmt(qp: QPMap, t: QMT, strict: bool = True) -> QPMap:
    """Transform a map: M' = C^-1 M with M = (lam | A), and B' = B C (all exact).

    Column 0 of M' is lam' = C^-1 lam and the rest is A' = C^-1 A. A QMT
    can push a map out of the strict QP form by creating a zero row in B'
    or a zero column in A'. With strict=True this raises DegenerateResult
    carrying the relaxed result; with strict=False the relaxed map is
    returned silently.
    """
    if t.n != qp.n:
        raise DimensionMismatch(f"QMT is {t.n}x{t.n} but map has n={qp.n}")
    m2 = mat_mul(t.C_inv, augment_column(qp.lam, qp.A))
    result = QPMap(tuple(row[0] for row in m2), tuple(row[1:] for row in m2),
                   mat_mul(qp.B, t.C))
    if strict:
        zero_cols, zero_rows = strictness_violations(result)
        if zero_cols or zero_rows:
            parts = []
            if zero_cols:
                parts.append(f"zero columns of A': {list(zero_cols)}")
            if zero_rows:
                parts.append(f"zero rows of B': {list(zero_rows)}")
            raise DegenerateResult(
                "transformed map left the strict QP form (" + "; ".join(parts) + ")",
                result=result,
                zero_a_columns=zero_cols,
                zero_b_rows=zero_rows,
            )
    return result


def push_state(t: QMT, y) -> np.ndarray:
    """Map transformed coordinates to original ones, row by row: x_i = prod_j y_j**C[i][j]."""
    _, core = float_layer()
    return core.monomials(t.C_f, core.as_state(y, t.n))


def pull_state(t: QMT, x) -> np.ndarray:
    """Map original coordinates to transformed ones, row by row: y_j = prod_i x_i**C_inv[j][i]."""
    _, core = float_layer()
    return core.monomials(t.C_inv_f, core.as_state(x, t.n))


def class_invariant(qp: QPMap) -> RMatrix:
    """The exact m x (m+1) product B.M with M = (lam | A).

    Identical for every map reachable from qp by QMTs; it is the null matrix
    for every symplectic map (the converse does not hold).
    """
    return mat_mul(qp.B, augment_column(qp.lam, qp.A))


def lv_canonical(qp: QPMap) -> QPMap:
    """The canonical Lotka-Volterra representative of qp's equivalence class.

    Returns the m-variable map with M_c = B.M and B_c = I. When B.A has a
    zero column the representative leaves the strict QP form (for symplectic
    maps it is always the trivial identity map); DegenerateResult is raised
    carrying the relaxed map, whose (lam | A) is still B.M.
    """
    mc = class_invariant(qp)
    lam_c = tuple(row[0] for row in mc)
    a_c = tuple(row[1:] for row in mc)
    b_c = identity(qp.m)
    result = QPMap(lam_c, a_c, b_c)
    zero_cols = zero_column_indices(a_c)
    if zero_cols:
        raise DegenerateResult(
            f"canonical Lotka-Volterra form is degenerate: columns {list(zero_cols)}"
            " of B.A are zero",
            result=result,
            zero_a_columns=zero_cols,
        )
    return result

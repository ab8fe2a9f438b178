"""Quasimonomial transformations (QMTs) and the QP equivalence-class tools.

A QMT with invertible matrix C changes variables by x_i = prod_j y_j**C[i][j].
It maps QP maps to QP maps with M' = C^-1 M and B' = B C, where M = (lam | A),
and is a topological conjugacy, so transformed maps are dynamically equivalent.
The product B.M is therefore identical for all members of a class
and is the M matrix of the class's canonical Lotka-Volterra representative.
A QMT is built from C alone: the cleared rows of C and of its exact inverse
are made once, when the record is made (see :class:`QMT`). :func:`apply_qmt`
and :func:`class_invariant` multiply the cleared rows that the QMT and the map
hold (:func:`qpmaps.linalg._product`), so no matrix is cleared again per call.
A product is canonical cleared rows: ``class_invariant`` returns B.M as their
Fraction view, and a transformed map, or the canonical representative, holds
them as its integer form and makes its Fraction entries only when read.
All of this is exact and imports no numpy; the float state maps
``push_state`` and ``pull_state`` load it, and :mod:`qpmaps.core`, on their
first call (:func:`qpmaps.maps.float_layer`).
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING

from .errors import DegenerateResult, DimensionMismatch
from .linalg import (
    Cleared,
    RMatrix,
    _product,
    cleared_rows,
    cleared_to_float_matrix,
    inverse_rows,
    rational_rows,
    rmatrix,
)
from .maps import FrozenRecord, QPMap, float_layer, strictness_violations

if TYPE_CHECKING:
    import numpy as np


class QMT(FrozenRecord):
    """An invertible rational change of variables x_i = prod_j y_j**C[i][j].

    Built from C alone, its only field, so the repr reads back and records
    compare by C. The record holds its one integer form from construction:
    ``C_rows``, C's cleared rows, and ``C_inv_rows``, the cleared rows of the
    exact inverse derived from them (:func:`qpmaps.linalg.inverse_rows`). The
    Fraction matrix ``C_inv`` and the float copies ``C_f`` and ``C_inv_f`` are
    views of these rows, made on first use. A C that is not square raises
    DimensionMismatch, a singular one SingularMatrix.
    """

    __match_args__ = _fields = ("C",)
    C: RMatrix
    C_rows: tuple[Cleared, ...]
    C_inv_rows: tuple[Cleared, ...]

    def __init__(self, C):
        c = rmatrix(C)
        if len(c) != len(c[0]):
            raise DimensionMismatch(f"QMT matrix must be square, got {len(c)}x{len(c[0])}")
        self._init(c)
        rows = cleared_rows(c)
        self._set(C_rows=rows, C_inv_rows=inverse_rows(rows))

    @classmethod
    def _of_rows(cls, C: RMatrix, C_rows) -> QMT:
        """The QMT of a square C already parsed to Fractions, with its cleared rows."""
        t = cls.__new__(cls)
        t._init(C)
        t._set(C_rows=C_rows, C_inv_rows=inverse_rows(C_rows))
        return t

    @property
    def n(self) -> int:
        return len(self.C)

    @cached_property
    def C_inv(self) -> RMatrix:
        return rational_rows(self.C_inv_rows)

    @cached_property
    def C_f(self) -> np.ndarray:
        return cleared_to_float_matrix(self.C_rows, "C")

    @cached_property
    def C_inv_f(self) -> np.ndarray:
        return cleared_to_float_matrix(self.C_inv_rows, "C_inv")


def new_qmt(C) -> QMT:
    """The QMT of matrix C, with its exact inverse; raises SingularMatrix when det(C) = 0."""
    return QMT(C)


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
    return new_qmt(c)


def apply_qmt(qp: QPMap, t: QMT, strict: bool = True) -> QPMap:
    """Transform a map: M' = C^-1 M with M = (lam | A), and B' = B C (all exact).

    Column 0 of M' is lam' = C^-1 lam and the rest is A' = C^-1 A. A QMT
    can push a map out of the strict QP form by creating a zero row in B'
    or a zero column in A'. With strict=True this raises DegenerateResult
    carrying the relaxed result ("transformed map left the strict QP form
    (...)"); with strict=False the relaxed map is returned silently.
    """
    if t.n != qp.n:
        raise DimensionMismatch(f"QMT is {t.n}x{t.n} but map has n={qp.n}")
    result = QPMap._of_rows(_product(t.C_inv_rows, qp.M_rows), _product(qp.B_rows, t.C_rows))
    return _strict(result, "transformed map") if strict else result


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
    return rational_rows(_product(qp.B_rows, qp.M_rows))


def lv_canonical(qp: QPMap) -> QPMap:
    """The canonical Lotka-Volterra representative of qp's equivalence class.

    Returns the m-variable map with M_c = B.M and B_c = I, held as B.M's
    product rows and the unit rows of I. When B.A has a zero column the
    representative leaves the strict QP form (for symplectic maps it is
    always the trivial identity map); DegenerateResult is raised
    carrying the relaxed map, whose (lam | A) is still B.M ("canonical
    Lotka-Volterra representative left the strict QP form (...)").
    """
    m = qp.m
    unit_rows = tuple(((0,) * p + (1,) + (0,) * (m - p - 1), 1) for p in range(m))
    return _strict(QPMap._of_rows(_product(qp.B_rows, qp.M_rows), unit_rows),
                   "canonical Lotka-Volterra representative")


def _strict(result: QPMap, what: str) -> QPMap:
    """result when it is in the strict QP form, else DegenerateResult carrying it."""
    zero_cols, zero_rows = strictness_violations(result)
    if zero_cols or zero_rows:
        raise DegenerateResult(f"{what} left the strict QP form (zero columns of A:"
                               f" {list(zero_cols)}; zero rows of B: {list(zero_rows)})", result)
    return result

"""QP maps as exact data: the immutable (lam, A, B) record and its validation.

This module is part of the exact layer and imports no numpy. Beside its
Fraction entries a map keeps the integer form that the exact kernels read
(see :class:`QPMap`). The float copies are built on first use, and load
numpy then: ``lam_f`` from lam, ``A_f`` and ``B_f`` from the integer form
(:func:`qpmaps.linalg.cleared_to_float_matrix`). Evaluation lives in
:mod:`qpmaps.core`, which re-exports ``QPMap`` and ``new_qp_map``, and
:func:`float_layer` hands numpy and that module to the exact modules'
float entry points.
:class:`FrozenRecord`, the base of the package's immutable value classes,
also lives here.
"""

from __future__ import annotations

from functools import cache, cached_property
from typing import TYPE_CHECKING

from .errors import DimensionMismatch, ZeroColumnOfA, ZeroRowOfB
from .linalg import (
    Cleared,
    RMatrix,
    RVector,
    cleared_rows,
    cleared_to_float_matrix,
    rmatrix,
    rvector,
    to_float_vector,
    zero_column_indices,
    zero_row_indices,
)

if TYPE_CHECKING:
    import numpy as np


@cache
def float_layer():
    """(numpy, :mod:`qpmaps.core`), imported on the first call and returned
    as they are after it, so a float entry point of a numpy-free module runs
    no ``import`` per call. Without numpy every call raises
    ModuleNotFoundError: a cache keeps no exception."""
    import numpy

    from . import core

    return numpy, core


class FrozenRecord:
    """An immutable record with named fields, set once by ``__init__``.

    A subclass names its fields, in order, in ``_fields`` and sets them with
    :meth:`_init`. They live in ``__dict__``, where
    ``functools.cached_property`` also keeps what it computes. Assigning or
    deleting any attribute raises AttributeError. Records of one class are
    equal, and hash alike, when their fields are equal; a record never
    equals an object of another class.
    """

    _fields: tuple[str, ...] = ()

    def _init(self, *values):
        """Set the fields in ``_fields`` order, one attribute at a time: an
        update of ``__dict__`` itself would cost each record a full dict."""
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class QPMap(FrozenRecord):
    """A QP map (lam, A, B) with n state variables and m quasimonomials.

    Constructing a QPMap directly performs dimension checks only:
    this "relaxed" form tolerates zero columns of A and zero rows of B,
    which QMT results, canonical representatives and documents marked
    "relaxed" may carry. Use :func:`new_qp_map` for the strict form.

    The exact kernels and the float copies of A and B read the map's one
    integer form: ``B_rows`` and ``M_rows``, the cleared rows
    (:func:`qpmaps.linalg.cleared_rows`) of B and of M = (lam | A). A parsed
    map carries its rows from the document
    (:func:`qpmaps.documents.map_from_document`); any other map clears its
    entries on first use.
    """

    __match_args__ = _fields = ("lam", "A", "B")
    lam: RVector
    A: RMatrix
    B: RMatrix

    def __init__(self, lam, A, B):
        lam = rvector(lam)
        a = rmatrix(A)
        b = rmatrix(B)
        n, m = len(a), len(a[0])
        if len(lam) != n:
            raise DimensionMismatch(f"lambda has {len(lam)} entries, A has {n} rows")
        if len(b) != m or len(b[0]) != n:
            raise DimensionMismatch(
                f"B must be {m}x{n} to match A ({n}x{m}), got {len(b)}x{len(b[0])}"
            )
        self._init(lam, a, b)

    @classmethod
    def _parsed(cls, lam: RVector, A: RMatrix, B: RMatrix, B_rows, M_rows) -> QPMap:
        """A map of entries already parsed to tuples of Fractions of matching
        shapes, with the cleared rows of B and M read with them."""
        qp = cls.__new__(cls)
        qp._init(lam, A, B)
        object.__setattr__(qp, "B_rows", B_rows)
        object.__setattr__(qp, "M_rows", M_rows)
        return qp

    @property
    def n(self) -> int:
        return len(self.A)

    @property
    def m(self) -> int:
        return len(self.A[0])

    @cached_property
    def B_rows(self) -> tuple[Cleared, ...]:
        return cleared_rows(self.B)

    @cached_property
    def M_rows(self) -> tuple[Cleared, ...]:
        return cleared_rows([(v, *row) for v, row in zip(self.lam, self.A)])

    @cached_property
    def lam_f(self) -> np.ndarray:
        return to_float_vector(self.lam, "lambda")

    @cached_property
    def A_f(self) -> np.ndarray:
        return cleared_to_float_matrix([(r[1:], d) for r, d in self.M_rows], "A")

    @cached_property
    def B_f(self) -> np.ndarray:
        return cleared_to_float_matrix(self.B_rows, "B")


def new_qp_map(lam, A, B) -> QPMap:
    """Validated construction of a QP map.

    Raises:
        DimensionMismatch: inconsistent shapes, or n < 1 / m < 1.
        ZeroColumnOfA: a quasimonomial would have no effect on any variable.
        ZeroRowOfB: a quasimonomial would be the constant 1.
    """
    return require_strict(QPMap(lam, A, B))


def require_strict(qp: QPMap) -> QPMap:
    """qp when it is in the strict QP form; else ZeroColumnOfA or ZeroRowOfB
    naming the first such column or row."""
    zero_cols, zero_rows = strictness_violations(qp)
    if zero_cols:
        raise ZeroColumnOfA(zero_cols[0])
    if zero_rows:
        raise ZeroRowOfB(zero_rows[0])
    return qp


def strictness_violations(qp: QPMap) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Return (zero columns of A, zero rows of B); both empty for strict maps."""
    return zero_column_indices(qp.A), zero_row_indices(qp.B)

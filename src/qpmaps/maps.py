"""QP maps as exact data: the immutable (lam, A, B) record and its validation.

This module is part of the exact layer and imports no numpy. The float
copies ``lam_f``, ``A_f`` and ``B_f`` are built on first use by the
``to_float_*`` converters, which load numpy then; evaluation lives in
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

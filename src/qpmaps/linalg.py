"""Exact linear algebra over the rationals.

Vectors and matrices are immutable tuples of ``fractions.Fraction``. All
operations here are exact: no pivot tolerance, no float intermediates.
The O(n^3) kernels (``mat_mul``, ``mat_vec``, ``rank``, ``inverse``) clear
denominators once per row or column and then work on Python integers:
products are integer dot products, and elimination is fraction-free
(Bareiss, Math. Comp. 22, 1968), dividing exactly by the previous pivot.
``Fraction`` objects appear only at the boundary, one per result entry.
Floats enter only through the explicit ``to_float_*`` converters used by
the dynamic (trajectory) side of the package; they alone load numpy, on
first use, so the exact layer runs without it.
"""

from __future__ import annotations

import re
from decimal import Decimal
from fractions import Fraction
from math import lcm
from operator import mul
from typing import TYPE_CHECKING

from .errors import DimensionMismatch, NumericOverflow, SingularMatrix

RVector = tuple[Fraction, ...]
RMatrix = tuple[RVector, ...]

if TYPE_CHECKING:
    import numpy as np

#: Largest |exponent| in a literal such as "1e400": Python's default int(str)
#: digit limit. Without it "1e1000000" builds a 3.3-million-bit integer.
MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"[eE][-+]?([0-9_]+)\Z")
#: A plain ASCII integer, read by int() instead of Fraction's own regex.
_INTEGER = re.compile(r"[+-]?[0-9]+")


def rational(value) -> Fraction:
    """Coerce an int, string or Fraction to an exact rational.

    A string is an optional sign ("-", "+" or U+2212), then "p/q" or a
    decimal with optional exponent ("3", "1/2", "1.5", ".5", "2e-3",
    "1.5E+2"), as fractions.Fraction reads it (from Python 3.11, with "_"
    between digits); |exponent| > MAX_EXPONENT raises ValueError first.
    Floats are rejected on purpose: silently converting a binary float to
    a fraction would contaminate the exact layer.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("expected a rational string or integer, got a boolean")
    if isinstance(value, float):
        raise TypeError('floats are not accepted; use a rational string like "1/2"')
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip().replace("−", "-")
        integer = _INTEGER.fullmatch(text)
        exponent = None if integer else _EXPONENT.search(text)
        # 5 significant digits exceed MAX_EXPONENT, so a long exponent is never converted
        if exponent and int(exponent[1].replace("_", "").lstrip("0")[:5] or 0) > MAX_EXPONENT:
            raise ValueError(f"exponent of {value!r} exceeds {MAX_EXPONENT} in magnitude")
        try:
            return Fraction(int(text)) if integer else Fraction(text)
        except ZeroDivisionError:
            raise ValueError("zero denominator") from None
        except ValueError:
            raise ValueError(f"not a rational literal: {value!r}") from None
    raise TypeError(f"expected a rational string or integer, got {type(value).__name__}")


def format_rational(value: Fraction) -> str:
    """Exact text of a rational, "p" or "p/q", as str(Fraction) gives it,
    however many digits p and q have.

    Decimal converts an int exactly and is not bound by the 4300-digit
    limit of str(int).
    """
    if value.denominator == 1:
        return str(Decimal(value.numerator))
    return f"{Decimal(value.numerator)}/{Decimal(value.denominator)}"


def rvector(entries) -> RVector:
    return tuple(rational(e) for e in entries)


def rmatrix(rows) -> RMatrix:
    """Canonicalize nested entries to a rectangular, nonempty rational matrix."""
    out = tuple(rvector(row) for row in rows)
    if not out or not out[0]:
        raise DimensionMismatch("matrix must have at least one row and one column")
    width = len(out[0])
    for i, row in enumerate(out):
        if len(row) != width:
            raise DimensionMismatch(f"row {i} has {len(row)} entries, expected {width}")
    return out


def identity(n: int) -> RMatrix:
    one, zero = Fraction(1), Fraction(0)
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def diagonal(entries) -> RMatrix:
    d = rvector(entries)
    zero = Fraction(0)
    return tuple(tuple(d[i] if i == j else zero for j in range(len(d))) for i in range(len(d)))


def _cleared(row) -> tuple[list[int], int]:
    """A rational row as (integer numerators, lcm of its denominators)."""
    d = lcm(*(e.denominator for e in row))
    return [e.numerator * (d // e.denominator) for e in row], d


def mat_mul(x: RMatrix, y: RMatrix) -> RMatrix:
    if len(x[0]) != len(y):
        raise DimensionMismatch(f"cannot multiply {len(x)}x{len(x[0])} by {len(y)}x{len(y[0])}")
    cols = [_cleared(col) for col in zip(*y)]
    return tuple(
        tuple(Fraction(sum(map(mul, r, c)), dr * dc) for c, dc in cols)
        for r, dr in map(_cleared, x)
    )


def mat_vec(m: RMatrix, v) -> RVector:
    v = rvector(v)
    if len(m[0]) != len(v):
        raise DimensionMismatch(f"cannot apply {len(m)}x{len(m[0])} to vector of length {len(v)}")
    c, dc = _cleared(v)
    return tuple(Fraction(sum(map(mul, r, c)), dr * dc) for r, dr in map(_cleared, m))


def augment_column(col, m: RMatrix) -> RMatrix:
    """Prepend a column: rows become (col_i, m_i1, ..., m_ik)."""
    col = rvector(col)
    if len(col) != len(m):
        raise DimensionMismatch("column length does not match row count")
    return tuple((col[i],) + m[i] for i in range(len(m)))


def is_zero(m: RMatrix) -> bool:
    return all(e == 0 for row in m for e in row)


def zero_row_indices(m: RMatrix) -> tuple[int, ...]:
    return tuple(i for i, row in enumerate(m) if all(e == 0 for e in row))


def zero_column_indices(m: RMatrix) -> tuple[int, ...]:
    return tuple(j for j in range(len(m[0])) if all(row[j] == 0 for row in m))


def pivot_columns(m: RMatrix) -> tuple[int, ...]:
    """Pivot columns of m, by fraction-free (Bareiss) elimination of the cleared rows.

    Scaling a row by its denominator lcm leaves the pivots unchanged. Each
    step takes the next column, left to right; if it is nonzero in some
    remaining row, that row becomes a pivot and the column is eliminated,
    otherwise it is skipped. Every entry stays a minor of the cleared
    matrix, so the division by the previous pivot is exact. The pivots
    found among the first k columns are those of the first k columns alone.
    """
    rows = [_cleared(row)[0] for row in m]
    pivots, prev = [], 1
    for c in range(len(m[0])):
        pivot = next((i for i, row in enumerate(rows) if row[0]), None)
        if pivot is None:
            rows = [row[1:] for row in rows]
            continue
        top = rows.pop(pivot)
        p, tail = top[0], top[1:]
        rows = [[(p * a - row[0] * b) // prev for a, b in zip(row[1:], tail)] for row in rows]
        prev = p
        pivots.append(c)
        if not rows:
            break
    return tuple(pivots)


def rank(m: RMatrix) -> int:
    """Exact rank: the number of pivot columns."""
    return len(pivot_columns(m))


def inverse(m: RMatrix) -> RMatrix:
    """Exact inverse by fraction-free Gauss-Jordan elimination; raises SingularMatrix.

    Eliminates [D.C | I] with D = diag(d_i), d_i the denominator lcm of row
    i, so every entry is an integer. The left block ends as det.I with det
    the last pivot, and C^-1 = (D.C)^-1 . D gives C^-1[i][j] = R[i][j] * d_j / det.
    """
    n = len(m)
    if len(m[0]) != n:
        raise DimensionMismatch(f"inverse requires a square matrix, got {n}x{len(m[0])}")
    cleared = [_cleared(row) for row in m]
    work = [r + [int(i == j) for j in range(n)] for i, (r, _) in enumerate(cleared)]
    prev = 1
    for c in range(n):
        pivot = next((i for i in range(c, n) if work[i][c]), None)
        if pivot is None:
            raise SingularMatrix("matrix is singular")
        work[c], work[pivot] = work[pivot], work[c]
        top = work[c]
        p = top[c]
        for i in range(n):
            if i != c:
                row = work[i]
                f = row[c]
                work[i] = [(p * a - f * b) // prev for a, b in zip(row, top)]
        prev = p
    return tuple(
        tuple(Fraction(e * d, prev) for e, (_, d) in zip(row[n:], cleared)) for row in work
    )


def _to_float(e: Fraction, where: str) -> float:
    try:
        return float(e)
    except OverflowError:
        raise NumericOverflow(f"{where} is outside the double range") from None


def to_float_vector(v, name: str) -> np.ndarray:
    """Float copy of the rational vector ``name``; NumericOverflow names an
    entry (e.g. ``lambda[0]``) whose magnitude exceeds the double range."""
    import numpy as np

    return np.array([_to_float(e, f"{name}[{i}]") for i, e in enumerate(v)], dtype=float)


def to_float_matrix(m: RMatrix, name: str) -> np.ndarray:
    """Float copy of the rational matrix ``name``; NumericOverflow names an
    entry (e.g. ``A[1][0]``) whose magnitude exceeds the double range."""
    import numpy as np

    return np.array([[_to_float(e, f"{name}[{i}][{j}]") for j, e in enumerate(row)]
                     for i, row in enumerate(m)], dtype=float)

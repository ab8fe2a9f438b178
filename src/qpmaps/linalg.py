"""Exact linear algebra over the rationals.

Vectors and matrices are immutable tuples of ``fractions.Fraction``. All
operations are exact: no pivot tolerance, no float intermediates. The O(n^3)
kernels (``mat_mul``, ``rank``, ``inverse``) clear denominators once per row or
column and work on Python integers. A product packs the cleared columns of its
right factor into signed slots of at most 8 bytes, one int per row and run of
such columns (Kronecker substitution): column j's slot holds R*max|c_j|, R the
largest row 1-norm of the left factor, so a row of the product is one big-int
multiply-add per inner index and run, decoded once. A column that fits no 8-byte
slot, wide itself or through a wide left factor, is one dot product per entry.
``rank`` and ``inverse`` share one forward fraction-free pass (Bareiss, Math.
Comp. 22, 1968), which ``inverse`` finishes by back-substitution (Nakos, Turner
and Williams, 1997); both divide exactly by pivots. ``Fraction`` objects appear
only at the boundary, one per distinct nonzero entry of a product, built with no
gcd when its denominator is 1; its zero entries share one. A row or column of
integers is its numerators as they are, and :func:`rvector` returns a tuple of
``Fraction`` entries unchanged, so a map or QMT built from another one's
entries reuses them.
Floats enter only through the explicit ``to_float_*`` converters of the dynamic
(trajectory) side; they alone load numpy, on first use, so the exact layer runs
without it.
"""

from __future__ import annotations

import re
from decimal import Decimal
from fractions import Fraction
from itertools import accumulate, chain, repeat
from math import lcm
from operator import attrgetter, lshift, mul
from struct import Struct, calcsize
from typing import TYPE_CHECKING

from .errors import DimensionMismatch, NumericOverflow, SingularMatrix

RVector = tuple[Fraction, ...]
RMatrix = tuple[RVector, ...]

if TYPE_CHECKING:
    import numpy as np

#: Largest |exponent| in a literal such as "1e400": Python's default int(str)
#: digit limit. Without it "1e1000000" builds a 3.3-million-bit integer.
MAX_EXPONENT = 4300
#: The exponent of a literal in any Unicode decimal digits, as Fraction reads it.
_EXPONENT = re.compile(r"[eE][-+]?(\d[\d_]*)\Z")
#: A plain ASCII integer, read by int() instead of Fraction's own regex.
_INTEGER = re.compile(r"[+-]?[0-9]+")
#: The struct code of a signed slot of 1 to 8 bytes, rounded up to 1, 2, 4 or 8 (see _runs)
_SLOT_CODES = "bhiiqqqq"
_ZERO = Fraction(0)
_numerator = attrgetter("numerator")
_denominator = attrgetter("denominator")


def rational(value) -> Fraction:
    """Coerce an int, string or Fraction to an exact rational.

    A string is an optional sign ("-", "+" or U+2212), then "p/q" or a
    decimal with optional exponent ("3", "1/2", "1.5", ".5", "2e-3",
    "1.5E+2"), as fractions.Fraction reads it (from Python 3.11, with "_"
    between digits). Like Fraction, it takes the digits of any script
    (Unicode decimal digits, such as "\u0663" for 3), and so does the
    bound: |exponent| > MAX_EXPONENT raises ValueError before any power of
    ten is built, however the exponent's digits and leading zeros are written.
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
        # float() reads digits of every script, leading zeros of any length
        # and a huge exponent (as inf) in linear time, and is exact near MAX_EXPONENT
        if exponent and float(exponent[1].replace("_", "")) > MAX_EXPONENT:
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
    """Entries as a tuple of Fractions; a tuple of Fractions is returned as it is."""
    if type(entries) is tuple and set(map(type, entries)) <= {Fraction}:
        return entries
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
    d = lcm(*map(_denominator, row))
    if d == 1:
        return list(map(_numerator, row)), 1
    return [e.numerator * (d // e.denominator) for e in row], d


def _fraction(p: int, q: int) -> Fraction:
    """p/q for q > 0, with no gcd when q is 1; every zero is one shared Fraction."""
    return _ZERO if not p else Fraction(p) if q == 1 else Fraction(p, q)


def _runs(rows, cols) -> list[tuple]:
    """The cleared columns (c_j, e_j) of y in runs, for the products r_i.c_j with the
    cleared rows (r_i, d_i) of x, packed by Kronecker substitution (Harvey,
    J. Symbolic Comput. 44, 2009) where that pays.

    Since |r_i.c_j| <= R*max|c_j|, R the largest row 1-norm, column j gets a signed
    little-endian slot of 1, 2, 4 or 8 bytes that holds it, if one does. A run of such
    columns packs row k of y to P_k = sum_j c_j[k] << 8*start_j, so that
    sum_k r_i[k]*P_k is sum_j (r_i.c_j) << 8*start_j: one multiply-add per inner index
    for the run, each multiply by an |r_i[k]| < 2**63. Adding, then xoring, the top
    bit of every slot leaves each r_i.c_j as two's complement in its own slot. A run
    of columns that fit no 8-byte slot stays dot products: packed, each multiply would
    cost |r_i[k]| times the run's width, which grows with R, quadratic in x's width.
    A packed run is (P, top bits, struct unpack, bytes, [e_j]), a plain one
    ([c_j], 0, None, 0, [e_j]).
    """
    norm = max(sum(map(abs, r)) for r, _ in rows)
    runs = []  # per run: its first column and its slots' struct codes ("" if plain)
    for j, (c, _) in enumerate(cols):
        width = (norm * max(map(abs, c))).bit_length() // 8  # slot bytes - 1
        code = _SLOT_CODES[width] if width < 8 else ""
        if not runs or bool(runs[-1][1][-1]) != bool(code):
            runs.append((j, []))
        runs[-1][1].append(code)
    ys = list(zip(*(c for c, _ in cols)))
    out = []
    for j, codes in runs:
        k = j + len(codes)
        dens = [e for _, e in cols[j:k]]
        if not codes[0]:
            out.append(([c for c, _ in cols[j:k]], 0, None, 0, dens))
            continue
        ends = list(accumulate(map(calcsize, codes)))
        shifts = [0] + [8 * e for e in ends[:-1]]
        out.append(([sum(map(lshift, y[j:k], shifts)) for y in ys],
                    sum(1 << (8 * e - 1) for e in ends),
                    Struct("<" + "".join(codes)).unpack, ends[-1], dens))
    return out


class _Entries(dict):
    """Product entries by (numerator, denominator), each distinct one built once."""

    def __missing__(self, key):
        e = self[key] = _fraction(*key)
        return e


def _numerators(r, runs):
    """Run by run (:func:`_runs`), the numerators r.c_j of a cleared row r of x."""
    for packed, top, unpack, size, _ in runs:
        if unpack:
            yield unpack(((sum(map(mul, r, packed)) + top) ^ top).to_bytes(size, "little"))
        else:
            yield [sum(map(mul, r, c)) for c in packed]


def mat_mul(x: RMatrix, y: RMatrix) -> RMatrix:
    """The exact product x.y.

    Row i of x is cleared to r_i/d_i and column j of y to c_j/e_j, and the columns are
    taken in runs (:func:`_runs`). For a packed run, row i of x.y is one sum of r_i
    times the packed rows of y, decoded by one to_bytes and one struct unpack into the
    numerators r_i.c_j over d_i*e_j, and each distinct entry is one Fraction; a plain
    run is one dot product per entry. Every zero entry is the same Fraction.
    """
    if len(x[0]) != len(y):
        raise DimensionMismatch(f"cannot multiply {len(x)}x{len(x[0])} by {len(y)}x{len(y[0])}")
    rows = list(map(_cleared, x))
    runs = _runs(rows, [_cleared(col) for col in zip(*y)])
    entries = _Entries()
    out = []
    for r, d in rows:
        row = []
        for nums, (_, _, unpack, _, dens) in zip(_numerators(r, runs), runs):
            qs = map(mul, repeat(d), dens)
            row += map(entries.__getitem__, zip(nums, qs)) if unpack else map(_fraction, nums, qs)
        out.append(tuple(row))
    return tuple(out)


def is_inverse(x: RMatrix, y: RMatrix) -> bool:
    """True iff x.y is the identity; raises DimensionMismatch unless x and y are both n x n.

    Decided on the numerators of :func:`mat_mul`, building no Fraction: with row i of x
    equal to r_i/d_i and column j of y to c_j/e_j, (x.y)[i][j] = r_i.c_j/(d_i*e_j),
    which is 1 iff r_i.c_j = d_i*e_j and 0 iff r_i.c_j = 0.
    """
    n = len(x)
    if len(x[0]) != n or len(y) != n or len(y[0]) != n:
        raise DimensionMismatch(f"is_inverse needs two n x n matrices, got "
                                f"{len(x)}x{len(x[0])} and {len(y)}x{len(y[0])}")
    rows = list(map(_cleared, x))
    cols = [_cleared(col) for col in zip(*y)]
    runs = _runs(rows, cols)
    for i, ((r, d), (_, e)) in enumerate(zip(rows, cols)):
        nums = list(chain.from_iterable(_numerators(r, runs)))
        if nums[i] != d * e or any(nums[:i]) or any(nums[i + 1:]):
            return False
    return True


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


def _echelon(rows: list[list[int]]) -> tuple[list[int], list[list[int]], int]:
    """Forward fraction-free (Bareiss) elimination of integer rows.

    Each step takes the next column, left to right; if it is nonzero in some remaining
    row, that row becomes a pivot and the column is eliminated, otherwise it is skipped.
    Every entry stays a minor of the input, so the division by the previous pivot is
    exact, and the pivots among the first k columns are those of these columns alone.
    Returns the pivot columns, each pivot row from its pivot column on, and the last pivot.
    """
    pivots, tops, prev = [], [], 1
    for c in range(len(rows[0])):
        pivot = next((i for i, row in enumerate(rows) if row[0]), None)
        if pivot is None:
            rows = [row[1:] for row in rows]
            continue
        top = rows.pop(pivot)
        p, tail = top[0], top[1:]
        rows = [[(p * a - row[0] * b) // prev for a, b in zip(row[1:], tail)] for row in rows]
        prev = p
        pivots.append(c)
        tops.append(top)
        if not rows:
            break
    return pivots, tops, prev


def pivot_columns(m: RMatrix) -> tuple[int, ...]:
    """Pivot columns of m, by one forward Bareiss pass (:func:`_echelon`) over
    its cleared rows: scaling a row by its denominator lcm leaves them unchanged."""
    return tuple(_echelon([_cleared(row)[0] for row in m])[0])


def rank(m: RMatrix) -> int:
    """Exact rank: the number of pivot columns."""
    return len(pivot_columns(m))


def inverse(m: RMatrix) -> RMatrix:
    """Exact inverse by one forward Bareiss pass and back-substitution; raises SingularMatrix.

    The pass runs on the integers [D.C | I], D = diag(d_i) with d_i the denominator
    lcm of row i. That has rank n, so C is singular iff the last pivot is in I's
    columns. Else it leaves [U | Y], U upper triangular and U.(D.C)^-1 = Y. With det
    the last pivot, X = det.(D.C)^-1 is an integer matrix: U.X = det.Y is solved from
    the last row up, dividing exactly by each pivot, and C^-1[i][j] = X[i][j]*d_j/det.
    """
    n = len(m)
    if len(m[0]) != n:
        raise DimensionMismatch(f"inverse requires a square matrix, got {n}x{len(m[0])}")
    cleared = [_cleared(row) for row in m]
    pivots, tops, det = _echelon([r + [int(i == j) for j in range(n)]
                                  for i, (r, _) in enumerate(cleared)])
    if pivots[-1] >= n:
        dependent = next(c for c, p in enumerate(pivots) if c != p)
        raise SingularMatrix(f"matrix is singular: rank {sum(c < n for c in pivots)} of {n}, "
                             f"column {dependent} depends on the columns before it")
    cols = [[] for _ in range(n)]  # column j of X, last row first
    for top in reversed(tops):
        p, u = top[0], top[len(top) - n - 1:0:-1]  # U[k][k], then U[k][n-1] down to U[k][k+1]
        for col, y in zip(cols, top[len(top) - n:]):
            col.append((det * y - sum(map(mul, u, col))) // p)
    return tuple(tuple(Fraction(col[k] * d, det) for col, (_, d) in zip(cols, cleared))
                 for k in reversed(range(n)))


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

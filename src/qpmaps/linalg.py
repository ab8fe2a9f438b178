"""Exact linear algebra over the rationals.

Vectors and matrices are immutable tuples of ``fractions.Fraction``. All
operations are exact: no pivot tolerance, no float intermediates. The O(n^3)
kernels work on Python integers: each row (or column) cleared to its integer
numerators over the lcm of its denominators (:data:`Cleared`). ``mat_mul``,
``rank`` and ``inverse`` clear their arguments on each call; the kernels under
them, :func:`_product`, :func:`_echelon` and :func:`inverse_rows`, take rows
already cleared, so a map or QMT that keeps its cleared rows (``QPMap.B_rows``,
``QMT.C_inv_rows``, ...) clears each matrix once. A product packs each cleared row of its
right factor into one int, a signed slot per column (Kronecker substitution).
Every slot of a product has one width of 1, 2, 4 or 8 bytes that holds R*C, R
the largest row 1-norm of the left factor and C the largest |entry| of the right
one, so a row of the product is one big-int multiply-add per inner index, decoded
once. A product whose R*C fits no 8-byte slot is one dot product per entry.
``rank`` and ``inverse`` share one forward fraction-free pass (Bareiss, Math.
Comp. 22, 1968), which touches a row only at pivots where its entry is nonzero,
and which ``inverse`` finishes by back-substitution (Nakos, Turner and Williams,
1997); both divide exactly by pivots. ``Fraction`` objects appear only at the
boundary, one per distinct nonzero entry of a product, built with no gcd when its
denominator is 1; its zero entries share one. A row or column of
integers is its numerators as they are, and :func:`rvector` returns a tuple of
``Fraction`` entries unchanged, so a map or QMT built from another one's
entries reuses them.
Floats enter only through the explicit ``to_float_*`` converters of the dynamic
(trajectory) side, and :func:`cleared_to_float_matrix`, which divides cleared
rows directly; they alone load numpy, on first use, so the exact layer runs
without it.
"""

from __future__ import annotations

import re
from decimal import Decimal
from fractions import Fraction
from itertools import chain, repeat
from math import gcd, lcm
from operator import attrgetter, floordiv, lshift, mul, truediv
from struct import Struct, calcsize
from typing import TYPE_CHECKING

from .errors import DimensionMismatch, NumericOverflow, SingularMatrix

RVector = tuple[Fraction, ...]
RMatrix = tuple[RVector, ...]
#: A rational row cleared of denominators: its integer numerators over one
#: positive denominator, the lcm of its entries' denominators.
Cleared = tuple[tuple[int, ...], int]

if TYPE_CHECKING:
    import numpy as np

#: Largest |exponent| in a literal such as "1e400": Python's default int(str)
#: digit limit. Without it "1e1000000" builds a 3.3-million-bit integer.
MAX_EXPONENT = 4300
#: The exponent of a literal in any Unicode decimal digits, as Fraction reads it.
_EXPONENT = re.compile(r"[eE][-+]?(\d[\d_]*)\Z")
#: A plain ASCII integer or "p/q", read by int() instead of Fraction's own regex.
_PLAIN = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")
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
        plain = _PLAIN.fullmatch(text)
        exponent = None if plain else _EXPONENT.search(text)
        # float() reads digits of every script, leading zeros of any length
        # and a huge exponent (as inf) in linear time, and is exact near MAX_EXPONENT
        if exponent and float(exponent[1].replace("_", "")) > MAX_EXPONENT:
            raise ValueError(f"exponent of {value!r} exceeds {MAX_EXPONENT} in magnitude")
        try:
            if plain:
                p, q = plain.groups()
                return Fraction(int(p), int(q)) if q else Fraction(int(p))
            return Fraction(text)
        except ZeroDivisionError:
            raise ValueError("zero denominator") from None
        except ValueError:
            raise ValueError(f"not a rational literal: {value!r}") from None
    raise TypeError(f"expected a rational string or integer, got {type(value).__name__}")


def format_rational(value: Fraction) -> str:
    """Exact text of a rational, "p" or "p/q", as str(Fraction) gives it,
    however many digits p and q have.

    str() is tried first; only past the 4300-digit limit of str(int), where
    it raises ValueError, does Decimal convert each int, exactly and unbound.
    """
    try:
        return str(value)
    except ValueError:
        pass
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


def _cleared(row) -> Cleared:
    """A rational row as (integer numerators, lcm of its denominators)."""
    d = lcm(*map(_denominator, row))
    if d == 1:
        return tuple(map(_numerator, row)), 1
    return tuple(e.numerator * (d // e.denominator) for e in row), d


def cleared_rows(m: RMatrix) -> tuple[Cleared, ...]:
    """The cleared rows of m, each as :func:`_cleared` gives it."""
    return tuple(map(_cleared, m))


def cleared_columns(rows) -> tuple[Cleared, ...]:
    """The cleared columns of the matrix whose cleared rows are ``rows``, by
    integer operations alone: entry x/d of a row, x = p*(d/q) for the reduced
    p/q, has gcd(x, d) = d/q, so it reads p = x // g and q = d // g."""
    nums, dens = zip(*rows)
    if set(dens) == {1}:
        return tuple((col, 1) for col in zip(*nums))
    out = []
    for col in zip(*nums):
        shrink = list(map(gcd, col, dens))
        qs = list(map(floordiv, dens, shrink))
        e = lcm(*qs)
        out.append((tuple(x // g * (e // q) for x, g, q in zip(col, shrink, qs)), e))
    return tuple(out)


def rational_rows(rows) -> RMatrix:
    """The Fraction matrix of cleared rows; each entry is its own Fraction."""
    return tuple(tuple(Fraction(x) for x in r) if d == 1 else
                 tuple(Fraction(x, d) for x in r) for r, d in rows)


def _fraction(p: int, q: int) -> Fraction:
    """p/q for q > 0, with no gcd when q is 1; every zero is one shared Fraction."""
    return _ZERO if not p else Fraction(p) if q == 1 else Fraction(p, q)


def _packed(rows, cols):
    """The numerators r.c_j of a cleared row r of x, as one function of r, for the
    cleared rows (r_i, d_i) of x and columns (c_j, e_j) of y, packed by Kronecker
    substitution (Harvey, J. Symbolic Comput. 44, 2009); None if they fit no 8-byte slot.

    Since |r_i.c_j| <= R*C, R the largest row 1-norm of x and C the largest |c_j[k]|,
    every column gets a signed little-endian slot of the same w bits (1, 2, 4 or 8
    bytes) that holds R*C. Row k of y packs to P_k = sum_j c_j[k] << w*j, so that
    sum_k r[k]*P_k is sum_j (r.c_j) << w*j: one multiply-add per inner index, each
    by an |r[k]| < 2**63. Adding, then xoring, the top bit of every slot leaves
    each r.c_j as two's complement in its own slot. Wider than 8 bytes, each multiply
    would cost |r[k]| times the whole row's width, which grows with R, quadratic in
    x's width, so the product is left to one dot product per entry.
    """
    norm = max(sum(map(abs, r)) for r, _ in rows)
    width = (norm * max(max(map(abs, c)) for c, _ in cols)).bit_length() // 8  # slot bytes - 1
    if width >= 8:
        return None
    code = "bhiiqqqq"[width]  # the signed struct code of that many bytes, rounded up
    bits, n = 8 * calcsize(code), len(cols)
    shifts = range(0, bits * n, bits)
    packed = [sum(map(lshift, y, shifts)) for y in zip(*(c for c, _ in cols))]
    top = sum(map(lshift, repeat(1 << bits - 1, n), shifts))
    unpack, size = Struct(f"<{n}{code}").unpack, bits * n // 8
    return lambda r: unpack(((sum(map(mul, r, packed)) + top) ^ top).to_bytes(size, "little"))


class _Entries(dict):
    """Product entries by (numerator, denominator), each distinct one built once."""

    def __missing__(self, key):
        e = self[key] = _fraction(*key)
        return e


def mat_mul(x: RMatrix, y: RMatrix) -> RMatrix:
    """The exact product x.y: the cleared rows of x and columns of y, multiplied by
    :func:`_product`."""
    if len(x[0]) != len(y):
        raise DimensionMismatch(f"cannot multiply {len(x)}x{len(x[0])} by {len(y)}x{len(y[0])}")
    return _product(cleared_rows(x), cleared_rows(tuple(zip(*y))))


def _product(rows, cols) -> RMatrix:
    """The exact product of the matrix with cleared rows r_i/d_i and the one with
    cleared columns c_j/e_j.

    If the product packs (:func:`_packed`), row i is one sum of r_i times the packed
    rows of the right factor, decoded by one to_bytes and one struct unpack into the
    numerators r_i.c_j over d_i*e_j, and each distinct entry is one Fraction; otherwise
    each entry is one dot product. Every zero entry is the same Fraction.
    """
    numerators = _packed(rows, cols)
    if numerators is None:
        return tuple(tuple(_fraction(sum(map(mul, r, c)), d * e) for c, e in cols)
                     for r, d in rows)
    dens = [e for _, e in cols]
    entry = _Entries().__getitem__
    return tuple(tuple(map(entry, zip(numerators(r), map(mul, repeat(d), dens))))
                 for r, d in rows)


def augment_column(col, m: RMatrix) -> RMatrix:
    """Prepend a column: rows become (col_i, m_i1, ..., m_ik)."""
    col = rvector(col)
    if len(col) != len(m):
        raise DimensionMismatch("column length does not match row count")
    return tuple((col[i],) + m[i] for i in range(len(m)))


def is_zero(m: RMatrix) -> bool:
    return all(e == 0 for row in m for e in row)


def zero_row_indices(m: RMatrix) -> tuple[int, ...]:
    return tuple(i for i, row in enumerate(m) if not any(row))


def zero_column_indices(m: RMatrix) -> tuple[int, ...]:
    return tuple(j for j, col in enumerate(zip(*m)) if not any(col))


def _echelon(rows: list[list[int]]) -> tuple[list[int], list[list[int]], int]:
    """Forward fraction-free (Bareiss) elimination of integer rows.

    Each step takes the next column, left to right; if it is nonzero in some remaining
    row, that row becomes a pivot and the column is eliminated, otherwise it is skipped.
    Every entry stays a minor of the input, so the division by the previous pivot is
    exact, and the pivots among the first k columns are those of these columns alone.
    Returns the pivot columns, each pivot row from its pivot column on, and the last pivot.

    A remaining row is left alone at a pivot where its entry is zero: it keeps the
    divisor d it was last updated with (1 at the start), so it is the true Bareiss row
    times d/prev, prev the last pivot. A row with lead f becomes (p*a - f*b) // d and
    takes divisor p, and a stale pivot row is rescaled by prev/d. So a row costs work
    only at the pivots of columns where it is nonzero, and the results are those of
    the dense pass.
    """
    rows = [[list(row), 1] for row in rows]  # each remaining row and its divisor
    pivots, tops, prev = [], [], 1
    for c in range(len(rows[0][0])):
        pivot = next((i for i, (row, _) in enumerate(rows) if row[c]), None)
        if pivot is None:
            continue
        top, d = rows.pop(pivot)
        top = top[c:] if d == prev else [a * prev // d for a in top[c:]]
        p, tail, rest = top[0], top[1:], c + 1
        for entry in rows:
            row, d = entry
            f = row[c]
            if f:
                row[rest:] = [(p * a - f * b) // d for a, b in zip(row[rest:], tail)]
                entry[1] = p
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
    """Exact inverse (:func:`inverse_rows` of m's cleared rows); raises SingularMatrix."""
    n = len(m)
    if len(m[0]) != n:
        raise DimensionMismatch(f"inverse requires a square matrix, got {n}x{len(m[0])}")
    return rational_rows(inverse_rows(cleared_rows(m)))


def inverse_rows(rows) -> tuple[Cleared, ...]:
    """The cleared rows of C^-1, for the cleared rows of a square C, by one forward
    Bareiss pass and back-substitution; raises SingularMatrix.

    The pass runs on the integers [D.C | I], D = diag(d_i) with d_i the denominator
    lcm of row i. That has rank n, so C is singular iff the last pivot is in I's
    columns. Else it leaves [U | Y], U upper triangular and U.(D.C)^-1 = Y. With det
    the last pivot, X = det.(D.C)^-1 is an integer matrix: U.X = det.Y is solved from
    the last row up, dividing exactly by each pivot, and C^-1[i][j] = X[i][j]*d_j/det.
    Row i is then cleared by g, the gcd of det and every X[i][j]*d_j, signed as det:
    det/g is the lcm of its reduced denominators.
    """
    n = len(rows)
    pivots, tops, det = _echelon([(*r, *(int(i == j) for j in range(n)))
                                  for i, (r, _) in enumerate(rows)])
    if pivots[-1] >= n:
        dependent = next(c for c, p in enumerate(pivots) if c != p)
        raise SingularMatrix(f"matrix is singular: rank {sum(c < n for c in pivots)} of {n}, "
                             f"column {dependent} depends on the columns before it")
    cols = [[] for _ in range(n)]  # column j of X, last row first
    for top in reversed(tops):
        p, u = top[0], top[len(top) - n - 1:0:-1]  # U[k][k], then U[k][n-1] down to U[k][k+1]
        for col, y in zip(cols, top[len(top) - n:]):
            col.append((det * y - sum(map(mul, u, col))) // p)
    dens = [d for _, d in rows]
    out = []
    for k in reversed(range(n)):
        row = [col[k] * d for col, d in zip(cols, dens)]
        g = gcd(det, *row) if det > 0 else -gcd(det, *row)
        out.append((tuple(x // g for x in row), det // g))
    return tuple(out)


def _floats(entries) -> list[float]:
    """Each rational as float(e) gives it: numerator / denominator, which Python rounds
    correctly however large either is. OverflowError when one exceeds the double range."""
    return list(map(truediv, map(_numerator, entries), map(_denominator, entries)))


def _first_overflow(numerators, denominators) -> int:
    """Index of the first quotient whose magnitude exceeds the double range."""
    for k, (p, q) in enumerate(zip(numerators, denominators)):
        try:
            p / q
        except OverflowError:
            return k
    raise ValueError("every entry is in the double range")


def to_float_vector(v, name: str) -> np.ndarray:
    """Float copy of the rational vector ``name``; NumericOverflow names an
    entry (e.g. ``lambda[0]``) whose magnitude exceeds the double range."""
    import numpy as np

    try:
        return np.array(_floats(v), dtype=float)
    except OverflowError:
        i = _first_overflow(map(_numerator, v), map(_denominator, v))
    raise NumericOverflow(f"{name}[{i}] is outside the double range")


def to_float_matrix(m: RMatrix, name: str) -> np.ndarray:
    """Float copy of the rational matrix ``name``; NumericOverflow names an
    entry (e.g. ``A[1][0]``) whose magnitude exceeds the double range."""
    import numpy as np

    try:
        return np.array([_floats(row) for row in m], dtype=float)
    except OverflowError:
        entries = list(chain.from_iterable(m))
        k = _first_overflow(map(_numerator, entries), map(_denominator, entries))
    i, j = divmod(k, len(m[0]))
    raise NumericOverflow(f"{name}[{i}][{j}] is outside the double range")


def cleared_to_float_matrix(rows, name: str) -> np.ndarray:
    """Float copy of the matrix ``name`` with these cleared rows, the same bits as
    :func:`to_float_matrix` gives: x / d of two ints is correctly rounded, reduced
    or not. NumericOverflow names the same entry."""
    import numpy as np

    try:
        return np.array([list(map(truediv, r, repeat(d))) for r, d in rows], dtype=float)
    except OverflowError:
        k = _first_overflow(chain.from_iterable(r for r, _ in rows),
                            chain.from_iterable(repeat(d, len(r)) for r, d in rows))
    i, j = divmod(k, len(rows[0][0]))
    raise NumericOverflow(f"{name}[{i}][{j}] is outside the double range")

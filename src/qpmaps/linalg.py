"""Exact linear algebra over the rationals.

Vectors and matrices are immutable tuples of ``fractions.Fraction``. All
operations are exact: no pivot tolerance, no float intermediates. The O(n^3)
kernels work on Python integers: each row cleared to its integer numerators
over the lcm of its denominators (:data:`Cleared`). ``mat_mul``, ``rank`` and
``inverse`` clear their arguments on each call; the kernels under them,
:func:`_product`, :func:`_echelon` and :func:`inverse_rows`, take rows already
cleared, which a map or QMT holds from construction (``QPMap.B_rows``,
``QMT.C_inv_rows``, ...), so each matrix is cleared once. A product takes both
factors as cleared rows and clears the right factor's columns itself, which for an
integer right factor are its rows as they are; otherwise it brings every row
over the lcm of the row denominators and reduces each column by one gcd. It
packs each row of the column-cleared right factor into one int, a signed slot
per column (Kronecker substitution). Every slot of a product has one width of 1,
2, 4 or 8 bytes that holds R*C, R the largest row 1-norm of the left factor and C
the largest |entry| of the right one, so a row of the product is one big-int
multiply-add per inner index, decoded once. A product whose R*C fits no 8-byte
slot is one dot product per entry.
A product has one form: its numerators r_i.c_j over d_i*e_j, brought to
canonical cleared rows (:func:`_reduced_rows`: one lcm of the column
denominators, then one gcd per row), which ``mat_mul`` and ``class_invariant``
read as Fractions and a transformed map holds as its integer form.
One forward fraction-free pass (Bareiss, Math. Comp. 22, 1968), :func:`_echelon`,
serves the exact ranks and the inverse; it touches a row only at pivots where its
entry is nonzero, and divides exactly by pivots. ``inverse`` carries the rows of
the identity through it as right-hand sides packed the same way, one int per row, and
finishes by back-substitution on whole packed rows (Nakos, Turner and Williams,
1997): a multiply-add per pair of rows, not per entry. Its slots hold the
entries of the adjugate, bounded by Hadamard's bound on the rows, so they are
sized from the input and decoded once per row of the result, whatever the
intermediates overflow. It takes the rows narrowest first, so that one wide row
meets the others only at the last pivot.
There is one rank routine, :func:`_ranks`, behind both ``rank`` and the rank bounds
of a map (``symplectic.rank_bounds``); the library gives ranks, not pivot columns.
It eliminates modulo the Mersenne prime P = 2**31 - 1 first (:func:`_mod_pivots`),
on rows packed into 64-bit slots: a pivot step is one multiply-add and one Mersenne
fold per row, which keeps every slot below 2**32 + 2, so the next step stays below
2**64, whatever the size of the entries.
A rank mod P is never above the rank over Q; :func:`_certified` proves it equal
when it is min(rows, columns), or when the product of the rank + 1 largest squared
row norms is below P**2 (Hadamard's bound). Only a rank not certified takes the
Bareiss pass, on the rows narrowest first. Past the entry points that take
``Fraction``s (``mat_mul``, ``rank``, ``inverse`` and the records' constructors),
rows become ``Fraction``s and never the reverse: a ``Fraction`` matrix is a view of
cleared rows (:func:`rational_rows`), one ``Fraction`` per distinct nonzero entry,
built with no gcd when its denominator is 1; the zero entries share one. A row
or column of integers is its numerators as they are, and :func:`rvector` returns
a tuple of ``Fraction`` entries unchanged, so a map or QMT built from another
one's entries reuses them.
Floats enter only through the two converters of the dynamic (trajectory) side,
:func:`to_float_vector` of a ``Fraction`` vector and :func:`cleared_to_float_matrix`
of cleared rows; they alone load numpy, on first use, so the exact layer runs
without it.
"""

from __future__ import annotations

import re
from decimal import Decimal
from functools import lru_cache
from fractions import Fraction
from itertools import chain, repeat
from math import gcd, lcm, prod
from operator import attrgetter, floordiv, lshift, mul, truediv
from struct import Struct
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
#: The Mersenne prime 2**31 - 1 of the modular ranks (:func:`_mod_pivots`).
_P = (1 << 31) - 1
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


def _column_cleared(rows) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """The matrix with cleared rows ``rows`` with each column cleared instead: the
    integer rows of its column numerators, and each column's denominator lcm. An
    integer matrix is its rows as they are over 1. Otherwise every row is brought
    over e, the lcm of the row denominators, so column j is its numerators t_j over
    e; with g = gcd(e, *t_j), one gcd per column, it reduces to t_j // g over e // g,
    the lcm of its entries' reduced denominators."""
    nums, dens = zip(*rows)
    if set(dens) == {1}:
        return nums, (1,) * len(nums[0])
    e = lcm(*dens)
    nums = [r if d == e else tuple(map(mul, r, repeat(e // d))) for r, d in zip(nums, dens)]
    shrink = [gcd(e, *col) for col in zip(*nums)]
    return tuple(tuple(map(floordiv, r, shrink)) for r in nums), tuple(e // g for g in shrink)


def _fraction(p: int, q: int) -> Fraction:
    """p/q for q > 0, with no gcd when q is 1; every zero is one shared Fraction."""
    return _ZERO if not p else Fraction(p) if q == 1 else Fraction(p, q)


def _slots(n: int, size: int):
    """The shifts and the decoder of n signed little-endian slots of ``size`` bytes
    each, a size of at most 8 rounded up to 1, 2, 4 or 8: an int sum_j x_j << shifts[j]
    with every x_j in the range of its slot decodes to the tuple of the x_j. Adding,
    then xoring, the top bit of every slot leaves each x_j as two's complement in its
    own slot, read by one struct unpack, or by one int.from_bytes per slot when the
    slots are wider than 8 bytes."""
    if size <= 8:
        size = 1 << (size - 1).bit_length()
    bits, length = 8 * size, n * size
    shifts = range(0, bits * n, bits)
    top = sum(map(lshift, repeat(1 << bits - 1, n), shifts))
    if size <= 8:
        unpack = Struct(f"<{n}{'bhiq'[size.bit_length() - 1]}").unpack
        return shifts, lambda v: unpack(((v + top) ^ top).to_bytes(length, "little"))
    offsets, from_bytes = range(0, length, size), int.from_bytes

    def decode(v):
        raw = ((v + top) ^ top).to_bytes(length, "little")
        return tuple(from_bytes(raw[i:i + size], "little", signed=True) for i in offsets)

    return shifts, decode


def _packed(rows, right):
    """The numerators r.c_j of a cleared row r of x, as one function of r, for the
    cleared rows (r_i, d_i) of x and the integer rows of y column-cleared, whose
    columns are c_j (:func:`_column_cleared`), packed by Kronecker substitution
    (Harvey, J. Symbolic Comput. 44, 2009); None if they fit no 8-byte slot.

    Since |r_i.c_j| <= R*C, R the largest row 1-norm of x and C the largest |c_j[k]|,
    every column gets a signed slot of the same w bits (1, 2, 4 or 8 bytes,
    :func:`_slots`) that holds R*C. Row k of y packs to P_k = sum_j c_j[k] << w*j, so
    that sum_k r[k]*P_k is sum_j (r.c_j) << w*j: one multiply-add per inner index,
    each by an |r[k]| < 2**63, decoded once. Wider than 8 bytes, each multiply
    would cost |r[k]| times the whole row's width, which grows with R, quadratic in
    x's width, so the product is left to one dot product per entry.
    """
    norm = max(sum(map(abs, r)) for r, _ in rows)
    size = (norm * max(max(map(abs, y)) for y in right)).bit_length() // 8 + 1
    if size > 8:
        return None
    shifts, decode = _slots(len(right[0]), size)
    packed = [sum(map(lshift, y, shifts)) for y in right]
    return lambda r: decode(sum(map(mul, r, packed)))


class _Entries(dict):
    """Entries by (numerator, denominator), each distinct one built once."""

    def __missing__(self, key):
        e = self[key] = _fraction(*key)
        return e


def rational_rows(rows) -> RMatrix:
    """The Fraction matrix of cleared rows r_i/d_i, each distinct entry one
    Fraction and every zero the same one."""
    entry = _Entries().__getitem__
    return tuple(tuple(map(entry, zip(r, repeat(d)))) for r, d in rows)


def mat_mul(x: RMatrix, y: RMatrix) -> RMatrix:
    """The exact product x.y: the cleared rows of x and of y, multiplied by
    :func:`_product`, as Fractions."""
    if len(x[0]) != len(y):
        raise DimensionMismatch(f"cannot multiply {len(x)}x{len(x[0])} by {len(y)}x{len(y[0])}")
    return rational_rows(_product(cleared_rows(x), cleared_rows(y)))


def _product(rows, right) -> tuple[Cleared, ...]:
    """The canonical cleared rows of the product of the matrices with cleared rows
    r_i/d_i and ``right``.

    The right factor's columns are cleared to c_j/e_j (:func:`_column_cleared`). If
    the product packs (:func:`_packed`), row i is one sum of r_i times the packed
    rows of the right factor, decoded by one to_bytes and one struct unpack into the
    numerators r_i.c_j; otherwise each numerator is one dot product. Entry (i, j)
    is r_i.c_j over d_i*e_j, which :func:`_reduced_rows` brings to canonical rows.
    """
    right, dens = _column_cleared(right)
    numerators = _packed(rows, right)
    if numerators is None:
        cols = list(zip(*right))
        numerators = lambda r: tuple(sum(map(mul, r, c)) for c in cols)
    return _reduced_rows([(numerators(r), d) for r, d in rows], dens)


def _reduced_rows(rows, dens) -> tuple[Cleared, ...]:
    """Rows of numerators r_ij over d_i and column denominators e_j, as canonical
    cleared rows, those :func:`cleared_rows` gives of the entries r_ij / (d_i*e_j):
    d > 0 and gcd(d, *numerators) == 1. With e the lcm of the e_j, row i is brought
    over d_i*e, numerator j scaled by e // e_j (nothing to scale for an integer
    right factor, where e = 1), and divided by its one gcd."""
    e = lcm(*dens)
    scale = None if e == 1 else [e // f for f in dens]
    out = []
    for r, d in rows:
        if scale:
            r, d = tuple(map(mul, r, scale)), d * e
        g = gcd(d, *r)
        out.append((r, d) if g == 1 else (tuple(x // g for x in r), d // g))
    return tuple(out)


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


def _echelon(rows, rhs: list[int] | None = None) -> tuple[list[int], list[list[int]], int]:
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

    ``rhs``, if given, holds one int per row, its right-hand sides packed one per slot
    (:func:`inverse_rows`). It rides at the end of its row, is never a pivot column and
    takes every step its row takes, so each pivot row ends with it. Packing is linear
    and every division is exact slot by slot, so it is exact on the packed int too,
    however far the slots overflow on the way.
    """
    width = len(rows[0])
    if rhs is None:
        rows = [[list(row), 1] for row in rows]  # each remaining row and its divisor
    else:
        rows = [[[*row, y], 1] for row, y in zip(rows, rhs)]
    pivots, tops, prev = [], [], 1
    for c in range(width):
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


@lru_cache(maxsize=32)
def _mod_layout(n: int, width: int):
    """The struct pack of n rows of ``width`` unsigned 64-bit slots, and the masks
    LO (the low 31 bits of every slot) and TOP2 (bits 0 and 1 of every slot) of
    :func:`_mod_pivots`, built through bytes in O(n*width)."""
    lo = int.from_bytes(b"\xff\xff\xff\x7f\0\0\0\0" * width, "little")
    top2 = int.from_bytes(b"\3\0\0\0\0\0\0\0" * width, "little")
    return Struct(f"<{n * width}Q").pack, lo, top2


def _mod_pivots(rows) -> list[int]:
    """The pivot columns of integer rows modulo the Mersenne prime P = 2**31 - 1.

    Each row is reduced mod P and packed into one int of unsigned 64-bit slots,
    through one struct pack, so packing is linear in the width. A row waits in the
    bucket of its first possibly nonzero column, as its slots from that column on;
    its head f there is its low slot mod P. At column c the first row with f != 0
    is the pivot row: p its head and top its slots past c. Every other row of the
    bucket drops its head, and one with f != 0 becomes p*v + (P - f)*top, one
    multiply-add per row per pivot where an entrywise pass makes one per entry.
    Since 2**31 = 1 (mod P), one fold, (v & LO) + (v >> 31 & LO) + (v >> 62 & TOP2),
    brings every slot below 2**32 + 2, so with p, P - f < P the next update stays
    below 2**64 and no slot carries into the next. Each row then moves to the
    bucket of its lowest nonzero slot, skipping the columns where it is zero: a
    sparse row costs work only at the pivots where it may be nonzero.
    """
    width, from_bytes, size = len(rows[0]), int.from_bytes, 8 * len(rows[0])
    pack, lo, top2 = _mod_layout(len(rows), width)
    raw = pack(*[x % _P for r in rows for x in r])
    buckets = [[from_bytes(raw[i:i + size], "little") for i in range(0, len(raw), size)]]
    buckets += [[] for _ in range(width)]
    pivots, full = [], min(len(rows), width)
    for c in range(width):
        top, after = None, buckets[c + 1]
        for v in buckets[c]:
            f = (v & 0xFFFFFFFFFFFFFFFF) % _P
            if not f:
                v >>= 64
            elif top is None:
                p, top = f, v >> 64
                continue
            else:
                v = p * (v >> 64) + (_P - f) * top
                v = (v & lo) + (v >> 31 & lo) + (v >> 62 & top2)
            if v & 0xFFFFFFFFFFFFFFFF:
                after.append(v)
            elif v:
                k = ((v & -v).bit_length() - 1) >> 6
                buckets[c + 1 + k].append(v >> 64 * k)
        if top is not None:
            pivots.append(c)
            if len(pivots) == full:
                break
    return pivots


def _norm(row) -> int:
    """The squared Euclidean norm of an integer row."""
    return sum(map(mul, row, row))


def _certified(rows, rank: int, width: int | None = None) -> bool:
    """Whether ``rank``, the rank modulo P (:func:`_mod_pivots`) of integer rows cut
    to their first ``width`` columns (all of them by default), is their rank over Q.
    It is never above it, and equals it when it is min(rows, columns), or when the
    product of the rank + 1 largest squared row norms is below P**2: a nonzero
    (rank + 1)-minor is then below P by Hadamard's bound, so P cannot divide it,
    yet every such minor vanishes mod P."""
    width = width or len(rows[0])
    if rank == min(len(rows), width):
        return True
    norms = [_norm(r[:width]) for r in rows]
    norms.sort()
    return prod(norms[-rank - 1:]) < _P * _P


def _ranks(rows, width: int) -> tuple[int, int]:
    """The exact ranks of integer rows cut to their first ``width`` columns, and of
    all their columns: the one rank routine of the library.

    Both are the counts of pivot columns modulo P (:func:`_mod_pivots`), before
    ``width`` and in all, when :func:`_certified` proves them exact. The rank of the
    first ``width`` columns has its own certificate; since the rank of all columns
    exceeds it by at most the number of the other columns, a certified rank there
    that falls short of the rank of all columns mod P by exactly that number
    certifies both. Otherwise the pivots come from the exact fraction-free pass
    (:func:`_echelon`) on the rows narrowest first, as :func:`inverse_rows` takes
    them: the order changes no pivot column, and one wide row, such as a huge
    denominator clears, is then a pivot row only where no narrower one is.
    """
    pivots = _mod_pivots(rows)
    low = sum(c < width for c in pivots)
    if not (_certified(rows, low, width)
            and (len(pivots) - low == len(rows[0]) - width or _certified(rows, len(pivots)))):
        pivots = _echelon(sorted(rows, key=_norm))[0]
        low = sum(c < width for c in pivots)
    return low, len(pivots)


def rank(m: RMatrix) -> int:
    """Exact rank (:func:`_ranks` of m's cleared rows: scaling a row by its
    denominator lcm leaves the rank unchanged)."""
    rows = [_cleared(row)[0] for row in m]
    return _ranks(rows, len(rows[0]))[1]


def inverse(m: RMatrix) -> RMatrix:
    """Exact inverse (:func:`inverse_rows` of m's cleared rows); raises SingularMatrix."""
    n = len(m)
    if len(m[0]) != n:
        raise DimensionMismatch(f"inverse requires a square matrix, got {n}x{len(m[0])}")
    return rational_rows(inverse_rows(cleared_rows(m)))


def inverse_rows(rows) -> tuple[Cleared, ...]:
    """The cleared rows of C^-1, for the cleared rows of a square C, by one forward
    Bareiss pass and back-substitution on packed right-hand sides; raises
    SingularMatrix.

    The pass runs on the integer rows of D.C, D = diag(d_i) with d_i the denominator
    lcm of row i, with the rows of I as right-hand sides, row i packed as 1 << w*i
    (:func:`_echelon`). It takes the rows in order of their norms, the narrowest
    first, each with its own right-hand side, which changes neither the pivot
    columns nor the result: a minor is only as wide as its rows, so one wide row,
    as a huge denominator makes, meets the others only at the last pivot. C is
    singular iff the pass finds fewer than n pivots. Else it leaves U | Y, U upper
    triangular with U.(D.C)^-1 = Y. With det the last pivot, X = det.(D.C)^-1 =
    +-adj(D.C) is an integer matrix: U.X = det.Y is solved from the last row up,
    X_k = (det.Y_k - sum_{l>k} U[k][l]*X_l) // U[k][k] on whole packed rows, each
    division exact. Every entry of X is a minor of D.C, at most Hadamard's bound
    H = prod_i |row i of D.C|, so slots of w bits that hold +-H (:func:`_slots`)
    decode each row of X once, however far the intermediates overflow them. Then C^-1[i][j] = X[i][j]*d_j/det, and row i is
    cleared by g, the gcd of det and every X[i][j]*d_j, signed as det: det/g is
    the lcm of its reduced denominators.
    """
    n = len(rows)
    norms = [_norm(r) for r, _ in rows]
    h2 = prod(norms)  # H**2
    shifts, decode = _slots(n, ((h2.bit_length() + 1) // 2 + 8) // 8)  # |X[i][j]| < 2**(w-1)
    order = sorted(range(n), key=norms.__getitem__)
    pivots, tops, det = _echelon([rows[i][0] for i in order], [1 << shifts[i] for i in order])
    if len(pivots) < n:
        dependent = next((c for c, p in enumerate(pivots) if c != p), len(pivots))
        raise SingularMatrix(f"matrix is singular: rank {len(pivots)} of {n}, "
                             f"column {dependent} depends on the columns before it")
    xs = []  # the packed rows of X, last row first
    for top in reversed(tops):  # U[k][k], U[k][k+1] up to U[k][n-1], then Y_k
        xs.append((det * top[-1] - sum(map(mul, top[1:-1], reversed(xs)))) // top[0])
    dens = [d for _, d in rows]
    out = []
    for packed in reversed(xs):
        row = list(map(mul, decode(packed), dens))
        g = gcd(det, *row) if det > 0 else -gcd(det, *row)
        out.append((tuple(x // g for x in row), det // g))
    return tuple(out)


def _first_overflow(numerators, denominators) -> int:
    """Index of the first quotient whose magnitude exceeds the double range."""
    for k, (p, q) in enumerate(zip(numerators, denominators)):
        try:
            p / q
        except OverflowError:
            return k
    raise ValueError("every entry is in the double range")


def to_float_vector(v, name: str) -> np.ndarray:
    """Float copy of the rational vector ``name``: float(e) of each entry e, as
    numerator / denominator, which Python rounds correctly however large either is.
    NumericOverflow names an entry (e.g. ``lambda[0]``) whose magnitude exceeds the
    double range."""
    import numpy as np

    try:
        return np.array(list(map(truediv, map(_numerator, v), map(_denominator, v))), dtype=float)
    except OverflowError:
        i = _first_overflow(map(_numerator, v), map(_denominator, v))
    raise NumericOverflow(f"{name}[{i}] is outside the double range")


def cleared_to_float_matrix(rows, name: str) -> np.ndarray:
    """Float copy of the matrix ``name`` with these cleared rows: bit for bit
    float(e) of each entry e, since x / d of two ints is correctly rounded, reduced
    or not. NumericOverflow names the first entry (e.g. ``A[1][0]``), row by row,
    whose magnitude exceeds the double range."""
    import numpy as np

    try:
        return np.array([list(map(truediv, r, repeat(d))) for r, d in rows], dtype=float)
    except OverflowError:
        k = _first_overflow(chain.from_iterable(r for r, _ in rows),
                            chain.from_iterable(repeat(d, len(r)) for r, d in rows))
    i, j = divmod(k, len(rows[0][0]))
    raise NumericOverflow(f"{name}[{i}][{j}] is outside the double range")

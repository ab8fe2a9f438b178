import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qpmaps import QPMap, apply_qmt, linalg, new_qmt, rank_bounds
from qpmaps.errors import DimensionMismatch, NumericOverflow, SingularMatrix
from qpmaps.linalg import (
    augment_column,
    cleared_rows,
    cleared_to_float_matrix,
    diagonal,
    identity,
    inverse,
    is_zero,
    mat_mul,
    rank,
    rational,
    rmatrix,
    rvector,
    to_float_vector,
    zero_column_indices,
    zero_row_indices,
)
from qpmaps.sampling import random_qmt, random_symplectic_map, random_valid_map

from helpers import (echelon_oracle, inverse_oracle, mat_mul_oracle, mod_pivots_oracle,
                     rank_bounds_oracle, rank_by_minors, rank_oracle)


def test_rational_coercions():
    assert rational("1/2") == Fraction(1, 2)
    assert rational("-7/4") == Fraction(-7, 4)
    assert rational("3") == Fraction(3)
    assert rational(5) == Fraction(5)
    assert rational(Fraction(2, 6)) == Fraction(1, 3)
    assert rational("−1/2") == Fraction(-1, 2)  # unicode minus


def test_rational_rejects_floats_and_bad_strings():
    with pytest.raises(TypeError):
        rational(0.5)
    with pytest.raises(TypeError):
        rational(True)
    with pytest.raises(ValueError, match="zero denominator"):
        rational("1/0")
    with pytest.raises(ValueError, match="not a rational"):
        rational("one half")
    # Fraction allows "_" only between digits, so the exponent bound never sees "_5000"
    with pytest.raises(ValueError, match="not a rational literal: '1e_5000'"):
        rational("1e_5000")


def test_rational_decimal_and_exponent_literals():
    assert rational("1.5") == Fraction(3, 2)
    assert rational(".5") == Fraction(1, 2)
    assert rational("2e-3") == Fraction(1, 500)
    assert rational("1.5E+2") == 150
    assert rational(" 1.5e3 ") == 1500
    assert rational("1e400") == 10**400
    assert rational("-1e-4300") == Fraction(-1, 10**4300)
    assert rational("1e0004300") == 10**4300  # leading zeros do not count


@pytest.mark.parametrize("text", ["1e4301", "1e-4301", "1e1000000", "-2.5E+1000000",
                                  "1e1_000_000", "1e" + "9" * 5000])
def test_rational_rejects_exponents_beyond_the_bound(text):
    with pytest.raises(ValueError, match="exceeds 4300 in magnitude"):
        rational(text)


#: The zero of some Unicode decimal digit scripts; digit d is chr(ord(zero) + d).
_SCRIPT_ZEROS = "0\u0660\u06f0\u0966\u0e50\uff10\U0001d7ce"


@given(data=st.data(), exponent=st.integers(0, 60) | st.integers(4290, 4310)
       | st.integers(10**6, 10**8), zeros=st.integers(0, 12), sign=st.sampled_from(["", "+", "-"]))
@example(data=None, exponent=10**7, zeros=0, sign="")
@example(data=None, exponent=10**7, zeros=10, sign="")
def test_rational_bounds_exponents_in_any_script(data, exponent, zeros, sign):
    """Fraction reads exponent digits of any script, so the bound must too:
    each digit, leading zeros included, is drawn from a random script."""
    def digit(d):
        zero = data.draw(st.sampled_from(_SCRIPT_ZEROS)) if data else "\u0660"
        return chr(ord(zero) + d)

    text = "1e" + sign + "".join(digit(int(c)) for c in "0" * zeros + str(exponent))
    if exponent > 4300:
        with pytest.raises(ValueError, match="exceeds 4300 in magnitude"):
            rational(text)
    else:
        assert rational(text) == Fraction(10) ** (-exponent if sign == "-" else exponent)


@pytest.mark.parametrize("text", ["1e" + "\u0661\u0660\u0660\u0660\u0660\u0660\u0660\u0660",
                                  "1e" + "\u0660" * 10 + "\u0661" + "\u0660" * 7,
                                  "1e" + "\u0660" * 10**6 + "\u0661" + "\u0660" * 7])
def test_rational_rejects_unicode_exponents_at_once(text):
    # at 10**7 the power of ten alone takes seconds and 4 MB
    start = time.perf_counter()
    with pytest.raises(ValueError, match="exceeds 4300 in magnitude"):
        rational(text)
    assert time.perf_counter() - start < 0.5


def _parsed(parse, text):
    """The value parse(text) gives, or the type of the exception it raises."""
    try:
        return parse(text)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc)


_PADDING = st.sampled_from(["", " ", "\t", "\n ", "\u00a0"])
_SIGNS = st.sampled_from(["", "+", "-", "--", "+-", "- "])
# ASCII and Unicode digits (Arabic-Indic, fullwidth, superscript), "_", and
# integers around int()'s 4300-digit limit
_DIGITS = (st.text(alphabet="0123456789_\u0663\uff15\u00b2", max_size=12)
           | st.integers(4290, 4400).map(lambda k: "9" * k))


@given(text=st.tuples(_PADDING, _SIGNS, _DIGITS, _PADDING).map("".join))
@example(text="007")
@example(text="-0")
@example(text=" +42 ")
@example(text="1_000")
@example(text="\u0663")
@example(text="-" + "9" * 4301)
def test_rational_integer_strings_agree_with_fraction(text):
    # the plain-integer fast path returns what Fraction(text) returns, or fails the same way
    assert _parsed(rational, text) == _parsed(Fraction, text)


def test_rmatrix_rejects_ragged_and_empty():
    with pytest.raises(DimensionMismatch):
        rmatrix([[1, 2], [3]])
    with pytest.raises(DimensionMismatch):
        rmatrix([])
    with pytest.raises(DimensionMismatch):
        rmatrix([[]])


def test_rvector_keeps_fraction_tuples():
    v = (Fraction(1, 2), Fraction(0), Fraction(-3))
    assert rvector(v) is v
    assert rvector(()) == ()
    for coerced in ([Fraction(1, 2)], (Fraction(1), 2), (Fraction(1), "1/2")):
        got = rvector(coerced)
        assert type(got) is tuple and all(type(e) is Fraction for e in got)
        assert got == tuple(rational(e) for e in coerced)
    a = rmatrix([[1, "1/2"], [0, 3]])
    qp = QPMap(a[0], a, a)
    assert qp.lam is a[0]
    assert all(row is a_row for part in (qp.A, qp.B) for row, a_row in zip(part, a))


def test_mat_mul_and_vec():
    x = rmatrix([[1, 2], [3, 4]])
    y = rmatrix([["1/2", 0], [0, "1/2"]])
    assert mat_mul(x, y) == rmatrix([["1/2", 1], ["3/2", 2]])
    with pytest.raises(DimensionMismatch):
        mat_mul(x, rmatrix([[1, 2]]))


def test_augment_column():
    m = rmatrix([[1, 2], [3, 4]])
    assert augment_column([5, 6], m) == rmatrix([[5, 1, 2], [6, 3, 4]])


def test_zero_pattern_helpers():
    m = rmatrix([[0, 1], [0, 0]])
    assert zero_row_indices(m) == (1,)
    assert zero_column_indices(m) == (0,)
    assert not is_zero(m)
    assert is_zero(rmatrix([[0, 0]]))


def test_rank_hand_examples():
    assert rank(rmatrix([[1, 1]])) == 1
    assert rank(rmatrix([[1, 2], [-1, -2]])) == 1
    assert rank(identity(4)) == 4
    assert rank(rmatrix([[1, 2, 3], [2, 4, 6], [1, 1, 1]])) == 2


def test_rank_matches_minor_oracle_on_random_matrices():
    import numpy as np

    rng = np.random.default_rng(7)
    for _ in range(120):
        n_rows = int(rng.integers(1, 5))
        n_cols = int(rng.integers(1, 5))
        m = rmatrix([[int(e) for e in rng.integers(-3, 4, size=n_cols)]
                     for _ in range(n_rows)])
        assert rank(m) == rank_by_minors(m)


def test_inverse_examples_and_roundtrip():
    assert inverse(diagonal([1, 2])) == diagonal([1, "1/2"])
    invol = rmatrix([[1, 1], [0, -1]])
    assert inverse(invol) == invol
    with pytest.raises(SingularMatrix):
        inverse(rmatrix([[1, 2], [2, 4]]))
    with pytest.raises(DimensionMismatch):
        inverse(rmatrix([[1, 2]]))


def test_inverse_random_exact():
    import numpy as np

    rng = np.random.default_rng(11)
    produced = 0
    while produced < 40:
        n = int(rng.integers(1, 9))
        m = rmatrix([[Fraction(int(p), int(q)) for p, q in
                      zip(rng.integers(-3, 4, size=n), rng.integers(1, 13, size=n))]
                     for _ in range(n)])
        try:
            m_inv = inverse(m)
        except SingularMatrix:
            continue
        assert mat_mul(m, m_inv) == identity(n)
        assert mat_mul(m_inv, m) == identity(n)
        produced += 1


# The integer kernels against the Fraction loops they replaced (tests/helpers.py):
# equal entries, and every entry a Fraction, so the results are bit-identical.

small_rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12))
zero_heavy = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), small_rationals)  # ~2/3 zeros
small_integers = st.builds(Fraction, st.integers(-9, 9))  # every denominator 1
small_kinds = (small_rationals, zero_heavy, small_integers)
dims = st.integers(1, 6)


@st.composite
def rational_matrices(draw, n_rows=None, n_cols=None, kinds=small_kinds):
    """Dense or zero-heavy rational matrices, any shape including 1xk and kx1."""
    n_rows = draw(dims) if n_rows is None else n_rows
    n_cols = draw(dims) if n_cols is None else n_cols
    entries = draw(st.sampled_from(kinds))
    row = st.lists(entries, min_size=n_cols, max_size=n_cols)
    return rmatrix(draw(st.lists(row, min_size=n_rows, max_size=n_rows)))


@st.composite
def thin_products(draw, n_rows=None, n_cols=None):
    """Products (n_rows x k)(k x n_cols) with k below both sizes: rank-deficient."""
    n_rows = draw(st.integers(2, 6)) if n_rows is None else n_rows
    n_cols = draw(st.integers(2, 6)) if n_cols is None else n_cols
    k = draw(st.integers(1, min(n_rows, n_cols) - 1))
    return mat_mul_oracle(draw(rational_matrices(n_rows, k)), draw(rational_matrices(k, n_cols)))


any_matrices = st.one_of(rational_matrices(), thin_products())


@st.composite
def square_matrices(draw):
    """Invertible-looking, zero-heavy, upper triangular and singular squares up to
    8x8, rows permuted and negated at random, so that pivots of either sign occur
    and the pivot row is often not the first remaining row."""
    n = draw(st.integers(1, 8))
    singular = n > 1 and draw(st.integers(0, 2)) == 0
    m = draw(thin_products(n, n) if singular else rational_matrices(n, n))
    if draw(st.booleans()):
        m = tuple(tuple(e if j >= i else Fraction(0) for j, e in enumerate(row))
                  for i, row in enumerate(m))
    order = draw(st.permutations(range(n)))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
    return tuple(tuple(s * e for e in m[i]) for s, i in zip(signs, order))


def assert_identical(got, expected):
    assert got == expected
    assert all(type(e) is Fraction for row in got for e in row)


@given(data=st.data(), x=any_matrices, seed=st.one_of(st.none(), st.integers(0, 2**32 - 1)))
def test_mat_mul_equals_fraction_loop(data, x, seed):
    """x.y, and with a seed also B.M of a random symplectic map, which is zero;
    every zero entry of a product is one shared Fraction."""
    pairs = [(x, data.draw(rational_matrices(len(x[0]))))]
    if seed is not None:
        rng = np.random.default_rng(seed)
        qp = random_symplectic_map(rng, int(rng.choice((2, 4, 6, 8))))
        pairs.append((qp.B, augment_column(qp.lam, qp.A)))
    for a, b in pairs:
        got = mat_mul(a, b)
        assert_identical(got, mat_mul_oracle(a, b))
        assert len({id(e) for row in got for e in row if not e}) <= 1
    assert seed is None or is_zero(got)


@given(m=any_matrices)
def test_pivot_columns_are_where_the_prefix_rank_grows(m):
    cols = list(zip(*m))

    def prefix_rank(k):
        return rank_oracle(tuple(zip(*cols[:k]))) if k else 0

    expected = [c for c in range(len(cols)) if prefix_rank(c + 1) > prefix_rank(c)]
    assert linalg._echelon(cleared(m))[0] == expected
    assert rank(m) == len(expected)


@given(data=st.data(), a=any_matrices, inside=st.booleans())
def test_rank_bounds_equals_gauss_elimination(data, a, inside):
    """rank_bounds eliminates (A | lam) once; lam is drawn inside the column
    space of A (lam = A.v) or freely, which for a rank-deficient A is
    usually outside it."""
    n, m = len(a), len(a[0])
    if inside:
        v = data.draw(st.lists(small_rationals, min_size=m, max_size=m))
        lam = [row[0] for row in mat_mul(a, rmatrix([[e] for e in v]))]
    else:
        lam = data.draw(st.lists(zero_heavy, min_size=n, max_size=n))
    b = data.draw(rational_matrices(m, n))
    rep = rank_bounds(QPMap(lam, a, b))
    assert rep.rank_A == rank_oracle(a)
    assert rep.rank_M == rank_oracle(augment_column(lam, a))
    assert rep.rank_B == rank_oracle(b)
    if inside:
        assert rep.rank_M == rep.rank_A


@st.composite
def pair_patterned_maps(draw, max_n):
    """A random symplectic map, n = m even up to max_n, with integer or rational
    entries: each row of B and column of A sits on one variable pair. With one
    entry of lam, A or B changed, or not."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = 2 * draw(st.integers(1, max_n // 2))
    qp = random_symplectic_map(rng, n, n, integer_entries=draw(st.booleans()))
    if not draw(st.booleans()):
        return qp
    lam, a, b = list(qp.lam), [list(row) for row in qp.A], [list(row) for row in qp.B]
    target = draw(st.sampled_from((lam, a, b)))
    if target is not lam:
        target = target[draw(st.integers(0, n - 1))]
    target[draw(st.integers(0, n - 1))] = draw(small_rationals)
    return QPMap(lam, a, b)


def lam_last(qp):
    """(A | lam), the matrix that rank_bounds eliminates."""
    return tuple(row + (v,) for row, v in zip(qp.A, qp.lam))


def cleared(m):
    return [list(linalg._cleared(row)[0]) for row in m]


@st.composite
def echelon_inputs(draw):
    """Integer rows as _echelon gets them: cleared rows of zero-heavy, upper
    triangular and row-permuted matrices, of B and (A | lam) of pair-patterned
    maps, and the rows [D.C | I] of inverse."""
    kind = draw(st.sampled_from(("matrix", "pairs", "inverse")))
    if kind == "pairs":
        qp = draw(pair_patterned_maps(12))
        return cleared(draw(st.sampled_from((qp.B, lam_last(qp)))))
    m = draw(st.one_of(any_matrices, square_matrices()) if kind == "matrix" else square_matrices())
    rows = cleared(m)
    if kind == "inverse":
        rows = [r + [int(i == j) for j in range(len(m))] for i, r in enumerate(rows)]
    return rows


@given(rows=echelon_inputs())
def test_echelon_equals_the_dense_pass(rows):
    """Rows left alone at zero leads give the same pivots, pivot rows and last
    pivot as the pass that rescales every row at every pivot."""
    assert linalg._echelon(rows) == echelon_oracle(rows)


@given(m=square_matrices())
def test_echelon_carries_packed_right_hand_sides(m):
    """The rows of I packed one per slot and eliminated beside the rows of m end
    each pivot row as the I columns of the dense pass on [m | I] do. Every entry
    is a minor of [m | I], so slots holding Hadamard's bound on its rows decode
    them, singular m and zero rows included."""
    rows = cleared(m)
    n = len(rows)
    bound = 1
    for r in rows:
        bound *= sum(x * x for x in r) + 1
    shifts, decode = linalg._slots(n, ((bound.bit_length() + 1) // 2 + 8) // 8)
    pivots, tops, last = linalg._echelon(rows, [1 << s for s in shifts])
    dense_pivots, dense_tops, dense_last = echelon_oracle(
        [r + [int(i == j) for j in range(n)] for i, r in enumerate(rows)])
    assert pivots == [c for c in dense_pivots if c < n]
    assert [top[:-1] + list(decode(top[-1])) for top in tops] == dense_tops[:len(pivots)]
    if len(pivots) == n:
        assert last == dense_last


@settings(max_examples=40, deadline=None)
@given(qp=pair_patterned_maps(24))
def test_rank_bounds_of_pair_patterned_maps_equal_gauss_elimination(qp):
    rep = rank_bounds(qp)
    assert rep.rank_B == rank_oracle(qp.B)
    assert rep.rank_A == rank_oracle(qp.A)
    assert rep.rank_M == rank_oracle(augment_column(qp.lam, qp.A))


# Ranks modulo P = 2**31 - 1: the packed pass, its certificate and the exact fallback.

P = 2**31 - 1

#: Cleared rows of any_matrices with every k-th row, k in 1..3, a multiple of P.
multiple_of_p_rows = st.builds(
    lambda m, k: [[x * P for x in r] if i % k == 0 else r for i, r in enumerate(cleared(m))],
    any_matrices, st.integers(1, 3))


@st.composite
def rank_bound_maps(draw):
    """Maps of every kind rank_bounds meets: A from any_matrices beside a zero-heavy
    lam, pair-patterned maps (integer, rational, one entry changed or not), QMT
    images of either (apply_qmt(..., strict=False)) and relaxed maps, with a zero
    column of A and a zero row of B put in."""
    kind = draw(st.sampled_from(("matrices", "pairs", "image", "relaxed")))
    if kind == "pairs" or kind == "image" and draw(st.booleans()):
        qp = draw(pair_patterned_maps(24))
    else:
        a = draw(any_matrices)
        n, m = len(a), len(a[0])
        qp = QPMap(draw(st.lists(zero_heavy, min_size=n, max_size=n)), a,
                   draw(rational_matrices(m, n)))
    if kind == "image":
        seed = draw(st.integers(0, 2**32 - 1))
        qp = apply_qmt(qp, random_qmt(np.random.default_rng(seed), qp.n), strict=False)
    elif kind == "relaxed":
        j, k = draw(st.integers(0, qp.m - 1)), draw(st.integers(0, qp.m - 1))
        a = [row[:j] + (Fraction(0),) + row[j + 1:] for row in qp.A]
        b = [(Fraction(0),) * qp.n if i == k else row for i, row in enumerate(qp.B)]
        qp = QPMap(qp.lam, a, b)
    return qp


@settings(max_examples=150, deadline=None)
@given(qp=rank_bound_maps())
def test_rank_bounds_equal_the_exact_passes(qp):
    assert rank_bounds(qp) == rank_bounds_oracle(qp)


@given(m=st.one_of(any_matrices, square_matrices(), st.builds(rmatrix, multiple_of_p_rows)))
def test_rank_equals_gauss_elimination(m):
    """The public rank is the one rank routine, _ranks: rows that are multiples of
    P take its exact fallback."""
    assert rank(m) == rank_oracle(m)


@given(rows=st.one_of(echelon_inputs(), multiple_of_p_rows))
def test_mod_pivots_are_the_pivots_mod_p(rows):
    """The packed pass finds the pivot columns of plain elimination mod P, also where
    some rows are multiples of P; a rank mod P never exceeds the exact one, equals it
    where it is certified, and the pivots agree where every prefix's is."""
    pivots, exact = linalg._mod_pivots(rows), linalg._echelon(rows)[0]
    assert pivots == mod_pivots_oracle(rows, P)
    assert len(pivots) <= len(exact)
    if linalg._certified(rows, len(pivots)):
        assert len(pivots) == len(exact)
    if all(linalg._certified(rows, sum(c < k for c in pivots), k)
           for k in range(1, len(rows[0]) + 1)):
        assert pivots == exact


@pytest.fixture
def exact_passes(monkeypatch):
    """The number of rows of each matrix that linalg._ranks hands to _echelon."""
    calls = []
    real = linalg._echelon
    monkeypatch.setattr(linalg, "_echelon",
                        lambda rows, *rhs: calls.append(len(rows)) or real(rows, *rhs))
    return calls


@pytest.mark.parametrize("lam, a, b, ranks, passes", [
    # every entry a multiple of P: the modular pass sees two zero matrices
    ([P, 2 * P], [[P, 0], [3 * P, -P]], [[P, P], [0, 5 * P]], (2, 2, 2, False), [2, 2]),
    # rank(M) mod P is full, but rank(A) mod P is 1 against 2 over Q
    ([1, 0], [[P, 0], [0, 1]], [[1, 0], [0, 1]], (2, 2, 2, False), [2]),
    # [[P]]: Hadamard's bound is P**2, not below it
    ([0], [[P]], [[P]], (1, 1, 1, None), [1, 1]),
])
def test_a_minor_that_p_divides_takes_the_exact_pass(lam, a, b, ranks, passes, exact_passes):
    qp = QPMap(lam, a, b)
    assert tuple(rank_bounds(qp)) == ranks == tuple(rank_bounds_oracle(qp))
    assert exact_passes == passes


def test_certificate_edges():
    assert linalg._mod_pivots([[P]]) == [] and not linalg._certified([[P]], 0)
    assert linalg._mod_pivots([[P - 1]]) == [0] and linalg._certified([[P - 1]], 1)
    # a certified rank does not fix the pivot columns: [[P, 1]] has rank 1 both ways,
    # pivot column 1 mod P and 0 over Q, and its first column's rank is not certified
    assert linalg._mod_pivots([[P, 1]]) == [1] and linalg._certified([[P, 1]], 1)
    assert linalg._echelon([[P, 1]])[0] == [0] and not linalg._certified([[P, 1]], 0, 1)
    # rank(A) of (A | lam) = [[P, 0, 1], [0, 1, 0]] is its own certificate: 1 mod P, not exact
    rows = [[P, 0, 1], [0, 1, 0]]
    assert linalg._mod_pivots(rows) == [1, 2] and linalg._certified(rows, 2)
    assert not linalg._certified(rows, 1, 2)
    # below full rank, the rank + 1 largest squared norms must multiply to less than P**2
    assert linalg._certified([[1, 0], [1, 0], [0, 0]], 1)
    assert not linalg._certified([[1 << 31, 0], [1 << 31, 0]], 1)


def test_rank_bounds_cost_does_not_grow_with_entry_size(exact_passes):
    """random_valid_map(default_rng(1), 60, 60) with A[0][0] = 1/(10**3999 + 7), whose
    first row of M clears to 4,000-digit numerators: its ranks are full mod P, so no
    exact pass runs and the wide row costs one reduction mod P per entry (about 30 s
    on a 2-core Xeon virtual machine when every rank was exact)."""
    qp = random_valid_map(np.random.default_rng(1), 60, 60)
    a = [list(row) for row in qp.A]
    a[0][0] = Fraction(1, 10**3999 + 7)
    start = time.perf_counter()
    assert tuple(rank_bounds(QPMap(qp.lam, a, qp.B))) == (60, 60, 60, False)
    assert time.perf_counter() - start < 1
    assert exact_passes == []


def test_a_rank_deficient_wide_row_is_eliminated_last(exact_passes):
    """With row n - 1 a copy of row 1, no rank is full and Hadamard's bound cannot
    certify one, so both take the exact pass. It takes the 4,000-digit row last,
    so only that row carries its digits (about 9 s on a 2-core Xeon virtual machine
    with the rows in the given order)."""
    qp = random_valid_map(np.random.default_rng(1), 40, 40)
    lam, a, b = list(qp.lam), [list(row) for row in qp.A], [list(row) for row in qp.B]
    a[0][0] = Fraction(1, 10**3999 + 7)
    lam[-1], a[-1], b[-1] = lam[1], a[1], b[1]
    start = time.perf_counter()
    assert tuple(rank_bounds(QPMap(lam, a, b))) == (39, 39, 39, False)
    assert time.perf_counter() - start < 1
    assert exact_passes == [40, 40]


def test_rank_cost_does_not_grow_with_entry_size(exact_passes):
    """linalg.rank is _ranks too: M = (lam | A) of random_valid_map(default_rng(1),
    40, 40) with A[0][0] = 1/(10**3999 + 7) has full rank mod P, so no exact pass
    runs (about 9 s on a 2-core Xeon virtual machine with a plain Bareiss pass)."""
    qp = random_valid_map(np.random.default_rng(1), 40, 40)
    a = [list(row) for row in qp.A]
    a[0][0] = Fraction(1, 10**3999 + 7)
    m = augment_column(qp.lam, rmatrix(a))
    start = time.perf_counter()
    assert rank(m) == 40
    assert time.perf_counter() - start < 1
    assert exact_passes == []


# Wide entries: products too wide for an 8-byte slot, which stay dot products,
# one wide column among narrow ones, and products at the edge of their slots.

wide_rationals = st.builds(Fraction, st.integers(-10**60, 10**60), st.integers(1, 10**30))
wide_integers = st.builds(Fraction, st.integers(-10**60, 10**60))
huge = st.builds(lambda sign, p: sign * p, st.sampled_from([1, -1]),
                 st.integers(10**3999, 10**4000 - 1))
wide_kinds = (wide_rationals, wide_integers, small_rationals, zero_heavy)


@st.composite
def with_huge_entry(draw, m):
    """m with one entry replaced by a 4000-digit numerator or denominator."""
    rows = [list(row) for row in m]
    i, j = draw(st.integers(0, len(m) - 1)), draw(st.integers(0, len(m[0]) - 1))
    value = draw(huge)
    rows[i][j] = Fraction(value) if draw(st.booleans()) else Fraction(1, value)
    return rmatrix(rows)


@given(data=st.data(), n_rows=dims, k=dims, n_cols=dims)
def test_mat_mul_equals_fraction_loop_on_wide_entries(data, n_rows, k, n_cols):
    x = data.draw(rational_matrices(n_rows, k, wide_kinds))
    y = data.draw(rational_matrices(k, n_cols, wide_kinds))
    if data.draw(st.booleans()):  # some zero rows of x
        x = tuple(tuple(Fraction(0) for _ in row) if data.draw(st.booleans()) else row
                  for row in x)
    assert_identical(mat_mul(x, y), mat_mul_oracle(x, y))


@given(data=st.data(), n_rows=dims, k=dims, n_cols=dims, in_x=st.booleans())
def test_mat_mul_equals_fraction_loop_with_a_4000_digit_entry(data, n_rows, k, n_cols, in_x):
    x = data.draw(rational_matrices(n_rows, k))
    y = data.draw(rational_matrices(k, n_cols))
    if in_x:
        x = data.draw(with_huge_entry(x))
    else:
        y = data.draw(with_huge_entry(y))
    assert_identical(mat_mul(x, y), mat_mul_oracle(x, y))


#: Magnitudes whose products R*max|c| fall on either side of a slot's byte boundary,
#: the last one (8 bytes) included
edge_magnitudes = (st.integers(1, 2**70)
                   | st.sampled_from([2**b + d for b in (0, 3, 6, 7, 8, 15, 16, 31, 32, 55, 56, 62,
                                                         63, 64)
                                      for d in (-1, 0, 1)]))


@given(a=edge_magnitudes, c=edge_magnitudes, rest=edge_magnitudes, k=dims,
       signs=st.lists(st.sampled_from([1, -1]), min_size=1, max_size=6),
       widest=st.integers(0, 5))
# only column 1 needs a wide slot: 4 bytes, and past 8 bytes
@example(a=1, c=2**15, rest=1, k=1, signs=[1, -1], widest=1)
@example(a=1, c=2**63, rest=1, k=1, signs=[1, -1], widest=1)
def test_mat_mul_reaches_the_slot_bound_exactly(a, c, rest, k, signs, widest):
    """Rows a and -a of length k, and a zero row, have R = k*a; column j is
    signs[j]*c_j throughout, c_j = c in column `widest` and min(rest, c) in the
    others. Every entry of the first two rows is +-R*c_j, so the widest column
    reaches R*max|c_j|, the bound the slots are sized for, and each column
    reaches both signs."""
    widest %= len(signs)
    cs = [c if j == widest else min(rest, c) for j in range(len(signs))]
    x = rmatrix([[a] * k, [-a] * k, [0] * k])
    y = rmatrix([[s * c_j for s, c_j in zip(signs, cs)]] * k)
    got = mat_mul(x, y)
    assert_identical(got, mat_mul_oracle(x, y))
    assert [abs(e) for e in got[0] + got[1]] == [k * a * c_j for c_j in cs] * 2


@given(data=st.data(), k=dims, wide=st.lists(st.booleans(), min_size=2, max_size=12))
def test_a_wide_column_makes_the_whole_product_dot_products(data, k, wide):
    """Column j of y has 25-digit entries where wide[j], too wide for an 8-byte
    slot, and entries of at most 9 elsewhere, in any order: one wide column and a
    nonzero x make every entry a dot product."""
    wide_column = st.builds(lambda sign, p: Fraction(sign * p), st.sampled_from([1, -1]),
                            st.integers(10**24, 10**25))
    x = data.draw(rational_matrices(data.draw(dims), k))
    y = tuple(zip(*(data.draw(st.lists(wide_column if w else small_rationals,
                                       min_size=k, max_size=k)) for w in wide)))
    if any(wide) and any(map(any, x)):
        right, _ = linalg._column_cleared(cleared_rows(y))
        assert linalg._packed(cleared_rows(x), right) is None
    assert_identical(mat_mul(x, y), mat_mul_oracle(x, y))


@st.composite
def wide_squares(draw):
    n = draw(st.integers(1, 5))
    return draw(rational_matrices(n, n, wide_kinds))


@st.composite
def qmt_matrices(draw):
    """C of a random_qmt draw: n <= 8, or n >= 30, where C^-1 is too wide to pack."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_qmt(rng, draw(st.integers(1, 8) | st.integers(30, 32))).C


@settings(deadline=None)  # the oracle takes ~0.2 s at n = 30
@given(m=st.one_of(square_matrices(), wide_squares(), qmt_matrices()))
def test_inverse_equals_gauss_jordan(m):
    """inverse(m), and the C_inv a QMT derives from C = m, equal the Fraction
    Gauss-Jordan inverse, whose product with m is the identity; a singular m
    names its rank and first dependent column, in inverse and new_qmt alike."""
    try:
        expected = inverse_oracle(m)
    except SingularMatrix:
        # the rank, and the first column whose prefix rank does not grow
        n, r = len(m), rank_oracle(m)
        col = next(c for c in range(n) if rank_oracle(tuple(row[:c + 1] for row in m)) == c)
        message = (f"matrix is singular: rank {r} of {n}, "
                   f"column {col} depends on the columns before it")
        for build in (inverse, new_qmt):
            with pytest.raises(SingularMatrix) as raised:
                build(m)
            assert str(raised.value) == message
        return
    assert_identical(inverse(m), expected)
    assert_identical(new_qmt(m).C_inv, expected)
    assert mat_mul(m, expected) == identity(len(m))
    if len(m) >= 30:  # the product is the dot-product side of mat_mul
        right, _ = linalg._column_cleared(cleared_rows(expected))
        assert linalg._packed(cleared_rows(m), right) is None


def timed_product(x, y):
    x, y = rmatrix(x), rmatrix(y)
    start = time.perf_counter()
    got = mat_mul(x, y)
    assert time.perf_counter() - start < 0.5
    return x, y, got


@pytest.mark.parametrize("in_x", [False, True], ids=["in_y", "in_x"])
@pytest.mark.parametrize("entry", [10**3999 + 7, Fraction(-1, 10**3999 + 7)],
                         ids=["numerator", "denominator"])
def test_a_4000_digit_entry_costs_a_bounded_time(in_x, entry):
    """A 13,000-bit entry, in x (through R) or in y (through C), makes R*C that
    wide. Wider than 8 bytes, the whole product is a plain dot product per entry,
    not a slot of one row of 61 such slots."""
    rng = np.random.default_rng(5)
    x = [[int(e) for e in row] for row in rng.integers(-9, 10, size=(60, 60))]
    y = [[int(e) for e in row] for row in rng.integers(-9, 10, size=(60, 61))]
    (x if in_x else y)[17][23] = entry
    x, y, got = timed_product(x, y)
    # the row and the column through the huge entry, against the Fraction loop
    assert got[17] == mat_mul_oracle(x[17:18], y)[0]
    assert [row[23] for row in got] == [row[0] for row in mat_mul_oracle(x, [r[23:24] for r in y])]


def test_wide_rows_of_x_cost_a_bounded_time():
    """Entries of x of ~2000 bits make every slot that wide, whatever y holds.
    Packed, each multiply would be 2000 bits by a row of 61 such slots (~0.9 s
    on a 2-core Xeon VM against ~0.1 s); as dot products it is 2000 bits by a
    digit of y."""
    rng = np.random.default_rng(7)
    x = [[int(e) << 1992 | 1 for e in row] for row in rng.integers(-255, 256, size=(60, 60))]
    y = [[int(e) for e in row] for row in rng.integers(-9, 10, size=(60, 61))]
    x, y, got = timed_product(x, y)
    assert got[:2] == mat_mul_oracle(x[:2], y)


def test_negative_pivots():
    m = rmatrix([[-3, 1, 0], [2, "-5/7", 1], [0, 4, "-1/2"]])
    assert_identical(inverse(m), inverse_oracle(m))
    assert rank(m) == 3
    assert inverse(rmatrix([["-2/3"]])) == rmatrix([["-3/2"]])
    assert rank(rmatrix([[0, -2], [0, 1]])) == 1
    # the first pivot is in the second row, then the second pivot in the third
    swap = rmatrix([[0, 1], [1, 0]])
    assert_identical(inverse(swap), swap)
    m = rmatrix([[1, 2, 0], [2, 4, 1], [0, "1/3", -1]])  # leading 2x2 minor is 0
    assert_identical(inverse(m), inverse_oracle(m))
    assert linalg._echelon(cleared(m))[0] == [0, 1, 2]


@pytest.mark.parametrize("rows, message", [
    ([[1, 2], [2, 4]], "rank 1 of 2, column 1"),
    ([[1, 2, 3], [2, 4, 6], [1, 1, 1]], "rank 2 of 3, column 2"),
    ([[1, 2, 3], [2, 4, 5], ["1/2", 1, 7]], "rank 2 of 3, column 1"),
    ([[0, 1], [0, "-1/2"]], "rank 1 of 2, column 0"),
    ([[0]], "rank 0 of 1, column 0"),
])
def test_singular_matrix_names_rank_and_dependent_column(rows, message):
    with pytest.raises(SingularMatrix, match=f"^matrix is singular: {message} depends on "
                                             "the columns before it$"):
        inverse(rmatrix(rows))


# Float copies: numerator / denominator, as float(e) rounds it, near and beyond
# both ends of the double range.

float_edge_entries = st.one_of(
    st.builds(Fraction, st.integers(-2**1100, 2**1100), st.integers(1, 2**1100)),
    st.builds(lambda p, k: Fraction(p, 2**k), st.integers(-2**60, 2**60), st.integers(1000, 1140)),
    st.sampled_from([Fraction(2**1024 - 2**970 - 1), Fraction(-(2**1024 - 2**970)),
                     Fraction(1, 2**1074), Fraction(1, 2**1075), Fraction(3, 2**1076)]),
    small_rationals,
)


def overflows(e):
    try:
        float(e)
    except OverflowError:
        return True
    return False


@given(m=rational_matrices(kinds=(float_edge_entries,)))
@example(m=rmatrix([[1, Fraction(2**1024 - 2**970 - 1)], [Fraction(1, 2**1075), 2**1024 - 2**970]]))
@example(m=rmatrix([[Fraction(3, 2**1076), Fraction(-(10**400), 3)], [10**400, 0]]))
def test_float_copies_are_float_of_each_entry(m):
    """Bit for bit the float(e) of every entry, subnormal and rounded to 0 ones
    included; NumericOverflow names the first entry out of range."""
    where = [(i, j) for i, row in enumerate(m) for j, e in enumerate(row) if overflows(e)]
    if where:
        i, j = where[0]
        with pytest.raises(NumericOverflow, match=fr"^A\[{i}\]\[{j}\] is outside the double range$"):
            cleared_to_float_matrix(cleared_rows(m), "A")
        with pytest.raises(NumericOverflow, match=fr"^lambda\[{j}\] is outside the double range$"):
            to_float_vector(m[i], "lambda")
        return
    expected = np.array([[float(e) for e in row] for row in m])
    got = cleared_to_float_matrix(cleared_rows(m), "A")
    assert got.dtype == float and got.tobytes() == expected.tobytes()
    for row, floats in zip(m, expected):
        assert to_float_vector(row, "lambda").tobytes() == floats.tobytes()


fractions = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)
nonzero_fractions = fractions.filter(bool)


@given(a=fractions, b=fractions, c=fractions)
def test_field_axioms_add_mul(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(a=nonzero_fractions)
def test_field_axioms_inverses(a):
    assert a * (1 / a) == 1
    assert a + (-a) == 0
    assert a / a == 1

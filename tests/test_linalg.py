from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from qpmaps import QPMap, rank_bounds
from qpmaps.errors import DimensionMismatch, SingularMatrix
from qpmaps.linalg import (
    augment_column,
    diagonal,
    identity,
    inverse,
    is_zero,
    mat_mul,
    mat_vec,
    pivot_columns,
    rank,
    rational,
    rmatrix,
    zero_column_indices,
    zero_row_indices,
)

from helpers import inverse_oracle, mat_mul_oracle, rank_by_minors, rank_oracle


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


def test_mat_mul_and_vec():
    x = rmatrix([[1, 2], [3, 4]])
    y = rmatrix([["1/2", 0], [0, "1/2"]])
    assert mat_mul(x, y) == rmatrix([["1/2", 1], ["3/2", 2]])
    assert mat_vec(x, [1, "1/2"]) == (Fraction(2), Fraction(5))
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
dims = st.integers(1, 6)


@st.composite
def rational_matrices(draw, n_rows=None, n_cols=None):
    """Dense or zero-heavy rational matrices, any shape including 1xk and kx1."""
    n_rows = draw(dims) if n_rows is None else n_rows
    n_cols = draw(dims) if n_cols is None else n_cols
    entries = draw(st.sampled_from([small_rationals, zero_heavy]))
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
    """Invertible-looking, zero-heavy and singular squares, rows negated at random
    so that pivots of either sign occur."""
    n = draw(st.integers(1, 6))
    singular = n > 1 and draw(st.integers(0, 2)) == 0
    m = draw(thin_products(n, n) if singular else rational_matrices(n, n))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
    return tuple(tuple(s * e for e in row) for s, row in zip(signs, m))


def assert_identical(got, expected):
    assert got == expected
    assert all(type(e) is Fraction for row in got for e in row)


@given(data=st.data(), x=any_matrices)
def test_mat_mul_equals_fraction_loop(data, x):
    y = data.draw(rational_matrices(len(x[0])))
    assert_identical(mat_mul(x, y), mat_mul_oracle(x, y))


@given(data=st.data(), m=any_matrices)
def test_mat_vec_equals_fraction_loop(data, m):
    v = data.draw(st.lists(zero_heavy, min_size=len(m[0]), max_size=len(m[0])))
    expected = tuple(row[0] for row in mat_mul_oracle(m, tuple((e,) for e in v)))
    assert_identical((mat_vec(m, v),), (expected,))


@given(m=st.one_of(any_matrices, square_matrices()))
def test_rank_equals_gauss_elimination(m):
    assert rank(m) == rank_oracle(m)


@given(m=any_matrices)
def test_pivot_columns_are_where_the_prefix_rank_grows(m):
    cols = list(zip(*m))

    def prefix_rank(k):
        return rank_oracle(tuple(zip(*cols[:k]))) if k else 0

    expected = tuple(c for c in range(len(cols)) if prefix_rank(c + 1) > prefix_rank(c))
    assert pivot_columns(m) == expected
    assert rank(m) == len(expected)


@given(data=st.data(), a=any_matrices, inside=st.booleans())
def test_rank_bounds_equals_gauss_elimination(data, a, inside):
    """rank_bounds eliminates (A | lam) once; lam is drawn inside the column
    space of A (lam = A.v) or freely, which for a rank-deficient A is
    usually outside it."""
    n, m = len(a), len(a[0])
    if inside:
        lam = mat_vec(a, data.draw(st.lists(small_rationals, min_size=m, max_size=m)))
    else:
        lam = data.draw(st.lists(zero_heavy, min_size=n, max_size=n))
    b = data.draw(rational_matrices(m, n))
    rep = rank_bounds(QPMap(lam, a, b))
    assert rep.rank_A == rank_oracle(a)
    assert rep.rank_M == rank_oracle(augment_column(lam, a))
    assert rep.rank_B == rank_oracle(b)
    if inside:
        assert rep.rank_M == rep.rank_A


@given(m=square_matrices())
def test_inverse_equals_gauss_jordan(m):
    try:
        expected = inverse_oracle(m)
    except SingularMatrix:
        with pytest.raises(SingularMatrix):
            inverse(m)
        return
    assert_identical(inverse(m), expected)


def test_negative_pivots():
    m = rmatrix([[-3, 1, 0], [2, "-5/7", 1], [0, 4, "-1/2"]])
    assert_identical(inverse(m), inverse_oracle(m))
    assert rank(m) == 3
    assert inverse(rmatrix([["-2/3"]])) == rmatrix([["-3/2"]])
    assert rank(rmatrix([[0, -2], [0, 1]])) == 1


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

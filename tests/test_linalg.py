import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from qpmaps import QPMap, rank_bounds
from qpmaps.errors import DimensionMismatch, SingularMatrix
from qpmaps.linalg import (
    augment_column,
    diagonal,
    identity,
    inverse,
    is_inverse,
    is_zero,
    mat_mul,
    pivot_columns,
    rank,
    rational,
    rmatrix,
    rvector,
    zero_column_indices,
    zero_row_indices,
)
from qpmaps.sampling import random_symplectic_map

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
dims = st.integers(1, 6)


@st.composite
def rational_matrices(draw, n_rows=None, n_cols=None):
    """Dense or zero-heavy rational matrices, any shape including 1xk and kx1."""
    n_rows = draw(dims) if n_rows is None else n_rows
    n_cols = draw(dims) if n_cols is None else n_cols
    entries = draw(st.sampled_from([small_rationals, zero_heavy, small_integers]))
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


@given(m=square_matrices())
def test_inverse_equals_gauss_jordan(m):
    try:
        expected = inverse_oracle(m)
    except SingularMatrix:
        with pytest.raises(SingularMatrix) as raised:
            inverse(m)
        # the rank, and the first column whose prefix rank does not grow
        n, r = len(m), rank_oracle(m)
        col = next(c for c in range(n) if rank_oracle(tuple(row[:c + 1] for row in m)) == c)
        assert str(raised.value) == (f"matrix is singular: rank {r} of {n}, "
                                     f"column {col} depends on the columns before it")
        return
    assert_identical(inverse(m), expected)


@given(data=st.data(), m=square_matrices())
def test_is_inverse_equals_the_fraction_product(data, m):
    """is_inverse decides x.y = I on cleared integers; the Fraction product
    (mat_mul_oracle) is the reference, for the true inverse, for it with one
    entry changed and for an arbitrary y."""
    n = len(m)
    try:
        m_inv = inverse(m)
    except SingularMatrix:
        m_inv = data.draw(rational_matrices(n, n))
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    off = [list(row) for row in m_inv]
    off[i][j] += data.draw(small_rationals.filter(bool))
    for y in (m_inv, rmatrix(off), data.draw(rational_matrices(n, n))):
        assert is_inverse(m, y) == (mat_mul_oracle(m, y) == identity(n))


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
    assert pivot_columns(m) == (0, 1, 2)


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

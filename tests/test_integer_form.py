"""The integer form the exact kernels and the float copies read: cleared rows
made once, by the parser or on first use, and checked against the Fraction
entries and the independent oracles of tests/helpers.py."""

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qpmaps import QMT, QPMap, apply_qmt, check_conditions, class_invariant
from qpmaps.documents import map_from_document, map_to_document, qmt_from_document
from qpmaps.errors import DocumentError, NumericOverflow, SingularMatrix
from qpmaps.linalg import _cleared, _column_cleared

from helpers import (assert_matches_oracle, check_conditions_oracle, float_copy_oracle,
                     inverse_oracle, mat_mul_oracle, qmt_to_document)

#: Document entries: small and negative integers and fractions as text, JSON
#: integers, and 4000-digit numerators and denominators.
ENTRIES = st.one_of(
    st.integers(-3, 3).map(str),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12)).map(str),
    st.integers(-3, 3),
    st.sampled_from(["7" * 4000, "-" + "3" * 4000, "1/" + "9" * 4000, "-5/" + "2" * 3999]),
)


@st.composite
def map_documents(draw):
    """Map documents of n, m <= 4; a document whose map is not strict is relaxed."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))

    def row(length):
        return draw(st.lists(ENTRIES, min_size=length, max_size=length))

    doc = {"n": n, "m": m, "lambda": row(n), "A": [row(m) for _ in range(n)],
           "B": [row(n) for _ in range(m)]}
    try:
        map_from_document(doc)
    except DocumentError:
        doc["relaxed"] = True
    return doc


def columns(m):
    return tuple(zip(*m))


def m_matrix(qp):
    return tuple((v, *row) for v, row in zip(qp.lam, qp.A))


def column_form(m):
    """m with each column cleared on its own, as the rows of its numerators and
    the column denominators: what a product reads of its right factor."""
    cols = [_cleared(col) for col in columns(m)]
    return tuple(zip(*(c for c, _ in cols))), tuple(e for _, e in cols)


def assert_map_form(qp):
    fresh = QPMap(qp.lam, qp.A, qp.B)
    assert (qp.B_rows, qp.M_rows) == (fresh.B_rows, fresh.M_rows)
    assert qp.B_rows == tuple(map(_cleared, qp.B))
    assert qp.M_rows == tuple(map(_cleared, m_matrix(qp)))
    assert _column_cleared(qp.M_rows) == column_form(m_matrix(qp))


@settings(deadline=None)
@given(doc=map_documents())
@example(doc={"n": 2, "m": 1, "lambda": ["1/2", "-1/3"], "A": [["7" * 4000], ["-1/6"]],
              "B": [["0", "0"]], "relaxed": True})
@example(doc={"n": 1, "m": 1, "lambda": [1], "A": [["1/2"]], "B": [[2]]})
def test_parsed_map_form_is_the_cleared_entries(doc):
    assert_map_form(map_from_document(doc))


@settings(deadline=None)
@given(c=st.lists(st.lists(ENTRIES, min_size=3, max_size=3), min_size=3, max_size=3)
       | st.integers(1, 4).flatmap(lambda n: st.lists(
           st.lists(st.integers(-2, 2).map(str), min_size=n, max_size=n), min_size=n,
           max_size=n)))
def test_parsed_qmt_form_is_the_cleared_entries(c):
    try:
        t = qmt_from_document({"C": c})
    except DocumentError:
        return  # singular
    fresh = QMT(t.C)
    assert (t.C_rows, t.C_inv_rows) == (fresh.C_rows, fresh.C_inv_rows)
    assert t.C_rows == tuple(map(_cleared, t.C))
    assert _column_cleared(t.C_rows) == column_form(t.C)


def test_sampled_documents_round_trip_their_form():
    """Maps and QMTs written by map_to_document and read back keep the form
    of the records they were written from."""
    from qpmaps.sampling import random_qmt, random_symplectic_map, random_valid_map

    rng = np.random.default_rng(7)
    for qp in [random_valid_map(rng, n, n) for n in (2, 5, 8)] + \
              [random_symplectic_map(rng, n, n) for n in (2, 6)]:
        parsed = map_from_document(json.loads(json.dumps(map_to_document(qp))))
        assert (parsed.B_rows, parsed.M_rows) == (qp.B_rows, qp.M_rows)
    t = random_qmt(rng, 5)
    parsed = qmt_from_document(qmt_to_document(t))
    assert (parsed.C_rows, parsed.C_inv_rows) == (t.C_rows, t.C_inv_rows)


def _across_denominators(rng, s, m):
    """Rows i and s+i of (lam | A) whose pair sums cancel at some entries while
    the two rows' denominator lcms differ: (1/2, -1/2) beside (1/3, 1/5), and
    opposite numerators over unequal denominators (1/2, -1/3), which do not cancel."""
    def pair(kind, p, q, r):
        return ((Fraction(p, q), Fraction(-p, q)), (Fraction(p, q), Fraction(-p, q + r)),
                (Fraction(1, 3 * q), Fraction(1, 5 * r)))[kind]

    rows = [[None] * (m + 1) for _ in range(2 * s)]
    for i in range(s):
        kinds = [int(k) for k in rng.integers(0, 3, m + 1)]
        kinds[int(rng.integers(0, m + 1))] = 2  # the two lcms differ
        for j, kind in enumerate(kinds):
            p, q, r = int(rng.integers(-4, 5)), int(rng.integers(1, 5)), int(rng.integers(1, 5))
            rows[i][j], rows[s + i][j] = pair(kind, p or 1, q, r)
    return rows


@pytest.mark.parametrize("seed", range(20))
def test_pair_sums_cancel_across_row_denominators(seed):
    rng = np.random.default_rng(seed)
    s, m = int(rng.integers(1, 5)), int(rng.integers(1, 6))
    rows = _across_denominators(rng, s, m)
    b = [[Fraction(int(v), int(d)) for v, d in zip(rng.integers(-2, 3, 2 * s),
                                                   rng.integers(1, 4, 2 * s))]
         for _ in range(m)]
    qp = QPMap([r[0] for r in rows], [r[1:] for r in rows], b)
    assert [d for _, d in qp.M_rows[:s]] != [d for _, d in qp.M_rows[s:]]
    assert_matches_oracle(qp)
    parsed = map_from_document({**map_to_document(qp), "relaxed": True})
    assert check_conditions(parsed) == check_conditions(qp)
    oracle = check_conditions_oracle(qp)
    assert check_conditions(parsed).cond_a.count == len(oracle.cond_a.witnesses)


@st.composite
def invertible_squares(draw):
    """Rational squares up to 6x6, and the same with two rows swapped, which
    flips the sign of the determinant."""
    n = draw(st.integers(1, 6))
    entry = st.one_of(st.integers(-3, 3).map(Fraction),
                      st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7)))
    m = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        m[0], m[1] = m[1], m[0]
    return m


def _det_sign(m):
    u = [list(r) for r in m]
    sign = 1
    for c in range(len(u)):
        p = next(i for i in range(c, len(u)) if u[i][c])
        if p != c:
            u[c], u[p], sign = u[p], u[c], -sign
        sign *= 1 if u[c][c] > 0 else -1
        for i in range(c + 1, len(u)):
            f = u[i][c] / u[c][c]
            u[i] = [a - f * b for a, b in zip(u[i], u[c])]
    return sign


@settings(deadline=None)
@given(m=invertible_squares())
@example(m=[[Fraction(-1)]])
@example(m=[[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]])
def test_inverse_rows_are_the_cleared_gauss_jordan_inverse(m):
    try:
        expected = inverse_oracle(m)
    except SingularMatrix:
        with pytest.raises(SingularMatrix):
            QMT(m)
        return
    t = QMT(m)
    assert t.C_inv_rows == tuple(map(_cleared, expected))
    assert t.C_inv == expected
    assert all(type(e) is Fraction for row in t.C_inv for e in row)


def test_inverse_rows_with_a_negative_determinant():
    for m in ([[-1]], [[0, 1], [1, 0]], [[1, 2], [3, "1/2"]], [["-1/2", 0], [0, "1/3"]]):
        assert _det_sign([[Fraction(e) for e in r] for r in m]) < 0
        t = QMT(m)
        assert t.C_inv_rows == tuple(map(_cleared, inverse_oracle(t.C)))
        assert all(d > 0 for _, d in t.C_inv_rows)


def _float_outcome(convert):
    try:
        return convert().tobytes()
    except NumericOverflow as exc:
        return str(exc)


@settings(deadline=None)
@given(n=st.integers(1, 4), data=st.data())
@example(n=1, data=None)
def test_inverse_floats_are_the_bits_of_the_fraction_inverse(n, data):
    """C_f and C_inv_f, from the integer rows, are float(e) of each entry of C
    and C^-1 bit for bit, and name the first entry that leaves the double range."""
    if data is None:
        c = [[Fraction(1, 10**400)]]
    else:
        scale = st.sampled_from([Fraction(1), Fraction(1, 10**400), Fraction(10**400),
                                 Fraction(1, 3 * 10**320), Fraction(7, 10**300)])
        c = [[data.draw(scale) * (i == j) + data.draw(st.integers(-2, 2)) * (j > i)
              for j in range(n)] for i in range(n)]
    t = QMT(c)
    assert _float_outcome(lambda: t.C_f) == float_copy_oracle(t.C, "C")
    got = _float_outcome(lambda: t.C_inv_f)
    assert got == float_copy_oracle(t.C_inv, "C_inv")
    if data is None:
        assert got == "C_inv[0][0] is outside the double range"


#: Entries near and beyond both ends of the double range: the largest finite
#: value and the first that rounds past it, a subnormal, one that rounds to 0,
#: and 300- to 400-digit values whose row denominators scale their neighbours.
FLOAT_EDGES = st.sampled_from([
    Fraction(2**1024 - 2**970 - 1), Fraction(-(2**1024 - 2**970)), Fraction(3, 2**1076),
    Fraction(1, 2**1075), Fraction(10**400), Fraction(-(10**400), 3), Fraction(1, 3 * 10**320),
    Fraction(7, 10**300)])


@settings(deadline=None)
@given(doc=map_documents(), data=st.data())
@example(doc={"n": 2, "m": 1, "lambda": ["1/" + "3" * 400, "1"], "A": [["1"], ["2"]],
              "B": [["1", "1" + "0" * 400]]}, data=None)
def test_map_floats_are_the_bits_of_each_entry(doc, data):
    """A_f and B_f, from the integer rows of a parsed map and of the same map
    cleared on first use, are float(e) of each entry of A and B bit for bit,
    also where lambda's denominator scales A's row, and name the first entry
    that leaves the double range."""
    qp = map_from_document(doc)
    if data is not None:
        edge = data.draw(FLOAT_EDGES)
        i, j = data.draw(st.integers(0, qp.n - 1)), data.draw(st.integers(0, qp.m - 1))
        a = [list(row) for row in qp.A]
        a[i][j] = edge
        qp = map_from_document({**map_to_document(QPMap(qp.lam, a, qp.B)), "relaxed": True})
    for record in (qp, QPMap(qp.lam, qp.A, qp.B)):
        assert _float_outcome(lambda: record.A_f) == float_copy_oracle(record.A, "A")
        assert _float_outcome(lambda: record.B_f) == float_copy_oracle(record.B, "B")
    if data is None:
        assert _float_outcome(lambda: qp.B_f) == "B[0][1] is outside the double range"


@settings(deadline=None)
@given(doc=map_documents(), seed=st.integers(0, 2**32 - 1))
def test_products_on_the_form_equal_the_fraction_loop(doc, seed):
    """class_invariant and apply_qmt of a parsed map and a parsed QMT equal
    the Fraction triple loop on their entries."""
    from qpmaps.sampling import random_qmt

    qp = map_from_document(doc)
    t = qmt_from_document(qmt_to_document(random_qmt(np.random.default_rng(seed), qp.n)))
    m = m_matrix(qp)
    assert class_invariant(qp) == mat_mul_oracle(qp.B, m)
    moved = mat_mul_oracle(t.C_inv, m)
    expected = QPMap([r[0] for r in moved], [r[1:] for r in moved], mat_mul_oracle(qp.B, t.C))
    assert apply_qmt(qp, t, strict=False) == expected

"""The integer form the exact kernels and the float copies read: cleared rows
every record holds from construction, and the canonical rows every product
ends as, checked against the Fraction entries and the independent oracles of
tests/helpers.py."""

import json
import time
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qpmaps import (QMT, QPMap, apply_qmt, check_conditions, class_invariant, documents,
                    strictness_violations)
from qpmaps.documents import map_from_document, map_to_document, qmt_from_document
from qpmaps.errors import DocumentError, NumericOverflow, SingularMatrix
from qpmaps.linalg import (_cleared, _column_cleared, _packed, _product, _reduced_rows,
                           cleared_rows, inverse_rows, rational_rows, rmatrix,
                           zero_column_indices, zero_row_indices)

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


def assert_routes_agree(*records):
    """Records of one map, or of one QMT, made by different routes: each holds
    its cleared rows in vars(), where they are set at construction, and all
    agree on those rows, on == and on hash."""
    first = records[0]
    names = ("M_rows", "B_rows") if isinstance(first, QPMap) else ("C_rows", "C_inv_rows")
    for record in records:
        assert set(names) <= vars(record).keys()
        assert [vars(record)[name] for name in names] == [vars(first)[name] for name in names]
        assert record == first and hash(record) == hash(first)


def assert_map_form(qp):
    fresh = QPMap(qp.lam, qp.A, qp.B)
    assert_routes_agree(qp, fresh)
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
    assert_routes_agree(t, QMT(t.C))
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
    built from its entries, are float(e) of each entry of A and B bit for bit,
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


def _canonical(rows):
    return all(d > 0 and gcd(d, *r) == 1 for r, d in rows)


def _scale(mu, n):
    """The QMT C = mu*I that `qpmap transform --scale mu` applies."""
    return QMT([[mu if i == j else 0 for j in range(n)] for i in range(n)])


@st.composite
def maps_and_qmts(draw):
    """A sampled map (integer, rational symplectic, or relaxed: one column of
    A and one row of B zeroed) and a sampled integer QMT or a rational scaling."""
    from qpmaps.sampling import random_qmt, random_symplectic_map, random_valid_map

    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["valid", "symplectic", "relaxed"]))
    m = draw(st.integers(1, 6))
    if kind == "symplectic":
        qp = random_symplectic_map(rng, 2 * draw(st.integers(1, 3)), m)
    else:
        qp = random_valid_map(rng, draw(st.integers(1, 6)), m)
    if kind == "relaxed":
        j, p, zero = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1)), Fraction(0)
        qp = QPMap(qp.lam, [row[:j] + (zero,) + row[j + 1:] for row in qp.A],
                   [(zero,) * qp.n if q == p else row for q, row in enumerate(qp.B)])
    if draw(st.booleans()):
        return qp, random_qmt(rng, qp.n)
    mu = draw(st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 9)))
    return qp, _scale(mu, qp.n)


@settings(deadline=None, max_examples=150)
@given(case=maps_and_qmts())
def test_row_built_image_equals_the_fraction_image(case):
    """apply_qmt keeps the canonical cleared rows of its two products, and the
    map they make reads as the image made from the Fraction triple loop does:
    ==, hash, repr and its read-back, the strictness violations, every
    check_conditions witness and the document."""
    qp, t = case
    image = apply_qmt(qp, t, strict=False)
    assert not {"lam", "A", "B"} & image.__dict__.keys()
    assert {"M_rows", "B_rows"} <= image.__dict__.keys()
    assert _canonical(image.M_rows) and _canonical(image.B_rows)
    moved = mat_mul_oracle(inverse_oracle(t.C), m_matrix(qp))
    expected = QPMap([r[0] for r in moved], [r[1:] for r in moved], mat_mul_oracle(qp.B, t.C))
    assert image.M_rows == tuple(map(_cleared, moved))
    assert image.B_rows == tuple(map(_cleared, expected.B))
    assert strictness_violations(image) == (zero_column_indices(expected.A),
                                            zero_row_indices(expected.B))
    assert check_conditions(image) == check_conditions(expected)
    assert_matches_oracle(image)
    assert map_to_document(image) == map_to_document(expected)
    assert_routes_agree(image, expected,
                        map_from_document({**map_to_document(image), "relaxed": True}))
    assert repr(image) == repr(expected)
    assert eval(repr(image), {"QPMap": QPMap, "Fraction": Fraction}) == image


@settings(deadline=None)
@given(seed=st.integers(0, 2**32 - 1), s=st.integers(1, 3), m=st.integers(1, 6),
       mu=st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 9)))
def test_check_conditions_builds_no_fraction_on_a_symplectic_image(seed, s, m, mu):
    """A scaled symplectic map stays symplectic, so check_conditions keeps no
    witness: it counts on the image's rows and makes no Fraction at all."""
    from qpmaps.sampling import random_symplectic_map

    qp = random_symplectic_map(np.random.default_rng(seed), 2 * s, m)
    image = apply_qmt(qp, _scale(mu, 2 * s))
    built, new = [], Fraction.__new__
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Fraction, "__new__",
                      lambda cls, *args, **kwargs: built.append(args) or new(cls, *args, **kwargs))
        report = check_conditions(image)
    assert built == []
    assert not {"lam", "A", "B"} & image.__dict__.keys()
    assert report.is_symplectic and report == check_conditions(qp)


def test_a_4000_digit_entry_of_c_costs_apply_qmt_a_bounded_time():
    """One entry -1/(10**3999+7) of C gives B.C a 4000-digit column denominator
    and C^-1 4000-digit rows. Finishing the products as cleared rows costs one
    gcd per row, or per entry of that one column, not a Fraction per entry
    (~0.015 s for apply_qmt on a 2-core Xeon VM)."""
    from qpmaps.sampling import random_qmt, random_valid_map

    rng = np.random.default_rng(3)
    qp = random_valid_map(rng, 16, 16)
    c = [list(row) for row in random_qmt(rng, 16).C]
    c[5][7] = Fraction(-1, 10**3999 + 7)
    t = QMT(c)
    start = time.perf_counter()
    image = apply_qmt(qp, t, strict=False)
    assert time.perf_counter() - start < 0.5
    assert _canonical(image.M_rows) and _canonical(image.B_rows)
    # the first row of C^-1.M and the column of B.C through the wide entry
    assert rational_rows(image.M_rows[:1]) == mat_mul_oracle(t.C_inv[:1], m_matrix(qp))
    assert [row[7] for row in image.B] == [row[0] for row in
                                           mat_mul_oracle(qp.B, [r[7:8] for r in t.C])]


def sylvester_hadamard(order):
    """The Sylvester-Hadamard matrix of this order, a power of 2. Its +-1 rows
    are orthogonal, so |det| equals Hadamard's bound, the product of the row
    norms: the largest entry that inverse_rows reserves a slot for."""
    h = [[1]]
    while len(h) < order:
        h = [r + r for r in h] + [r + [-x for x in r] for r in h]
    return h


@st.composite
def inverse_inputs(draw):
    """Square C up to 24x24 from a drawn seed: integer or rational entries, one
    300-digit numerator or denominator, or unit triangular; two rows are swapped
    at random, which flips the sign of the determinant."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 24))
    kind = draw(st.sampled_from(["integer", "rational", "300-digit", "unit-triangular"]))
    c = [[Fraction(int(v)) for v in row] for row in rng.integers(-3, 4, size=(n, n))]
    if kind == "rational":
        c = [[e / int(q) for e, q in zip(row, rng.integers(1, 13, size=n))] for row in c]
    elif kind == "300-digit":
        wide = 10**299 + int(rng.integers(1, 10**6))
        c[int(rng.integers(0, n))][int(rng.integers(0, n))] = draw(
            st.sampled_from([Fraction(wide), Fraction(-wide), Fraction(1, wide)]))
    elif kind == "unit-triangular":
        c = [[e if j > i else Fraction(int(i == j)) for j, e in enumerate(row)]
             for i, row in enumerate(c)]
        if draw(st.booleans()):
            c = [list(col) for col in zip(*c)]
    if n > 1 and draw(st.booleans()):
        c[0], c[1] = c[1], c[0]
    return c


@settings(deadline=None, max_examples=60)
@given(c=inverse_inputs())
@example(c=[[Fraction(-1)]])
@example(c=[[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]])
def test_inverse_rows_equal_the_gauss_jordan_inverse(c):
    """inverse_rows of C's cleared rows are the cleared rows of the Fraction
    Gauss-Jordan inverse; a C that draw made singular raises SingularMatrix."""
    rows = cleared_rows(rmatrix(c))
    try:
        expected = inverse_oracle(rmatrix(c))
    except SingularMatrix:
        with pytest.raises(SingularMatrix):
            inverse_rows(rows)
        return
    assert inverse_rows(rows) == tuple(map(_cleared, expected))


@pytest.mark.parametrize("order", [2, 4, 8, 16])
@pytest.mark.parametrize("form", ["H", "-H", "rows swapped", "H/2"])
def test_inverse_rows_where_hadamards_bound_is_attained(order, form):
    h = sylvester_hadamard(order)
    c = {"H": h, "-H": [[-x for x in r] for r in h], "rows swapped": [h[1], h[0], *h[2:]],
         "H/2": [[Fraction(x, 2) for x in r] for r in h]}[form]
    c = rmatrix(c)
    assert inverse_rows(cleared_rows(c)) == tuple(map(_cleared, inverse_oracle(c)))


_RANK_23 = np.random.default_rng(11).integers(-3, 4, size=(24, 24)).tolist()
for _row in _RANK_23:
    _row[23] = _row[0] - 2 * _row[5]


@pytest.mark.parametrize("c, message", [
    ([[1, 2, 3], [0, 0, 0], [4, 5, 7]], "rank 2 of 3, column 2"),
    ([[0, 0], [1, 1]], "rank 1 of 2, column 1"),
    ([[1, 2, 3], [4, 5, 6], [1, 2, 3]], "rank 2 of 3, column 2"),
    ([["1/2", "1/3", 1], ["1/2", "1/3", 1], [0, 1, 0]], "rank 2 of 3, column 2"),
    ([[1, 2, 0], [2, 4, 1], [3, 6, 5]], "rank 2 of 3, column 1"),
    ([[1, 0, 1], [0, 1, 1], [2, 3, 5]], "rank 2 of 3, column 2"),
    (_RANK_23, "rank 23 of 24, column 23"),
], ids=["zero row", "zero first row", "duplicate rows", "duplicate rational rows",
        "dependent middle column", "dependent last column", "n=24 dependent last column"])
def test_a_singular_c_names_its_rank_and_dependent_column(c, message):
    with pytest.raises(SingularMatrix) as raised:
        inverse_rows(cleared_rows(rmatrix(c)))
    assert str(raised.value) == f"matrix is singular: {message} depends on the columns before it"


#: Denominators of a rational factor: 1, small coprime ones, a shared factor,
#: and a 4,000-digit one.
DENOMINATORS = st.sampled_from([1, 1, 2, 3, 5, 7, 12, 10**3999 + 7])


@st.composite
def fraction_rows(draw):
    """Fraction matrices up to 5x5 whose entries have the denominators above,
    rows and columns with unequal coprime ones, zero entries included."""
    n_rows, n_cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    entry = st.builds(Fraction, st.integers(-9, 9), DENOMINATORS)
    return draw(st.lists(st.lists(entry, min_size=n_cols, max_size=n_cols),
                         min_size=n_rows, max_size=n_rows))


@settings(deadline=None)
@given(m=fraction_rows())
@example(m=[[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(-1, 10**3999 + 7)]])
@example(m=[[Fraction(0), Fraction(1, 6)], [Fraction(0), Fraction(1, 10)]])
def test_column_cleared_is_each_column_cleared(m):
    assert _column_cleared(cleared_rows(rmatrix(m))) == column_form(m)


@settings(deadline=None)
@given(data=st.data(), n_rows=st.integers(1, 5), n_cols=st.integers(1, 5))
@example(data=None, n_rows=2, n_cols=2)
def test_reduced_rows_are_each_fraction_row_cleared(data, n_rows, n_cols):
    """Rows of numerators r_i over d_i and column denominators e_j, finished as
    cleared rows, are the cleared rows of the Fractions r_ij / (d_i*e_j)."""
    if data is None:
        rows, dens = [((3, 10**3999 + 7), 2), ((0, 5), 3)], (5, 10**3999 + 7)
    else:
        numerators = st.lists(st.integers(-30, 30), min_size=n_cols, max_size=n_cols).map(tuple)
        rows = data.draw(st.lists(st.tuples(numerators, DENOMINATORS),
                                  min_size=n_rows, max_size=n_rows))
        dens = tuple(data.draw(st.lists(DENOMINATORS, min_size=n_cols, max_size=n_cols)))
    expected = [[Fraction(x, d * e) for x, e in zip(r, dens)] for r, d in rows]
    assert _reduced_rows(rows, dens) == tuple(map(_cleared, expected))


@st.composite
def product_factors(draw):
    """Rational factors x (a x k) and y (k x b), sizes 1 to 5, neither zero; with
    ``wide``, one entry of one factor has a 300-digit numerator, so that R*C fits
    no 8-byte slot (:func:`qpmaps.linalg._packed`) and the product is one dot
    product per entry. Otherwise it packs."""
    a, k, b = (draw(st.integers(1, 5)) for _ in range(3))
    entry = st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 1, 2, 3, 5, 7, 12]))
    x, y = ([draw(st.lists(entry, min_size=cols, max_size=cols)) for _ in range(rows)]
            for rows, cols in ((a, k), (k, b)))
    for factor in (x, y):
        if not any(map(any, factor)):
            factor[0][0] = Fraction(1)
    wide = draw(st.booleans())
    if wide:
        factor = draw(st.sampled_from([x, y]))
        i, j = draw(st.integers(0, len(factor) - 1)), draw(st.integers(0, len(factor[0]) - 1))
        factor[i][j] = Fraction(draw(st.sampled_from([1, -1])) * (10**299 + draw(
            st.integers(1, 10**6))), draw(st.sampled_from([1, 3, 12])))
    return x, y, wide


@settings(deadline=None)
@given(factors=product_factors())
@example(factors=([[Fraction(1, 2), Fraction(-1, 3)]], [[Fraction(3)], [Fraction(1, 5)]], False))
@example(factors=([[Fraction(10**299 + 1, 3), Fraction(1, 2)]], [[Fraction(1, 7)], [0]], True))
def test_product_rows_are_canonical_and_the_fraction_product(factors):
    """_product ends as canonical cleared rows (d > 0, gcd(d, *r) == 1), those of
    the Fraction triple loop, whether it packs or takes one dot product per entry."""
    x, y, wide = factors
    rows, right = cleared_rows(rmatrix(x)), cleared_rows(rmatrix(y))
    assert (_packed(rows, _column_cleared(right)[0]) is None) == wide
    got = _product(rows, right)
    assert _canonical(got)
    assert got == tuple(map(_cleared, mat_mul_oracle(x, y)))


def test_an_integer_c_is_read_with_no_fraction_cleared(monkeypatch):
    """A C of JSON integers is cleared as the integers it holds; only a row that
    mixes them with strings is cleared from its Fractions."""
    calls = []
    monkeypatch.setattr(documents, "_cleared",
                        lambda row, cleared=_cleared: calls.append(row) or cleared(row))
    t = qmt_from_document({"C": [[1, 1, 0, 0], [1, -2, 0, 0], [0, 0, 2, 1], [0, 1, 0, 1]]})
    assert calls == []
    assert t.C_rows == tuple(map(_cleared, t.C))
    mixed = qmt_from_document({"C": [[1, "1/2"], [0, 3]]})
    assert len(calls) == 1
    assert mixed.C_rows == (((2, 1), 2), ((0, 3), 1))


@pytest.mark.parametrize("n", [16, 24])
def test_a_4000_digit_entry_of_c_costs_its_inverse_a_bounded_time(n):
    """One entry -1/(10**3999+7) of C clears its row to 4000-digit integers.
    inverse_rows eliminates that row last, so only the last pivot carries its
    width (~0.03 s at n = 16 and ~0.09 s at n = 24 on a 2-core Xeon VM, against
    ~0.45 s and ~2.1 s with the rows in their given order)."""
    from qpmaps.sampling import random_qmt

    c = [list(row) for row in random_qmt(np.random.default_rng(n), n).C]
    c[5][7] = Fraction(-1, 10**3999 + 7)
    c = rmatrix(c)
    start = time.perf_counter()
    got = inverse_rows(cleared_rows(c))
    assert time.perf_counter() - start < 1.0
    # rows 4 to 6 of C^-1, row 5 the one with the wide denominator, times C
    product = mat_mul_oracle(rational_rows(got[4:7]), c)
    assert product == tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in (4, 5, 6))

import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from qpmaps import DocumentError, QPMap, documents, new_qmt
from qpmaps.documents import (
    load_map,
    load_qmt,
    map_from_document,
    map_to_document,
    parse_rational,
    qmt_from_document,
    trajectory_csv_lines,
)
from qpmaps.linalg import format_rational, rational
from qpmaps.sampling import random_qmt, random_valid_map

from helpers import (
    dim2_map,
    dim4_map,
    format_float,
    map_from_document_oracle,
    qmt_from_document_oracle,
    qmt_to_document,
    random_classification_map,
    save_map,
    save_qmt,
    trajectory_csv,
)


class TestRationalStrings:
    def test_canonical_forms(self):
        assert format_rational(Fraction(1, 2)) == "1/2"
        assert format_rational(Fraction(-3, 4)) == "-3/4"
        assert format_rational(Fraction(4, 2)) == "2"
        assert format_rational(Fraction(0)) == "0"

    def test_parse_accepts_strings_and_ints(self):
        assert parse_rational("1/2", "x") == Fraction(1, 2)
        assert parse_rational("-7", "x") == Fraction(-7)
        assert parse_rational(3, "x") == Fraction(3)
        assert parse_rational("−5/2", "x") == Fraction(-5, 2)

    def test_parse_errors_carry_position(self):
        with pytest.raises(DocumentError, match=r"B\[0\]\[1\]: zero denominator"):
            parse_rational("1/0", "B[0][1]")
        with pytest.raises(DocumentError, match=r"A\[1\]\[0\].*not a rational"):
            parse_rational("pi", "A[1][0]")
        with pytest.raises(DocumentError, match="floats are not accepted"):
            parse_rational(0.5, "lambda[0]")
        with pytest.raises(DocumentError, match="boolean"):
            parse_rational(True, "lambda[0]")
        with pytest.raises(DocumentError, match=r"A\[0\]\[0\]: expected a rational string"):
            parse_rational(None, "A[0][0]")

    @given(value=st.one_of(st.fractions().map(str), st.integers(),
                           st.text("0123456789/-−. _x", max_size=8)))
    def test_parse_agrees_with_linalg_rational(self, value):
        try:
            expected = rational(value)
        except (TypeError, ValueError) as exc:
            with pytest.raises(DocumentError, match=re.escape(f"x[3]: {exc}")):
                parse_rational(value, "x[3]")
        else:
            assert parse_rational(value, "x[3]") == expected


class TestMapDocuments:
    def test_round_trip_fixture(self):
        qp = dim2_map()
        doc = map_to_document(qp)
        assert doc == {
            "n": 2,
            "m": 1,
            "lambda": ["1", "-1"],
            "A": [["2"], ["-2"]],
            "B": [["1", "1"]],
        }
        assert map_from_document(doc) == qp

    def test_round_trip_random_maps(self):
        rng = np.random.default_rng(83)
        for _ in range(200):
            qp = random_classification_map(rng)
            assert map_from_document(map_to_document(qp)) == qp

    def test_relaxed_round_trip(self):
        qp = QPMap((0, 0), ((0,), (0,)), ((1, 1),))
        doc = map_to_document(qp)
        assert doc["relaxed"] is True
        assert map_from_document(doc) == qp

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
    def test_relaxed_must_be_a_boolean(self, value):
        doc = map_to_document(QPMap((0, 0), ((0,), (0,)), ((1, 1),)))
        doc["relaxed"] = value
        with pytest.raises(DocumentError, match="^relaxed: expected true or false"):
            map_from_document(doc)

    def test_strict_document_rejects_zero_column(self):
        doc = map_to_document(QPMap((0, 0), ((0,), (0,)), ((1, 1),)))
        del doc["relaxed"]
        with pytest.raises(DocumentError, match="column 0 of A"):
            map_from_document(doc)

    def test_shape_errors_are_positioned(self):
        base = map_to_document(dim2_map())

        doc = dict(base, n="2")
        with pytest.raises(DocumentError, match="n: expected a positive integer"):
            map_from_document(doc)

        doc = dict(base)
        doc["lambda"] = ["1"]
        with pytest.raises(DocumentError, match="lambda: expected 2 entries"):
            map_from_document(doc)

        doc = dict(base)
        doc["A"] = [["2"], ["-2"], ["0"]]
        with pytest.raises(DocumentError, match="A: expected 2 rows"):
            map_from_document(doc)

        doc = dict(base)
        doc["B"] = [["1"]]
        with pytest.raises(DocumentError, match=r"B\[0\]: expected 2 entries"):
            map_from_document(doc)

        with pytest.raises(DocumentError, match="map document must be a JSON object"):
            map_from_document([1, 2, 3])

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "map.qpmap.json"
        save_map(dim4_map(), path)
        assert load_map(path) == dim4_map()

    def test_load_errors_mention_path(self, tmp_path):
        path = tmp_path / "broken.qpmap.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(DocumentError, match="broken.qpmap.json"):
            load_map(path)

    def test_entry_too_long_to_read_back_is_named(self):
        qp = QPMap((1, 10**5000), ((1,), (1,)), ((1, 1),))
        with pytest.raises(DocumentError, match=r"^lambda\[1\]: exact value has too many digits"):
            map_to_document(qp)


#: Entries from a small alphabet: repeated texts, whitespace and sign
#: variants of one value, U+2212, bad texts, integers small and large, and
#: JSON values that compare equal to a table key (1.0, true) or cannot be a
#: dict key (arrays, objects).
_ENTRIES = st.one_of(
    st.sampled_from(["0", "1", "-1", "2", " 1", "1 ", "\t1\n", "+1", "\u22121", "-0", "1/2",
                     "2/4", "0.5", "1e0", "1/0", "x", "", "1e4301"]),
    st.integers(-2, 2), st.sampled_from([2**64, -2**64, 10**40]), st.booleans(),
    st.sampled_from([0.5, 1.0]), st.none(),
    st.lists(st.integers(0, 1), max_size=1), st.dictionaries(st.just("1"), st.integers(0, 1)),
)


@st.composite
def small_alphabet_documents(draw):
    """Map documents of n, m <= 3 whose entries come from _ENTRIES; now and
    then a row of the wrong length or a "relaxed" flag."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))

    def row(length):
        return draw(st.lists(_ENTRIES, min_size=length, max_size=length))

    doc = {"n": n, "m": m, "lambda": row(n), "A": [row(m) for _ in range(n)],
           "B": [row(n) for _ in range(m)]}
    if draw(st.integers(0, 9)) == 0:
        doc[draw(st.sampled_from(["lambda", "A", "B"]))].append("1")
    if draw(st.booleans()):
        doc["relaxed"] = draw(st.booleans())
    return doc


@st.composite
def small_alphabet_qmt_documents(draw):
    """QMT documents of n <= 3 whose entries come from _ENTRIES, or mostly
    from {-2, ..., 2} so that many are invertible; now and then a row of the
    wrong length."""
    n = draw(st.integers(1, 3))
    entries = draw(st.sampled_from([_ENTRIES, st.integers(-2, 2),
                                    st.one_of(st.integers(-2, 2), _ENTRIES)]))
    doc = {"C": [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(n)]}
    if draw(st.integers(0, 9)) == 0:
        doc["C"][draw(st.integers(0, n - 1))].append(1)
    return doc


def _parse_outcome(parse, doc):
    """(lam, A, B) of the parsed map, or the DocumentError message."""
    try:
        qp = parse(doc)
    except DocumentError as exc:
        return str(exc)
    return qp.lam, qp.A, qp.B


def _qmt_outcome(parse, doc):
    """The parsed QMT, or the DocumentError message."""
    try:
        return parse(doc)
    except DocumentError as exc:
        return str(exc)


def _fractions(qp):
    return [e for part in (qp.lam, *qp.A, *qp.B) for e in part]


def _keys(entries):
    """The table keys of a document's entries: 1 and "1" are two keys."""
    return {(type(v), v) for v in entries}


class TestParseTable:
    """map_from_document parses each distinct entry text once per document."""

    @given(doc=small_alphabet_documents())
    @example(doc={"n": 3, "m": 1, "lambda": [1, "1", True], "A": [["1"], ["1"], ["1"]],
                  "B": [["1", "1", "1"]]})
    @example(doc={"n": 2, "m": 1, "lambda": ["1", " 1"], "A": [["1"], [["1"]]],
                  "B": [["1", "1"]], "relaxed": True})
    @example(doc={"n": 2, "m": 1, "lambda": ["x", "1"], "A": [["x"], ["1/0"]],
                  "B": [["1", "1"]]})
    @example(doc={"n": 2, "m": 1, "lambda": ["0", "0"], "A": [["0"], ["1"]], "B": [["0", "1"]]})
    def test_equals_parsing_every_entry(self, doc):
        got = _parse_outcome(map_from_document, doc)
        assert got == _parse_outcome(map_from_document_oracle, doc)
        if not isinstance(got, str):
            lam, a, b = got
            assert all(type(e) is Fraction for vec in (lam, *a, *b) for e in vec)

    def test_bad_text_raises_at_its_first_position(self):
        doc = map_to_document(dim4_map())
        doc["A"][1][2] = doc["B"][0][3] = "1/0"
        with pytest.raises(DocumentError, match=r"^A\[1\]\[2\]: zero denominator$"):
            map_from_document(doc)

    def test_each_text_is_one_fraction_and_no_call_shares_one(self):
        doc = map_to_document(random_valid_map(np.random.default_rng(5), 6, 6))
        texts = {t for part in (doc["lambda"], *doc["A"], *doc["B"]) for t in part}
        first, second = map_from_document(doc), map_from_document(doc)
        assert first == second
        ids_first = {id(e) for e in _fractions(first)}
        assert len(ids_first) == len(texts)
        assert not ids_first & {id(e) for e in _fractions(second)}

    def test_int_entries_share_the_table(self):
        """A JSON integer is parsed once per document, and 1 and "1" are two keys."""
        doc = map_to_document(random_valid_map(np.random.default_rng(7), 6, 6))
        for part in (doc["A"], doc["B"]):
            for row in part[::2]:
                row[:] = [int(e) for e in row]
        entries = [v for part in (doc["lambda"], *doc["A"], *doc["B"]) for v in part]
        assert {type(v) for v in entries} == {int, str}
        first, second = map_from_document(doc), map_from_document(doc)
        assert first == second == map_from_document_oracle(doc)
        ids_first = {id(e) for e in _fractions(first)}
        assert len(ids_first) == len(_keys(entries))
        assert not ids_first & {id(e) for e in _fractions(second)}

    def test_integer_entries_are_read_once(self, monkeypatch):
        """A JSON integer never goes through documents.rational, not even to clear
        its row, and a text beside it goes through it once."""
        calls = []
        monkeypatch.setattr(documents, "rational", lambda v: calls.append(v) or rational(v))
        qp = map_from_document({"n": 2, "m": 1, "lambda": [1, -1], "A": [[2], [-2]],
                                "B": [[1, 1]]})
        assert calls == []
        assert (qp.B_rows, qp.M_rows) == ((((1, 1), 1),), (((1, 2), 1), ((-1, -2), 1)))
        c = [[1, 0, 2], [0, 1, -1], [2, 0, 1]]
        t = qmt_from_document({"C": c})
        assert calls == []
        assert t.C_rows == tuple((tuple(row), 1) for row in c)
        t = qmt_from_document({"C": [[1, "1/2"], [0, 1]]})
        assert calls == ["1/2"]
        assert t.C_rows == (((2, 1), 2), ((0, 1), 1))

    def test_qmt_parses_share_no_fraction(self):
        """Within one call a QMT document of texts or of JSON integers holds one
        Fraction per distinct entry; two calls share none."""
        c = [[1, 1, 0, -2], [0, -1, 1, 2], [1, 0, 2, 1], [2, -2, 0, 1]]
        for doc in (qmt_to_document(new_qmt(c)), {"C": c}):
            first, second = qmt_from_document(doc), qmt_from_document(doc)
            assert first == second == new_qmt(c)
            for t in (first, second):
                assert len({id(e) for row in t.C for e in row}) == len({e for row in c for e in row})
            ids = [{id(e) for row in t.C + t.C_inv for e in row} for t in (first, second)]
            assert not ids[0] & ids[1]

    @pytest.mark.parametrize("c, message", [
        ([[1, True], [0, 1]], "C[0][1]: expected a rational string or integer, got a boolean"),
        ([[True, 1], [0, 1]], "C[0][0]: expected a rational string or integer, got a boolean"),
        ([[1, 1.0], [0, 1]],
         'C[0][1]: floats are not accepted; use a rational string like "1/2"'),
    ], ids=["bool-after-int", "bool-first", "float-after-int"])
    def test_values_equal_to_an_int_are_rejected_where_they_stand(self, c, message):
        """true == 1 == 1.0, but neither is looked up in the table."""
        with pytest.raises(DocumentError) as info:
            qmt_from_document({"C": c})
        assert str(info.value) == message

    @given(doc=small_alphabet_qmt_documents())
    @example(doc={"C": [[1, True], [0, 1]]})
    @example(doc={"C": [[1, "1"], [1.0, 1]]})
    @example(doc={"C": [[2**64, -2**64], [10**40, 1]]})
    @example(doc={"C": [[1, 2], [2, 4]]})
    def test_qmt_equals_parsing_every_entry(self, doc):
        got = _qmt_outcome(qmt_from_document, doc)
        assert got == _qmt_outcome(qmt_from_document_oracle, doc)
        if not isinstance(got, str):
            assert all(type(e) is Fraction for row in got.C + got.C_inv for e in row)


class TestQMTDocuments:
    def test_round_trip(self, tmp_path):
        t = new_qmt([[1, 1], [0, -1]])
        doc = qmt_to_document(t)
        assert doc == {"C": [["1", "1"], ["0", "-1"]]}
        assert qmt_from_document(doc) == t
        path = tmp_path / "c.qmt.json"
        save_qmt(t, path)
        assert load_qmt(path) == t

    def test_random_round_trip(self):
        rng = np.random.default_rng(89)
        for _ in range(50):
            t = random_qmt(rng, int(rng.integers(1, 5)))
            assert qmt_from_document(qmt_to_document(t)) == t

    def test_singular_rejected(self):
        message = "matrix is singular: rank 1 of 2, column 1 depends on the columns before it"
        with pytest.raises(DocumentError, match=f"^{message}$"):
            qmt_from_document({"C": [["1", "2"], ["2", "4"]]})

    @pytest.mark.parametrize("doc, message", [
        ([["1"]], "QMT document must be a JSON object, got list"),
        ({}, "C: expected a nonempty array of arrays"),
        ({"C": []}, "C: expected a nonempty array of arrays"),
    ], ids=["not-an-object", "missing-c", "empty-c"])
    def test_malformed_document_rejected(self, doc, message):
        with pytest.raises(DocumentError, match=f"^{re.escape(message)}$"):
            qmt_from_document(doc)

    def test_ragged_rejected(self):
        with pytest.raises(DocumentError, match=r"C\[1\]: expected 2 entries"):
            qmt_from_document({"C": [["1", "2"], ["2"]]})


class TestCSV:
    def test_every_csv_field_round_trips_doubles(self):
        """Every field of the rows prints as format_float does and reads back
        as its double: magnitudes over 10**-300..10**300, the subnormal, normal
        and largest edges, and signed zeros."""
        rng = np.random.default_rng(91)
        edges = [5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
                 1.7976931348623157e308, 0.0, 1.0, 0.1]
        values = (np.exp(rng.uniform(-690, 690, 1986)) * rng.choice([1, -1], 1986)).tolist()
        values += edges + [-v for v in edges]
        rows = [(t, values[k:k + 8]) for t, k in enumerate(range(0, len(values), 8), start=-3)]
        lines = list(trajectory_csv_lines(8, rows))
        assert lines[0] == "t,x1,x2,x3,x4,x5,x6,x7,x8\n"
        for (t, state), line in zip(rows, lines[1:], strict=True):
            assert line.endswith("\n")
            fields = line[:-1].split(",")
            assert fields == [str(t)] + [format_float(v) for v in state]
            assert [float(f) for f in fields[1:]] == state

    def test_header_and_rows(self):
        text = trajectory_csv(2, [0, 1], [np.array([1.0, 2.0]), np.array([3.0, 4.5])])
        lines = text.split("\n")
        assert lines[0] == "t,x1,x2"
        assert lines[1] == "0,1,2"
        assert lines[2] == "1,3,4.5"
        assert text.endswith("\n")
        assert "\r" not in text

    def test_negative_times(self):
        text = trajectory_csv(1, [-2, -1], [np.array([1.0]), np.array([2.0])])
        assert text.split("\n")[1].startswith("-2,")

    @given(data=st.data(), n=st.integers(1, 4))
    def test_python_floats_print_as_numpy_floats(self, data, n):
        doubles = (st.floats(allow_nan=False, allow_infinity=False)
                   | st.sampled_from([5e-324, -2.2250738585072009e-308, 2.2250738585072014e-308,
                                      1.7976931348623157e308, -9.999999999999999e307]))
        rows = data.draw(st.lists(st.lists(doubles, min_size=n, max_size=n), max_size=6))
        states = np.array(rows, dtype=float).reshape(len(rows), n)
        times = range(-1, len(rows) - 1)
        text = trajectory_csv(n, times, states.tolist())
        assert trajectory_csv(n, times, states) == text
        assert trajectory_csv(n, times, list(states)) == text


def test_readme_library_example_runs():
    """The python block under "## Library" in README.md runs as written."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    (code,) = re.findall(r"```python\n(.*?)```", section, re.S)
    exec(compile(code, "README.md", "exec"), {})

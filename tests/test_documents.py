import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qpmaps import DocumentError, QPMap, new_qmt
from qpmaps.documents import (
    format_float,
    format_rational,
    load_map,
    load_qmt,
    map_from_document,
    map_to_document,
    parse_rational,
    qmt_from_document,
    qmt_to_document,
    save_map,
    save_qmt,
    trajectory_csv,
)
from qpmaps.linalg import rational
from qpmaps.sampling import random_classification_map, random_qmt

from helpers import dim2_map, dim4_map


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
        with pytest.raises(DocumentError, match="singular"):
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
    def test_format_float_round_trips_doubles(self):
        rng = np.random.default_rng(91)
        for _ in range(200):
            v = float(np.exp(rng.uniform(-300, 300)) * rng.choice([1, -1]))
            assert float(format_float(v)) == v

    def test_header_and_rows(self):
        text = trajectory_csv([0, 1], [np.array([1.0, 2.0]), np.array([3.0, 4.5])])
        lines = text.split("\n")
        assert lines[0] == "t,x1,x2"
        assert lines[1] == "0,1,2"
        assert lines[2] == "1,3,4.5"
        assert text.endswith("\n")
        assert "\r" not in text

    def test_negative_times(self):
        text = trajectory_csv([-2, -1], [np.array([1.0]), np.array([2.0])])
        assert text.split("\n")[1].startswith("-2,")

    @given(data=st.data(), n=st.integers(1, 4))
    def test_python_floats_print_as_numpy_floats(self, data, n):
        doubles = (st.floats(allow_nan=False, allow_infinity=False)
                   | st.sampled_from([5e-324, -2.2250738585072009e-308, 2.2250738585072014e-308,
                                      1.7976931348623157e308, -9.999999999999999e307]))
        rows = data.draw(st.lists(st.lists(doubles, min_size=n, max_size=n), max_size=6))
        states = np.array(rows, dtype=float).reshape(len(rows), n)
        times = range(-1, len(rows) - 1)
        text = trajectory_csv(times, states.tolist())
        assert trajectory_csv(times, states) == text
        assert trajectory_csv(times, list(states)) == text

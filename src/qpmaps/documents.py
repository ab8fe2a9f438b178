"""JSON documents for maps and QMTs, plus trajectory CSV output.

Map documents keep every entry as a rational string ("p/q" or "p", reduced,
positive denominator) so that serialize -> parse is exact. Files written by
the transform command may carry "relaxed": true when the result left the
strict QP form; such documents parse into relaxed maps.

A document's entries are mostly a few short values ("0", "1", -1, ...), so
:func:`map_from_document` and :func:`qmt_from_document` parse each distinct
entry once per call: a table from JSON string to Fraction, made by the call,
shared by lambda, A and B and dropped when it returns, so that a row of
strings is one lookup per entry. JSON integers share a table of their own,
so 1 and "1" are two entries, and a row of them alone is one lookup per entry
too; booleans (True == 1), floats, null, arrays and objects are parsed or
rejected one by one. An entry is parsed at its first position, so the first
bad entry raises there, with the message the entry alone would give; an
integer never fails.

The same table gives the integer form that every record holds from
construction and the exact kernels read (the cleared rows of B, of
M = (lam | A) and of C; see :class:`qpmaps.maps.QPMap`), which the parser
hands with the parsed entries to the record's one internal constructor
(``_of_rows``). One dict maps each whole-number entry, string or JSON
integer, to its numerator, so a row of whole numbers is one lookup per entry,
over 1. Any other row is cleared from the Fractions its parse just gave, by
the constructors' own routine (:func:`qpmaps.linalg._cleared`).
"""

import json
from collections.abc import Iterator
from fractions import Fraction

from .errors import DocumentError, QPError
from .linalg import _cleared, rational
from .maps import QPMap, require_strict, strictness_violations
from .transform import QMT


def _vector_entries(v, name: str) -> list:
    """Entries as document text. str() and linalg.rational obey the same
    int-to-string digit limit, so an entry str() refuses could not be read
    back; DocumentError names it instead."""
    out = []
    for i, e in enumerate(v):
        try:
            out.append(str(e))
        except ValueError:
            raise DocumentError(f"{name}[{i}]: exact value has too many digits to be"
                                " read back from a document") from None
    return out


def _matrix_entries(m, name: str) -> list:
    return [_vector_entries(row, f"{name}[{i}]") for i, row in enumerate(m)]


def parse_rational(value, where: str) -> Fraction:
    """Parse a JSON value ("p/q" / "p" string, or plain integer) exactly with
    :func:`qpmaps.linalg.rational`; its errors become DocumentError at ``where``."""
    try:
        return rational(value)
    except (TypeError, ValueError) as exc:
        raise DocumentError(f"{where}: {exc}") from None


def _expect_positive_int(doc: dict, key: str) -> int:
    value = doc.get(key)
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise DocumentError(f"{key}: expected a positive integer, got {value!r}")
    return value


class _Ints(dict):
    """The Fraction of each distinct JSON integer entry, made on its first lookup."""

    def __missing__(self, v):
        e = self[v] = Fraction(v)
        return e


class _Table(dict):
    """The Fraction of each distinct string entry of one document, parsed on its
    first lookup. Only strings are keys: True and 1.0 equal the integer 1, so
    they would find its Fraction. ``ints`` holds the Fraction of each JSON
    integer entry."""

    def __init__(self):
        super().__init__()
        self.ints = _Ints()

    def __missing__(self, text):
        if type(text) is not str:
            raise KeyError(text)
        e = self[text] = rational(text)
        return e


def _parse_entries(raw: list, where: str, table: _Table) -> tuple:
    """Parse a list of entries whose positions are ``where[j]``. A list of strings,
    or of entries whose type is exactly int (so no boolean), is one lookup per
    entry; any other list is parsed entry by entry, and its first bad entry raises
    DocumentError at its position."""
    try:
        return tuple(map(table.__getitem__, raw))
    except (KeyError, TypeError, ValueError):
        pass
    if set(map(type, raw)) == {int}:
        return tuple(map(table.ints.__getitem__, raw))
    out = []
    for j, v in enumerate(raw):
        try:
            if type(v) is str:
                f = table[v]
            elif type(v) is int:  # an integer never fails
                f = table.ints[v]
            else:
                f = rational(v)
        except (TypeError, ValueError) as exc:
            raise DocumentError(f"{where}[{j}]: {exc}") from None
        out.append(f)
    return tuple(out)


def _cleared_rows(raw_rows, rows, table: _Table) -> tuple:
    """The cleared rows (:func:`qpmaps.linalg.cleared_rows`) of raw rows already
    parsed into ``table`` and into the Fraction rows ``rows``: a row of whole
    numbers is its numerators over 1, one lookup per entry, and any other row is
    :func:`qpmaps.linalg._cleared` of its Fractions."""
    # only strings and exact ints get here, as _parse_entries rejects booleans and
    # floats first: True == 1 would otherwise find the numerator of 1
    whole = {text: e.numerator for text, e in table.items() if e.denominator == 1}
    whole.update({v: v for v in table.ints})
    out = []
    for raw, row in zip(raw_rows, rows):
        try:
            out.append((tuple(map(whole.__getitem__, raw)), 1))
        except KeyError:
            out.append(_cleared(row))
    return tuple(out)


def _parse_vector(doc: dict, key: str, length: int, table: _Table) -> tuple:
    raw = doc.get(key)
    if not isinstance(raw, list):
        raise DocumentError(f"{key}: expected an array")
    if len(raw) != length:
        raise DocumentError(f"{key}: expected {length} entries, got {len(raw)}")
    return _parse_entries(raw, key, table)


def _parse_matrix(doc: dict, key: str, n_rows: int, n_cols: int, table: _Table) -> tuple:
    raw = doc.get(key)
    if not isinstance(raw, list):
        raise DocumentError(f"{key}: expected an array of arrays")
    if len(raw) != n_rows:
        raise DocumentError(f"{key}: expected {n_rows} rows, got {len(raw)}")
    rows = []
    for i, row in enumerate(raw):
        if not isinstance(row, list):
            raise DocumentError(f"{key}[{i}]: expected an array")
        if len(row) != n_cols:
            raise DocumentError(f"{key}[{i}]: expected {n_cols} entries, got {len(row)}")
        rows.append(_parse_entries(row, f"{key}[{i}]", table))
    return tuple(rows)


def map_to_document(qp: QPMap) -> dict:
    """Serialize a map; adds "relaxed": true when it is not in strict form.

    Raises DocumentError naming an entry with too many digits to be read back.
    """
    doc = {
        "n": qp.n,
        "m": qp.m,
        "lambda": _vector_entries(qp.lam, "lambda"),
        "A": _matrix_entries(qp.A, "A"),
        "B": _matrix_entries(qp.B, "B"),
    }
    zero_cols, zero_rows = strictness_violations(qp)
    if zero_cols or zero_rows:
        doc["relaxed"] = True
    return doc


def map_from_document(doc) -> QPMap:
    """Parse and validate a map document; DocumentError messages carry the
    offending position (e.g. "B[0][1]: zero denominator")."""
    if not isinstance(doc, dict):
        raise DocumentError(f"map document must be a JSON object, got {type(doc).__name__}")
    n = _expect_positive_int(doc, "n")
    m = _expect_positive_int(doc, "m")
    table = _Table()
    lam = _parse_vector(doc, "lambda", n, table)
    a = _parse_matrix(doc, "A", n, m, table)
    b = _parse_matrix(doc, "B", m, n, table)
    relaxed = doc.get("relaxed", False)
    if not isinstance(relaxed, bool):
        raise DocumentError(f"relaxed: expected true or false, got {relaxed!r}")
    rows = _cleared_rows([*((v, *row) for v, row in zip(doc["lambda"], doc["A"])), *doc["B"]],
                         [*((v, *row) for v, row in zip(lam, a)), *b], table)
    qp = QPMap._of_rows(rows[:n], rows[n:], lam, a, b)
    try:
        return qp if relaxed else require_strict(qp)
    except QPError as exc:
        raise DocumentError(str(exc)) from exc


def qmt_from_document(doc) -> QMT:
    if not isinstance(doc, dict):
        raise DocumentError(f"QMT document must be a JSON object, got {type(doc).__name__}")
    raw = doc.get("C")
    if not isinstance(raw, list) or not raw:
        raise DocumentError("C: expected a nonempty array of arrays")
    n = len(raw)
    table = _Table()
    c = _parse_matrix({"C": raw}, "C", n, n, table)
    try:
        return QMT._of_rows(c, _cleared_rows(raw, c, table))
    except QPError as exc:
        raise DocumentError(str(exc)) from exc


def _load_json(path):
    """The parsed file; load_map/load_qmt prefix errors with the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except RecursionError:
        raise DocumentError("JSON nested too deeply to parse") from None
    except ValueError as exc:  # bad syntax, not UTF-8, or an integer beyond str->int's digit limit
        raise DocumentError(f"invalid JSON: {exc}") from None


def load_map(path) -> QPMap:
    try:
        return map_from_document(_load_json(path))
    except DocumentError as exc:
        raise DocumentError(f"{path}: {exc}") from None


def load_qmt(path) -> QMT:
    try:
        return qmt_from_document(_load_json(path))
    except DocumentError as exc:
        raise DocumentError(f"{path}: {exc}") from None


def trajectory_csv_lines(n: int, rows) -> Iterator[str]:
    """Trajectory CSV: header t,x1,...,xn, then a row per (t, state) pair of
    ``rows``, LF endings; each line is made as it is read, never all at once.
    Values print with 17 significant digits, enough to round-trip any double."""
    yield "t," + ",".join(f"x{i + 1}" for i in range(n)) + "\n"
    row = "%d" + ",%.17g" * n + "\n"  # one format per row, not one call per value
    for t, state in rows:
        yield row % (t, *state)


"""JSON documents for maps and QMTs, plus trajectory CSV output.

Map documents keep every entry as a rational string ("p/q" or "p", reduced,
positive denominator) so that serialize -> parse is exact. Files written by
the transform command may carry "relaxed": true when the result left the
strict QP form; such documents parse into relaxed maps.
"""

import json
from fractions import Fraction

from .errors import DocumentError, QPError
from .linalg import format_rational, rational  # format_rational is re-exported
from .maps import QPMap, new_qp_map, strictness_violations
from .transform import QMT, new_qmt


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


def _parse_vector(doc: dict, key: str, length: int) -> tuple:
    raw = doc.get(key)
    if not isinstance(raw, list):
        raise DocumentError(f"{key}: expected an array")
    if len(raw) != length:
        raise DocumentError(f"{key}: expected {length} entries, got {len(raw)}")
    return tuple(parse_rational(v, f"{key}[{i}]") for i, v in enumerate(raw))


def _parse_matrix(doc: dict, key: str, n_rows: int, n_cols: int) -> tuple:
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
        rows.append(tuple(parse_rational(v, f"{key}[{i}][{j}]") for j, v in enumerate(row)))
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
    lam = _parse_vector(doc, "lambda", n)
    a = _parse_matrix(doc, "A", n, m)
    b = _parse_matrix(doc, "B", m, n)
    relaxed = doc.get("relaxed", False)
    if not isinstance(relaxed, bool):
        raise DocumentError(f"relaxed: expected true or false, got {relaxed!r}")
    try:
        return QPMap(lam, a, b) if relaxed else new_qp_map(lam, a, b)
    except QPError as exc:
        raise DocumentError(str(exc)) from exc


def qmt_to_document(t: QMT) -> dict:
    return {"C": _matrix_entries(t.C, "C")}


def qmt_from_document(doc) -> QMT:
    if not isinstance(doc, dict):
        raise DocumentError(f"QMT document must be a JSON object, got {type(doc).__name__}")
    raw = doc.get("C")
    if not isinstance(raw, list) or not raw:
        raise DocumentError("C: expected a nonempty array of arrays")
    n = len(raw)
    c = _parse_matrix({"C": raw}, "C", n, n)
    try:
        return new_qmt(c)
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


def save_map(qp: QPMap, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(map_to_document(qp), fh, indent=2)
        fh.write("\n")


def load_qmt(path) -> QMT:
    try:
        return qmt_from_document(_load_json(path))
    except DocumentError as exc:
        raise DocumentError(f"{path}: {exc}") from None


def save_qmt(t: QMT, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(qmt_to_document(t), fh, indent=2)
        fh.write("\n")


def format_float(value: float) -> str:
    """17 significant digits: enough to round-trip any double."""
    return f"{value:.17g}"


def trajectory_csv(times, states) -> str:
    """CSV text with header t,x1,...,xn; one row per time, LF line endings.

    A row of Python floats (an array's ``.tolist()``) prints the same text
    as the numpy row and formats faster than numpy scalars do.
    """
    states = list(states)
    n = len(states[0]) if states else 0
    lines = ["t," + ",".join(f"x{i + 1}" for i in range(n))]
    for t, state in zip(times, states):
        lines.append(f"{t}," + ",".join(format_float(v) for v in state))
    return "\n".join(lines) + "\n"

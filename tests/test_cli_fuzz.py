"""Fuzzing the qpmap exit-code contract in process, through cli.main.

Every run ends in an exit code in {0, 1, 2, 3} with no exception escaping
(argparse's own usage error counts as the exit 2 it raises), and every
input error exits 2 with a message on stderr.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qpmaps.cli import main
from qpmaps.documents import map_to_document
from qpmaps.sampling import random_symplectic_map, random_valid_map

COMMANDS = ("check", "solve", "iterate", "transform", "canonical", "verify")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def run(argv):
    """Exit code, stdout and stderr of one in-process qpmap run."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a malformed command line
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err.getvalue()
    return code, out.getvalue(), err.getvalue()


def assert_input_error(argv):
    code, out, err = run(argv)
    assert code == 2, (argv, code, out, err)
    assert err.strip(), argv


def argv_for(command, path, x0, draw):
    """A well-formed command line for one subcommand on the map at path."""
    if command == "solve":
        return ["solve", path, "--x0", x0, "--t-min", str(draw(st.integers(-30, 0))),
                "--t-max", str(draw(st.integers(0, 30)))]
    if command == "iterate":
        return ["iterate", path, "--x0", x0, "--steps", str(draw(st.integers(0, 40)))]
    if command == "transform":
        return ["transform", path, "--scale",
                draw(st.sampled_from(("2", "-1", "1/3", "-1/3", "-2e-1")))]
    if command == "verify":
        return ["verify", path, "--samples", str(draw(st.integers(0, 20)))]
    return [command, path]


@st.composite
def map_documents(draw):
    """Documents of valid maps, odd n included: generic or symplectic."""
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if n % 2 == 0 and draw(st.booleans()):
        return map_to_document(random_symplectic_map(rng, n))
    return map_to_document(random_valid_map(rng, n, draw(st.integers(1, 4))))


#: JSON values that are wrong for every key of a map document.
WRONG_VALUES = st.one_of(
    st.none(), st.booleans(), st.floats(allow_nan=False), st.text(max_size=4),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)
#: Entries no rational parser may accept.
BAD_ENTRIES = st.one_of(
    st.none(), st.booleans(), st.floats(allow_nan=False), st.lists(st.integers(), max_size=2),
    st.sampled_from(("", "abc", "1/0", "1//2", "0x10", "nan", "inf", "--1", "1.5.2",
                     "1/2/3", "1e4301", "-2e99999", "9" * 5000)),
    # an exponent beyond the bound in Arabic-Indic or fullwidth digits, after leading zeros
    st.tuples(st.sampled_from(("\u0660", "\uff10")), st.integers(0, 20), st.integers(4301, 10**8))
    .map(lambda z: "1e" + z[0] * z[1] + "".join(chr(ord(z[0]) + int(c)) for c in str(z[2]))),
)


@st.composite
def broken_documents(draw):
    """Bytes of a map file that is an input error for every subcommand."""
    doc = draw(map_documents())
    kind = draw(st.sampled_from(("truncated", "wrong type", "missing key", "bad entry",
                                 "wrong size", "relaxed", "not an object")))
    if kind == "truncated":
        text = json.dumps(doc)
        return text[: draw(st.integers(0, len(text) - 1))].encode()
    if kind == "wrong type":
        doc[draw(st.sampled_from(("n", "m", "lambda", "A", "B")))] = draw(WRONG_VALUES)
    elif kind == "missing key":
        del doc[draw(st.sampled_from(("n", "m", "lambda", "A", "B")))]
    elif kind == "bad entry":
        key = draw(st.sampled_from(("lambda", "A", "B")))
        row = doc[key] if key == "lambda" else draw(st.sampled_from(doc[key]))
        row[draw(st.integers(0, len(row) - 1))] = draw(BAD_ENTRIES)
    elif kind == "wrong size":
        key = draw(st.sampled_from(("lambda", "A", "B", "A row", "B row")))
        target = doc[key.split()[0]]
        if key.endswith("row"):
            target = target[0]
        if draw(st.booleans()):
            target.append(target[0])
        else:
            target.pop()
    elif kind == "relaxed":
        doc["relaxed"] = draw(st.one_of(st.none(), st.integers(), st.text(max_size=5),
                                        st.lists(st.booleans(), max_size=1)))
    else:
        doc = draw(st.one_of(st.lists(st.integers(), max_size=3), st.integers(),
                             st.text(max_size=5), st.none()))
    return json.dumps(doc).encode()


#: One command line per subcommand; the map path goes after the subcommand.
COMMAND_LINES = (
    ("check",), ("solve", "--x0", "1", "--t-max", "3"), ("iterate", "--x0", "1", "--steps", "3"),
    ("transform", "--scale", "2"), ("canonical",), ("verify",),
)


@settings(max_examples=150, deadline=None)
@given(content=broken_documents(), command=st.sampled_from(COMMAND_LINES))
@example(content=b"[" * 100000 + b"]" * 100000, command=("check",))
@example(content=b"\xff\xfe{}", command=("check",))
@example(content=json.dumps({"n": 2, "m": 1, "lambda": ["1", "-1"], "A": [["0"], ["0"]],
                             "B": [["1", "1"]], "relaxed": "false"}).encode(),
         command=("check",))
@example(content=b'{"n": ' + b"1" * 5000 + b"}", command=("check",))
def test_broken_document_exits_2(workdir, content, command):
    path = workdir / "broken.qpmap.json"
    path.write_bytes(content)
    code, out, err = run([command[0], str(path), *command[1:]])
    assert code == 2, (command, code, out, err)
    assert out == ""
    assert err.startswith(f"{path}: ") and err.count("\n") == 1, err


#: Valid rational literals: huge, decimal, negative-exponent, plain and JSON integers.
RATIONALS = st.one_of(
    st.integers(-(10**6), 10**6),
    st.integers(-(10**6), 10**6).map(str),
    st.integers(1, 4300).map(lambda e: f"1e{e}"),
    st.integers(1, 4300).map(lambda e: f"-3.5e-{e}"),
    st.decimals(allow_nan=False, allow_infinity=False).map(str),
    st.fractions(max_denominator=10**20).map(str),
    st.integers(1, 4000).map(lambda d: "7" * d),
    # Unicode decimal digits, which Fraction reads: Arabic-Indic, Devanagari, fullwidth
    st.text(alphabet="\u0661\u0663\u096a\uff15", min_size=1, max_size=6),
    st.tuples(st.sampled_from(("\u0660", "\u0966")), st.integers(0, 4300))
    .map(lambda z: "2e-" + "".join(chr(ord(z[0]) + int(c)) for c in str(z[1]))),
)


@settings(max_examples=150, deadline=None)
@given(doc=map_documents(), command=st.sampled_from(COMMANDS), data=st.data())
def test_any_rational_entries_keep_the_contract(workdir, doc, command, data):
    for _ in range(data.draw(st.integers(0, 3))):
        key = data.draw(st.sampled_from(("lambda", "A", "B")))
        row = doc[key] if key == "lambda" else data.draw(st.sampled_from(doc[key]))
        row[data.draw(st.integers(0, len(row) - 1))] = data.draw(RATIONALS)
    path = workdir / "exotic.qpmap.json"
    path.write_text(json.dumps(doc))
    x0 = ",".join(data.draw(st.sampled_from(("1", "0.5", "2", "3/2", "1e-3")))
                  for _ in range(doc["n"]))
    code, _, err = run(argv_for(command, str(path), x0, data.draw))
    if code == 2:
        assert err.count("\n") == 1, err


#: --x0 components that are not a finite positive double.
BAD_X0 = st.sampled_from(("abc", "1/0", "", "1e400", "1e99999", "0", "-0", "-1", "-2/3",
                          "1e-400", "1e-324"))


@st.composite
def argument_errors(draw, path, n, qmt_path, workdir):
    """A command line on a valid n-dimensional map with one bad argument."""
    command = draw(st.sampled_from(COMMANDS))
    if command in ("solve", "iterate"):
        bad = draw(st.sampled_from(("x0 count", "x0 literal", "other")))
        x0 = ",".join(["1"] * n)
        if bad == "x0 count":
            x0 = ",".join(["1"] * draw(st.sampled_from((n - 1, n + 1)).filter(bool)))
        elif bad == "x0 literal":
            x0 = ",".join(["1"] * (n - 1) + [draw(BAD_X0)])
        if command == "solve":
            t_range = draw(st.sampled_from((("--t-min", "3"), ("--t-min", "-1" + "0" * 400),
                                            ("--t-max", "1" + "0" * 400))))
            return [command, path, "--x0", x0, "--t-max", "2",
                    *(t_range if bad == "other" else ())]
        if bad != "other":
            return [command, path, "--x0", x0, "--steps", "3"]
        return [command, path, "--x0", x0, *draw(st.sampled_from((
            ("--steps", "-1"), ("--steps", "abc"), ("--steps", "1.5"),
            ("--steps", "3", "--out", str(workdir / "missing" / "traj.csv")))))]
    if command == "transform":
        return [command, path, *draw(st.sampled_from((
            ("--scale", "0"), ("--scale", "abc"), ("--scale", "1/0"), ("--scale", "1e99999"),
            ("--qmt", qmt_path), ("--qmt", str(workdir / "missing.qmt.json")),
            ("--solver-c",) if n % 2 else ("--scale", "0"))))]
    if command == "verify":
        if n % 2:
            return [command, path]
        return [command, path, *draw(st.sampled_from((
            ("--samples", "-1"), ("--samples", "x"), ("--tol", "nan"), ("--tol", "-1"),
            ("--tol", "-1e-3"), ("--seed", "-1"))))]
    return [command, str(workdir / "missing.qpmap.json")]


@settings(max_examples=150, deadline=None)
@given(doc=map_documents(), data=st.data())
def test_argument_error_exits_2(workdir, doc, data):
    path = workdir / "valid.qpmap.json"
    path.write_text(json.dumps(doc))
    # Non-square, or square of the wrong size, or singular: never a QMT for this map.
    qmt = data.draw(st.sampled_from((
        [["1", "0"]],
        [["1"] * (doc["n"] + 1) for _ in range(doc["n"] + 1)],
        [["1"] * doc["n"] for _ in range(doc["n"])] if doc["n"] > 1 else [["0"]],
    )))
    qmt_path = workdir / "bad.qmt.json"
    qmt_path.write_text(json.dumps({"C": qmt}))
    assert_input_error(data.draw(argument_errors(str(path), doc["n"], str(qmt_path), workdir)))


@settings(max_examples=100, deadline=None)
@given(doc=map_documents(), command=st.sampled_from(("solve", "iterate")), data=st.data())
def test_bad_x0_component_is_named(workdir, doc, command, data):
    """One bad --x0 component, anywhere, exits 2 with one line naming its index."""
    path = workdir / "x0.qpmap.json"
    path.write_text(json.dumps(doc))
    i = data.draw(st.integers(0, doc["n"] - 1))
    parts = ["1"] * doc["n"]
    parts[i] = data.draw(BAD_X0)
    code, out, err = run(argv_for(command, str(path), ",".join(parts), data.draw))
    assert (code, out) == (2, ""), err
    assert err.startswith(f"--x0[{i}]: ") and err.count("\n") == 1, err

import gc
import io
import json
import math
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qpmaps.cli import main, run
from qpmaps.documents import map_to_document
from qpmaps import check_conditions, new_qmt, new_qp_map
from qpmaps.solve import solve_closed_form
from qpmaps.sampling import random_state, random_symplectic_map, random_valid_map

from helpers import (
    SRC,
    dim2_map,
    dim2_variant,
    dim4_map,
    representable_times_oracle,
    run_python_afresh,
    save_map,
    save_qmt,
    trivial_lv_map,
    verify_report_oracle,
)


@pytest.fixture
def dim2_file(tmp_path):
    path = tmp_path / "dim2.qpmap.json"
    save_map(dim2_map(), path)
    return str(path)


@pytest.fixture
def variant_file(tmp_path):
    path = tmp_path / "variant.qpmap.json"
    save_map(dim2_variant(), path)
    return str(path)


@pytest.fixture
def dim4_file(tmp_path):
    path = tmp_path / "dim4.qpmap.json"
    save_map(dim4_map(1, 1), path)
    return str(path)


@pytest.fixture
def huge_lambda_file(tmp_path):
    """dim2 with lambda = (10**400, -10**400): exact and symplectic, but its
    lambda has no double value."""
    path = tmp_path / "huge.qpmap.json"
    doc = map_to_document(dim2_map())
    doc["lambda"] = ["1e400", "-1e400"]
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def huge_bm_file(tmp_path):
    """Entries within the exponent bound whose B.M has 6,000 digits, more than
    str(int) converts by default."""
    path = tmp_path / "huge_bm.qpmap.json"
    path.write_text(json.dumps({"n": 2, "m": 1, "lambda": ["1e3000", "-1e3000"],
                                "A": [["2"], ["-2"]], "B": [["1e3000", "1"]]}))
    return str(path)


def assert_one_line_exit_2(code, capsys, start):
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(start)
    assert captured.err.count("\n") == 1


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return header, rows


class TestCheck:
    def test_symplectic_fixture(self, dim2_file, capsys):
        assert main(["check", dim2_file]) == 0
        out = capsys.readouterr().out
        assert "SYMPLECTIC (n=2, s=1)" in out
        assert "pairing: p1->i=1" in out
        assert "class invariant B.M: 0" in out
        assert "pattern classifier: agrees" in out

    def test_not_symplectic_witness(self, variant_file, capsys):
        assert main(["check", variant_file]) == 1
        out = capsys.readouterr().out
        assert "NOT SYMPLECTIC" in out
        assert "condition (d) exponent pair equality: VIOLATED" in out
        assert "(i=1, p=1): A[1,1]*(B[1,1] - B[1,2]) = 2*(1 - 2) = -2 != 0" in out
        assert "(nonzero)" in out

    def test_odd_dimension(self, tmp_path, capsys):
        qp = new_qp_map((1, 0, -1), ((1,), (1,), (1,)), ((1, 1, 1),))
        path = tmp_path / "odd.qpmap.json"
        save_map(qp, path)
        assert main(["check", str(path)]) == 1
        out = capsys.readouterr().out
        assert "odd dimension" in out
        assert "n/a" in out

    def test_relaxed_map_skips_pattern(self, tmp_path, capsys):
        path = tmp_path / "relaxed.qpmap.json"
        save_map(trivial_lv_map(2), path)
        assert main(["check", str(path)]) == 0
        out = capsys.readouterr().out
        assert "pattern classifier: skipped (relaxed map)" in out
        assert "pairing: p1->(inert) p2->(inert)\n" in out

    def test_constant_quasimonomial_is_not_inert(self, tmp_path, capsys):
        """A zero row of B is the constant 1; when its A column spans two
        pairs it drives both (log_k = [1, 1]), so it is not inert."""
        path = tmp_path / "constant.qpmap.json"
        path.write_text(json.dumps({"n": 4, "m": 1, "relaxed": True, "lambda": ["0"] * 4,
                                    "A": [["1"], ["1"], ["-1"], ["-1"]], "B": [["0"] * 4]}))
        assert main(["check", str(path)]) == 0
        assert "  pairing: p1->(constant)\n" in capsys.readouterr().out
        assert main(["solve", str(path), "--x0", "1,1,1,1", "--t-max", "0"]) == 0
        assert "log multipliers log_k: [1, 1]\n" in capsys.readouterr().err

    def test_zero_denominator_exit_2(self, tmp_path, capsys):
        doc = map_to_document(dim2_map())
        doc["B"] = [["1", "1/0"]]
        path = tmp_path / "bad.qpmap.json"
        path.write_text(json.dumps(doc))
        assert main(["check", str(path)]) == 2
        assert "B[0][1]: zero denominator" in capsys.readouterr().err

    def test_missing_file_exit_2(self, tmp_path, capsys):
        assert main(["check", str(tmp_path / "nope.json")]) == 2

    def test_invalid_json_exit_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{]")
        assert main(["check", str(path)]) == 2
        assert "invalid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("content, message", [
        (b"[" * 100000 + b"]" * 100000, "JSON nested too deeply to parse"),
        (b"\xff\xfe{}", "invalid JSON: 'utf-8' codec can't decode byte 0xff"),
        (b'{"n": ' + b"1" * 5000 + b"}", "invalid JSON: Exceeds the limit (4300 digits)"),
        (b'{"n": 2, "m": 1, "lambda": ["1", "-1"], "A": [2, -2], "B": [["1", "1"]]}',
         "A[0]: expected an array"),
    ], ids=["nested-too-deep", "not-utf8", "huge-integer", "row-not-an-array"])
    def test_unreadable_json_exit_2(self, tmp_path, capsys, content, message):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        code = main(["check", str(path)])
        assert_one_line_exit_2(code, capsys, f"{path}: {message}")

    def test_witness_list_reports_exact_remainder(self, tmp_path, capsys):
        qp = random_valid_map(np.random.default_rng(3), 6, 6)
        path = tmp_path / "generic.qpmap.json"
        save_map(qp, path)
        assert main(["check", str(path)]) == 1
        out = capsys.readouterr().out
        expected = [f"    ... and {cond.count - 5} more"
                    for _, cond in check_conditions(qp).conditions() if cond.count > 5]
        assert expected  # the map has a condition with more than five witnesses
        assert [line for line in out.splitlines() if line.startswith("    ... and")] == expected

    def test_exponent_beyond_bound_exit_2(self, tmp_path, capsys):
        doc = map_to_document(dim2_map())
        doc["A"][0][0] = "1e1000000"
        path = tmp_path / "huge_exponent.qpmap.json"
        path.write_text(json.dumps(doc))
        code = main(["check", str(path)])
        assert_one_line_exit_2(code, capsys, f"{path}: A[0][0]: exponent of '1e1000000' exceeds")

    @pytest.mark.parametrize("exponent", ["\u0661" + "\u0660" * 7,
                                          "\u0660" * 10 + "\u0661" + "\u0660" * 7])
    def test_exponent_in_other_digits_beyond_bound_exit_2(self, tmp_path, capsys, exponent):
        doc = map_to_document(dim2_map())
        doc["B"][0][1] = "1e" + exponent
        path = tmp_path / "unicode_exponent.qpmap.json"
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        code = main(["check", str(path)])
        assert time.perf_counter() - start < 1
        assert_one_line_exit_2(code, capsys, f"{path}: B[0][1]: exponent of '1e{exponent}' exceeds")

    def test_more_than_4300_digits_in_b_m(self, huge_bm_file, capsys):
        assert main(["check", huge_bm_file]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        # B.M = [[10**6000 - 10**3000, 2*10**3000 - 2]]
        bm = f"[[{'9' * 3000}{'0' * 3000}, 1{'9' * 2999}8]]"
        assert f"  class invariant B.M: {bm} (nonzero)\n" in captured.out
        assert (f"    (i=1, p=1): A[1,1]*(B[1,1] - B[1,2]) = 2*(1{'0' * 3000} - 1)"
                f" = 1{'9' * 2999}8 != 0\n") in captured.out

    def test_more_than_4300_digits_in_a_witness(self, tmp_path, capsys):
        doc = map_to_document(dim2_map())
        doc["A"][0][0] = "1e4300"
        path = tmp_path / "huge_a.qpmap.json"
        path.write_text(json.dumps(doc))
        assert main(["check", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        # A[1,1] + A[2,1] = 10**4300 - 2
        assert (f"    (i=1, j=1): A[1,1] + A[2,1] = 1{'0' * 4300} + -2 = {'9' * 4299}8 != 0\n"
                in captured.out)
        assert f"  class invariant B.M: [[0, {'9' * 4299}8]] (nonzero)\n" in captured.out

    def test_classifier_disagreement_exit_3(self, dim2_file, capsys, monkeypatch):
        # Unreachable for correct classifiers; forced here to pin the exit code.
        import qpmaps.cli as cli

        def flipped(qp):
            rep = cli.check_conditions(qp)
            return rep.__class__(
                is_symplectic=not rep.is_symplectic,
                s=rep.s,
                cond_a=rep.cond_a, cond_b=rep.cond_b,
                cond_c=rep.cond_c, cond_d=rep.cond_d,
                pairing=None,
            )

        monkeypatch.setattr(cli, "check_pattern", flipped)
        assert main(["check", dim2_file]) == 3
        assert "internal error" in capsys.readouterr().err


class TestSolve:
    def test_nonpositive_x0_exit_2_before_the_verdict(self, variant_file, capsys):
        code = main(["solve", variant_file, "--x0", "0,1", "--t-max", "2"])
        assert_one_line_exit_2(code, capsys, "--x0[0]: '0' is not a positive double\n")

    def test_csv_matches_closed_form(self, dim2_file, tmp_path, capsys):
        out_path = tmp_path / "sol.csv"
        assert main(["solve", dim2_file, "--x0", "1,1", "--t-max", "5",
                     "--out", str(out_path)]) == 0
        header, rows = read_csv(out_path)
        assert header == ["t", "x1", "x2"]
        assert len(rows) == 6
        for t, x1, x2 in rows:
            assert x1 == pytest.approx(math.exp(3 * t), rel=1e-12)
            assert x2 == pytest.approx(math.exp(-3 * t), rel=1e-12)
        summary = capsys.readouterr().out
        assert "log multipliers log_k: [3]" in summary
        assert "pair 1: split" in summary
        assert "verification against 5 iterated steps" in summary

    def test_backward_rows(self, dim2_file, tmp_path):
        out_path = tmp_path / "sol.csv"
        assert main(["solve", dim2_file, "--x0", "1,1", "--t-max", "2",
                     "--t-min", "-5", "--out", str(out_path)]) == 0
        _, rows = read_csv(out_path)
        assert rows[0][0] == -5
        assert rows[0][1] == pytest.approx(math.exp(-15), rel=1e-12)

    def test_rational_x0_tokens(self, dim2_file, tmp_path):
        out_path = tmp_path / "sol.csv"
        assert main(["solve", dim2_file, "--x0", "2,1/2", "--t-max", "1",
                     "--out", str(out_path)]) == 0
        _, rows = read_csv(out_path)
        assert rows[0][1:] == [pytest.approx(2.0), pytest.approx(0.5)]

    def test_not_symplectic_exit_1_no_csv(self, variant_file, tmp_path, capsys):
        out_path = tmp_path / "sol.csv"
        assert main(["solve", variant_file, "--x0", "1,1", "--t-max", "5",
                     "--out", str(out_path)]) == 1
        assert not out_path.exists()
        err = capsys.readouterr().err
        assert "not symplectic" in err
        assert "(d)" in err

    def test_overflow_rows_skipped_with_warning(self, dim2_file, tmp_path, capsys):
        out_path = tmp_path / "sol.csv"
        assert main(["solve", dim2_file, "--x0", "1,1", "--t-max", "400",
                     "--out", str(out_path)]) == 0
        _, rows = read_csv(out_path)
        assert len(rows) < 401
        assert "overflow" in capsys.readouterr().err

    def test_bad_x0_exit_2(self, dim2_file, capsys):
        assert main(["solve", dim2_file, "--x0", "1,zebra", "--t-max", "3"]) == 2
        assert main(["solve", dim2_file, "--x0", "1,1,1", "--t-max", "3"]) == 2

    @pytest.mark.parametrize("command", [["solve", "--t-max", "3"], ["iterate", "--steps", "3"]])
    def test_negative_x0_one_line_exit_2(self, dim2_file, command, capsys):
        code = main([command[0], dim2_file, "--x0", "-1,2", *command[1:]])
        assert_one_line_exit_2(code, capsys, "--x0[0]: '-1' is not a positive double\n")

    @pytest.mark.parametrize("command", [["solve", "--t-max", "1"], ["iterate", "--steps", "1"]])
    def test_x0_rounding_to_zero_names_the_component(self, dim2_file, command, capsys):
        code = main([command[0], dim2_file, "--x0", "1,1e-400", *command[1:]])
        assert_one_line_exit_2(code, capsys, "--x0[1]: '1e-400' is not a positive double\n")

    def test_x0_outside_double_range_exit_2(self, dim2_file, capsys):
        assert main(["solve", dim2_file, "--x0", "1,1e400", "--t-max", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("--x0[1]: '1e400'")
        assert captured.err.count("\n") == 1

    def test_nonfinite_multiplier_exit_2_no_csv(self, tmp_path, capsys):
        path = tmp_path / "wide.qpmap.json"
        save_map(random_symplectic_map(np.random.default_rng(5), 4, 4), path)
        assert main(["solve", str(path), "--x0", "1e200,1e200,1e200,1e200",
                     "--t-max", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("pair 1: log k_1 = nan")
        assert captured.err.count("\n") == 1

    def test_lambda_outside_double_range_exit_2(self, huge_lambda_file, capsys):
        code = main(["solve", huge_lambda_file, "--x0", "1,1", "--t-max", "3"])
        assert_one_line_exit_2(code, capsys, "lambda[0] is outside the double range")

    def test_t_zero_row_is_x0(self, dim2_file, tmp_path):
        # exp(log(x)) != x for this x, so a row computed in log space is off by one ulp
        x = 1.8980895299200673
        out_path = tmp_path / "sol.csv"
        assert main(["solve", dim2_file, "--x0", f"{x!r},{x!r}", "--t-max", "1",
                     "--t-min", "-1", "--out", str(out_path)]) == 0
        _, rows = read_csv(out_path)
        assert rows[1] == [0, x, x]

    @pytest.mark.parametrize("option", ["--t-min", "--t-max"])
    def test_t_outside_double_range_exit_2(self, dim2_file, option, capsys):
        huge = "-1" + "0" * 400 if option == "--t-min" else "1" + "0" * 400
        code = main(["solve", dim2_file, "--x0", "1,1", "--t-max", "3", option, huge])
        assert_one_line_exit_2(code, capsys, f"{option}: {huge} is outside the double range")

    def test_t_min_above_t_max_exit_2(self, dim2_file):
        assert main(["solve", dim2_file, "--x0", "1,1", "--t-max", "1",
                     "--t-min", "2"]) == 2

    def test_stdout_csv_when_no_out(self, dim2_file, capsys):
        assert main(["solve", dim2_file, "--x0", "1,1", "--t-max", "1"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("t,x1,x2\n")
        assert "log multipliers" in captured.err

    def test_backward_only_skips_verification(self, dim2_file, tmp_path, capsys):
        out_path = tmp_path / "sol.csv"
        assert main(["solve", dim2_file, "--x0", "1,1", "--t-max", "0",
                     "--t-min", "-3", "--out", str(out_path)]) == 0
        assert "verification skipped: no forward steps requested" in capsys.readouterr().out
        _, rows = read_csv(out_path)
        assert [r[0] for r in rows] == [-3, -2, -1, 0]

    def test_huge_range_is_bounded_by_the_multipliers(self, dim2_file, tmp_path, capsys):
        out_path = tmp_path / "sol.csv"
        start = time.perf_counter()
        assert main(["solve", dim2_file, "--x0", "1,1", "--t-min", "-1000000000000",
                     "--t-max", "0", "--out", str(out_path)]) == 0
        assert time.perf_counter() - start < 5
        _, rows = read_csv(out_path)
        assert [r[0] for r in rows] == list(range(-236, 1))
        assert capsys.readouterr().err == (
            "warning: overflow at t in -1000000000000..-237; those rows were omitted\n")

    def test_near_constant_pair_note(self, tmp_path, capsys):
        # log k_1 = 1 - x1*x2 = 1e-10: split, but close enough to zero for a note
        path = tmp_path / "near.qpmap.json"
        save_map(new_qp_map((1, -1), ((-1,), (1,)), ((1, 1),)), path)
        assert main(["solve", str(path), "--x0", "1,0.9999999999", "--t-max", "1",
                     "--out", str(tmp_path / "sol.csv")]) == 0
        assert "pair 1: split (one variable tends to zero, its partner diverges)" \
               " [|log k_1| = 1.000e-10 is close to zero;" in capsys.readouterr().out

    def test_overflowing_iteration_skips_verification(self, dim2_file, tmp_path, capsys):
        out_path = tmp_path / "sol.csv"
        assert main(["solve", dim2_file, "--x0", "1e300,1", "--t-max", "3",
                     "--out", str(out_path)]) == 0
        assert "verification skipped: " in capsys.readouterr().out
        _, rows = read_csv(out_path)
        assert [r[0] for r in rows] == [0]


@pytest.fixture(scope="module")
def solve_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("solve")


@settings(max_examples=60, deadline=None)
@given(lam=st.integers(-5, 5), a=st.integers(1, 5).flatmap(lambda v: st.sampled_from((v, -v))),
       b=st.sampled_from(("1", "2", "1/2")),
       x0=st.lists(st.sampled_from(("1e-3", "0.01", "0.5", "1", "2", "10", "1000")),
                   min_size=2, max_size=2),
       t_range=st.lists(st.integers(-400, 400), min_size=2, max_size=2).map(sorted))
@example(lam=1, a=2, b="1", x0=["1", "1"], t_range=[500, 600])  # fixtures/dim2, no row written
def test_solve_writes_exactly_the_representable_times(solve_dir, lam, a, b, x0, t_range):
    qp = new_qp_map((lam, -lam), ((a,), (-a,)), ((b, b),))
    path = solve_dir / "pair.qpmap.json"
    save_map(qp, path)
    t_min, t_max = t_range
    sol = solve_closed_form(qp, [float(v) for v in x0])
    representable = representable_times_oracle(sol, t_min, t_max)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["solve", str(path), "--x0", ",".join(x0), "--t-min", str(t_min),
                     "--t-max", str(t_max)])
    assert code == 0
    header, *lines = out.getvalue().splitlines()
    assert header == "t,x1,x2"
    written = [int(line.split(",")[0]) for line in lines]
    assert written == representable
    skipped = set()
    for line in err.getvalue().splitlines():
        if line.startswith("warning: overflow at t in "):
            for part in line[len("warning: overflow at t in "):].split(";")[0].split(", "):
                first, _, last = part.partition("..")
                skipped.update(range(int(first), int(last or first) + 1))
    assert skipped == set(range(t_min, t_max + 1)) - set(representable)


# Prints the exit code of `qpmap ARGV...` (0 without ARGV) and the peak RSS
# in kB of a process that has imported numpy and qpmaps.cli.
PEAK_RSS_PROBE = """
import resource, sys, numpy, qpmaps.cli
code = qpmaps.cli.main(sys.argv[1:]) if sys.argv[1:] else 0
print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def test_solve_streams_its_rows(tmp_path):
    """300,001 rows of `qpmap solve --out` cost at most 15 MB over a process
    that only imports qpmaps.cli and numpy: rows are written as evaluated."""
    pytest.importorskip("resource")
    path = tmp_path / "k1.qpmap.json"  # log k = 0: every t is representable
    save_map(new_qp_map((-1, 1), ((1,), (-1,)), ((1, 1),)), path)

    def peak_kb(*argv):
        proc = run_python_afresh("-c", PEAK_RSS_PROBE, *argv)
        code, kb = proc.stdout.split()[-2:]
        assert code == "0", proc.stderr
        return int(kb)

    out_path = tmp_path / "z.csv"
    solve_kb = peak_kb("solve", str(path), "--x0", "1,1", "--t-max", "300000",
                       "--out", str(out_path))
    assert solve_kb - peak_kb() <= 15 * 1024
    with open(out_path, encoding="utf-8") as fh:
        assert sum(1 for _ in fh) == 300_002


@pytest.mark.parametrize("command", [["iterate", "--steps"], ["solve", "--t-max"]])
def test_closed_stdout_ends_the_command_quietly(tmp_path, command):
    """A reader that takes one row and closes the pipe, as `| head -1` does:
    exit 0, and stderr holds what the same command prints with stdout intact
    (nothing for iterate), no pipe error and no overflow warning."""
    path = tmp_path / "k1.qpmap.json"  # log k = 0: every row is representable
    save_map(new_qp_map((-1, 1), ((1,), (-1,)), ((1, 1),)), path)
    argv = [sys.executable, "-m", "qpmaps", command[0], str(path), "--x0", "1,1",
            command[1], "20000"]  # ~900 kB of rows, far more than a pipe buffers
    env = dict(os.environ, PYTHONPATH=str(SRC))
    intact = subprocess.run(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            timeout=120)
    assert intact.returncode == 0
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"t,x1,x2\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 0
    assert err == intact.stderr
    if command[0] == "iterate":
        assert err == b""


def test_closed_stdout_keeps_the_check_verdict(tmp_path):
    """`qpmap check | head -c 100` on a map whose B.M line is ~77 kB, more than a
    pipe buffers: the reader closes stdout while check writes, and check still
    exits 1, its verdict, with nothing on stderr."""
    path = tmp_path / "big.qpmap.json"
    save_map(random_valid_map(np.random.default_rng(1), 4, 150), path)
    argv = [sys.executable, "-m", "qpmaps", "check", str(path)]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.read(100).startswith(b"NOT SYMPLECTIC (n=4)")
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 1
    assert err == b""


@pytest.mark.parametrize("argv, code", [
    (["check", "{variant}"], 1),
    (["check", "{dim2}"], 0),
    (["canonical", "{dim2}"], 0),
    (["verify", "{dim2}"], 0),
    (["verify", "{variant}"], 1),
    (["verify", "{dim2}", "--samples", "0"], 0),
    (["transform", "{dim2}", "--scale", "2", "--out", "{out}"], 0),
    (["solve", "{dim2}", "--x0", "1,2", "--t-max", "3", "--out", "{out}"], 0),
], ids=["check-1", "check-0", "canonical-trivial", "verify-pass", "verify-fail",
        "verify-vacuous", "transform-out", "solve-out"])
def test_every_stdout_write_survives_a_closed_reader(argv, code, dim2_file, variant_file,
                                                     tmp_path, monkeypatch, capsys):
    """Each command that writes to stdout, with stdout a pipe whose reader is
    gone: the exit code and stderr are those of an intact stdout."""
    argv = [a.format(dim2=dim2_file, variant=variant_file, out=tmp_path / "out")
            for a in argv]
    assert main(argv) == code
    intact_err = capsys.readouterr().err
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w", encoding="utf-8") as closed:
        monkeypatch.setattr(sys, "stdout", closed)
        assert main(argv) == code
        monkeypatch.undo()
    assert capsys.readouterr().err == intact_err


FIXTURES = SRC.parent / "fixtures"
# (argv, exit code): every subcommand on the fixtures and on maps generated at
# n = 8, the exit-2 cases among them, and two usage errors that argparse raises.
PROCESS_CASES = [
    (["check", "{dim2}"], 0), (["check", "{dim2_variant}"], 1), (["check", "{dim4}"], 0),
    (["check", "{sym8}"], 0), (["check", "{generic8}"], 1), (["check", "{malformed}"], 2),
    (["check", "{dim2}.missing"], 2),
    (["solve", "{dim2}", "--x0", "1,2", "--t-min", "-20", "--t-max", "20", "--out", "{out}"], 0),
    (["solve", "{dim2}", "--x0", "1,2", "--t-min", "-400", "--t-max", "300"], 0),
    (["solve", "{sym8}", "--x0", "{x0}", "--t-min", "-200", "--t-max", "200"], 0),
    (["solve", "{dim2_variant}", "--x0", "1,2", "--t-max", "10"], 1),
    (["solve", "{dim2}", "--x0", "1,1e-400", "--t-max", "1"], 2),
    (["iterate", "{dim2}", "--x0", "1,2", "--steps", "30"], 0),
    (["iterate", "{sym8}", "--x0", "{x0}", "--steps", "200", "--out", "{out}"], 0),
    (["iterate", "{dim2}", "--x0", "1,1", "--steps", "300"], 0),
    (["iterate", "{generic8}", "--x0", "1,1,1,1,1,1,1,1", "--steps", "50"], 0),
    (["transform", "{dim2}", "--qmt", "{diag12}"], 0),
    (["transform", "{dim2_variant}", "--qmt", "{solver_s1}", "--out", "{out}"], 0),
    (["transform", "{dim4}", "--solver-c"], 0),
    (["transform", "{sym8}", "--scale", "-1/3"], 0),
    (["transform", "{dim2}", "--scale", "0"], 2),
    (["canonical", "{dim2_variant}"], 0), (["canonical", "{dim4}"], 0),
    (["canonical", "{generic8}", "--out", "{out}"], 0),
    (["verify", "{dim2_variant}"], 1), (["verify", "{dim4}", "--samples", "300"], 0),
    (["verify", "{sym8}", "--samples", "300", "--seed", "7"], 0),
    (["verify", "{generic8}", "--samples", "50"], 2),
    (["check"], 2), (["solve", "{dim2}", "--x0", "1,1"], 2),
]


@pytest.fixture(scope="module")
def process_paths(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("process")
    rng = np.random.default_rng(26)
    paths = {name: str(FIXTURES / f"{name}.qpmap.json") for name in ("dim2", "dim2_variant", "dim4")}
    paths.update(diag12=str(FIXTURES / "diag12.qmt.json"),
                 solver_s1=str(FIXTURES / "solver_s1.qmt.json"),
                 malformed=str(tmp / "malformed.qpmap.json"), out=str(tmp / "out"))
    for name, qp in (("sym8", random_symplectic_map(rng, 8, 8, phi_bound=0.25)),
                     ("generic8", random_valid_map(rng, 8, 8))):
        paths[name] = str(tmp / f"{name}.qpmap.json")
        save_map(qp, paths[name])
    paths["x0"] = ",".join(repr(v) for v in random_state(rng, 8).tolist())
    (tmp / "malformed.qpmap.json").write_text('{"n": 2, "m": 1, "lambda": ["1", "1/0"]}')
    return paths


def _take_out_file(path):
    """The bytes of the --out file, which is then removed; None when there is none."""
    path = Path(path)
    data = path.read_bytes() if path.exists() else None
    path.unlink(missing_ok=True)
    return data


@pytest.mark.parametrize("argv, code", PROCESS_CASES,
                         ids=[f"{i}-{argv[0]}-{code}" for i, (argv, code) in enumerate(PROCESS_CASES)])
def test_process_matches_in_process_main(argv, code, process_paths):
    """`python -m qpmaps` (which ends through cli.run) writes the same exit code,
    stdout, stderr and --out bytes as main() in this process, and main() leaves
    no object frozen."""
    argv = [a.format(**process_paths) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            in_code = main(argv)
        except SystemExit as exc:  # argparse's usage error
            in_code = exc.code
    assert gc.get_freeze_count() == 0
    in_file = _take_out_file(process_paths["out"])
    proc = subprocess.run([sys.executable, "-m", "qpmaps", *argv], capture_output=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120)
    assert (in_code, out.getvalue().encode(), err.getvalue().encode()) == \
        (proc.returncode, proc.stdout, proc.stderr)
    assert in_code == code
    assert _take_out_file(process_paths["out"]) == in_file


@pytest.mark.parametrize("argv, code", [(["check", "{dim2}"], 0), (["check", "{dim2_variant}"], 1),
                                        (["check"], 2)])
def test_run_exits_with_the_code_of_main_after_freezing(argv, code, process_paths, monkeypatch,
                                                         capsys):
    monkeypatch.setattr(sys, "argv", ["qpmap", *(a.format(**process_paths) for a in argv)])
    try:
        with pytest.raises(SystemExit) as exc:
            run()
        assert exc.value.code == code
        assert gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()


class TestIterate:
    def test_trivial_map_constant_rows(self, tmp_path):
        path = tmp_path / "trivial.qpmap.json"
        save_map(trivial_lv_map(2), path)
        out_path = tmp_path / "traj.csv"
        assert main(["iterate", str(path), "--x0", "1.5,0.25", "--steps", "5",
                     "--out", str(out_path)]) == 0
        _, rows = read_csv(out_path)
        assert len(rows) == 6
        for row in rows:
            assert row[1:] == [pytest.approx(1.5), pytest.approx(0.25)]

    def test_zero_steps_single_row(self, dim2_file, tmp_path):
        out_path = tmp_path / "traj.csv"
        assert main(["iterate", dim2_file, "--x0", "1,1", "--steps", "0",
                     "--out", str(out_path)]) == 0
        _, rows = read_csv(out_path)
        assert len(rows) == 1

    def test_negative_steps_exit_2(self, dim2_file, capsys):
        assert main(["iterate", dim2_file, "--x0", "1,1", "--steps", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "--steps must be nonnegative\n"

    def test_matches_solve(self, dim2_file, tmp_path):
        solve_csv = tmp_path / "sol.csv"
        iter_csv = tmp_path / "it.csv"
        assert main(["solve", dim2_file, "--x0", "1,1", "--t-max", "3",
                     "--out", str(solve_csv)]) == 0
        assert main(["iterate", dim2_file, "--x0", "1,1", "--steps", "3",
                     "--out", str(iter_csv)]) == 0
        _, srows = read_csv(solve_csv)
        _, irows = read_csv(iter_csv)
        for srow, irow in zip(srows, irows):
            assert srow[0] == irow[0]
            for a, b in zip(srow[1:], irow[1:]):
                assert abs(a - b) / max(abs(a), abs(b)) <= 1e-9

    def test_overflow_truncates(self, tmp_path, capsys):
        qp = new_qp_map((50, -50), ((2,), (-2,)), ((1, 1),))
        path = tmp_path / "fast.qpmap.json"
        save_map(qp, path)
        out_path = tmp_path / "traj.csv"
        assert main(["iterate", str(path), "--x0", "1,1", "--steps", "50",
                     "--out", str(out_path)]) == 0
        _, rows = read_csv(out_path)
        assert 1 <= len(rows) < 51
        err = capsys.readouterr().err
        assert "overflow" in err
        assert "last valid t=" in err

    @pytest.mark.parametrize("steps", ["0", "3"])
    def test_lambda_outside_double_range_exit_2(self, huge_lambda_file, steps, capsys):
        code = main(["iterate", huge_lambda_file, "--x0", "1,1", "--steps", steps])
        assert_one_line_exit_2(code, capsys, "lambda[0] is outside the double range")

    def test_deterministic_output(self, dim4_file, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for target in (a, b):
            assert main(["iterate", dim4_file, "--x0", "1,0.5,2,3",
                         "--steps", "4", "--out", str(target)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestTransform:
    def test_qmt_file(self, dim2_file, tmp_path, capsys):
        qmt_path = tmp_path / "d.qmt.json"
        save_qmt(new_qmt([[1, 0], [0, 2]]), qmt_path)
        out_path = tmp_path / "out.qpmap.json"
        assert main(["transform", dim2_file, "--qmt", str(qmt_path),
                     "--out", str(out_path)]) == 0
        doc = json.loads(out_path.read_text())
        assert doc["lambda"] == ["1", "-1/2"]
        assert doc["A"] == [["2"], ["-1"]]
        assert doc["B"] == [["1", "2"]]
        assert "relaxed" not in doc
        assert "symplectic before: yes; after: no" in capsys.readouterr().out

    def test_scale_preserves(self, dim2_file, tmp_path, capsys):
        out_path = tmp_path / "out.qpmap.json"
        assert main(["transform", dim2_file, "--scale", "3",
                     "--out", str(out_path)]) == 0
        doc = json.loads(out_path.read_text())
        assert doc["lambda"] == ["1/3", "-1/3"]
        assert doc["B"] == [["3", "3"]]
        assert "symplectic before: yes; after: yes" in capsys.readouterr().out

    def test_solver_c(self, dim2_file, tmp_path, capsys):
        out_path = tmp_path / "out.qpmap.json"
        assert main(["transform", dim2_file, "--solver-c",
                     "--out", str(out_path)]) == 0
        doc = json.loads(out_path.read_text())
        # first row of (lambda | A) is zero, last column of B is zero
        assert doc["lambda"][0] == "0"
        assert doc["A"][0] == ["0"]
        assert [row[-1] for row in doc["B"]] == ["0"]
        assert "symplectic before: yes; after: no" in capsys.readouterr().out

    def test_solver_c_odd_dimension_exit_2(self, tmp_path, capsys):
        qp = new_qp_map((1, 0, -1), ((1,), (1,), (1,)), ((1, 1, 1),))
        path = tmp_path / "odd.qpmap.json"
        save_map(qp, path)
        assert main(["transform", str(path), "--solver-c"]) == 2
        assert "even dimension" in capsys.readouterr().err

    def test_scale_zero_exit_2(self, dim2_file, capsys):
        assert main(["transform", dim2_file, "--scale", "0"]) == 2

    @pytest.mark.parametrize("scale", ["-1/3", "-2e-1", "-.5"])
    def test_negative_scale_as_a_separate_argument(self, dim2_file, scale, capsys):
        # argparse alone takes "-1/3" for an option and exits 2
        assert main(["transform", dim2_file, "--scale", scale]) == 0
        spaced = capsys.readouterr()
        assert main(["transform", dim2_file, f"--scale={scale}"]) == 0
        assert capsys.readouterr() == spaced
        assert json.loads(spaced.out)["B"]

    def test_double_dash_still_ends_the_options(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["check", "--", "-1.qpmap.json"]) == 2
        err = capsys.readouterr().err
        assert "No such file" in err and "'-1.qpmap.json'" in err and err.count("\n") == 1

    @pytest.mark.parametrize("scale", ["abc", "1/0", "0", "1e99999"])
    def test_bad_scale_one_line_exit_2(self, dim2_file, scale, capsys):
        code = main(["transform", dim2_file, "--scale", scale])
        assert_one_line_exit_2(code, capsys, "--scale")

    def test_degenerate_input_writes_relaxed_doc(self, tmp_path, capsys):
        path = tmp_path / "relaxed.qpmap.json"
        save_map(trivial_lv_map(2), path)
        out_path = tmp_path / "out.qpmap.json"
        assert main(["transform", str(path), "--scale", "2",
                     "--out", str(out_path)]) == 0
        doc = json.loads(out_path.read_text())
        assert doc["relaxed"] is True
        captured = capsys.readouterr()
        assert "warning" in captured.err
        assert "after: n/a (degenerate" in captured.out

    @pytest.mark.parametrize("c, message", [
        ([["1", "2"], ["2", "4"]],
         "matrix is singular: rank 1 of 2, column 1 depends on the columns before it"),
        ([["1", "2"]], "C[0]: expected 1 entries, got 2"),
        ([["1", "2", "3"], ["0", "1", "2"]], "C[0]: expected 2 entries, got 3"),
    ], ids=["singular", "one-row", "two-rows"])
    def test_singular_or_non_square_qmt_exit_2(self, dim2_file, tmp_path, c, message, capsys):
        qmt_path = tmp_path / "bad.qmt.json"
        qmt_path.write_text(json.dumps({"C": c}))
        assert main(["transform", dim2_file, "--qmt", str(qmt_path)]) == 2
        assert capsys.readouterr() == ("", f"{qmt_path}: {message}\n")

    def test_round_trip_through_check(self, dim2_file, tmp_path):
        out_path = tmp_path / "out.qpmap.json"
        assert main(["transform", dim2_file, "--scale", "3",
                     "--out", str(out_path)]) == 0
        assert main(["check", str(out_path)]) == 0


class TestCanonical:
    def test_symplectic_trivial_note(self, dim2_file, capsys):
        assert main(["canonical", dim2_file]) == 0
        out = capsys.readouterr().out
        assert "class invariant B.M: 0" in out
        assert "canonical representative is trivial (identity map)" in out

    def test_dim4_trivial(self, dim4_file, capsys):
        assert main(["canonical", dim4_file]) == 0
        assert "trivial" in capsys.readouterr().out

    def test_generic_map_writes_document(self, tmp_path, capsys):
        qp = new_qp_map((1, 0), ((1, 0), (0, 1)), ((1, 0), (0, 1)))
        path = tmp_path / "generic.qpmap.json"
        save_map(qp, path)
        out_path = tmp_path / "lv.qpmap.json"
        assert main(["canonical", str(path), "--out", str(out_path)]) == 0
        doc = json.loads(out_path.read_text())
        assert doc["B"] == [["1", "0"], ["0", "1"]]
        assert doc["lambda"] == ["1", "0"]

    def test_entry_too_long_to_read_back_exit_2(self, huge_bm_file, capsys):
        # lambda_c = (B.M)[0][0] has 6,000 digits: no document could be read back
        code = main(["canonical", huge_bm_file])
        assert_one_line_exit_2(code, capsys, "lambda[0]: exact value has too many digits")

    def test_degenerate_reported_not_fatal(self, tmp_path, capsys):
        # B.M = [[2, 0, 0], [2, 0, 0]]: nonzero, but B.A is the zero matrix,
        # so the canonical form leaves the strict QP class.
        qp = new_qp_map((1, 1), ((1, -1), (-1, 1)), ((1, 1), (1, 1)))
        path = tmp_path / "degen.qpmap.json"
        save_map(qp, path)
        assert main(["canonical", str(path)]) == 0
        out = capsys.readouterr().out
        assert "degenerate" in out
        assert "raw canonical matrix" in out

    def test_class_invariant_computed_once(self, variant_file, capsys, monkeypatch):
        import qpmaps.transform

        calls = []
        mat_mul = qpmaps.transform.mat_mul
        monkeypatch.setattr(qpmaps.transform, "mat_mul",
                            lambda x, y: calls.append(1) or mat_mul(x, y))
        assert main(["canonical", variant_file]) == 0
        assert len(calls) == 1
        captured = capsys.readouterr()
        assert captured.err == ("class invariant B.M: [[-1, -2]]\n"
                                "canonical Lotka-Volterra representative has 1 variables\n")
        assert json.loads(captured.out) == {
            "n": 1, "m": 1, "lambda": ["-1"], "A": [["-2"]], "B": [["1"]]}


class TestVerify:
    def test_symplectic_pass(self, dim2_file, capsys):
        assert main(["verify", dim2_file]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "seed 42" in out

    def test_variant_fails(self, variant_file, capsys):
        assert main(["verify", variant_file]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_overflowing_jacobian_exit_2(self, tmp_path, capsys):
        # exp(1000) overflows every Jacobian: NaN residuals must not read as a PASS
        path = tmp_path / "overflow.qpmap.json"
        path.write_text(json.dumps({"n": 2, "m": 1, "lambda": ["1000", "0"],
                                    "A": [["1"], ["1"]], "B": [["1", "1"]]}))
        code = main(["verify", str(path), "--samples", "300"])
        assert_one_line_exit_2(code, capsys, "samples 1-300: a Jacobian")

    def test_infinite_jacobian_entries_exit_2(self, tmp_path, capsys):
        # B entries of 14 and -13 overflow some Jacobian entries to inf; their
        # LU in det divides by zero, which must end in the same exit 2, not a
        # RuntimeWarning
        path = tmp_path / "inf.qpmap.json"
        path.write_text(json.dumps({
            "n": 4, "m": 4, "lambda": ["0", "0", "0", "0"],
            "A": [["0", "0", "-1/8", "-1/4"], ["1/16", "1/16", "0", "0"],
                  ["0", "0", "1/8", "1/4"], ["-1/16", "-1/16", "0", "0"]],
            "B": [["0", "14", "0", "1"], ["0", "-3/2", "0", "-3/2"],
                  ["1", "0", "1", "0"], ["-13", "0", "2", "0"]]}))
        code = main(["verify", str(path), "--samples", "2"])
        assert_one_line_exit_2(code, capsys, "samples 1-2: a Jacobian")

    def test_zero_samples_vacuous(self, dim2_file, capsys):
        assert main(["verify", dim2_file, "--samples", "0"]) == 0
        captured = capsys.readouterr()
        assert "vacuous" in captured.out
        assert "warning" in captured.err

    def test_odd_dimension_exit_2(self, tmp_path, capsys):
        qp = new_qp_map((1, 0, -1), ((1,), (1,), (1,)), ((1, 1, 1),))
        path = tmp_path / "odd.qpmap.json"
        save_map(qp, path)
        assert main(["verify", str(path)]) == 2

    def test_seed_changes_samples_but_not_verdict(self, dim2_file, capsys):
        assert main(["verify", dim2_file, "--seed", "1"]) == 0
        first = capsys.readouterr().out
        assert main(["verify", dim2_file, "--seed", "2"]) == 0
        second = capsys.readouterr().out
        assert first != second  # different samples
        assert main(["verify", dim2_file, "--seed", "1"]) == 0
        assert capsys.readouterr().out == first  # reproducible report

    @pytest.mark.parametrize("tol", ["nan", "-0.5", "-1e-3"])
    def test_invalid_tolerance_exit_2(self, dim2_file, tol, capsys):
        assert main(["verify", dim2_file, "--tol", tol]) == 2
        captured = capsys.readouterr()
        assert "FAIL" not in captured.out
        assert captured.err.startswith("--tol must be a nonnegative number")
        assert captured.err.count("\n") == 1

    def test_lambda_outside_double_range_exit_2(self, huge_lambda_file, capsys):
        code = main(["verify", huge_lambda_file, "--samples", "3"])
        assert_one_line_exit_2(code, capsys, "lambda[0] is outside the double range")

    def test_loose_tolerance_lets_variant_pass(self, variant_file):
        assert main(["verify", variant_file, "--tol", "1e9"]) == 0

    def test_dim4_pass(self, dim4_file):
        assert main(["verify", dim4_file]) == 0

    def test_negative_seed_exit_2(self, dim2_file, capsys):
        code = main(["verify", dim2_file, "--seed", "-1"])
        assert_one_line_exit_2(code, capsys, "--seed must be nonnegative")

    def test_negative_samples_exit_2(self, dim2_file, capsys):
        code = main(["verify", dim2_file, "--samples", "-1"])
        assert_one_line_exit_2(code, capsys, "--samples must be nonnegative")

    @pytest.mark.parametrize("make_map", [dim2_map, dim2_variant, lambda: dim4_map(1, 1),
                                          lambda: random_symplectic_map(
                                              np.random.default_rng(8), 8, 12)])
    def test_report_matches_per_sample_oracle(self, make_map, tmp_path, capsys):
        qp = make_map()
        path = tmp_path / "map.qpmap.json"
        save_map(qp, path)
        for samples, seed in ((5000, 42), (7, 1)):
            main(["verify", str(path), "--samples", str(samples), "--seed", str(seed)])
            assert capsys.readouterr().out == verify_report_oracle(qp, samples, seed, 1e-9)

    @pytest.mark.parametrize("make_map", [dim2_map, lambda: random_symplectic_map(
        np.random.default_rng(9), 16, 16)])
    def test_jacobian_stacks_are_bounded(self, make_map, tmp_path, capsys, monkeypatch):
        import qpmaps.core as core

        qp = make_map()
        path = tmp_path / "map.qpmap.json"
        save_map(qp, path)
        sizes = []
        real_jacobian = core.jacobian

        def recorded(qp, x):
            sizes.append(len(x))
            return real_jacobian(qp, x)

        monkeypatch.setattr(core, "jacobian", recorded)
        samples = 40_000 if qp.n == 2 else 600
        assert main(["verify", str(path), "--samples", str(samples)]) == 0
        capsys.readouterr()
        assert max(sizes) <= 2**16 // qp.n**2
        assert sum(sizes) == samples  # residual and determinant share each chunk's Jacobians

import io
import json
import math
import time
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qpmaps.cli import main
from qpmaps.documents import map_to_document, save_map, save_qmt
from qpmaps import NumericOverflow, check_conditions, new_qmt, new_qp_map
from qpmaps.solve import eval_solution, solve_closed_form
from qpmaps.sampling import random_symplectic_map, random_valid_map

from helpers import (
    dim2_map,
    dim2_variant,
    dim4_map,
    run_python_afresh,
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
        assert_one_line_exit_2(code, capsys, "state components must be finite and strictly positive")

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
    representable = []
    for t in range(t_min, t_max + 1):
        try:
            eval_solution(sol, t)
            representable.append(t)
        except NumericOverflow:
            pass
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

    @pytest.mark.parametrize("tol", ["nan", "-0.5"])
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

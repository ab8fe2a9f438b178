"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here and matches the library's documented
guarantees. All randomness is seeded, so the suite is deterministic.
"""

import json
import time
from fractions import Fraction

import numpy as np
import pytest

from qpmaps import (
    apply_qmt,
    check_conditions,
    check_pattern,
    class_invariant,
    iterate,
    jacobian,
    new_qmt,
    phi,
    quasimonomials,
    solve_closed_form,
    step,
    symplectic_residual,
    verify_solution,
)
from qpmaps.cli import main
from qpmaps.documents import map_from_document, map_to_document
from qpmaps.errors import NonPositiveState, NumericOverflow
from qpmaps.linalg import diagonal, is_zero
from qpmaps.sampling import random_qmt, random_state, random_symplectic_map
from qpmaps.transform import pull_state

from helpers import (
    dim2_map,
    dim4_map,
    fd_jacobian,
    random_classification_map,
    relative_gap,
    save_map,
    symplectic_product_block,
)


def report(num, name, ok, extra=""):
    suffix = f" ({extra})" if extra else ""
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"criterion {num} failed{suffix}"


@pytest.fixture(scope="module")
def symplectic_suite():
    """200 random symplectic maps (n cycling through 2, 4, 6) with start states."""
    rng = np.random.default_rng(240811)
    t0 = time.monotonic()
    maps = [random_symplectic_map(rng, (2, 4, 6)[k % 3]) for k in range(200)]
    build_seconds = time.monotonic() - t0
    starts = [random_state(rng, qp.n) for qp in maps]
    return maps, starts, build_seconds


def test_criterion_01_structural_check_soundness(symplectic_suite):
    maps, _, build_seconds = symplectic_suite
    rng = np.random.default_rng(1)
    t0 = time.monotonic()
    max_resid = 0.0
    max_det = 0.0
    for qp in maps:
        assert check_conditions(qp).is_symplectic
        for _ in range(50):
            x = random_state(rng, qp.n)
            max_resid = max(max_resid, symplectic_residual(qp, x))
            max_det = max(max_det, abs(float(np.linalg.det(jacobian(qp, x))) - 1.0))
    elapsed = build_seconds + (time.monotonic() - t0)
    ok = max_resid <= 1e-9 and max_det <= 1e-9 and elapsed < 30.0
    report(1, "exact classifier is numerically sound", ok,
           f"max residual {max_resid:.2e}, max |det-1| {max_det:.2e}, {elapsed:.1f}s")


def test_criterion_02_classifier_equivalence():
    rng = np.random.default_rng(2)
    t0 = time.monotonic()
    disagreements = 0
    for _ in range(10_000):
        qp = random_classification_map(rng)
        if check_pattern(qp).is_symplectic != check_conditions(qp).is_symplectic:
            disagreements += 1
    elapsed = time.monotonic() - t0
    ok = disagreements == 0 and elapsed < 10.0
    report(2, "both classifiers agree on 10^4 random maps", ok,
           f"{disagreements} disagreements, {elapsed:.1f}s")


def test_criterion_03_closed_form_reproduces_iteration(symplectic_suite):
    maps, starts, _ = symplectic_suite
    t0 = time.monotonic()
    worst = 0.0
    for qp, x0 in zip(maps, starts):
        sol = solve_closed_form(qp, x0)
        worst = max(worst, verify_solution(qp, sol, 30))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-8 and elapsed < 30.0
    report(3, "closed form matches 30-step iteration", ok,
           f"max log-space error {worst:.2e}, {elapsed:.1f}s")


def test_criterion_04_conservation_along_trajectories(symplectic_suite):
    maps, starts, _ = symplectic_suite
    worst_pair = 0.0
    worst_quasi = 0.0
    for qp, x0 in zip(maps, starts):
        s = qp.n // 2
        arr = iterate(qp, x0, 30)
        products = arr[:, :s] * arr[:, s:]
        worst_pair = max(worst_pair, float(np.max(np.abs(products / products[0] - 1.0))))
        q0 = quasimonomials(qp, arr[0])
        for state in arr:
            q = quasimonomials(qp, state)
            worst_quasi = max(worst_quasi, float(np.max(np.abs(q / q0 - 1.0))))
    ok = worst_pair <= 1e-10 and worst_quasi <= 1e-10
    report(4, "pair products and quasimonomials are conserved", ok,
           f"max pair drift {worst_pair:.2e}, max quasimonomial drift {worst_quasi:.2e}")


def test_criterion_05_null_class_invariant(symplectic_suite):
    maps, _, _ = symplectic_suite
    failures = sum(0 if is_zero(class_invariant(qp)) else 1 for qp in maps)
    report(5, "class invariant B.M is exactly zero for symplectic maps",
           failures == 0, f"{failures} nonzero out of {len(maps)}")


def test_criterion_06_diag_transform_breaks_symplecticity(tmp_path):
    transformed = apply_qmt(dim2_map(), new_qmt(diagonal([1, 2])))
    rep = check_conditions(transformed)
    witness_ok = (
        not rep.is_symplectic
        and not rep.cond_d.holds
        and rep.cond_d.witnesses[0].value == -2
    )
    path = tmp_path / "transformed.qpmap.json"
    save_map(transformed, path)
    exit_code = main(["verify", str(path)])
    ok = witness_ok and exit_code == 1
    report(6, "diag(1,2) transform of the 2d fixture fails with a (d) witness", ok,
           f"verify exit code {exit_code}")


def test_criterion_07_uniform_scaling_preserves_symplecticity():
    rng = np.random.default_rng(7)
    failures = 0
    for _ in range(100):
        n = int(rng.choice((2, 4, 6)))
        qp = random_symplectic_map(rng, n)
        mu = Fraction(0)
        while mu == 0:
            mu = Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 4)))
        scaled = apply_qmt(qp, new_qmt(diagonal([mu] * n)))
        if not check_conditions(scaled).is_symplectic:
            failures += 1
    report(7, "C = mu*I preserves symplecticity exactly", failures == 0,
           f"{failures} failures out of 100")


def test_criterion_08_qmt_conjugacy():
    rng = np.random.default_rng(8)
    worst = 0.0
    invariant_failures = 0
    done = 0
    while done < 100:
        qp = random_classification_map(rng, dims=(2, 4, 6))
        t = random_qmt(rng, qp.n)
        transformed = apply_qmt(qp, t)
        if class_invariant(transformed) != class_invariant(qp):
            invariant_failures += 1
        x = random_state(rng, qp.n)
        try:
            lhs = step(transformed, pull_state(t, x))
            rhs = pull_state(t, step(qp, x))
        except (NumericOverflow, NonPositiveState):
            continue  # wilder pairs overflow doubles; resample
        if not (np.all(np.isfinite(lhs)) and np.all(np.isfinite(rhs))):
            continue
        worst = max(worst, relative_gap(lhs, rhs, floor=np.min(np.abs(rhs))))
        done += 1
    ok = worst <= 1e-9 and invariant_failures == 0
    report(8, "QMTs are conjugacies and preserve B.M exactly", ok,
           f"max relative gap {worst:.2e}, {invariant_failures} invariant failures")


def test_criterion_09_jacobian_and_product_block_oracles():
    rng = np.random.default_rng(9)
    worst_fd = 0.0
    iff_failures = 0
    done = 0
    while done < 100:
        n = int(rng.choice((2, 4, 6)))
        symplectic_wanted = bool(rng.random() < 0.5)
        if symplectic_wanted:
            qp = random_symplectic_map(rng, n)
        else:
            qp = random_classification_map(rng, dims=(n,))
        x = random_state(rng, n)
        if float(np.max(np.abs(phi(qp, x)))) > 3.0:
            continue  # keep finite differences away from the noise floor
        worst_fd = max(worst_fd, relative_gap(jacobian(qp, x), fd_jacobian(qp, x)))
        block_gap = float(np.max(np.abs(
            symplectic_product_block(qp, x) - np.eye(n // 2)
        )))
        if check_conditions(qp).is_symplectic != (block_gap <= 1e-9):
            iff_failures += 1
        done += 1
    ok = worst_fd <= 1e-5 and iff_failures == 0
    report(9, "finite differences and the product block confirm the Jacobian", ok,
           f"max FD gap {worst_fd:.2e}, {iff_failures} iff failures")


def test_criterion_10_four_dim_fixture_end_to_end(tmp_path):
    qp = dim4_map(1, 1)
    sol = solve_closed_form(qp, [1, 1, 1, 1])
    log_k_ok = np.allclose(sol.log_k, [3.0, 4.0], rtol=0, atol=1e-12)

    path = tmp_path / "dim4.qpmap.json"
    save_map(qp, path)
    solve_csv = tmp_path / "solve.csv"
    iterate_csv = tmp_path / "iterate.csv"
    assert main(["solve", str(path), "--x0", "1,1,1,1", "--t-max", "20",
                 "--out", str(solve_csv)]) == 0
    assert main(["iterate", str(path), "--x0", "1,1,1,1", "--steps", "20",
                 "--out", str(iterate_csv)]) == 0

    def rows(p):
        lines = p.read_text().strip().split("\n")[1:]
        return [[float(v) for v in line.split(",")] for line in lines]

    worst = 0.0
    for srow, irow in zip(rows(solve_csv), rows(iterate_csv)):
        assert srow[0] == irow[0]
        for a, b in zip(srow[1:], irow[1:]):
            worst = max(worst, abs(a - b) / max(abs(a), abs(b)))
    ok = log_k_ok and worst <= 1e-9
    report(10, "4d fixture: log_k=(3,4) and solve CSV matches iterate CSV", ok,
           f"max relative gap {worst:.2e}")


def test_criterion_11_file_round_trip():
    rng = np.random.default_rng(11)
    failures = 0
    for k in range(1000):
        if k % 2 == 0:
            qp = random_classification_map(rng)
        else:
            qp = random_symplectic_map(rng, int(rng.choice((2, 4, 6))))
        if map_from_document(json.loads(json.dumps(map_to_document(qp)))) != qp:
            failures += 1
    report(11, "serialize -> parse is exact for 1000 random maps",
           failures == 0, f"{failures} failures")

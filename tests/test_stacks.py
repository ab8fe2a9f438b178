"""The stack contract: float functions take a state of shape (n,) or a
stack of states of shape (k, n), one state per row, and a stack gives what
the rows give one at a time."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qpmaps import (
    DimensionMismatch,
    NonPositiveState,
    NumericOverflow,
    as_state,
    eval_solution,
    iterate,
    jacobian,
    phi,
    pull_state,
    push_state,
    quasimonomials,
    solve_closed_form,
    step,
    symplectic_residual,
)
from qpmaps.core import first_nonpositive_row
from qpmaps.sampling import random_qmt, random_state, random_symplectic_map

from helpers import dim2_map, symplectic_product_block


def per_row(f, stack):
    return np.stack([f(row) for row in stack])


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_map_functions_match_per_row_calls(n):
    rng = np.random.default_rng(100 + n)
    qp = random_symplectic_map(rng, n, n + 1)
    # n states, so a stack read column-wise would still have the right shape
    for k in (1, 3, n):
        xs = random_state(rng, (k, n))
        for f in (quasimonomials, phi, step, jacobian, symplectic_product_block):
            assert_allclose(f(qp, xs), per_row(lambda x: f(qp, x), xs), rtol=1e-14)
        assert symplectic_residual(qp, xs) == max(symplectic_residual(qp, x) for x in xs)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_push_and_pull_match_per_row_calls(n):
    rng = np.random.default_rng(200 + n)
    t = random_qmt(rng, n)
    xs = random_state(rng, (n, n))
    for f in (push_state, pull_state):
        assert_allclose(f(t, xs), per_row(lambda x: f(t, x), xs), rtol=1e-14)
    assert_allclose(push_state(t, pull_state(t, xs)), xs, rtol=1e-12)


def test_iterate_steps_every_row():
    rng = np.random.default_rng(7)
    qp = random_symplectic_map(rng, 4)
    xs = random_state(rng, (3, 4))
    states = iterate(qp, xs, 20)
    assert states.shape == (21, 3, 4)
    for j, x in enumerate(xs):
        assert_allclose(states[:, j], iterate(qp, x, 20), rtol=1e-14)


@pytest.mark.parametrize("shape", [(), (4, 3), (2, 2, 2), (2, 0)])
def test_as_state_rejects_other_shapes(shape):
    with pytest.raises(DimensionMismatch):
        as_state(np.ones(shape), 2)


def test_as_state_checks_every_row():
    xs = np.ones((3, 2))
    xs[2, 1] = np.nan
    with pytest.raises(NonPositiveState):
        as_state(xs, 2)
    with pytest.raises(NonPositiveState):
        step(dim2_map(), [[1.0, 1.0], [1.0, -1.0]])


def test_first_nonpositive_row():
    assert first_nonpositive_row(np.array([1.0, 2.0])) is None
    assert first_nonpositive_row(np.array([1.0, np.inf])) == 0
    xs = np.ones((5, 2))
    xs[3, 0] = 0.0
    xs[4, 1] = np.nan
    assert first_nonpositive_row(xs) == 3
    assert first_nonpositive_row(np.ones((0, 2))) is None


def test_solve_closed_form_rejects_a_stack():
    with pytest.raises(DimensionMismatch):
        solve_closed_form(dim2_map(), [[1.0, 1.0], [2.0, 0.5]])


def test_eval_solution_column_of_times():
    rng = np.random.default_rng(11)
    qp = random_symplectic_map(rng, 4)
    sol = solve_closed_form(qp, random_state(rng, 4))
    times = np.arange(-20, 21)
    rows = eval_solution(sol, times[:, None])
    assert rows.shape == (len(times), 4)
    assert_allclose(rows, per_row(lambda t: eval_solution(sol, int(t)), times), rtol=1e-15)
    assert np.array_equal(rows[20], sol.x0)


def test_eval_solution_column_names_first_overflowing_time():
    # log k = 3: x_1(t) = exp(3t) overflows from t = 237, x_2 underflows from t = -237
    sol = solve_closed_form(dim2_map(), [1, 1])
    for times, first in (([230, 236, 237, 240], 237), ([-300, 0, 300], -300)):
        with pytest.raises(NumericOverflow) as exc:
            eval_solution(sol, np.array(times)[:, None])
        assert exc.value.time_index == first
        assert f"t={first} " in str(exc.value)

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qpmaps import (
    NonPositiveState,
    NotSymplectic,
    NumericOverflow,
    classify_asymptotics,
    eval_solution,
    iterate,
    new_qp_map,
    phi,
    representable_times,
    solve_closed_form,
    step,
    verify_solution,
)
from qpmaps.sampling import random_state, random_symplectic_map
from qpmaps.solve import SAFE_LOG, ClosedFormSolution

from helpers import (
    dim2_map,
    dim2_variant,
    dim4_map,
    eval_solution_oracle,
    representable_times_oracle,
    solver_qmt_log_multipliers,
)


def fixed_point_map():
    """lam=(-1,1), A=[[1],[-1]], B=[[1,1]]: log multiplier 0 at x0=(1,1)."""
    return new_qp_map((-1, 1), ((1,), (-1,)), ((1, 1),))


class TestSolveClosedForm:
    def test_dim2_unit_start(self):
        sol = solve_closed_form(dim2_map(), [1, 1])
        assert sol.log_k == pytest.approx([3.0])
        assert sol.invariants_I == pytest.approx([1.0])
        for t in range(6):
            assert eval_solution(sol, t)[0] == pytest.approx(math.exp(3 * t), rel=1e-12)
            assert eval_solution(sol, t)[1] == pytest.approx(math.exp(-3 * t), rel=1e-12)

    def test_dim2_same_invariant_level_set(self):
        sol = solve_closed_form(dim2_map(), [2, 0.5])
        assert sol.log_k == pytest.approx([3.0])
        assert eval_solution(sol, 3)[0] == pytest.approx(2 * math.exp(9), rel=1e-12)

    def test_fixed_point_multiplier_zero(self):
        sol = solve_closed_form(fixed_point_map(), [1, 1])
        assert sol.log_k == pytest.approx([0.0], abs=0.0)
        assert verify_solution(fixed_point_map(), sol, 1000) <= 1e-12

    def test_dim4_multipliers(self):
        sol = solve_closed_form(dim4_map(1, 1), [1, 1, 1, 1])
        assert sol.log_k == pytest.approx([3.0, 4.0])
        assert verify_solution(dim4_map(1, 1), sol, 20) <= 1e-9

    def test_not_symplectic_rejected(self):
        with pytest.raises(NotSymplectic) as exc:
            solve_closed_form(dim2_variant(), [1, 1])
        assert exc.value.report is not None
        assert not exc.value.report.cond_d.holds

    def test_nonpositive_start_rejected(self):
        with pytest.raises(NonPositiveState):
            solve_closed_form(dim2_map(), [1, 0])

    def test_multiplier_equals_phi_at_start(self):
        rng = np.random.default_rng(61)
        for _ in range(50):
            n = int(rng.choice((2, 4, 6)))
            qp = random_symplectic_map(rng, n)
            x0 = random_state(rng, n)
            sol = solve_closed_form(qp, x0)
            assert np.max(np.abs(sol.log_k - phi(qp, x0)[: n // 2])) <= 1e-12

    def test_multiplier_equals_solver_qmt_route(self):
        rng = np.random.default_rng(73)
        for n in (2, 4, 6, 8):
            for _ in range(10):
                qp = random_symplectic_map(rng, n)
                x0 = random_state(rng, n)
                sol = solve_closed_form(qp, x0)
                assert np.max(np.abs(sol.log_k - solver_qmt_log_multipliers(qp, x0))) <= 1e-12

    def test_nonfinite_multiplier_raises_overflow(self):
        qp = random_symplectic_map(np.random.default_rng(5), 4, 4)
        with pytest.raises(NumericOverflow, match=r"^pair 1: log k_1 = nan"):
            solve_closed_form(qp, (1e200,) * 4)

    def test_nonfinite_invariant_raises_overflow(self):
        # q = 1/(x_1 x_2) underflows to 0, so log k_1 = -1, but I_1 = 1e400
        qp = new_qp_map((-1, 1), ((1,), (-1,)), ((-1, -1),))
        with pytest.raises(NumericOverflow, match=r"^pair 1: log k_1 = -1, I_1 = inf"):
            solve_closed_form(qp, [1e200, 1e200])


class TestEvalSolution:
    def test_t_zero_is_exactly_x0(self):
        sol = solve_closed_form(dim2_map(), [1.37, 1 / 1.37])
        assert np.array_equal(eval_solution(sol, 0), sol.x0)

    def test_t_zero_is_exactly_x0_over_draws(self):
        # 10,000 coordinates uniform in [0.5, 2]; for some, exp(log(x)) != x
        rng = np.random.default_rng(2024)
        x0 = rng.uniform(0.5, 2.0, size=10_000)
        assert (np.exp(np.log(x0)) != x0).any()
        sol = ClosedFormSolution(s=5_000, x0=x0, log_k=rng.uniform(-3, 3, size=5_000),
                                 invariants_I=x0[:5_000] * x0[5_000:])
        assert np.array_equal(eval_solution(sol, 0), x0)

    def test_backward_time_inverts_step(self):
        sol = solve_closed_form(dim2_map(), [1, 1])
        past = eval_solution(sol, -1)
        assert past == pytest.approx([math.exp(-3), math.exp(3)], rel=1e-12)
        assert step(dim2_map(), past) == pytest.approx([1.0, 1.0], rel=1e-12)

    def test_pair_products_constant_in_log_space(self):
        sol = solve_closed_form(dim2_map(), [2, 0.5])
        for t in (-40, -7, 0, 13, 100):
            state = eval_solution(sol, t)
            assert math.log(state[0]) + math.log(state[1]) == pytest.approx(
                math.log(2) + math.log(0.5), abs=1e-12
            )

    def test_overflow_raised_far_out(self):
        sol = solve_closed_form(dim2_map(), [1, 1])
        with pytest.raises(NumericOverflow):
            eval_solution(sol, 1000)
        with pytest.raises(NumericOverflow):
            eval_solution(sol, -1000)

    def test_time_beyond_the_double_range_overflows(self):
        # log k = 0 on the fixed point: its safe horizon is capped at 2**53
        for sol in (solve_closed_form(dim2_map(), [1, 1]),
                    solve_closed_form(fixed_point_map(), [1, 1])):
            for t in (10**400, -10**400):
                with pytest.raises(NumericOverflow) as info:
                    eval_solution(sol, t)
                assert info.value.time_index == t
                assert str(t) in str(info.value)

    def test_overflow_is_numeric_overflow_under_raise(self):
        sol = solve_closed_form(dim2_map(), [1, 1])
        horizon = sol.safe_horizon
        with np.errstate(all="raise"):
            before = np.geterr()
            for t in (1000, -1000, np.array([[0], [1000]])):
                with pytest.raises(NumericOverflow):
                    eval_solution(sol, t)
            for t in (0, 1, -1, horizon, -horizon):
                assert eval_solution(sol, t).tobytes() == eval_solution_oracle(sol, t).tobytes()
            assert np.geterr() == before

    def test_subnormal_start_has_no_safe_horizon(self):
        sol = solve_closed_form(dim2_map(), [1e-310, 1.0])
        assert sol.safe_horizon == -1
        assert eval_solution(sol, 0).tobytes() == sol.x0.tobytes()
        for t in (1, -1):
            assert eval_solution(sol, t).tobytes() == eval_solution_oracle(sol, t).tobytes()

    def test_safe_horizon_is_the_largest_safe_time(self):
        # Checked exactly on the doubles log x0_i and log_rate_i: every
        # |t| <= T keeps |log x0_i| + |t log_rate_i| <= SAFE_LOG, and T + 1
        # breaks it for some i unless T is the 2**53 cap.
        rng = np.random.default_rng(83)
        for _ in range(300):
            n = int(rng.choice((2, 4, 6)))
            qp = random_symplectic_map(rng, n, phi_bound=float(rng.choice((1e-3, 1.0, 5.0))))
            sol = solve_closed_form(qp, random_state(rng, n))
            horizon = sol.safe_horizon
            assert 0 <= horizon <= 2**53
            worst = [(abs(Fraction(lx)), abs(Fraction(r)))
                     for lx, r in zip(np.log(sol.x0).tolist(), sol.log_rate.tolist())]
            assert all(lx + horizon * r <= SAFE_LOG for lx, r in worst)
            assert horizon == 2**53 or any(lx + (horizon + 1) * r > SAFE_LOG for lx, r in worst)
        assert solve_closed_form(fixed_point_map(), [1, 1]).safe_horizon == 2**53

    def test_rebase_group_property(self):
        rng = np.random.default_rng(67)
        for _ in range(20):
            n = int(rng.choice((2, 4)))
            qp = random_symplectic_map(rng, n)
            x0 = random_state(rng, n)
            sol = solve_closed_form(qp, x0)
            t1, t2 = int(rng.integers(-5, 6)), int(rng.integers(-5, 6))
            rebased = solve_closed_form(qp, eval_solution(sol, t1))
            direct = eval_solution(sol, t1 + t2)
            via = eval_solution(rebased, t2)
            assert np.max(np.abs(np.log(direct) - np.log(via))) <= 1e-10


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), phi_bound=st.sampled_from((1e-3, 1.0, 5.0)),
       data=st.data())
def test_eval_solution_matches_the_checked_formula(seed, phi_bound, data):
    """Inside and beyond the safe horizon, eval_solution gives the bytes or
    the NumericOverflow time index of the formula checked at every t."""
    rng = np.random.default_rng(seed)
    n = int(rng.choice((2, 4, 6)))
    qp = random_symplectic_map(rng, n, phi_bound=phi_bound)
    x0 = random_state(rng, n)
    log_k = solve_closed_form(qp, x0).log_k
    # some coordinates scaled far out, keeping the map's multipliers
    x0 = x0 * data.draw(st.lists(st.sampled_from((1.0, math.exp(600), math.exp(-600))),
                                 min_size=n, max_size=n))
    sol = ClosedFormSolution(s=n // 2, x0=x0, log_k=log_k, invariants_I=x0[: n // 2])
    horizon = sol.safe_horizon
    reach = max(2 * horizon, 2)
    # True is an int equal to 1: the fast branch takes it as float(True)
    times = [0, horizon, -horizon, horizon + 1, -horizon - 1, True,
             *data.draw(st.lists(st.integers(-reach, reach), min_size=5, max_size=5))]
    for t in times:
        try:
            want = eval_solution_oracle(sol, t)
        except NumericOverflow as exc:
            with pytest.raises(NumericOverflow) as got:
                eval_solution(sol, t)
            assert got.value.time_index == exc.time_index
        else:
            assert eval_solution(sol, t).tobytes() == want.tobytes()


class TestRepresentableTimes:
    def test_dim2_fixture_from_a_unit_start(self):
        # log k = 3 on dim2 from (1, 1): exp(3 t) leaves the doubles past |t| = 236
        sol = solve_closed_form(dim2_map(), [1, 1])
        assert representable_times(sol, 200, 300) == range(200, 237)
        assert not representable_times(sol, -300, -250)
        assert representable_times(sol, -10**12, 0) == range(-236, 1)
        assert representable_times(sol, -10**12, 10**12) == range(-236, 237)
        assert representable_times(sol, 5, 5) == range(5, 6)
        assert not representable_times(sol, 500, 500)

    def test_all_rates_zero_write_every_time_in_the_double_range(self):
        sol = solve_closed_form(fixed_point_map(), [1, 1])
        assert representable_times(sol, -10**300, 10**300) == range(-10**300, 10**300 + 1)
        # float(t) overflows past the largest double, about 1.8e308
        run = representable_times(sol, 0, 10**309)
        assert 1.79e308 < run.stop - 1 < 1.8e308
        with pytest.raises(NumericOverflow):
            eval_solution(sol, run.stop)


#: Per-pair rates whose runs end near |t| = 236, 2**53 (700 / 2**53 = 7.8e-14)
#: and 10**300, or nowhere in the double range (0 and the smallest subnormal).
RATES = (0.0, 3.0, -3.0, 1e-3, 7.8e-14, -7.8e-14, 7e-298, -7e-298, 5e-324)


@settings(max_examples=150, deadline=None)
@given(log_k=st.lists(st.sampled_from(RATES), min_size=1, max_size=3),
       x0=st.data(), center=st.sampled_from(("zero", "start", "stop", 2**53, 10**300)),
       sign=st.sampled_from((1, -1)), offset=st.integers(-150, 150), width=st.integers(0, 300))
@example(log_k=[0.0, 0.0], x0=None, center=10**300, sign=-1, offset=-150, width=300)
def test_representable_times_is_the_linear_scan(log_k, x0, center, sign, offset, width):
    """On windows of up to 301 times around t = 0, around either end of the
    run over the whole double range, and around +-2**53 and +-10**300: the
    bisected run equals the times at which eval_solution returns a state."""
    s = len(log_k)
    state = ([1.0] * 2 * s if x0 is None else
             x0.draw(st.lists(st.sampled_from((1.0, 0.5, 2.0, 1e-300, 1e300)),
                              min_size=2 * s, max_size=2 * s)))
    state = np.array(state)
    # eval_solution reads no invariant
    sol = ClosedFormSolution(s=s, x0=state, log_k=np.array(log_k), invariants_I=state[:s])
    if center == "zero":
        t = 0
    elif center == "start":
        t = representable_times(sol, -10**308, 0).start
    elif center == "stop":
        t = representable_times(sol, 0, 10**308).stop
    else:
        t = sign * center
    t_min = t + offset
    times = representable_times(sol, t_min, t_min + width)
    assert list(times) == representable_times_oracle(sol, t_min, t_min + width)


class TestClassifyAsymptotics:
    def test_constant(self):
        sol = solve_closed_form(fixed_point_map(), [1, 1])
        (pa,) = classify_asymptotics(sol)
        assert pa.kind == "constant"

    def test_split(self):
        sol = solve_closed_form(dim2_map(), [1, 1])
        (pa,) = classify_asymptotics(sol)
        assert pa.kind == "split"
        assert pa.note is None

    def test_mixed_pairs(self):
        # lam=(0,-2,0,2), one quasimonomial per pair with cancelling A entries
        qp = new_qp_map(
            (0, -2, 0, 2),
            ((1, 0), (0, 1), (-1, 0), (0, -1)),
            ((1, 0, 1, 0), (0, 1, 0, 1)),
        )
        sol = solve_closed_form(qp, [1, 1, 1, 1])
        assert sol.log_k == pytest.approx([1.0, -1.0])
        assert kinds_of(sol) == ["split", "split"]
        # raising I_2 to 2 makes the second multiplier exp(-2 + 2) = 1
        sol2 = solve_closed_form(qp, [1, 2, 1, 1])
        assert sol2.log_k == pytest.approx([1.0, 0.0])
        assert kinds_of(sol2) == ["split", "constant"]

    def test_near_constant_note(self):
        sol = ClosedFormSolution(
            s=1,
            x0=np.array([1.0, 1.0]),
            log_k=np.array([1e-10]),
            invariants_I=np.array([1.0]),
        )
        (pa,) = classify_asymptotics(sol)
        assert pa.kind == "split"
        assert pa.note is not None


def kinds_of(sol):
    return [pa.kind for pa in classify_asymptotics(sol)]


def verify_by_steps(qp, sol, steps):
    """The per-step verification loop: iterate, then evaluate the closed form
    at each t on its own, x0 * exp(+-t log k)."""
    ln0 = np.log(sol.x0)
    worst = 0.0
    for t, state in enumerate(iterate(qp, sol.x0, steps)):
        drift = t * sol.log_k
        with np.errstate(over="ignore", under="ignore"):
            predicted = np.exp(np.concatenate([ln0[: sol.s] + drift, ln0[sol.s:] - drift]))
        if not np.all(np.isfinite(predicted)) or np.any(predicted <= 0.0):
            raise NumericOverflow(f"t={t}", time_index=t)
        worst = max(worst, float(np.max(np.abs(np.log(state) - np.log(predicted)))))
    return worst


class TestVerifySolution:
    def test_dim2_long_run(self):
        sol = solve_closed_form(dim2_map(), [1, 1])
        assert verify_solution(dim2_map(), sol, 30) <= 1e-9

    def test_overflow_propagates(self):
        qp = new_qp_map((50, -50), ((2,), (-2,)), ((1, 1),))
        sol = solve_closed_form(qp, [1, 1])
        with pytest.raises(NumericOverflow):
            verify_solution(qp, sol, 100)

    def test_random_symplectic_maps_reproduce_iteration(self):
        rng = np.random.default_rng(71)
        for _ in range(30):
            n = int(rng.choice((2, 4, 6)))
            qp = random_symplectic_map(rng, n)
            x0 = random_state(rng, n)
            sol = solve_closed_form(qp, x0)
            assert verify_solution(qp, sol, 30) <= 1e-8

    def test_matches_per_step_loop(self):
        rng = np.random.default_rng(79)
        for n in (2, 4, 6, 8):
            for _ in range(10):
                qp = random_symplectic_map(rng, n)
                sol = solve_closed_form(qp, random_state(rng, n))
                steps = int(rng.integers(0, 101))
                assert abs(verify_solution(qp, sol, steps)
                           - verify_by_steps(qp, sol, steps)) <= 1e-15

    def test_t_zero_row_is_exactly_x0(self):
        # with steps=0 only row 0 is compared: iteration and closed form both give x0
        rng = np.random.default_rng(2025)
        qp = dim2_map()
        for x0 in rng.uniform(0.5, 2.0, size=(5_000, 2)):
            sol = ClosedFormSolution(s=1, x0=x0, log_k=phi(qp, x0)[:1],
                                     invariants_I=x0[:1] * x0[1:])
            assert verify_solution(qp, sol, 0) == 0.0

    def test_dim2_overflow_from_unit_start(self):
        # log k = 3, so x_1(t) = exp(3t) leaves the double range near t = 237
        sol = solve_closed_form(dim2_map(), [1, 1])
        with pytest.raises(NumericOverflow):
            verify_solution(dim2_map(), sol, 300)

    def test_closed_form_overflow_names_first_time(self):
        # iteration of the fixed point stays at (1, 1); a closed form with
        # log k = 100 leaves the range at t = 8 (exp(800) overflows)
        sol = ClosedFormSolution(s=1, x0=np.array([1.0, 1.0]), log_k=np.array([100.0]),
                                 invariants_I=np.array([1.0]))
        for verify in (verify_solution, verify_by_steps):
            with pytest.raises(NumericOverflow) as exc:
                verify(fixed_point_map(), sol, 20)
            assert exc.value.time_index == 8


def test_closed_form_error_is_the_rounding_of_t_log_k():
    # Against a 50-digit x0 * exp(t * log k): the relative error is the
    # rounding of the product t * log k (at most |t log k| * 2**-53) plus a
    # few ulps of exp and of the product with x0.
    rng = np.random.default_rng(5)
    with localcontext() as ctx:
        ctx.prec = 50
        for _ in range(2_000):
            x0 = rng.uniform(0.5, 2.0, size=2)
            log_k = rng.uniform(-7.0, 7.0, size=1)
            t_max = min(100, int(700 // abs(log_k[0])))
            t = int(rng.integers(-t_max, t_max + 1))
            sol = ClosedFormSolution(s=1, x0=x0, log_k=log_k, invariants_I=x0[:1] * x0[1:])
            for x, xi, rate in zip(eval_solution(sol, t), x0, sol.log_rate):
                exact = Decimal(xi) * (Decimal(t) * Decimal(rate)).exp()
                error = abs((Decimal(x) - exact) / exact)
                assert error <= (abs(t * rate) + 4) * 2.0**-53

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from qpmaps import (
    DimensionMismatch,
    NonPositiveState,
    NumericOverflow,
    ZeroColumnOfA,
    ZeroRowOfB,
    iterate,
    jacobian,
    new_qp_map,
    phi,
    quasimonomials,
    step,
)
from qpmaps.core import first_nonpositive_row
from qpmaps.sampling import random_state, random_symplectic_map, random_valid_map

from helpers import (
    dim2_map,
    fd_jacobian,
    first_nonpositive_row_oracle,
    iterate_oracle,
    jacobian_oracle,
    quasimonomial_oracle,
    random_classification_map,
    relative_gap,
    run_python_afresh,
    trivial_lv_map,
)

E3 = math.exp(3.0)


class TestConstruction:
    def test_dim2_fixture_is_valid(self):
        qp = dim2_map()
        assert (qp.n, qp.m) == (2, 1)

    def test_nonzero_column_with_a_zero_entry_is_accepted(self):
        qp = new_qp_map((0, 0), ((0,), (1,)), ((1, 0),))
        assert qp.m == 1

    def test_zero_column_of_a_rejected(self):
        with pytest.raises(ZeroColumnOfA) as exc:
            new_qp_map((0, 0), ((0,), (0,)), ((1, 1),))
        assert exc.value.index == 0

    def test_zero_row_of_b_rejected(self):
        with pytest.raises(ZeroRowOfB) as exc:
            new_qp_map((0, 0), ((1,), (1,)), ((0, 0),))
        assert exc.value.index == 0

    def test_dimension_mismatches(self):
        with pytest.raises(DimensionMismatch):
            new_qp_map((1,), ((2,), (-2,)), ((1, 1),))  # lambda too short
        with pytest.raises(DimensionMismatch):
            new_qp_map((1, -1), ((2,), (-2,)), ((1, 1, 1),))  # B not m x n
        with pytest.raises(DimensionMismatch):
            new_qp_map((1, -1), ((2,), (-2,)), ((1,),))

    def test_floats_rejected_in_structural_data(self):
        with pytest.raises(TypeError):
            new_qp_map((1.0, -1.0), ((2,), (-2,)), ((1, 1),))


class TestQuasimonomials:
    def test_integer_exponents(self):
        qp = new_qp_map((0, 0), ((1,), (1,)), ((1, 1),))
        assert quasimonomials(qp, [2, 3]) == pytest.approx([6.0])

    def test_rational_exponents(self):
        qp = new_qp_map((0, 0), ((1,), (1,)), (("1/2", "1/2"),))
        assert quasimonomials(qp, [4, 9]) == pytest.approx([6.0])

    def test_two_rows_against_direct_product(self):
        b = ((1, 1), (2, 0))
        qp = new_qp_map((0, 0), ((1, 1), (1, 1)), b)
        got = quasimonomials(qp, [2, 0.5])
        assert got == pytest.approx([1.0, 4.0])
        assert got == pytest.approx(quasimonomial_oracle(b, [2, 0.5]))

    def test_nonpositive_state_rejected(self):
        qp = dim2_map()
        with pytest.raises(NonPositiveState):
            quasimonomials(qp, [1, 0])
        with pytest.raises(NonPositiveState):
            quasimonomials(qp, [-1, 1])
        with pytest.raises(NonPositiveState):
            quasimonomials(qp, [1, float("nan")])

    def test_out_of_range_values_saturate_quietly(self):
        # pytest turns a RuntimeWarning into an error: the kernel must not warn
        qp = new_qp_map((0, 0), ((1,), (1,)), ((400, 0),))
        assert quasimonomials(qp, [[10, 1], [0.1, 1]]).tolist() == [[math.inf], [0.0]]


class TestPhiAndStep:
    def test_phi_at_unit_state(self):
        assert phi(dim2_map(), [1, 1]) == pytest.approx([3.0, -3.0])

    def test_phi_on_invariant_level_set(self):
        # x1*x2 = 1, so the single quasimonomial equals 1
        assert phi(dim2_map(), [2, 0.5]) == pytest.approx([3.0, -3.0])

    def test_phi_is_lambda_plus_a_q(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            qp = random_valid_map(rng, 3, 2)
            x = random_state(rng, 3)
            expected = qp.lam_f + qp.A_f @ quasimonomials(qp, x)
            assert phi(qp, x) == pytest.approx(expected, rel=1e-12)

    def test_step_values(self):
        qp = dim2_map()
        assert step(qp, [1, 1]) == pytest.approx([E3, 1 / E3])
        assert step(qp, [2, 0.5]) == pytest.approx([2 * E3, 0.5 / E3])

    def test_trivial_map_is_identity(self):
        qp = trivial_lv_map(3)
        x = [0.3, 1.7, 2.2]
        assert step(qp, x) == pytest.approx(x, abs=0.0)

    def test_step_overflow_up_and_down(self):
        blow = new_qp_map((800, -800), ((1,), (-1,)), ((1, 1),))
        with pytest.raises(NumericOverflow) as exc:
            step(blow, [1, 1])
        assert exc.value.time_index == 1
        assert exc.value.partial.tolist() == [[1.0, 1.0]]
        sink = new_qp_map((-800, 800), ((1,), (-1,)), ((1, 1),))
        with pytest.raises(NumericOverflow) as exc:
            step(sink, [1, 1])
        assert exc.value.time_index == 1


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.sampled_from((None, 1, 3)))
def test_step_is_row_one_of_iterate(seed, k):
    rng = np.random.default_rng(seed)
    qp = random_classification_map(rng)
    x = random_state(rng, qp.n if k is None else (k, qp.n))
    try:
        traj = iterate(qp, x, 1)
    except NumericOverflow:
        with pytest.raises(NumericOverflow) as exc:
            step(qp, x)
        assert exc.value.time_index == 1
        return
    out = step(qp, x)
    assert out.shape == x.shape
    assert out.tobytes() == traj[1].tobytes()
    assert out.tobytes() == (x * np.exp(phi(qp, x))).tobytes()


class TestIterate:
    def test_zero_steps(self):
        traj = iterate(dim2_map(), [1, 1], 0)
        assert len(traj) == 1
        assert traj.shape == (1, 2)

    def test_trivial_map_constant_trajectory(self):
        traj = iterate(trivial_lv_map(2), [1.5, 0.25], 5)
        assert len(traj) == 6
        for state in traj:
            assert state == pytest.approx([1.5, 0.25], abs=0.0)

    def test_dim2_geometric_growth(self):
        traj = iterate(dim2_map(), [1, 1], 2)
        expected = [(1, 1), (E3, 1 / E3), (math.exp(6), math.exp(-6))]
        for state, want in zip(traj, expected):
            assert state == pytest.approx(want, rel=1e-12)

    def test_overflow_carries_index_and_partial(self):
        qp = new_qp_map((50, -50), ((2,), (-2,)), ((1, 1),))
        with pytest.raises(NumericOverflow) as exc:
            iterate(qp, [1, 1], 100)
        assert exc.value.time_index is not None
        partial = exc.value.partial
        assert partial is not None
        assert len(partial) == exc.value.time_index
        # the partial prefix must agree with a shorter clean run
        clean = iterate(qp, [1, 1], len(partial) - 1)
        for a, b in zip(partial, clean):
            assert a == pytest.approx(b, abs=0.0)

    def test_x0_checked_once(self, monkeypatch):
        import qpmaps.core as core

        calls = []
        real_as_state = core.as_state

        def recorded(x, n):
            calls.append(n)
            return real_as_state(x, n)

        monkeypatch.setattr(core, "as_state", recorded)
        assert iterate(dim2_map(), [1, 1], 50).shape == (51, 2)
        assert calls == [2]

    @pytest.mark.parametrize("bad", [np.nan, -1.0, 0.0, np.inf])
    def test_bad_row_of_x0_stack_rejected(self, bad):
        xs = np.ones((3, 2))
        xs[1, 0] = bad
        for run in (lambda: iterate(dim2_map(), xs, 5), lambda: step(dim2_map(), xs)):
            with pytest.raises(NonPositiveState):
                run()

    def test_negative_steps_rejected(self):
        with pytest.raises(ValueError):
            iterate(dim2_map(), [1, 1], -1)

    def test_stack_trajectory_and_partial_are_arrays(self):
        qp = new_qp_map((50, -50), ((2,), (-2,)), ((1, 1),))
        xs = [[1.0, 1.0], [0.5, 2.0]]
        assert isinstance(iterate(qp, xs, 1), np.ndarray)
        with pytest.raises(NumericOverflow) as exc:
            iterate(qp, xs, 100)
        partial = exc.value.partial
        assert isinstance(partial, np.ndarray)
        assert partial.shape == (exc.value.time_index, 2, 2)
        assert np.array_equal(partial, iterate(qp, xs, exc.value.time_index - 1))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.sampled_from((None, 1, 3)),
       kind=st.sampled_from((1e-3, 1.0, 5.0, "classification")),
       steps=st.sampled_from((0, 1, 5, 100, 1024, 1025, 1500, 3000)))
def test_iterate_matches_stacked_states(seed, k, kind, steps):
    """Trajectories and overflow partials, also past the first buffer
    growth, equal the states stacked one by one, bit for bit; neither is a
    view into a larger buffer."""
    rng = np.random.default_rng(seed)
    if kind == "classification":
        qp = random_classification_map(rng)
    else:
        qp = random_symplectic_map(rng, int(rng.choice((2, 4))), phi_bound=kind)
    x = random_state(rng, qp.n if k is None else (k, qp.n))
    try:
        want = iterate_oracle(qp, x, steps)
    except NumericOverflow as exc:
        with pytest.raises(NumericOverflow) as got:
            iterate(qp, x, steps)
        assert got.value.time_index == exc.time_index
        partial = got.value.partial
        assert partial.shape == (exc.time_index, *x.shape)
        assert partial.base is None
        assert partial.tobytes() == exc.partial.tobytes()
        return
    traj = iterate(qp, x, steps)
    assert traj.shape == want.shape == (steps + 1, *x.shape)
    assert traj.base is None
    assert traj.tobytes() == want.tobytes()


# Prints ru_maxrss (kB) before and after a 100,000-step iterate, and the
# result's size in bytes.
ITERATE_RSS_PROBE = """
import resource
from qpmaps import iterate, new_qp_map
qp = new_qp_map((-1, 1), ((1,), (-1,)), ((1, 1),))  # log k = 0 at (1, 1)
iterate(qp, [1, 1], 10)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
traj = iterate(qp, [1, 1], 100_000)
print(before, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, traj.nbytes)
"""


def test_iterate_memory_follows_its_result():
    pytest.importorskip("resource")
    proc = run_python_afresh("-c", ITERATE_RSS_PROBE)
    assert proc.returncode == 0, proc.stderr
    before_kb, after_kb, nbytes = map(int, proc.stdout.split())
    assert (after_kb - before_kb) * 1024 < 4 * nbytes + 8 * 2**20


class TestJacobian:
    def test_trivial_map_identity(self):
        got = jacobian(trivial_lv_map(3), [0.7, 1.1, 3.0])
        assert got == pytest.approx(np.eye(3), abs=0.0)

    def test_dim2_hand_value(self):
        got = jacobian(dim2_map(), [1, 1])
        want = np.array([[3 * E3, 2 * E3], [-2 / E3, -1 / E3]])
        assert got == pytest.approx(want, rel=1e-14)

    def test_matches_finite_differences_on_random_maps(self):
        rng = np.random.default_rng(17)
        checked = 0
        while checked < 60:
            n = int(rng.integers(1, 7))
            m = int(rng.integers(1, 7))
            qp = random_valid_map(rng, n, m)
            x = random_state(rng, n)
            if np.max(np.abs(phi(qp, x))) > 3.0:
                continue  # keep the finite-difference noise floor low
            assert relative_gap(jacobian(qp, x), fd_jacobian(qp, x)) <= 1e-5
            checked += 1


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_positivity_preservation(data):
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    qp = random_valid_map(rng, n, int(rng.integers(1, 5)))
    x = random_state(rng, n)
    try:
        out = step(qp, x)
    except NumericOverflow:
        return  # overflow is reported loudly, never silently
    assert np.all(out > 0)
    assert np.all(np.isfinite(out))


EDGE_VALUES = (0.0, -0.0, -1.0, -5e-324, np.nan, np.inf, -np.inf, 5e-324,
               1.7976931348623157e308, 1.0)


# Mostly positive finite entries, so the all-valid answer None occurs often;
# shapes include (0, n) and (k, 0).
@settings(max_examples=400, deadline=None)
@given(arrays(float, array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=5),
              elements=st.one_of(st.floats(0.25, 4.0), st.sampled_from(EDGE_VALUES),
                                 st.floats(allow_nan=True, allow_infinity=True))))
def test_first_nonpositive_row_matches_mask_formula(x):
    assert first_nonpositive_row(x) == first_nonpositive_row_oracle(x)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.sampled_from((None, 1, 4)),
       kind=st.sampled_from((1e-3, 1.0, 8.0, "classification")),
       far=st.sampled_from((1.0, math.exp(300), math.exp(-300))))
def test_jacobian_equals_the_out_of_place_formula_bitwise(seed, k, kind, far):
    """The in-place kernel and its cached identity give the bits of
    (I + (x_i/x_j) d) e, on single states and stacks, also where entries
    overflow to inf or turn NaN."""
    rng = np.random.default_rng(seed)
    if kind == "classification":
        qp = random_classification_map(rng)
    else:
        qp = random_symplectic_map(rng, int(rng.choice((2, 4, 6))), phi_bound=kind)
    x = random_state(rng, qp.n if k is None else (k, qp.n))
    x[..., 0] *= far
    got = jacobian(qp, x)
    assert got.shape == x.shape + (qp.n,)
    assert got.tobytes() == jacobian_oracle(qp, x).tobytes()


def test_jacobian_errstate_is_restored_under_raise():
    # exp(1000) overflows a row of the Jacobian; the kernel's own errstate
    # wins inside, and the caller's settings come back unchanged.
    qp = new_qp_map(("1000", "0"), (("1",), ("1",)), (("1", "1"),))
    with np.errstate(all="raise"):
        before = np.geterr()
        jac = jacobian(qp, [1.0, 1.0])
        assert np.geterr() == before
    assert np.isinf(jac[0]).all() and np.isfinite(jac[1]).all()


def test_determinism_bitwise():
    rng = np.random.default_rng(23)
    while True:
        qp = random_valid_map(rng, 4, 3)
        x = random_state(rng, 4)
        try:
            iterate(qp, x, 3)
        except NumericOverflow:
            continue
        break
    assert np.array_equal(step(qp, x), step(qp, x))
    assert np.array_equal(jacobian(qp, x), jacobian(qp, x))
    assert np.array_equal(iterate(qp, x, 3), iterate(qp, x, 3))

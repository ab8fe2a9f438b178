"""The float-safety scaling of random_symplectic_map against the dense oracle,
and the integer draws of the generators against per-entry Fraction oracles."""

import math
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qpmaps import new_qp_map
from qpmaps.sampling import (DEFAULT_DERIVATIVE_BOUND, random_qmt, random_symplectic_map,
                             random_valid_map)

from helpers import (
    dense_derivative_bound,
    dense_phi_bound,
    random_classification_map,
    random_qmt_oracle,
    random_valid_map_oracle,
    symplectic_map_oracle,
    symplectic_scaling_oracle,
)


def bounds_hold(qp, phi_bound) -> bool:
    b_values = [max(row, key=abs) for row in qp.B]
    return (dense_phi_bound(qp.lam, qp.A, b_values) <= phi_bound
            and dense_derivative_bound(qp.A, qp.B, b_values) <= DEFAULT_DERIVATIVE_BOUND)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12).map(lambda s: 2 * s),
       m=st.integers(1, 30), integer_entries=st.booleans(),
       phi_bound=st.sampled_from((1e-3, 0.25, 1.0, 8.0, 100.0, math.inf)))
def test_scaling_equals_the_dense_halving_loop(seed, n, m, integer_entries, phi_bound):
    """The map equals the one the dense halving loop gives from the same draws,
    the generator leaves the RNG where the unscaled draws do, the map meets
    both dense bounds, and a scaled map is scaled no more than it must be."""
    rng = np.random.default_rng(seed)
    got = random_symplectic_map(rng, n, m, integer_entries, phi_bound)
    unscaled_rng = np.random.default_rng(seed)
    unscaled = symplectic_map_oracle(unscaled_rng, n, m, integer_entries)
    assert rng.random() == unscaled_rng.random()
    if integer_entries:
        assert got == unscaled
        return
    assert got == symplectic_scaling_oracle(unscaled, phi_bound, DEFAULT_DERIVATIVE_BOUND)
    assert bounds_hold(got, phi_bound)
    if got != unscaled:
        doubled = new_qp_map([2 * v for v in got.lam],
                             [[2 * e for e in row] for row in got.A], got.B)
        assert not bounds_hold(doubled, phi_bound)


@pytest.mark.parametrize("name", ["phi_bound"])
@pytest.mark.parametrize("value", [-1.0, 0.0, math.nan, None],
                         ids=["negative", "zero", "nan", "none"])
def test_a_bound_that_is_not_positive_is_refused_before_any_draw(name, value):
    """A negative bound would halve forever, 0.0 halves to ~1079-bit
    denominators, NaN compares false, so it would skip the scaling, and None
    no longer turns the bound off."""
    rng = np.random.default_rng(3)
    with pytest.raises(ValueError, match=f"^{name} must be a number > 0, got {re.escape(repr(value))}$"):
        random_symplectic_map(rng, 4, **{name: value})
    assert rng.random() == np.random.default_rng(3).random()


def test_n_200_costs_a_bounded_time():
    """The default bounds at n = m = 200: the dense loop took ~13 s on a 2-core
    Xeon VM, evaluating two n x n x m bounds after each halving."""
    rng = np.random.default_rng(11)
    start = time.perf_counter()
    qp = random_symplectic_map(rng, 200, 200)
    assert time.perf_counter() - start < 1
    assert (qp.n, qp.m) == (200, 200)


def _entries(rows):
    return [e for row in rows for e in row]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12), m=st.integers(1, 12))
def test_random_valid_map_equals_per_entry_draws(seed, n, m):
    """The same map and the same next draw as a Fraction made per entry, with
    one Fraction object per value drawn."""
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = random_valid_map(rng, n, m)
    assert got == random_valid_map_oracle(oracle_rng, n, m)
    assert rng.random() == oracle_rng.random()
    entries = [*got.lam, *_entries(got.A), *_entries(got.B)]
    assert len({id(e) for e in entries}) == len(set(entries))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12).map(lambda s: 2 * s),
       m=st.integers(1, 30))
def test_integer_symplectic_map_equals_per_entry_draws(seed, n, m):
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = random_symplectic_map(rng, n, m, integer_entries=True)
    assert got == symplectic_map_oracle(oracle_rng, n, m, integer_entries=True)
    assert rng.random() == oracle_rng.random()
    drawn = _entries(got.B)  # B holds the drawn values and zeros
    assert len({id(e) for e in drawn}) == len(set(drawn))
    # the negated halves of A and lam, and the zeros, reuse the drawn values
    entries = [*got.lam, *_entries(got.A), *drawn]
    assert len({id(e) for e in entries}) == len(set(entries))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_classification_map_holds_one_fraction_per_value(seed):
    """Generic, symplectic and perturbed maps alike; a perturbation takes the
    map's own Fraction for the value it draws."""
    rng = np.random.default_rng(seed)
    for _ in range(10):
        qp = random_classification_map(rng)
        entries = [*qp.lam, *_entries(qp.A), *_entries(qp.B)]
        assert len({id(e) for e in entries}) == len(set(entries))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8))
def test_random_qmt_equals_per_entry_draws(seed, n):
    """Singular draws are rejected as before, so the RNG ends where it did."""
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = random_qmt(rng, n)
    assert got == random_qmt_oracle(oracle_rng, n)
    assert rng.random() == oracle_rng.random()
    entries = _entries(got.C)
    assert len({id(e) for e in entries}) == len(set(entries))

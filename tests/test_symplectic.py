import itertools
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qpmaps import (
    NumericOverflow,
    OddDimension,
    QPMap,
    check_conditions,
    check_pattern,
    iterate,
    jacobian,
    new_qp_map,
    quasimonomials,
    rank_bounds,
    sampled_residuals,
    skew_matrix,
    strictness_violations,
    symplectic_residual,
)
from qpmaps.sampling import random_state, random_symplectic_map, random_valid_map
from qpmaps.symplectic import WITNESS_LIMIT, PatternVerdict

from helpers import (
    check_conditions_oracle,
    dim2_map,
    dim2_variant,
    dim4_map,
    jacobian_oracle,
    jacobian_residual_oracle,
    random_classification_map,
    sampled_residuals_oracle,
    symplectic_product_block,
    trivial_lv_map,
)


def violation_state_on_grid(qp, points_per_axis=5, lo=0.5, hi=2.0, tol=1e-6):
    """Grid search for a state where the residual exceeds tol."""
    axis = np.linspace(lo, hi, points_per_axis)
    for combo in itertools.product(axis, repeat=qp.n):
        if symplectic_residual(qp, np.array(combo)) > tol:
            return np.array(combo)
    return None


class TestCheckConditions:
    def test_dim2_fixture(self):
        rep = check_conditions(dim2_map())
        assert rep.is_symplectic
        assert rep.s == 1
        assert rep.pairing == (1,)
        assert all(cond.holds for _, cond in rep.conditions())

    def test_dim2_variant_condition_d_witness(self):
        rep = check_conditions(dim2_variant())
        assert not rep.is_symplectic
        assert not rep.cond_d.holds
        (witness,) = rep.cond_d.witnesses
        assert witness.where == (("i", 1), ("p", 1))
        assert witness.value == -2

    def test_odd_dimension_is_definite_no(self):
        qp = new_qp_map((1, 0, -1), ((1, 0), (0, 1), (1, 1)), ((1, 1, 1), (0, 1, 0)))
        rep = check_conditions(qp)
        assert not rep.is_symplectic
        assert rep.s is None
        assert "odd" in rep.reason
        assert not rep.cond_a.applicable

    def test_dim4_fixture_pairing(self):
        rep = check_conditions(dim4_map())
        assert rep.is_symplectic
        assert rep.s == 2
        assert rep.pairing == (2, 2, 2, 1, 1)

    def test_condition_a_violation(self):
        qp = new_qp_map((1, -1), ((2,), (-1,)), ((1, 1),))
        rep = check_conditions(qp)
        assert not rep.cond_a.holds
        assert rep.cond_a.witnesses[0].value == 1

    def test_condition_b_violation(self):
        qp = new_qp_map((1, 1), ((2,), (-2,)), ((1, 1),))
        rep = check_conditions(qp)
        assert not rep.cond_b.holds

    def test_condition_c_violation(self):
        # n=4: quasimonomial 1 couples pair 1 in A but its B row touches pair 2
        qp = new_qp_map(
            (0, 0, 0, 0),
            ((1,), (0,), (-1,), (0,)),
            ((0, 1, 0, 1),),
        )
        rep = check_conditions(qp)
        assert not rep.is_symplectic
        assert not rep.cond_c.holds


rationals = st.builds(Fraction, st.integers(-3, 3), st.sampled_from((1, 2, 3)))
nonzero_rationals = rationals.filter(bool)


@st.composite
def classification_maps(draw):
    """Generic (zero-heavy or dense), symplectic, one-entry-perturbed, relaxed
    (a symplectic map with one inert, all-zero A column) and odd-n maps with
    rational entries."""
    kind = draw(st.sampled_from(("generic", "symplectic", "perturbed", "relaxed", "odd")))
    n = draw(st.sampled_from((1, 3, 5) if kind == "odd" else (2, 4, 6, 8)))
    m = draw(st.integers(1, 7))

    def vectors(size, entries):
        return st.lists(entries, min_size=size, max_size=size)

    if kind in ("generic", "odd"):
        entries = draw(st.sampled_from((rationals, nonzero_rationals)))
        return QPMap(draw(vectors(n, entries)), draw(vectors(n, vectors(m, entries))),
                     draw(vectors(m, vectors(n, entries))))
    s, zero = n // 2, Fraction(0)
    pair = draw(vectors(m, st.integers(0, s - 1)))
    a_val, b_val = draw(vectors(m, nonzero_rationals)), draw(vectors(m, nonzero_rationals))
    lam_half = draw(vectors(s, rationals))
    lam = lam_half + [-v for v in lam_half]
    a = [[zero] * m for _ in range(n)]
    b = [[zero] * n for _ in range(m)]
    for p, ip in enumerate(pair):
        a[ip][p], a[s + ip][p] = a_val[p], -a_val[p]
        b[p][ip] = b[p][s + ip] = b_val[p]
    if kind == "perturbed":
        target = draw(st.sampled_from(("lam", "A", "B")))
        value = draw(rationals)
        if target == "lam":
            lam[draw(st.integers(0, n - 1))] = value
        elif target == "A":
            a[draw(st.integers(0, n - 1))][draw(st.integers(0, m - 1))] = value
        else:
            b[draw(st.integers(0, m - 1))][draw(st.integers(0, n - 1))] = value
    elif kind == "relaxed":
        inert = draw(st.integers(0, m - 1))
        for row in a:
            row[inert] = zero
    return QPMap(lam, a, b)


def assert_matches_oracle(qp):
    got, full = check_conditions(qp), check_conditions_oracle(qp)
    assert (got.is_symplectic, got.s, got.pairing, got.reason) == (
        full.is_symplectic, full.s, full.pairing, full.reason)
    for (label, cond), (_, every) in zip(got.conditions(), full.conditions()):
        assert cond.applicable == every.applicable, label
        assert cond.count == len(every.witnesses), label
        assert cond.witnesses == every.witnesses[:WITNESS_LIMIT], label
        assert cond.holds == every.holds, label


class TestCheckConditionsAgainstEnumeration:
    """check_conditions counts violations from supports; the oracle enumerates
    every witness (tests/helpers.py)."""

    @settings(max_examples=300, deadline=None)
    @given(qp=classification_maps())
    def test_counts_and_first_witnesses(self, qp):
        assert_matches_oracle(qp)

    @pytest.mark.parametrize("seed", range(12))
    def test_pair_sums_of_rationals(self, seed):
        """(a) and (b) are decided from numerators and denominators: pairs are
        exact opposites (1/2, -1/2), opposite numerators over different
        denominators (1/2, -1/3), equal (1/2, 1/2) or unrelated."""
        rng = np.random.default_rng(seed)
        n, m = 2 * int(rng.integers(1, 6)), int(rng.integers(1, 8))
        s = n // 2

        def pair():
            p, q, r = int(rng.integers(-4, 5)), int(rng.integers(1, 5)), int(rng.integers(1, 5))
            kind = rng.integers(0, 4)
            if kind == 0:
                return Fraction(p, q), Fraction(-p, q)
            if kind == 1:
                return Fraction(p, q), Fraction(-p, q + r)
            if kind == 2:
                return Fraction(p, q), Fraction(p, q)
            return Fraction(p, q), Fraction(int(rng.integers(-4, 5)), r)

        lam = [None] * n
        a = [[None] * m for _ in range(n)]
        for i in range(s):
            lam[i], lam[s + i] = pair()
            for j in range(m):
                a[i][j], a[s + i][j] = pair()
        b = [[Fraction(int(v), int(d)) for v, d in zip(rng.integers(-2, 3, n), rng.integers(1, 4, n))]
             for _ in range(m)]
        assert_matches_oracle(QPMap(lam, a, b))

    def test_opposite_numerators_over_different_denominators_violate(self):
        half, third = Fraction(1, 2), Fraction(1, 3)
        qp = QPMap((half, third, -half, -half), ((half,), (half,), (-half,), (-third,)),
                   ((1, 1, 1, 1),))
        rep = check_conditions(qp)
        assert (rep.cond_a.count, rep.cond_b.count) == (1, 1)
        assert rep.cond_a.witnesses[0].detail == "A[2,1] + A[4,1] = 1/2 + -1/3 = 1/6"
        assert rep.cond_b.witnesses[0].detail == "lambda[2] + lambda[4] = 1/3 + -1/2 = -1/6"
        assert_matches_oracle(qp)

    def test_generic_40(self):
        qp = random_valid_map(np.random.default_rng(40), 40, 40)
        assert_matches_oracle(qp)
        assert all(cond.count > WITNESS_LIMIT for _, cond in check_conditions(qp).conditions())


class TestCheckPattern:
    def test_dim2_and_dim4(self):
        assert check_pattern(dim2_map()).is_symplectic
        rep = check_pattern(dim4_map())
        assert rep.is_symplectic
        assert rep.pairing == (2, 2, 2, 1, 1)

    def test_odd_dimension_raises(self):
        qp = new_qp_map((1, 0, -1), ((1,), (1,), (1,)), ((1, 1, 1),))
        with pytest.raises(OddDimension):
            check_pattern(qp)

    def test_three_nonzero_entries_in_b_row(self):
        qp = new_qp_map(
            (1, -1, 0, 0),
            ((2,), (-2,), (0,), (0,)),
            ((1, 1, 1, 0),),
        )
        rep = check_pattern(qp)
        assert not rep.is_symplectic

    def test_mismatched_pair_between_a_and_b(self):
        # B row couples pair 1, A column couples pair 2
        qp = new_qp_map(
            (0, 0, 0, 0),
            ((0,), (1,), (0,), (-1,)),
            ((1, 0, 1, 0),),
        )
        rep = check_pattern(qp)
        assert not rep.is_symplectic

    def test_agreement_with_conditions_on_random_maps(self):
        rng = np.random.default_rng(101)
        for _ in range(1000):
            qp = random_classification_map(rng)
            assert check_pattern(qp).is_symplectic == check_conditions(qp).is_symplectic

    def test_pairings_agree_and_match_b_row_support(self):
        # The two classifiers derive the pairing from different matrices
        # (A columns vs B rows); both must agree with the raw support of B.
        rng = np.random.default_rng(103)
        for _ in range(200):
            n = int(rng.choice((2, 4, 6)))
            qp = random_symplectic_map(rng, n, integer_entries=True)
            s = n // 2
            pairing = check_conditions(qp).pairing
            assert pairing == check_pattern(qp).pairing
            assert all(ip is not None for ip in pairing)
            for p, ip in enumerate(pairing):
                support = [j for j in range(n) if qp.B[p][j] != 0]
                assert support == [ip - 1, s + ip - 1]

    # One strict map per clause of the pattern; each breaks only that clause.
    @pytest.mark.parametrize("lam, a, b", [
        ((0, 0, 0, 0), ((1,), (0,), (-1,), (0,)), ((1, 1, 1, 0),)),
        ((1, -1), ((2,), (-2,)), ((1, 2),)),
        ((0, 0, 0, 0), ((0,), (1,), (0,), (-1,)), ((1, 0, 1, 0),)),
        ((1, -1), ((2,), (-1,)), ((1, 1),)),
        ((1, 1), ((2,), (-2,)), ((1, 1),)),
    ], ids=["b-row-three-entries", "b-pair-unequal", "a-column-other-pair",
            "a-pair-sum", "lambda-pair-sum"])
    def test_each_broken_clause_is_a_definite_no(self, lam, a, b):
        qp = new_qp_map(lam, a, b)
        assert check_pattern(qp) == PatternVerdict(False, None)
        assert not check_conditions(qp).is_symplectic

    def test_relaxed_map_with_zero_b_row(self):
        qp = QPMap((0, 0), ((1,), (-1,)), ((0, 0),))
        assert check_pattern(qp) == PatternVerdict(False, None)

    @settings(max_examples=300, deadline=None)
    @given(qp=classification_maps().filter(
        lambda qp: qp.n % 2 == 0 and not any(strictness_violations(qp))))
    def test_agrees_with_conditions_on_strict_even_maps(self, qp):
        report = check_conditions(qp)
        assert check_pattern(qp) == PatternVerdict(
            report.is_symplectic, report.pairing if report.is_symplectic else None)


class TestNumericOracles:
    def test_trivial_map_residual_exactly_zero(self):
        qp = trivial_lv_map(4)
        assert symplectic_residual(qp, [1.2, 0.8, 2.0, 0.5]) == 0.0

    def test_dim2_residual_small_on_random_states(self):
        qp = dim2_map()
        rng = np.random.default_rng(5)
        for _ in range(100):
            assert symplectic_residual(qp, random_state(rng, 2)) <= 1e-9

    def test_variant_residual_large(self):
        assert symplectic_residual(dim2_variant(), [1.0, 1.0]) > 0.1

    def test_overflowing_jacobian_residual_is_inf(self):
        # exp(1000) overflows every Jacobian; a NaN residual would vanish under max()
        qp = new_qp_map(("1000", "0"), (("1",), ("1",)), (("1", "1"),))
        xs = random_state(np.random.default_rng(6), (5, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert symplectic_residual(qp, xs) == np.inf
            assert symplectic_residual(qp, xs[0]) == np.inf
            with pytest.raises(NumericOverflow, match="^samples 1-5: a Jacobian"):
                sampled_residuals(qp, 5, 6)
        assert max(0.0, symplectic_residual(qp, xs)) > 1e-9

    def test_jacobian_residual_matches_block_formula_bitwise(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            qp = random_classification_map(rng)
            xs = random_state(rng, (int(rng.integers(1, 6)), qp.n))
            # on a single state and a stack (n is even)
            for x in (xs[0], xs):
                got = symplectic_residual(qp, x)
                assert np.float64(got).tobytes() == np.float64(
                    jacobian_residual_oracle(jacobian(qp, x))).tobytes()
                assert np.float64(got).tobytes() == np.float64(
                    jacobian_residual_oracle(jacobian_oracle(qp, x))).tobytes()
        qp = new_qp_map(("1000", "0"), (("1",), ("1",)), (("1", "1"),))
        xs = random_state(rng, (3, 2))
        for x in (xs[0], xs):  # exp(1000) overflows every Jacobian
            assert symplectic_residual(qp, x) == np.inf
            assert jacobian_residual_oracle(jacobian(qp, x)) == np.inf
            assert jacobian_residual_oracle(jacobian_oracle(qp, x)) == np.inf

    def test_empty_stack_residual_is_zero(self):
        for qp in (dim2_map(), dim4_map()):
            empty = np.ones((0, qp.n))
            assert jacobian(qp, empty).shape == (0, qp.n, qp.n)
            assert symplectic_residual(qp, empty) == 0.0

    def test_sampled_residuals_are_the_per_sample_maxima(self):
        """One chunked draw gives the maxima of the per-sample loop, from a seed
        and from the Generator it seeds alike."""
        rng = np.random.default_rng(12)
        maps = [dim2_map(), dim2_variant(), dim4_map(1, 1),
                *(random_symplectic_map(rng, n) for n in (2, 4, 6, 8)),
                random_symplectic_map(rng, 16, 16)]
        for qp in maps:
            for samples, seed in ((700, 42), (7, 1), (1, 0)):
                want = sampled_residuals_oracle(qp, samples, seed)
                assert sampled_residuals(qp, samples, seed) == want
                assert sampled_residuals(qp, samples, np.random.default_rng(seed)) == want
            assert sampled_residuals(qp, 0, 3) == (0.0, 0.0)

    def test_skew_matrix_is_shared_and_read_only(self):
        for s in (1, 2, 5):
            S = skew_matrix(s)
            assert skew_matrix(s) is S
            with pytest.raises(ValueError):
                S[0, 0] = 1.0
            assert np.array_equal(S, np.block([[np.zeros((s, s)), -np.eye(s)],
                                               [np.eye(s), np.zeros((s, s))]]))

    def test_odd_dimension_raises(self):
        qp = new_qp_map((1, 0, -1), ((1,), (1,), (1,)), ((1, 1, 1),))
        with pytest.raises(OddDimension):
            symplectic_residual(qp, [1, 1, 1])
        with pytest.raises(OddDimension):
            sampled_residuals(qp, 1, 0)
        with pytest.raises(OddDimension):
            symplectic_product_block(qp, [1, 1, 1])

    def test_product_block_identity_for_symplectic(self):
        assert symplectic_product_block(trivial_lv_map(2), [1.0, 2.0]) == pytest.approx(
            np.eye(1), abs=0.0
        )
        got = symplectic_product_block(dim2_map(), [1.0, 1.0])
        assert got == pytest.approx(np.eye(1), abs=1e-9)

    def test_determinant_one_for_symplectic(self):
        rng = np.random.default_rng(9)
        for qp in (dim2_map(), dim4_map()):
            for _ in range(20):
                det = np.linalg.det(jacobian(qp, random_state(rng, qp.n)))
                assert abs(det - 1.0) <= 1e-9

    def test_block_structure_consistency(self):
        # Where the residual is tiny, the product block is the identity and
        # the diagonal blocks of K^T S K vanish, with the lower-left equal to
        # the block itself.
        rng = np.random.default_rng(31)
        for _ in range(10):
            qp = random_symplectic_map(rng, 4)
            x = random_state(rng, 4)
            if symplectic_residual(qp, x) > 1e-9:
                continue
            s = qp.n // 2
            jac = jacobian(qp, x)
            ktsk = jac.T @ skew_matrix(s) @ jac
            block = symplectic_product_block(qp, x)
            assert block == pytest.approx(np.eye(s), abs=1e-9)
            assert ktsk[:s, :s] == pytest.approx(np.zeros((s, s)), abs=1e-9)
            assert ktsk[s:, s:] == pytest.approx(np.zeros((s, s)), abs=1e-9)
            assert ktsk[s:, :s] == pytest.approx(block, abs=1e-9)

    def test_completeness_at_a_point_on_grid(self):
        for qp in (
            dim2_variant(),
            new_qp_map((1, 1), ((2,), (-2,)), ((1, 1),)),  # lambda sums violated
            new_qp_map(
                (0, 0, 0, 0),
                ((1,), (0,), (-1,), (0,)),
                ((0, 1, 0, 1),),
            ),  # cross-pair violation
        ):
            assert violation_state_on_grid(qp) is not None

    def test_completeness_on_random_nonsymplectic_maps(self):
        rng = np.random.default_rng(77)
        found = 0
        while found < 10:
            qp = random_classification_map(rng, dims=(2, 4))
            if check_conditions(qp).is_symplectic:
                continue
            assert violation_state_on_grid(qp) is not None
            found += 1


class TestRankBounds:
    def test_dim2(self):
        rep = rank_bounds(dim2_map())
        assert (rep.rank_B, rep.rank_A, rep.rank_M) == (1, 1, 1)
        assert rep.bound_satisfied is True

    def test_dim4(self):
        rep = rank_bounds(dim4_map())
        assert rep.rank_B == 2
        assert rep.rank_M == 2
        assert rep.bound_satisfied is True

    def test_rank_a_le_rank_m_always(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            qp = random_classification_map(rng)
            rep = rank_bounds(qp)
            assert rep.rank_A <= rep.rank_M
            assert rep.rank_B >= 1  # no zero rows in a strict map

    def test_odd_dimension_bound_is_none(self):
        qp = new_qp_map((1, 0, -1), ((1,), (1,), (1,)), ((1, 1, 1),))
        assert rank_bounds(qp).bound_satisfied is None


class TestConservedProducts:
    def test_drift_and_quasimonomial_constancy_random(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            n = int(rng.choice((2, 4, 6)))
            qp = random_symplectic_map(rng, n)
            x0 = random_state(rng, n)
            traj = iterate(qp, x0, 50)
            s = n // 2
            pair_products = traj[:, :s] * traj[:, s:]
            drift = np.abs(pair_products / pair_products[0] - 1.0)
            assert float(drift.max()) <= 1e-10
            q0 = quasimonomials(qp, traj[0])
            for state in traj:
                q = quasimonomials(qp, state)
                assert float(np.max(np.abs(q / q0 - 1.0))) <= 1e-10

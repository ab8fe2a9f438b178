from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qpmaps import (
    DegenerateResult,
    DimensionMismatch,
    NumericOverflow,
    QMT,
    QPMap,
    SingularMatrix,
    apply_qmt,
    check_conditions,
    class_invariant,
    lv_canonical,
    new_qmt,
    new_qp_map,
    pull_state,
    push_state,
    solver_qmt,
    step,
    strictness_violations,
)
from qpmaps.linalg import augment_column, diagonal, identity, is_zero, mat_mul, rmatrix
from qpmaps.sampling import random_qmt, random_state, random_symplectic_map, random_valid_map

from helpers import (dim2_map, dim2_variant, dim4_map, inverse_oracle, mat_mul_oracle,
                     random_classification_map)


class TestQMTConstruction:
    def test_identity(self):
        t = new_qmt(identity(2))
        assert t.C_inv == identity(2)

    def test_diag_inverse(self):
        t = new_qmt(diagonal([1, 2]))
        assert t.C_inv == diagonal([1, "1/2"])

    def test_involution(self):
        c = rmatrix([[1, 1], [0, -1]])
        t = new_qmt(c)
        assert t.C_inv == c

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrix):
            new_qmt([[1, 2], [2, 4]])

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatch):
            new_qmt([[1, 2]])

    def test_wrong_inverse_rejected(self):
        """A QMT is built from C alone: a second matrix, the exact inverse
        included, is refused, so no caller can pass a wrong one."""
        c = diagonal([1, 2])
        for wrong in (diagonal([1, "1/2"]), c, diagonal([1, "1/3"]), identity(2)):
            with pytest.raises(TypeError):
                QMT(c, wrong)
        assert QMT(c) == new_qmt(c) and QMT(c).C_inv == diagonal([1, "1/2"])

    def test_inverse_off_in_one_entry_rejected(self):
        """The derived C_inv is the Gauss-Jordan inverse, and the product check
        the tests use in place of a check at construction, C.C_inv = C_inv.C = I,
        rejects C_inv with any one entry moved."""
        c = rmatrix([["1/2", "-2/3", 0], [3, "5/7", "-1/4"], [0, 2, "7/5"]])
        c_inv = new_qmt(c).C_inv
        assert c_inv == inverse_oracle(c)
        assert mat_mul(c, c_inv) == mat_mul(c_inv, c) == identity(3)
        for i in range(3):
            for j in range(3):
                for delta in (Fraction(1, 10**9), -c_inv[i][j] or Fraction(1)):
                    off = [list(row) for row in c_inv]
                    off[i][j] += delta
                    off = rmatrix(off)
                    assert mat_mul(c, off) != identity(3) and mat_mul(off, c) != identity(3)


class TestApplyQMT:
    def test_diagonal_squeeze_breaks_symplecticity(self):
        qp = apply_qmt(dim2_map(), new_qmt(diagonal([1, 2])))
        assert qp.lam == (Fraction(1), Fraction(-1, 2))
        assert qp.A == ((Fraction(2),), (Fraction(-1),))
        assert qp.B == ((Fraction(1), Fraction(2)),)
        assert not check_conditions(qp).is_symplectic

    def test_identity_is_noop(self):
        qp = dim2_map()
        assert apply_qmt(qp, new_qmt(identity(2))) == qp

    def test_uniform_scaling_preserves_symplecticity(self):
        qp = apply_qmt(dim2_map(), new_qmt(diagonal([3, 3])))
        assert qp.lam == (Fraction(1, 3), Fraction(-1, 3))
        assert qp.A == ((Fraction(2, 3),), (Fraction(-2, 3),))
        assert qp.B == ((Fraction(3), Fraction(3)),)
        assert check_conditions(qp).is_symplectic

    def test_scaling_preserves_verdict_randomly(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            n = int(rng.choice((2, 4, 6)))
            qp = random_symplectic_map(rng, n)
            mu = Fraction(int(rng.choice((-3, -2, -1, 1, 2, 3))),
                          int(rng.choice((1, 2, 3))))
            scaled = apply_qmt(qp, new_qmt(diagonal([mu] * n)))
            assert check_conditions(scaled).is_symplectic

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            apply_qmt(dim2_map(), solver_qmt(2))

    def test_zero_patterns_survive_invertible_transforms(self):
        # An invertible C preserves the zero pattern of B's rows and A's
        # columns, so a strict map can never degenerate under apply_qmt.
        rng = np.random.default_rng(97)
        for _ in range(50):
            qp = random_classification_map(rng, dims=(2, 4))
            t = random_qmt(rng, qp.n)
            transformed = apply_qmt(qp, t)  # must not raise
            assert strictness_violations(transformed) == ((), ())

    def test_degenerate_result_raises_for_relaxed_input(self):
        qp = QPMap((0, 0), ((1,), (1,)), ((0, 0),))  # zero B row
        t = new_qmt([[1, 1], [-1, 1]])
        with pytest.raises(DegenerateResult) as exc:
            apply_qmt(qp, t)
        relaxed = exc.value.result
        assert relaxed is not None
        assert strictness_violations(relaxed)[1] == (0,)
        # non-strict application returns the same relaxed map silently
        assert apply_qmt(qp, t, strict=False) == relaxed

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), m=st.integers(1, 6),
           scale=st.integers(1, 3), data=st.data())
    def test_equals_independent_products(self, seed, n, m, scale, data):
        """lam' = C^-1 lam, A' = C^-1 A and B' = B C by the Fraction triple
        loop; relaxed inputs (zeroed A columns, B rows) must degenerate with
        exactly the zero columns and rows of those products."""
        rng = np.random.default_rng(seed)
        valid = random_valid_map(rng, n, m)
        t = random_qmt(rng, n)
        zero_cols = data.draw(st.sets(st.integers(0, m - 1)))
        zero_rows = data.draw(st.sets(st.integers(0, m - 1)))
        a = [[0 if p in zero_cols else e / scale for p, e in enumerate(row)] for row in valid.A]
        b = [[0] * n if p in zero_rows else row for p, row in enumerate(valid.B)]
        qp = QPMap(valid.lam, a, b)
        lam2 = tuple(row[0] for row in mat_mul_oracle(t.C_inv, tuple((e,) for e in qp.lam)))
        expected = QPMap(lam2, mat_mul_oracle(t.C_inv, qp.A), mat_mul_oracle(qp.B, t.C))
        assert apply_qmt(qp, t, strict=False) == expected
        degenerate = (tuple(j for j in range(m) if all(row[j] == 0 for row in expected.A)),
                      tuple(p for p in range(m) if all(e == 0 for e in expected.B[p])))
        if degenerate == ((), ()):
            assert apply_qmt(qp, t) == expected
        else:
            with pytest.raises(DegenerateResult) as exc:
                apply_qmt(qp, t)
            assert exc.value.result == expected
            assert strictness_violations(exc.value.result) == degenerate

    def test_group_law(self):
        rng = np.random.default_rng(29)
        for _ in range(25):
            qp = random_classification_map(rng, dims=(2, 4))
            t1 = random_qmt(rng, qp.n)
            t2 = random_qmt(rng, qp.n)
            lhs = apply_qmt(apply_qmt(qp, t1, strict=False), t2, strict=False)
            rhs = apply_qmt(qp, new_qmt(mat_mul(t1.C, t2.C)), strict=False)
            assert lhs == rhs


class TestStatePushPull:
    def test_identity(self):
        t = new_qmt(identity(2))
        x = [2.0, 3.0]
        assert push_state(t, x) == pytest.approx(x)
        assert pull_state(t, x) == pytest.approx(x)

    def test_integer_exponents(self):
        t = new_qmt([[1, 1], [0, -1]])
        assert push_state(t, [2, 3]) == pytest.approx([6.0, 1 / 3])
        assert pull_state(t, [6, 1 / 3]) == pytest.approx([2.0, 3.0])

    def test_out_of_range_values_saturate_quietly(self):
        # pytest turns a RuntimeWarning into an error: push and pull must not warn
        wide = new_qmt(diagonal([400, -400]))
        narrow = new_qmt(diagonal([Fraction(1, 400), Fraction(-1, 400)]))
        assert push_state(wide, [10, 10]).tolist() == [np.inf, 0.0]
        assert pull_state(narrow, [10, 10]).tolist() == [np.inf, 0.0]

    def test_solver_pull_is_products_and_reciprocals(self):
        t = solver_qmt(2)
        assert pull_state(t, [1, 2, 3, 4]) == pytest.approx([3.0, 8.0, 1 / 3, 1 / 4])

    def test_round_trip(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            t = random_qmt(rng, n)
            y = random_state(rng, n)
            back = pull_state(t, push_state(t, y))
            assert back == pytest.approx(y, rel=1e-12)


class TestClassInvariant:
    def test_dim2_null(self):
        bm = class_invariant(dim2_map())
        assert is_zero(bm)
        assert (len(bm), len(bm[0])) == (1, 2)

    def test_dim4_null(self):
        bm = class_invariant(dim4_map())
        assert is_zero(bm)
        assert (len(bm), len(bm[0])) == (5, 6)

    def test_variant_nonzero(self):
        assert class_invariant(dim2_variant()) == ((Fraction(-1), Fraction(-2)),)

    def test_exactly_invariant_under_qmts(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            qp = random_classification_map(rng)
            t = random_qmt(rng, qp.n)
            transformed = apply_qmt(qp, t, strict=False)
            assert class_invariant(transformed) == class_invariant(qp)

    def test_symplectic_implies_null(self):
        rng = np.random.default_rng(47)
        for _ in range(50):
            qp = random_symplectic_map(rng, int(rng.choice((2, 4, 6))))
            assert is_zero(class_invariant(qp))


class TestConjugacy:
    def test_step_commutes_with_pull(self):
        rng = np.random.default_rng(53)
        done = 0
        while done < 40:
            qp = random_classification_map(rng, dims=(2, 4))
            t = random_qmt(rng, qp.n)
            try:
                transformed = apply_qmt(qp, t)
            except DegenerateResult:
                continue
            x = random_state(rng, qp.n)
            try:
                lhs = step(transformed, pull_state(t, x))
                rhs = pull_state(t, step(qp, x))
            except NumericOverflow:
                continue
            if not (np.all(np.isfinite(lhs)) and np.all(np.isfinite(rhs))):
                continue
            assert lhs == pytest.approx(rhs, rel=1e-9)
            done += 1


class TestLVCanonical:
    def test_dim2_degenerates_to_trivial(self):
        with pytest.raises(DegenerateResult) as exc:
            lv_canonical(dim2_map())
        lv = exc.value.result
        assert augment_column(lv.lam, lv.A) == ((Fraction(0), Fraction(0)),)

    def test_lv_form_is_fixed_point(self):
        qp = new_qp_map((1, 0), ((1, 0), (0, 1)), ((1, 0), (0, 1)))
        lv = lv_canonical(qp)
        assert lv.lam == qp.lam
        assert lv.A == qp.A
        assert lv.B == identity(2)

    def test_generic_nonsymplectic_map(self):
        qp = dim2_variant()
        lv = lv_canonical(qp)
        assert lv.n == lv.m == qp.m
        assert lv.lam == (Fraction(-1),)
        assert lv.A == ((Fraction(-2),),)

    def test_same_message_format_as_apply_qmt(self):
        with pytest.raises(DegenerateResult) as canonical:
            lv_canonical(new_qp_map((1, 1), ((1, -1), (-1, 1)), ((1, 1), (1, 1))))  # B.A = 0
        with pytest.raises(DegenerateResult) as transformed:
            apply_qmt(QPMap((0, 0), ((1, 0), (1, 0)), ((1, 1), (0, 0))),
                      new_qmt([[1, 1], [-1, 1]]))
        assert str(canonical.value) == ("canonical Lotka-Volterra representative left the strict"
                                        " QP form (zero columns of A: [0, 1]; zero rows of B: [])")
        assert str(transformed.value) == ("transformed map left the strict QP form"
                                          " (zero columns of A: [1]; zero rows of B: [1])")


class TestSolverQMT:
    def test_s1_block(self):
        t = solver_qmt(1)
        assert t.C == rmatrix([[1, 1], [0, -1]])

    def test_s2_matches_four_dim_fixture_transform(self):
        t = solver_qmt(2)
        assert t.C == rmatrix([
            [1, 0, 1, 0],
            [0, 1, 0, 1],
            [0, 0, -1, 0],
            [0, 0, 0, -1],
        ])

    @pytest.mark.parametrize("s", range(1, 9))
    def test_self_inverse(self, s):
        t = solver_qmt(s)
        assert t.C == t.C_inv
        assert mat_mul(t.C, t.C) == identity(2 * s)

    def test_invalid_s(self):
        with pytest.raises(ValueError):
            solver_qmt(0)

    def test_zero_blocks_for_symplectic_maps(self):
        rng = np.random.default_rng(59)
        for _ in range(25):
            n = int(rng.choice((2, 4, 6)))
            s = n // 2
            qp = random_symplectic_map(rng, n)
            transformed = apply_qmt(qp, solver_qmt(s), strict=False)
            # last s columns of B' vanish exactly
            for row in transformed.B:
                assert all(v == 0 for v in row[s:])
            # first s rows of M' = (lam' | A') vanish exactly
            for i in range(s):
                assert transformed.lam[i] == 0
                assert all(v == 0 for v in transformed.A[i])

"""Value semantics of the immutable records: QPMap, QMT, ClosedFormSolution
and the classification reports."""

import copy
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qpmaps import (
    QMT,
    ConditionVerdict,
    DimensionMismatch,
    QPMap,
    SingularMatrix,
    new_qmt,
    solve_closed_form,
)
from qpmaps.sampling import random_qmt, random_valid_map

from helpers import dim2_map


@st.composite
def records(draw):
    """A random strict map and a random QMT of its dimension."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 6))
    return random_valid_map(rng, n, draw(st.integers(1, 6))), random_qmt(rng, n)


def as_text(m):
    return [[str(e) for e in row] for row in m]


@settings(max_examples=50, deadline=None)
@given(records())
def test_equal_data_gives_equal_records_with_equal_hashes(pair):
    qp, t = pair
    twin = QPMap(lam=[str(v) for v in qp.lam], A=as_text(qp.A), B=as_text(qp.B))
    assert twin == qp and hash(twin) == hash(qp)
    t_twin = QMT(as_text(t.C))
    assert t_twin == t and hash(t_twin) == hash(t)
    shifted = QPMap(tuple(v + 1 for v in qp.lam), qp.A, qp.B)
    assert shifted != qp


@settings(max_examples=50, deadline=None)
@given(records())
def test_a_record_is_not_equal_to_its_field_tuple(pair):
    qp, t = pair
    assert qp != (qp.lam, qp.A, qp.B) and (qp.lam, qp.A, qp.B) != qp
    assert qp.__eq__((qp.lam, qp.A, qp.B)) is NotImplemented
    assert t != (t.C, t.C_inv) and qp != t


@settings(max_examples=50, deadline=None)
@given(records())
def test_assignment_raises_attribute_error(pair):
    qp, t = pair
    lam, c = qp.lam, t.C
    with pytest.raises(AttributeError, match="cannot assign to field 'lam'"):
        qp.lam = qp.B
    with pytest.raises(AttributeError, match="cannot assign to field 'C'"):
        t.C = t.C_inv
    with pytest.raises(AttributeError):
        del qp.A
    with pytest.raises(AttributeError):
        qp.extra = 1
    assert qp.lam is lam and t.C is c and "extra" not in vars(qp)


@settings(max_examples=30, deadline=None)
@given(records(), st.booleans())
def test_copy_and_pickle_round_trip_with_float_copies(pair, warm):
    qp, t = pair
    if warm:  # the cached float copies travel with the record
        qp.A_f, t.C_inv_f
    for clone in (copy.copy(qp), pickle.loads(pickle.dumps(qp))):
        assert clone == qp and hash(clone) == hash(qp)
        assert np.array_equal(clone.lam_f, qp.lam_f) and np.array_equal(clone.A_f, qp.A_f)
        assert np.array_equal(clone.B_f, qp.B_f)
        with pytest.raises(AttributeError):
            clone.B = qp.B
    for clone in (copy.copy(t), pickle.loads(pickle.dumps(t))):
        assert clone == t
        assert np.array_equal(clone.C_f, t.C_f) and np.array_equal(clone.C_inv_f, t.C_inv_f)


@settings(max_examples=50, deadline=None)
@given(records())
def test_direct_construction_still_validates(pair):
    qp, t = pair
    with pytest.raises(DimensionMismatch):
        QPMap(qp.lam[:-1], qp.A, qp.B)
    with pytest.raises(DimensionMismatch):
        QPMap(qp.lam, qp.A, qp.B[:-1])
    with pytest.raises(DimensionMismatch, match="QMT matrix must be square"):
        QMT(t.C + t.C[:1])
    with pytest.raises(SingularMatrix):
        QMT(((0,) * t.n,) + t.C[1:])
    with pytest.raises(TypeError):
        QMT(t.C, t.C_inv)


def test_repr_reads_back():
    qp = dim2_map()
    assert repr(qp).startswith("QPMap(lam=(Fraction(1, 1), Fraction(-1, 1)), A=")
    assert eval(repr(qp), {"QPMap": QPMap, "Fraction": Fraction}) == qp
    t = new_qmt([[1, 1], [0, 2]])
    assert repr(t) == ("QMT(C=((Fraction(1, 1), Fraction(1, 1)),"
                       " (Fraction(0, 1), Fraction(2, 1))))")
    clone = eval(repr(t), {"QMT": QMT, "Fraction": Fraction})
    assert clone == t and clone.C_inv == t.C_inv


def test_closed_form_solution_keeps_identity_equality():
    sol = solve_closed_form(dim2_map(), (1, 2))
    clone = copy.copy(sol)
    assert sol == sol and clone != sol and hash(sol) != hash(clone)
    assert clone.safe_horizon == sol.safe_horizon
    assert repr(sol).startswith("ClosedFormSolution(s=1, x0=array([1., 2.]), log_k=")
    with pytest.raises(AttributeError):
        sol.s = 2


def test_condition_verdict_defaults():
    verdict = ConditionVerdict(applicable=False)
    assert (verdict.count, verdict.witnesses, verdict.holds) == (0, (), False)
    assert ConditionVerdict(True).holds
    assert not ConditionVerdict(True, 1).holds

"""A symbolic, tolerance-free oracle for the exact classifiers.

The Jacobian K of a small map is built in sympy and K^T S K - S simplified:
it must vanish identically exactly when check_conditions says symplectic,
and check_pattern must give the same verdict. On the negative side a
residual entry at a rational point, evaluated to 50 digits, shows that the
residual is not zero (simplify alone cannot always prove that).
"""

from fractions import Fraction

import numpy as np
import pytest

from qpmaps import QPMap, check_conditions, check_pattern
from qpmaps.sampling import random_symplectic_map, random_valid_map

from helpers import dim2_map

sympy = pytest.importorskip("sympy")


def exact(v: Fraction):
    return sympy.Rational(v.numerator, v.denominator)


def symbolic_residual(qp: QPMap):
    """The variables and K^T S K - S for the map x_i -> x_i * exp(phi_i(x))."""
    xs = sympy.symbols(f"x1:{qp.n + 1}", positive=True)
    q = [sympy.Mul(*(x ** exact(e) for x, e in zip(xs, row))) for row in qp.B]
    image = [x * sympy.exp(exact(lam) + sum(exact(a) * qp_ for a, qp_ in zip(row, q)))
             for x, lam, row in zip(xs, qp.lam, qp.A)]
    K = sympy.Matrix(image).jacobian(xs)
    s = qp.n // 2
    zero, one = sympy.zeros(s), sympy.eye(s)
    S = sympy.Matrix(sympy.BlockMatrix([[zero, -one], [one, zero]]))
    return xs, K.T * S * K - S


def perturbed(qp: QPMap, target: str) -> QPMap:
    """qp with one entry of lam, A or B changed so that a condition breaks."""
    lam, a, b = list(qp.lam), [list(r) for r in qp.A], [list(r) for r in qp.B]
    if target == "lam":
        lam[0] += 1
    elif target == "A":
        i = next(i for i in range(qp.n) if a[i][0])
        a[i][0] += 1 if a[i][0] != -1 else 2  # stays nonzero, so the map stays strict
    else:
        j = next(j for j in range(qp.n) if b[0][j])
        b[0][j] += 1 if b[0][j] != -1 else 2
    return QPMap(lam, a, b)


def _maps():
    rng = np.random.default_rng(2024)
    four = random_symplectic_map(rng, 4, 2, integer_entries=True)
    return {
        "dim2": dim2_map(),
        "symplectic-n2-m2": random_symplectic_map(rng, 2, 2, integer_entries=True),
        "symplectic-n4-m2": four,
        "generic-n2-m1": random_valid_map(rng, 2, 1),
        "generic-n4-m1": random_valid_map(rng, 4, 1),
        "perturbed-lam": perturbed(four, "lam"),
        "perturbed-A": perturbed(four, "A"),
        "perturbed-B": perturbed(four, "B"),
    }


MAPS = _maps()


@pytest.mark.parametrize("name", MAPS)
def test_symbolic_residual_vanishes_exactly_when_symplectic(name):
    qp = MAPS[name]
    verdict = check_conditions(qp).is_symplectic
    assert check_pattern(qp).is_symplectic == verdict
    xs, residual = symbolic_residual(qp)
    if verdict:
        assert sympy.simplify(residual).is_zero_matrix is True
    else:
        point = {x: sympy.Rational(k + 2, 3) for k, x in enumerate(xs)}
        values = [abs(entry.subs(point).evalf(50)) for entry in residual]
        assert max(values) > sympy.Float("1e-20")

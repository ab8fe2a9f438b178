"""Random maps, transformations and states for tests and experiments.

The symplectic generator fills the exact zero pattern (one variable pair
per quasimonomial row) with nonzero rationals and then divides A and lam by
the least power of two under which two float-safety bounds hold, so that
residual and trajectory checks run far from double-precision cliffs.
Entries always stay within [-3, 3].
"""

from fractions import Fraction

import numpy as np

from .core import QPMap, new_qp_map
from .errors import SingularMatrix
from .transform import QMT, new_qmt

_NUMERATORS = (1, 2, 3)
_DENOMINATORS = (1, 2)
#: The interval (lo, hi) each component of a random state is drawn from.
STATE_BOX = (0.5, 2.0)

#: Bound on max_i |lam_i| + sum_p |A_ip| * qbar_p (qbar_p = largest
#: quasimonomial value over [0.5, 2]^n); keeps exp() arguments small during
#: 30-step trajectory checks.
DEFAULT_PHI_BOUND = 8.0
#: Bound on 4 * max_ij sum_p |A_ip| qbar_p |B_pj|, the worst |x_i dphi_i/dx_j|
#: over [0.5, 2]^n; keeps Jacobian residual cancellation benign.
DEFAULT_DERIVATIVE_BOUND = 100.0


#: The one Fraction of each integer in [-2, 2], the range of every integer draw,
#: so the maps and QMTs drawn hold one object per value and the exact layer walks few.
_SMALL_INTEGERS = {v: Fraction(v) for v in range(-2, 3)}


def random_rational(rng, allow_zero=False) -> Fraction:
    if allow_zero and rng.random() < 0.25:
        return Fraction(0)
    sign = -1 if rng.random() < 0.5 else 1
    return Fraction(sign * int(rng.choice(_NUMERATORS)), int(rng.choice(_DENOMINATORS)))


def random_state(rng, n: int | tuple[int, int]) -> np.ndarray:
    """A state sampled log-uniformly in [lo, hi]^n, (lo, hi) = STATE_BOX; n = (k, n)
    gives a stack of k states, the same numbers as k single draws in turn."""
    return np.exp(rng.uniform(np.log(STATE_BOX[0]), np.log(STATE_BOX[1]), size=n))


def _qbar(b_value: Fraction) -> float:
    # largest value of I**b for I in [1/4, 4]
    return 4.0 ** abs(float(b_value))


def random_symplectic_map(rng, n: int, m: int | None = None,
                          integer_entries: bool = False,
                          phi_bound: float = DEFAULT_PHI_BOUND) -> QPMap:
    """A random symplectic map of even dimension n.

    With integer_entries=True all entries are drawn from {-2, -1, 1, 2}
    (lam also 0) and the float-safety scaling is skipped, which suits
    classification-only workloads. Otherwise entries are small rationals
    and A, lam are divided by the least 2**k under which phi_bound, a number
    > 0, and DEFAULT_DERIVATIVE_BOUND hold.

    Column p of A and row p of B live on pair (i, s+i), i = pair[p], so each
    dense bound is a maximum of per-pair sums taken in ascending p as
    (|a_p| * qbar_p) * |b_p|; the rest of a dense sum adds exact +0.0 terms.
    Halving A and lam halves every term, sum and maximum exactly in floats
    (away from subnormals), so k counts halvings of the two bounds, and one
    exact division by 2**k equals k halvings of every entry.
    """
    if n % 2:
        raise ValueError("n must be even")
    if phi_bound is None or not phi_bound > 0:
        raise ValueError(f"phi_bound must be a number > 0, got {phi_bound!r}")
    s = n // 2
    if m is None:
        m = int(rng.integers(1, 7))

    if integer_entries:
        draw = lambda: _SMALL_INTEGERS[int(rng.choice((-2, -1, 1, 2)))]
        draw_lam = lambda: _SMALL_INTEGERS[int(rng.integers(-2, 3))]
        negate = lambda v: _SMALL_INTEGERS[-v.numerator]
        zero = _SMALL_INTEGERS[0]
    else:
        draw = lambda: random_rational(rng)
        draw_lam = lambda: random_rational(rng, allow_zero=True)
        negate = lambda v: -v
        zero = Fraction(0)

    pair = [int(rng.integers(0, s)) for _ in range(m)]
    b_values = [draw() for _ in range(m)]
    a_values = [draw() for _ in range(m)]
    lam_half = [draw_lam() for _ in range(s)]

    if not integer_entries:
        phi_terms, derivative_terms = [[] for _ in range(s)], [[] for _ in range(s)]
        for i, a, b in zip(pair, a_values, b_values):
            term = abs(float(a)) * _qbar(b)
            phi_terms[i].append(term)
            derivative_terms[i].append(term * abs(float(b)))
        phi = max(abs(float(v)) + sum(terms) for v, terms in zip(lam_half, phi_terms))
        derivative = 4.0 * max(map(sum, derivative_terms))
        k = 0
        while phi > phi_bound or derivative > DEFAULT_DERIVATIVE_BOUND:
            phi, derivative, k = phi / 2, derivative / 2, k + 1
        a_values = [v / 2**k for v in a_values]
        lam_half = [v / 2**k for v in lam_half]

    b_rows = [
        tuple(b_values[p] if j in (pair[p], s + pair[p]) else zero for j in range(n))
        for p in range(m)
    ]
    a_rows = [
        tuple(
            a_values[p] if i == pair[p] else (negate(a_values[p]) if i == s + pair[p] else zero)
            for p in range(m)
        )
        for i in range(n)
    ]
    lam = list(lam_half) + [negate(v) for v in lam_half]
    return new_qp_map(lam, a_rows, b_rows)


def random_valid_map(rng, n: int, m: int) -> QPMap:
    """A random strict map with integer entries in [-2, 2]."""
    def nonzero_vector(size):
        while True:
            v = rng.integers(-2, 3, size=size).tolist()
            if any(v):
                return [_SMALL_INTEGERS[e] for e in v]

    lam = [_SMALL_INTEGERS[e] for e in rng.integers(-2, 3, size=n).tolist()]
    a_cols = [nonzero_vector(n) for _ in range(m)]
    a_rows = [tuple(a_cols[p][i] for p in range(m)) for i in range(n)]
    b_rows = [tuple(nonzero_vector(n)) for _ in range(m)]
    return new_qp_map(lam, a_rows, b_rows)


def random_qmt(rng, n: int) -> QMT:
    """A random invertible QMT with integer entries in [-2, 2] (rejection sampling
    on singularity)."""
    while True:
        c = rng.integers(-2, 3, size=(n, n)).tolist()
        try:
            return new_qmt([tuple(_SMALL_INTEGERS[e] for e in row) for row in c])
        except SingularMatrix:
            continue

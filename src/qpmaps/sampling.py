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
from .errors import SingularMatrix, ZeroColumnOfA, ZeroRowOfB
from .transform import QMT, new_qmt

_NUMERATORS = (1, 2, 3)
_DENOMINATORS = (1, 2)

#: Bound on max_i |lam_i| + sum_p |A_ip| * qbar_p (qbar_p = largest
#: quasimonomial value over [0.5, 2]^n); keeps exp() arguments small during
#: 30-step trajectory checks.
DEFAULT_PHI_BOUND = 8.0
#: Bound on 4 * max_ij sum_p |A_ip| qbar_p |B_pj|, the worst |x_i dphi_i/dx_j|
#: over [0.5, 2]^n; keeps Jacobian residual cancellation benign.
DEFAULT_DERIVATIVE_BOUND = 100.0


class _SharedFractions(dict):
    """Int -> Fraction for one call's integer draws: each value drawn gets one
    Fraction, made at its first draw, so the exact layer walks few objects.
    Only drawn values get an entry; a draw range may be huge."""

    def __missing__(self, value: int) -> Fraction:
        f = self[value] = Fraction(value)
        return f


def random_rational(rng, numerators=_NUMERATORS, denominators=_DENOMINATORS,
                    allow_zero=False) -> Fraction:
    if allow_zero and rng.random() < 0.25:
        return Fraction(0)
    sign = -1 if rng.random() < 0.5 else 1
    return Fraction(sign * int(rng.choice(numerators)), int(rng.choice(denominators)))


def random_state(rng, n: int | tuple[int, int], lo: float = 0.5, hi: float = 2.0) -> np.ndarray:
    """A state sampled log-uniformly in [lo, hi]^n; n = (k, n) gives a stack
    of k states, the same numbers as k single draws in turn."""
    return np.exp(rng.uniform(np.log(lo), np.log(hi), size=n))


def _qbar(b_value: Fraction) -> float:
    # largest value of I**b for I in [1/4, 4]
    return 4.0 ** abs(float(b_value))


def random_symplectic_map(rng, n: int, m: int | None = None,
                          integer_entries: bool = False,
                          phi_bound: float | None = DEFAULT_PHI_BOUND,
                          derivative_bound: float | None = DEFAULT_DERIVATIVE_BOUND,
                          ) -> QPMap:
    """A random symplectic map of even dimension n.

    With integer_entries=True all entries are drawn from {-2, -1, 1, 2}
    (lam also 0) and the float-safety scaling is skipped, which suits
    classification-only workloads. Otherwise entries are small rationals
    and A, lam are divided by the least 2**k under which the documented
    bounds hold; a bound is None (not enforced) or a number > 0.

    Column p of A and row p of B live on pair (i, s+i), i = pair[p], so each
    dense bound is a maximum of per-pair sums taken in ascending p as
    (|a_p| * qbar_p) * |b_p|; the rest of a dense sum adds exact +0.0 terms.
    Halving A and lam halves every term, sum and maximum exactly in floats
    (away from subnormals), so k counts halvings of the two bounds, and one
    exact division by 2**k equals k halvings of every entry.
    """
    if n % 2:
        raise ValueError("n must be even")
    for name, bound in (("phi_bound", phi_bound), ("derivative_bound", derivative_bound)):
        if bound is not None and not bound > 0:
            raise ValueError(f"{name} must be None or a number > 0, got {bound!r}")
    s = n // 2
    if m is None:
        m = int(rng.integers(1, 7))

    if integer_entries:
        shared = _SharedFractions()
        draw = lambda: shared[int(rng.choice((-2, -1, 1, 2)))]
        draw_lam = lambda: shared[int(rng.integers(-2, 3))]
        negate = lambda v: shared[-v.numerator]
        zero = shared[0]
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
        while ((phi_bound is not None and phi > phi_bound)
               or (derivative_bound is not None and derivative > derivative_bound)):
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


def random_valid_map(rng, n: int, m: int, lo: int = -2, hi: int = 2) -> QPMap:
    """A random strict map with integer entries in [lo, hi]."""
    shared = _SharedFractions()

    def nonzero_vector(size):
        while True:
            v = rng.integers(lo, hi + 1, size=size).tolist()
            if any(v):
                return [shared[e] for e in v]

    lam = [shared[e] for e in rng.integers(lo, hi + 1, size=n).tolist()]
    a_cols = [nonzero_vector(n) for _ in range(m)]
    a_rows = [tuple(a_cols[p][i] for p in range(m)) for i in range(n)]
    b_rows = [tuple(nonzero_vector(n)) for _ in range(m)]
    return new_qp_map(lam, a_rows, b_rows)


def random_classification_map(rng, dims=(2, 4, 6), max_m: int = 6) -> QPMap:
    """A random valid map for classifier cross-checks: a mix of generic maps,
    exactly patterned symplectic maps and minimally perturbed ones, all with
    entries in {-2, ..., 2}."""
    n = int(rng.choice(dims))
    m = int(rng.integers(1, max_m + 1))
    u = rng.random()
    if u < 0.5:
        return random_valid_map(rng, n, m)
    qp = random_symplectic_map(rng, n, m, integer_entries=True)
    if u < 0.8:
        return qp
    # perturb one entry; retry if the result leaves the strict form. A drawn
    # value reuses the map's Fraction for it, so entries stay shared.
    shared = _SharedFractions({int(v): v for row in (qp.lam, *qp.A, *qp.B) for v in row})
    for _ in range(100):
        lam = list(qp.lam)
        a = [list(row) for row in qp.A]
        b = [list(row) for row in qp.B]
        target = int(rng.integers(0, 3))
        value = shared[int(rng.integers(-2, 3))]
        if target == 0:
            a[int(rng.integers(0, n))][int(rng.integers(0, m))] = value
        elif target == 1:
            b[int(rng.integers(0, m))][int(rng.integers(0, n))] = value
        else:
            lam[int(rng.integers(0, n))] = value
        try:
            return new_qp_map(lam, a, b)
        except (ZeroColumnOfA, ZeroRowOfB):
            continue
    return qp


def random_qmt(rng, n: int, lo: int = -2, hi: int = 2) -> QMT:
    """A random invertible integer QMT (rejection sampling on singularity)."""
    shared = _SharedFractions()
    while True:
        c = rng.integers(lo, hi + 1, size=(n, n)).tolist()
        try:
            return new_qmt([tuple(shared[e] for e in row) for row in c])
        except SingularMatrix:
            continue

"""Exact symplecticity classification of QP maps, with numeric cross-checks.

A map on R^n, n = 2s, is symplectic when its Jacobian K satisfies
K^T S K = S at every point of the positive orthant, with S the standard
skew block matrix [[0, -I], [I, 0]]. For QP maps this holds exactly when
four algebraic conditions on (lam, A, B) are met; they are evaluated here
over the rationals, so verdicts carry no tolerance. Two independent
classifiers cross-check each other: :func:`check_conditions` evaluates the
condition equations and explains its verdict with exact violation counts
and witnesses; :func:`check_pattern` tests the equivalent zero pattern of A
and B and returns only the verdict and the pairing. Both are exact and
import no numpy; the float residual max |K^T S K - S| of
:func:`jacobian_residual` loads it, and :mod:`qpmaps.core`, on its first
call (:func:`qpmaps.maps.float_layer`).
The conserved pair products x_i * x_{s+i} are
``solve_closed_form(qp, x0).invariants_I``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import islice
from typing import TYPE_CHECKING, NamedTuple

from .errors import OddDimension
from .linalg import format_rational as _fmt, pivot_columns, rank
from .maps import QPMap, float_layer

if TYPE_CHECKING:
    import numpy as np

#: Verdicts are exact; this tolerance only applies to the float residual oracles.
RESIDUAL_TOLERANCE = 1e-9
#: Witnesses kept per condition; ConditionVerdict.count is the exact total.
WITNESS_LIMIT = 5


class Witness(NamedTuple):
    """One concrete violation of a classification condition.

    ``where`` holds 1-based index assignments such as (("i", 1), ("p", 2));
    ``value`` is the exact quantity that should have vanished; ``detail`` is
    a human-readable rendering used by the CLI.
    """

    where: tuple[tuple[str, int], ...]
    value: Fraction
    detail: str

    def location(self) -> str:
        return ", ".join(f"{name}={index}" for name, index in self.where)


class ConditionVerdict(NamedTuple):
    """One condition's outcome: ``count`` violations in all, of which
    ``witnesses`` holds the first WITNESS_LIMIT in enumeration order."""

    applicable: bool
    count: int = 0
    witnesses: tuple[Witness, ...] = ()

    @property
    def holds(self) -> bool:
        return self.applicable and self.count == 0


_NOT_APPLICABLE = ConditionVerdict(applicable=False)


class SymplecticReport(NamedTuple):
    """Outcome of a symplecticity check.

    ``pairing`` (present when symplectic) assigns each quasimonomial row p
    its 1-based variable-pair index i_p: row p of B and column p of A are
    supported exactly on the pair (i_p, s+i_p).
    """

    is_symplectic: bool
    s: int | None
    cond_a: ConditionVerdict
    cond_b: ConditionVerdict
    cond_c: ConditionVerdict
    cond_d: ConditionVerdict
    pairing: tuple[int | None, ...] | None
    reason: str | None = None

    def conditions(self) -> tuple[tuple[str, ConditionVerdict], ...]:
        return (("a", self.cond_a), ("b", self.cond_b), ("c", self.cond_c), ("d", self.cond_d))


class RankReport(NamedTuple):
    """Exact ranks of B, A and the augmented matrix M = (lam | A).

    ``bound_satisfied`` evaluates rank(B) <= s and rank(M) <= s, a necessary
    condition for symplecticity; it is None when n is odd (no s exists).
    """

    rank_B: int
    rank_A: int
    rank_M: int
    bound_satisfied: bool | None


def check_conditions(qp: QPMap) -> SymplecticReport:
    """Exact classification by the four condition equations.

    With s = n/2 the map is symplectic iff
      (a) A[i][j] + A[s+i][j] = 0           for all i <= s and all j,
      (b) lam[i] + lam[s+i] = 0             for all i <= s,
      (c) A[i][p]*B[p][j] = 0 and
          A[i][p]*B[p][s+j] = 0             for all i != j <= s and all p,
      (d) A[i][p]*(B[p][i] - B[p][s+i]) = 0 for all i <= s and all p.
    Odd n is a definite "not symplectic" verdict, not an error.

    Each verdict carries the exact number of violations and the first
    WITNESS_LIMIT witnesses, enumerated by i, then j, then p. A product of
    nonzero rationals is nonzero, so (c) and (d) are decided on the
    supports of A's rows: (c) counts, for each nonzero A[i][p], the nonzero
    entries of row p of B outside the columns i and s+i.
    """
    n, m = qp.n, qp.m
    if n % 2:
        return SymplecticReport(
            is_symplectic=False,
            s=None,
            cond_a=_NOT_APPLICABLE,
            cond_b=_NOT_APPLICABLE,
            cond_c=_NOT_APPLICABLE,
            cond_d=_NOT_APPLICABLE,
            pairing=None,
            reason=f"odd dimension n={n}: an even number of variables is required",
        )
    s = n // 2
    lam, a, b = qp.lam, qp.A, qp.B
    support = [[p for p in range(m) if a[i][p]] for i in range(s)]

    sums = [(i, j) for i in range(s) for j, (x, y) in enumerate(zip(a[i], a[s + i]))
            if x.numerator != -y.numerator or x.denominator != y.denominator]
    cond_a = ConditionVerdict(True, len(sums), tuple(
        Witness((("i", i + 1), ("j", j + 1)), v,
                f"A[{i + 1},{j + 1}] + A[{s + i + 1},{j + 1}]"
                f" = {_fmt(a[i][j])} + {_fmt(a[s + i][j])} = {_fmt(v)}")
        for i, j in sums[:WITNESS_LIMIT] for v in (a[i][j] + a[s + i][j],)))

    lam_sums = [i for i, (x, y) in enumerate(zip(lam[:s], lam[s:]))
                if x.numerator != -y.numerator or x.denominator != y.denominator]
    cond_b = ConditionVerdict(True, len(lam_sums), tuple(
        Witness((("i", i + 1),), v,
                f"lambda[{i + 1}] + lambda[{s + i + 1}]"
                f" = {_fmt(lam[i])} + {_fmt(lam[s + i])} = {_fmt(v)}")
        for i in lam_sums[:WITNESS_LIMIT] for v in (lam[i] + lam[s + i],)))

    nonzero_b = [sum(map(bool, row)) for row in b]
    count_c = sum(nonzero_b[p] - bool(b[p][i]) - bool(b[p][s + i])
                  for i in range(s) for p in support[i])

    def cross_products():
        for i in range(s):
            for j in range(s):
                if i == j:
                    continue
                for p in support[i]:
                    for col in (j, s + j):
                        if b[p][col]:
                            v = a[i][p] * b[p][col]
                            yield Witness(
                                (("i", i + 1), ("j", j + 1), ("p", p + 1)), v,
                                f"A[{i + 1},{p + 1}]*B[{p + 1},{col + 1}]"
                                f" = {_fmt(a[i][p])}*{_fmt(b[p][col])} = {_fmt(v)}",
                            )

    cond_c = ConditionVerdict(True, count_c,
                              tuple(islice(cross_products(), min(count_c, WITNESS_LIMIT))))

    unequal = [(i, p) for i in range(s) for p in support[i] if b[p][i] != b[p][s + i]]

    cond_d = ConditionVerdict(True, len(unequal), tuple(
        Witness((("i", i + 1), ("p", p + 1)), v,
                f"A[{i + 1},{p + 1}]*(B[{p + 1},{i + 1}] - B[{p + 1},{s + i + 1}])"
                f" = {_fmt(a[i][p])}*({_fmt(b[p][i])} - {_fmt(b[p][s + i])}) = {_fmt(v)}")
        for i, p in unequal[:WITNESS_LIMIT]
        for v in (a[i][p] * (b[p][i] - b[p][s + i]),)))

    ok = not (cond_a.count or cond_b.count or cond_c.count or cond_d.count)
    pairing = None
    if ok:
        assignments: list[int | None] = []
        for p in range(m):
            carriers = [i for i in range(s) if a[i][p] or a[s + i][p]]
            # Under the conditions, a strict map concentrates each A column on
            # one pair; relaxed maps may carry inert (all-zero) columns.
            assignments.append(carriers[0] + 1 if len(carriers) == 1 else None)
        pairing = tuple(assignments)
    return SymplecticReport(
        is_symplectic=ok,
        s=s,
        cond_a=cond_a,
        cond_b=cond_b,
        cond_c=cond_c,
        cond_d=cond_d,
        pairing=pairing,
    )


class PatternVerdict(NamedTuple):
    """Outcome of :func:`check_pattern`: the verdict, and when symplectic the
    1-based pair index i_p of every quasimonomial row p (else None)."""

    is_symplectic: bool
    pairing: tuple[int, ...] | None


_NO_PATTERN = PatternVerdict(False, None)


def check_pattern(qp: QPMap) -> PatternVerdict:
    """Independent classification by the zero-pattern characterization.

    The map is symplectic iff every lam pair sums to zero and, for every
    quasimonomial row p, there is a pair index i_p such that row p of B is
    zero except for two equal entries at columns (i_p, s+i_p), and column p
    of A is zero except for two entries at rows (i_p, s+i_p) that sum to
    zero. The rows are scanned in order and the scan stops at the first one
    that breaks the pattern; :func:`check_conditions` explains a verdict.

    Raises OddDimension for odd n, where no pairing construction exists.
    """
    n = qp.n
    if n % 2:
        raise OddDimension(f"pattern check requires even dimension, got n={n}")
    s = n // 2
    lam, a = qp.lam, qp.A
    if any(lam[i] + lam[s + i] for i in range(s)):
        return _NO_PATTERN
    pairing = []
    for p, row in enumerate(qp.B):
        support = [j for j, v in enumerate(row) if v]
        if len(support) != 2 or support[1] - support[0] != s:
            return _NO_PATTERN
        i = support[0]
        if (row[i] != row[s + i] or a[i][p] + a[s + i][p]
                or [k for k in range(n) if a[k][p]] != support):
            return _NO_PATTERN
        pairing.append(i + 1)
    return PatternVerdict(True, tuple(pairing))


@cache
def skew_matrix(s: int) -> np.ndarray:
    """The standard skew block matrix [[0, -I], [I, 0]] of size 2s.

    Built once per s and kept for the life of the process; every call with
    that s returns the same read-only array, so writing to it raises
    ValueError. Copy it to get one to change.
    """
    import numpy as np

    z = np.zeros((s, s))
    i = np.eye(s)
    S = np.block([[z, -i], [i, z]])
    S.flags.writeable = False
    return S


def symplectic_residual(qp: QPMap, x) -> float:
    """Max-abs entry of K^T S K - S for the Jacobian K at x (0 iff symplectic
    at x); for a stack of states, the max over its rows."""
    if qp.n % 2:
        raise OddDimension(f"symplectic residual requires even dimension, got n={qp.n}")
    np, core = float_layer()
    # one np.errstate for both the Jacobian and its residual
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        return _jacobian_residual(core._jacobian(qp, x))


def jacobian_residual(L: np.ndarray) -> float:
    """Max-abs entry of K^T S K - S over a Jacobian K or a stack of them.

    inf when a Jacobian or the residual is not finite (NaN included), so
    max() over residuals cannot drop it and read as a pass. An empty stack,
    shape (0, n, n), has residual 0.0: no state breaks the condition.
    """
    np, _ = float_layer()
    with np.errstate(over="ignore", invalid="ignore"):
        return _jacobian_residual(L)


def _jacobian_residual(L: np.ndarray) -> float:
    """:func:`jacobian_residual` without an np.errstate of its own. The
    maximum reduces as ndarray.max would, without its Python wrapper."""
    np, _ = float_layer()
    S = skew_matrix(L.shape[-1] // 2)
    r = float(np.maximum.reduce(np.abs(L.swapaxes(-1, -2) @ S @ L - S), axis=None,
                                initial=0.0))
    return r if r < np.inf else np.inf


def rank_bounds(qp: QPMap) -> RankReport:
    """Exact ranks of B, A, M=(lam|A) and the rank <= s necessary condition.

    One elimination of (A | lam), lam last, gives both rank(A) (the pivots
    among A's m columns) and rank(M) (all pivots): column order does not
    change a rank.
    """
    rank_b = rank(qp.B)
    pivots = pivot_columns(tuple(row + (v,) for row, v in zip(qp.A, qp.lam)))
    rank_a = sum(c < qp.m for c in pivots)
    rank_m = len(pivots)
    if qp.n % 2 == 0:
        s = qp.n // 2
        bound = rank_b <= s and rank_m <= s
    else:
        bound = None
    return RankReport(rank_B=rank_b, rank_A=rank_a, rank_M=rank_m, bound_satisfied=bound)

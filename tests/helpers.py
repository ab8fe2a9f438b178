"""Fixture maps and brute-force oracles shared across the test suite."""

import json
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np

from qpmaps import (QMT, QPMap, eval_solution, jacobian, new_qmt, new_qp_map, phi, pull_state,
                    skew_matrix, solver_qmt, step)
from qpmaps.core import as_state, first_nonpositive_row
from qpmaps.documents import _matrix_entries, map_to_document, parse_rational, trajectory_csv_lines
from qpmaps.symplectic import (WITNESS_LIMIT, ConditionVerdict, RankReport, SymplecticReport,
                               Witness, check_conditions)
from qpmaps.errors import (DocumentError, NumericOverflow, OddDimension, QPError, SingularMatrix,
                           ZeroColumnOfA, ZeroRowOfB)
from qpmaps.linalg import _echelon, identity, mat_mul
from qpmaps.sampling import (_SMALL_INTEGERS, _qbar, random_rational, random_state,
                             random_symplectic_map, random_valid_map)


SRC = Path(__file__).resolve().parents[1] / "src"

# ru_maxrss carries over from the process that starts a program (a test
# runner of 60 MB makes every child read at least 60 MB), so programs whose
# peak RSS is read are started from a bare `python -S` of ~11 MB instead.
_LAUNCHER = "import subprocess, sys; sys.exit(subprocess.run(sys.argv[1:]).returncode)"


def run_python_afresh(*argv: str) -> subprocess.CompletedProcess:
    """`python ARGV...` with src on PYTHONPATH and its output captured, started
    from a bare interpreter so that its ru_maxrss is its own peak."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-S", "-c", _LAUNCHER, sys.executable, *argv],
                          env=env, capture_output=True, text=True, timeout=120)


def dim2_map() -> QPMap:
    """The two-variable symplectic fixture: lam=(1,-1), A=[[2],[-2]], B=[[1,1]]."""
    return new_qp_map((1, -1), ((2,), (-2,)), ((1, 1),))


def dim2_variant() -> QPMap:
    """Non-symplectic twin of dim2_map (unequal exponent pair B=[[1,2]])."""
    return new_qp_map((1, -1), ((2,), (-2,)), ((1, 2),))


def dim4_map(lam1=1, lam2=2) -> QPMap:
    """The four-variable, five-quasimonomial patterned fixture.

    Rows 1-3 of B couple the pair (2, 4), rows 4-5 the pair (1, 3); all
    named entries are 1. lam = (lam1, lam2, -lam1, -lam2).
    """
    l1, l2 = Fraction(lam1), Fraction(lam2)
    lam = (l1, l2, -l1, -l2)
    a = (
        (0, 0, 0, 1, 1),
        (1, 1, 1, 0, 0),
        (0, 0, 0, -1, -1),
        (-1, -1, -1, 0, 0),
    )
    b = (
        (0, 1, 0, 1),
        (0, 1, 0, 1),
        (0, 1, 0, 1),
        (1, 0, 1, 0),
        (1, 0, 1, 0),
    )
    return new_qp_map(lam, a, b)


def trivial_lv_map(n: int) -> QPMap:
    """The identity map in Lotka-Volterra form (lam=0, A=0, B=I).

    A zero A is outside the strict form, so this is a relaxed map.
    """
    zero = Fraction(0)
    lam = (zero,) * n
    a = ((zero,) * n,) * n
    b = tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))
    return QPMap(lam, a, b)


def quasimonomial_oracle(b_rows, x) -> np.ndarray:
    """Direct product prod_k x_k**B[j][k] (no exp/log path)."""
    x = np.asarray(x, dtype=float)
    out = []
    for row in b_rows:
        value = 1.0
        for xk, e in zip(x, row):
            value *= xk ** float(e)
        out.append(value)
    return np.array(out)


def solver_qmt_log_multipliers(qp: QPMap, x0) -> np.ndarray:
    """log k_i by the constructive route: pass to the solver variables
    y = pull_state(C, x0), where the first s coordinates are the conserved
    pair products, and evaluate the transformed map's increments there,

        log_k_i = lam_i + sum_j A[i][j] * prod_{q<=s} y_q**B'[j][q],  B' = B.C
    """
    s = qp.n // 2
    t = solver_qmt(s)
    y0 = pull_state(t, x0)
    b_prime = np.array([[float(e) for e in row[:s]] for row in mat_mul(qp.B, t.C)])
    q0 = np.exp(b_prime @ np.log(y0[:s]))
    return qp.lam_f[:s] + qp.A_f[:s, :] @ q0


def dense_phi_bound(lam, a, b_values) -> float:
    """max_i |lam_i| + sum_p |A_ip| * qbar_p over every row and entry of A."""
    qbar = [_qbar(v) for v in b_values]
    worst = 0.0
    for i, row in enumerate(a):
        total = abs(float(lam[i])) + sum(abs(float(e)) * qb for e, qb in zip(row, qbar))
        worst = max(worst, total)
    return worst


def dense_derivative_bound(a, b_rows, b_values) -> float:
    """4 * max_ij sum_p |A_ip| qbar_p |B_pj| over every (i, j) and every p."""
    qbar = [_qbar(v) for v in b_values]
    worst = 0.0
    n = len(a)
    for i in range(n):
        for j in range(n):
            total = sum(
                abs(float(a[i][p])) * qbar[p] * abs(float(b_rows[p][j]))
                for p in range(len(b_rows))
            )
            worst = max(worst, 4.0 * total)
    return worst


def symplectic_scaling_oracle(qp: QPMap, phi_bound, derivative_bound) -> QPMap:
    """random_symplectic_map's float-safety scaling by the dense route: halve
    every entry of A and lam, and evaluate both dense bounds again over every
    entry, until both hold. qp is the unscaled map of the same draws
    (symplectic_map_oracle); b_values[p] is the nonzero entry of row p of B."""
    lam, a_rows, b_rows = list(qp.lam), list(qp.A), list(qp.B)
    b_values = [max(row, key=abs) for row in b_rows]
    while (dense_phi_bound(lam, a_rows, b_values) > phi_bound
           or dense_derivative_bound(a_rows, b_rows, b_values) > derivative_bound):
        lam = [v / 2 for v in lam]
        a_rows = [tuple(e / 2 for e in row) for row in a_rows]
    return new_qp_map(lam, a_rows, b_rows)


def random_valid_map_oracle(rng, n: int, m: int, lo: int = -2, hi: int = 2) -> QPMap:
    """sampling.random_valid_map making a new Fraction for every entry."""
    def nonzero_vector(size):
        while True:
            v = rng.integers(lo, hi + 1, size=size)
            if np.any(v != 0):
                return [Fraction(int(e)) for e in v]

    lam = [Fraction(int(e)) for e in rng.integers(lo, hi + 1, size=n)]
    a_cols = [nonzero_vector(n) for _ in range(m)]
    a_rows = [tuple(a_cols[p][i] for p in range(m)) for i in range(n)]
    b_rows = [tuple(nonzero_vector(n)) for _ in range(m)]
    return new_qp_map(lam, a_rows, b_rows)


def symplectic_map_oracle(rng, n: int, m: int, integer_entries: bool) -> QPMap:
    """sampling.random_symplectic_map(rng, n, m, integer_entries) before its
    float-safety scaling: the same draws, making a new Fraction for every draw."""
    if integer_entries:
        draw = lambda: Fraction(int(rng.choice((-2, -1, 1, 2))))
        draw_lam = lambda: Fraction(int(rng.integers(-2, 3)))
    else:
        draw = lambda: random_rational(rng)
        draw_lam = lambda: random_rational(rng, allow_zero=True)
    s = n // 2
    pair = [int(rng.integers(0, s)) for _ in range(m)]
    b_values = [draw() for _ in range(m)]
    a_values = [draw() for _ in range(m)]
    lam_half = [draw_lam() for _ in range(s)]
    zero = Fraction(0)
    b_rows = [
        tuple(b_values[p] if j in (pair[p], s + pair[p]) else zero for j in range(n))
        for p in range(m)
    ]
    a_rows = [
        tuple(
            a_values[p] if i == pair[p] else (-a_values[p] if i == s + pair[p] else zero)
            for p in range(m)
        )
        for i in range(n)
    ]
    return new_qp_map(lam_half + [-v for v in lam_half], a_rows, b_rows)


def random_qmt_oracle(rng, n: int, lo: int = -2, hi: int = 2) -> QMT:
    """sampling.random_qmt making a new Fraction for every entry."""
    while True:
        c = rng.integers(lo, hi + 1, size=(n, n))
        try:
            return new_qmt([[int(e) for e in row] for row in c])
        except SingularMatrix:
            continue


def mat_mul_oracle(x, y):
    """Rational matrix product by the Fraction triple loop."""
    cols = range(len(y[0]))
    return tuple(
        tuple(sum(row[k] * y[k][j] for k in range(len(y))) for j in cols) for row in x
    )


def float_copy_oracle(m, name: str):
    """The bytes of the float copy of the rational matrix ``name``, float(e) of
    each entry, or the NumericOverflow message naming its first entry, row by
    row, that has no double value."""
    floats = []
    for i, row in enumerate(m):
        for j, e in enumerate(row):
            try:
                floats.append(float(e))
            except OverflowError:
                return f"{name}[{i}][{j}] is outside the double range"
    return np.array(floats, dtype=float).tobytes()


def rank_oracle(m) -> int:
    """Exact rank by Gaussian elimination over Fractions."""
    rows = [list(r) for r in m]
    n_rows, n_cols = len(rows), len(rows[0])
    r = 0
    for c in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [e * inv for e in rows[r]]
        for i in range(r + 1, n_rows):
            f = rows[i][c]
            if f:
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
        if r == n_rows:
            break
    return r


def echelon_oracle(rows):
    """linalg._echelon as the dense forward Bareiss pass: at every pivot p, every
    remaining row becomes (p*a - f*b) // prev, f its entry in the pivot column and
    prev the last pivot, whether f is zero or not. Returns the pivot columns, each
    pivot row from its pivot column on, and the last pivot."""
    rows = [list(row) for row in rows]
    pivots, tops, prev = [], [], 1
    for c in range(len(rows[0])):
        pivot = next((i for i, row in enumerate(rows) if row[0]), None)
        if pivot is None:
            rows = [row[1:] for row in rows]
            continue
        top = rows.pop(pivot)
        p, tail = top[0], top[1:]
        rows = [[(p * a - row[0] * b) // prev for a, b in zip(row[1:], tail)] for row in rows]
        prev = p
        pivots.append(c)
        tops.append(top)
        if not rows:
            break
    return pivots, tops, prev


def mod_pivots_oracle(rows, p):
    """The pivot columns of integer rows over the integers mod p: Gaussian elimination
    of the residues, each pivot row scaled by its inverse, every remaining row reduced
    in turn."""
    rows = [[x % p for x in row] for row in rows]
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i, row in enumerate(rows) if row[c]), None)
        if pivot is None:
            continue
        top = rows.pop(pivot)
        inv = pow(top[c], -1, p)
        top = [x * inv % p for x in top]
        rows = [[(a - row[c] * b) % p for a, b in zip(row, top)] for row in rows]
        pivots.append(c)
    return pivots


def rank_bounds_oracle(qp: QPMap) -> RankReport:
    """rank_bounds by exact elimination alone: one fraction-free pass (linalg._echelon)
    over B's cleared rows and one over those of (A | lam), lam last, whose pivots
    among A's m columns give rank(A) and all of whose pivots give rank(M)."""
    rank_b = len(_echelon([r for r, _ in qp.B_rows])[0])
    pivots = _echelon([r[1:] + r[:1] for r, _ in qp.M_rows])[0]
    rank_m = len(pivots)
    s = qp.n // 2
    return RankReport(rank_B=rank_b, rank_A=sum(c < qp.m for c in pivots), rank_M=rank_m,
                      bound_satisfied=None if qp.n % 2 else rank_b <= s and rank_m <= s)


def inverse_oracle(m):
    """Exact inverse by Gauss-Jordan elimination over Fractions."""
    n = len(m)
    work = [list(row) for row in m]
    out = [list(row) for row in identity(n)]
    for c in range(n):
        pivot = next((i for i in range(c, n) if work[i][c] != 0), None)
        if pivot is None:
            raise SingularMatrix("matrix is singular")
        work[c], work[pivot] = work[pivot], work[c]
        out[c], out[pivot] = out[pivot], out[c]
        inv = 1 / work[c][c]
        work[c] = [e * inv for e in work[c]]
        out[c] = [e * inv for e in out[c]]
        for i in range(n):
            if i == c:
                continue
            f = work[i][c]
            if f:
                work[i] = [a - f * b for a, b in zip(work[i], work[c])]
                out[i] = [a - f * b for a, b in zip(out[i], out[c])]
    return tuple(tuple(row) for row in out)


def check_conditions_oracle(qp: QPMap) -> SymplecticReport:
    """check_conditions by full enumeration: a Witness for every violation
    of (a)-(d), products formed for every i, j and p; each verdict's
    witnesses are all of them, in the order i, j, p."""
    n, m = qp.n, qp.m
    if n % 2:
        na = ConditionVerdict(applicable=False)
        return SymplecticReport(False, None, na, na, na, na, None,
                                reason=f"odd dimension n={n}: an even number of variables is required")
    s = n // 2
    lam, a, b = qp.lam, qp.A, qp.B

    wit_a = []
    for i in range(s):
        for j in range(m):
            v = a[i][j] + a[s + i][j]
            if v:
                wit_a.append(Witness(
                    (("i", i + 1), ("j", j + 1)), v,
                    f"A[{i + 1},{j + 1}] + A[{s + i + 1},{j + 1}] = {a[i][j]} + {a[s + i][j]} = {v}",
                ))

    wit_b = []
    for i in range(s):
        v = lam[i] + lam[s + i]
        if v:
            wit_b.append(Witness(
                (("i", i + 1),), v,
                f"lambda[{i + 1}] + lambda[{s + i + 1}] = {lam[i]} + {lam[s + i]} = {v}",
            ))

    wit_c = []
    for i in range(s):
        for j in range(s):
            if i == j:
                continue
            for p in range(m):
                if not a[i][p]:
                    continue
                v1 = a[i][p] * b[p][j]
                if v1:
                    wit_c.append(Witness(
                        (("i", i + 1), ("j", j + 1), ("p", p + 1)), v1,
                        f"A[{i + 1},{p + 1}]*B[{p + 1},{j + 1}] = {a[i][p]}*{b[p][j]} = {v1}",
                    ))
                v2 = a[i][p] * b[p][s + j]
                if v2:
                    wit_c.append(Witness(
                        (("i", i + 1), ("j", j + 1), ("p", p + 1)), v2,
                        f"A[{i + 1},{p + 1}]*B[{p + 1},{s + j + 1}] = {a[i][p]}*{b[p][s + j]} = {v2}",
                    ))

    wit_d = []
    for i in range(s):
        for p in range(m):
            v = a[i][p] * (b[p][i] - b[p][s + i])
            if v:
                wit_d.append(Witness(
                    (("i", i + 1), ("p", p + 1)), v,
                    f"A[{i + 1},{p + 1}]*(B[{p + 1},{i + 1}] - B[{p + 1},{s + i + 1}])"
                    f" = {a[i][p]}*({b[p][i]} - {b[p][s + i]}) = {v}",
                ))

    ok = not (wit_a or wit_b or wit_c or wit_d)
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
        cond_a=ConditionVerdict(True, len(wit_a), tuple(wit_a)),
        cond_b=ConditionVerdict(True, len(wit_b), tuple(wit_b)),
        cond_c=ConditionVerdict(True, len(wit_c), tuple(wit_c)),
        cond_d=ConditionVerdict(True, len(wit_d), tuple(wit_d)),
        pairing=pairing,
    )


def assert_matches_oracle(qp):
    got, full = check_conditions(qp), check_conditions_oracle(qp)
    assert (got.is_symplectic, got.s, got.pairing, got.reason) == (
        full.is_symplectic, full.s, full.pairing, full.reason)
    for (label, cond), (_, every) in zip(got.conditions(), full.conditions()):
        assert cond.applicable == every.applicable, label
        assert cond.count == len(every.witnesses), label
        assert cond.witnesses == every.witnesses[:WITNESS_LIMIT], label
        assert cond.holds == every.holds, label


def map_from_document_oracle(doc) -> QPMap:
    """map_from_document parsing every entry on its own, at its position,
    with no table of the entries parsed before."""
    if not isinstance(doc, dict):
        raise DocumentError(f"map document must be a JSON object, got {type(doc).__name__}")

    def positive_int(key):
        value = doc.get(key)
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise DocumentError(f"{key}: expected a positive integer, got {value!r}")
        return value

    def vector(key, length):
        raw = doc.get(key)
        if not isinstance(raw, list):
            raise DocumentError(f"{key}: expected an array")
        if len(raw) != length:
            raise DocumentError(f"{key}: expected {length} entries, got {len(raw)}")
        return tuple(parse_rational(v, f"{key}[{i}]") for i, v in enumerate(raw))

    def matrix(key, n_rows, n_cols):
        raw = doc.get(key)
        if not isinstance(raw, list):
            raise DocumentError(f"{key}: expected an array of arrays")
        if len(raw) != n_rows:
            raise DocumentError(f"{key}: expected {n_rows} rows, got {len(raw)}")
        rows = []
        for i, row in enumerate(raw):
            if not isinstance(row, list):
                raise DocumentError(f"{key}[{i}]: expected an array")
            if len(row) != n_cols:
                raise DocumentError(f"{key}[{i}]: expected {n_cols} entries, got {len(row)}")
            rows.append(tuple(parse_rational(v, f"{key}[{i}][{j}]") for j, v in enumerate(row)))
        return tuple(rows)

    n = positive_int("n")
    m = positive_int("m")
    lam = vector("lambda", n)
    a = matrix("A", n, m)
    b = matrix("B", m, n)
    relaxed = doc.get("relaxed", False)
    if not isinstance(relaxed, bool):
        raise DocumentError(f"relaxed: expected true or false, got {relaxed!r}")
    try:
        return QPMap(lam, a, b) if relaxed else new_qp_map(lam, a, b)
    except QPError as exc:
        raise DocumentError(str(exc)) from exc


def qmt_from_document_oracle(doc) -> QMT:
    """qmt_from_document parsing every entry on its own with parse_rational,
    at its position, and then calling new_qmt."""
    if not isinstance(doc, dict):
        raise DocumentError(f"QMT document must be a JSON object, got {type(doc).__name__}")
    raw = doc.get("C")
    if not isinstance(raw, list) or not raw:
        raise DocumentError("C: expected a nonempty array of arrays")
    n = len(raw)
    rows = []
    for i, row in enumerate(raw):
        if not isinstance(row, list):
            raise DocumentError(f"C[{i}]: expected an array")
        if len(row) != n:
            raise DocumentError(f"C[{i}]: expected {n} entries, got {len(row)}")
        rows.append(tuple(parse_rational(v, f"C[{i}][{j}]") for j, v in enumerate(row)))
    try:
        return new_qmt(rows)
    except QPError as exc:
        raise DocumentError(str(exc)) from exc


def fd_jacobian(qp: QPMap, x, rel_step: float = 1e-6) -> np.ndarray:
    """Central finite differences of step() with per-component relative step."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    out = np.empty((n, n))
    for j in range(n):
        h = rel_step * x[j]
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        out[:, j] = (step(qp, xp) - step(qp, xm)) / (2 * h)
    return out


def rank_by_minors(m) -> int:
    """Exact rank via determinants of all square submatrices (small inputs)."""
    from itertools import combinations

    rows = [list(r) for r in m]
    n_rows, n_cols = len(rows), len(rows[0])

    def det(idx_r, idx_c):
        k = len(idx_r)
        if k == 1:
            return rows[idx_r[0]][idx_c[0]]
        total = Fraction(0)
        for pos, c in enumerate(idx_c):
            minor = det(idx_r[1:], idx_c[:pos] + idx_c[pos + 1:])
            term = rows[idx_r[0]][c] * minor
            total += term if pos % 2 == 0 else -term
        return total

    for k in range(min(n_rows, n_cols), 0, -1):
        for idx_r in combinations(range(n_rows), k):
            for idx_c in combinations(range(n_cols), k):
                if det(idx_r, idx_c) != 0:
                    return k
    return 0


def relative_gap(a, b, floor: float = 1.0) -> float:
    """Componentwise |a-b| / max(|a|, |b|, floor), reduced with max()."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / scale))


def first_nonpositive_row_oracle(x: np.ndarray) -> int | None:
    """The per-entry mask formula of core.first_nonpositive_row."""
    ok = (x > 0.0) & (x < np.inf)
    return None if ok.all() else int(np.argmin(ok.all(axis=-1).reshape(-1)))


@np.errstate(over="ignore", under="ignore")
def eval_solution_oracle(sol, t) -> np.ndarray:
    """solve.eval_solution with a range check at every t: x0 * exp(t * log_rate)
    under np.errstate, then NumericOverflow at the first row out of range."""
    try:
        rate = t * sol.log_rate
    except OverflowError:
        raise NumericOverflow(f"t={Decimal(t)} is outside the double range",
                              time_index=t) from None
    out = sol.x0 * np.exp(rate)
    row = first_nonpositive_row(out)
    if row is not None:
        t = int(np.ravel(t)[row])
        raise NumericOverflow(f"closed-form state at t={t} leaves the representable"
                              " positive range", time_index=t)
    return out


def representable_times_oracle(sol, t_min: int, t_max: int) -> list[int]:
    """solve.representable_times by a linear scan: every t in t_min..t_max at
    which eval_solution returns a state, without assuming they form a run."""
    times = []
    for t in range(t_min, t_max + 1):
        try:
            eval_solution(sol, t)
        except NumericOverflow:
            continue
        times.append(t)
    return times


def iterate_oracle(qp: QPMap, x0, steps: int) -> np.ndarray:
    """core.iterate with one array per state, stacked at the end: the states
    x(0), ..., x(steps), or NumericOverflow with the stack of those before
    the first one out of range as ``partial``."""
    x = as_state(x0, qp.n)
    states = [x]
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        for t in range(1, steps + 1):
            x = x * np.exp(phi(qp, x))
            if first_nonpositive_row(x) is not None:
                raise NumericOverflow(f"overflow at time index {t}", time_index=t,
                                      partial=np.stack(states))
            states.append(x)
    return np.stack(states)


def jacobian_oracle(qp: QPMap, x) -> np.ndarray:
    """(I + (x_i/x_j) d) e with a fresh np.eye, d = A diag(q) B and e = exp(phi):
    the out-of-place formula of jacobian, for a state or a stack."""
    x = as_state(x, qp.n)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        q = np.exp((qp.B_f @ np.log(x)[..., None])[..., 0])
        ph = qp.lam_f + (qp.A_f @ q[..., None])[..., 0]
        d = qp.A_f @ (q[..., :, None] * qp.B_f)
        return (np.eye(qp.n) + (x[..., :, None] / x[..., None, :]) * d) * np.exp(ph)[..., :, None]


def jacobian_residual_oracle(L: np.ndarray) -> float:
    """max |K^T S K - S| with S built afresh by np.block, and inf for a
    residual that is not finite: the formula of symplectic_residual."""
    s = L.shape[-1] // 2
    z, i = np.zeros((s, s)), np.eye(s)
    S = np.block([[z, -i], [i, z]])
    with np.errstate(over="ignore", invalid="ignore"):
        r = float(np.max(np.abs(L.swapaxes(-1, -2) @ S @ L - S)))
    return r if np.isfinite(r) else np.inf


def symplectic_product_block(qp: QPMap, x) -> np.ndarray:
    """The s x s block of pairwise Jacobian cross-products that must equal
    the identity for the map to be symplectic at x.

    Entry (i, j) is sum_k (L[s+k][s+i]*L[k][j] - L[k][s+i]*L[s+k][j]); it is
    the lower-left block of K^T S K and serves as an independent oracle for
    the exact classifiers. A stack of states gives a stack of blocks.
    """
    if qp.n % 2:
        raise OddDimension(f"product block requires even dimension, got n={qp.n}")
    s = qp.n // 2
    L = jacobian(qp, x)
    return (L[..., s:, s:].swapaxes(-1, -2) @ L[..., :s, :s]
            - L[..., :s, s:].swapaxes(-1, -2) @ L[..., s:, :s])


def sampled_residuals_oracle(qp: QPMap, samples: int, seed: int) -> tuple[float, float]:
    """symplectic.sampled_residuals one sample at a time: draw a state, form
    its Jacobian K, and take the maxima of |K^T.S.K - S| and |det K - 1|."""
    rng = np.random.default_rng(seed)
    s_mat = skew_matrix(qp.n // 2)
    max_resid = 0.0
    max_det = 0.0
    for _ in range(samples):
        x = random_state(rng, qp.n)
        jac = jacobian(qp, x)
        max_resid = max(max_resid, float(np.max(np.abs(jac.T @ s_mat @ jac - s_mat))))
        max_det = max(max_det, abs(float(np.linalg.det(jac)) - 1.0))
    return max_resid, max_det


def verify_report_oracle(qp: QPMap, samples: int, seed: int, tol: float) -> str:
    """The report of `qpmap verify`, from the per-sample maxima of
    sampled_residuals_oracle."""
    max_resid, max_det = sampled_residuals_oracle(qp, samples, seed)
    ok = max_resid <= tol and max_det <= tol
    return (f"sampled {samples} states log-uniformly in [0.5, 2]^{qp.n} (seed {seed})\n"
            f"max symplecticity residual |K^T.S.K - S|: {max_resid:.3e}\n"
            f"max |det(K) - 1|: {max_det:.3e}\n"
            f"{'PASS' if ok else 'FAIL'} (tolerance {tol:g})\n")


def save_map(qp: QPMap, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(map_to_document(qp), fh, indent=2)
        fh.write("\n")


def qmt_to_document(t: QMT) -> dict:
    return {"C": _matrix_entries(t.C, "C")}


def save_qmt(t: QMT, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(qmt_to_document(t), fh, indent=2)
        fh.write("\n")


def format_float(value: float) -> str:
    """17 significant digits: enough to round-trip any double."""
    return f"{value:.17g}"


def trajectory_csv(n: int, times, states) -> str:
    """CSV text with header t,x1,...,xn; one row per time, LF line endings.

    A row of Python floats (an array's ``.tolist()``) prints the same text
    as the numpy row and formats faster than numpy scalars do.
    """
    return "".join(trajectory_csv_lines(n, zip(times, states)))


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
    # value is the sampler's one Fraction for it, as the map's entries are.
    for _ in range(100):
        lam = list(qp.lam)
        a = [list(row) for row in qp.A]
        b = [list(row) for row in qp.B]
        target = int(rng.integers(0, 3))
        value = _SMALL_INTEGERS[int(rng.integers(-2, 3))]
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

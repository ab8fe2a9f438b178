"""Quasipolynomial discrete-time maps: exact classification and closed forms.

The package constructs QP maps from exact rational data, decides
symplecticity without tolerances, transforms maps between equivalent
coordinate systems, and evaluates the geometric closed-form solution that
every symplectic QP map admits. See README.md for usage and the `qpmap`
command-line front end.
"""

from .core import (
    QPMap,
    as_state,
    iterate,
    jacobian,
    new_qp_map,
    phi,
    quasimonomials,
    step,
    strictness_violations,
)
from .errors import (
    DegenerateResult,
    DimensionMismatch,
    DocumentError,
    NonPositiveState,
    NotSymplectic,
    NumericOverflow,
    OddDimension,
    QPError,
    SingularMatrix,
    ZeroColumnOfA,
    ZeroRowOfB,
)
from .solve import (
    ClosedFormSolution,
    PairAsymptotics,
    classify_asymptotics,
    eval_solution,
    solve_closed_form,
    verify_solution,
)
from .symplectic import (
    ConditionVerdict,
    ConservedProduct,
    RankReport,
    SymplecticReport,
    Witness,
    check_conditions,
    check_pattern,
    conserved_products,
    jacobian_residual,
    rank_bounds,
    skew_matrix,
    symplectic_product_block,
    symplectic_residual,
)
from .transform import (
    QMT,
    apply_qmt,
    class_invariant,
    lv_canonical,
    new_qmt,
    pull_state,
    push_state,
    solver_qmt,
)

__version__ = "0.1.0"

__all__ = [
    "QPMap", "as_state", "iterate", "jacobian", "new_qp_map",
    "phi", "quasimonomials", "step", "strictness_violations",
    "DegenerateResult", "DimensionMismatch", "DocumentError", "NonPositiveState",
    "NotSymplectic", "NumericOverflow", "OddDimension", "QPError",
    "SingularMatrix", "ZeroColumnOfA", "ZeroRowOfB",
    "ClosedFormSolution", "PairAsymptotics", "classify_asymptotics",
    "eval_solution", "solve_closed_form", "verify_solution",
    "ConditionVerdict", "ConservedProduct", "RankReport", "SymplecticReport",
    "Witness", "check_conditions", "check_pattern", "conserved_products",
    "jacobian_residual", "rank_bounds", "skew_matrix", "symplectic_product_block", "symplectic_residual",
    "QMT", "apply_qmt", "class_invariant", "lv_canonical", "new_qmt",
    "pull_state", "push_state", "solver_qmt",
    "__version__",
]

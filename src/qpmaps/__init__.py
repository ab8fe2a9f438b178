"""Quasipolynomial discrete-time maps: exact classification and closed forms.

The package constructs QP maps from exact rational data, decides
symplecticity without tolerances, transforms maps between equivalent
coordinate systems, and evaluates the geometric closed-form solution that
every symplectic QP map admits. See README.md for usage and the `qpmap`
command-line front end.

The exact layer (documents, classification, ranks, QMTs) imports no
numpy. The float names of :mod:`qpmaps.core` and :mod:`qpmaps.solve` are
resolved on first use, so ``import qpmaps`` alone does not load numpy.
"""

from importlib import import_module

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
from .maps import QPMap, new_qp_map, strictness_violations
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

#: The float layer: these names load their module, and numpy, on first use.
_FLOAT_NAMES = {
    "core": ("as_state", "iterate", "jacobian", "phi", "quasimonomials", "step"),
    "solve": ("ClosedFormSolution", "PairAsymptotics", "classify_asymptotics",
              "eval_solution", "solve_closed_form", "verify_solution"),
}
_FLOAT_HOME = {name: module for module, names in _FLOAT_NAMES.items() for name in names}


def __getattr__(name):
    """PEP 562: a float name, or core/solve itself, imports its module here."""
    if name in _FLOAT_NAMES:
        return import_module(f"{__name__}.{name}")
    if name in _FLOAT_HOME:
        return getattr(import_module(f"{__name__}.{_FLOAT_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_FLOAT_HOME))

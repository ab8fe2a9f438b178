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
    RankReport,
    SymplecticReport,
    Witness,
    check_conditions,
    check_pattern,
    rank_bounds,
    sampled_residuals,
    skew_matrix,
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

#: The float layer: these names load their module, and numpy, on first use.
_FLOAT_NAMES = {
    "core": ("as_state", "iterate", "jacobian", "phi", "quasimonomials", "step"),
    "solve": ("ClosedFormSolution", "PairAsymptotics", "classify_asymptotics", "eval_solution",
              "representable_times", "solve_closed_form", "verify_solution"),
}
_FLOAT_HOME = {name: module for module, names in _FLOAT_NAMES.items() for name in names}

__all__ = [
    "QPMap", "new_qp_map", "strictness_violations",
    "DegenerateResult", "DimensionMismatch", "DocumentError", "NonPositiveState",
    "NotSymplectic", "NumericOverflow", "OddDimension", "QPError",
    "SingularMatrix", "ZeroColumnOfA", "ZeroRowOfB",
    "ConditionVerdict", "RankReport", "SymplecticReport", "Witness",
    "check_conditions", "check_pattern", "rank_bounds", "sampled_residuals",
    "skew_matrix", "symplectic_residual",
    "QMT", "apply_qmt", "class_invariant", "lv_canonical", "new_qmt",
    "pull_state", "push_state", "solver_qmt",
    *_FLOAT_HOME,
    "__version__",
]


def __getattr__(name):
    """PEP 562: a float name, or core/solve itself, imports its module here."""
    if name in _FLOAT_NAMES:
        return import_module(f"{__name__}.{name}")
    if name in _FLOAT_HOME:
        return getattr(import_module(f"{__name__}.{_FLOAT_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_FLOAT_HOME))

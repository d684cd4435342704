"""Search-space substrate: parameter types, constraints, and spaces.

This package provides the constrained mixed-type search-space machinery
that every engine in :mod:`repro` (Bayesian optimization, random/grid
search, sensitivity analysis) operates on.
"""

from .conditional import Condition, ConditionalSpace
from .constraints import (
    Constraint,
    ConstraintViolation,
    ExpressionConstraint,
    check_all,
)
from .parameters import (
    Categorical,
    Constant,
    Integer,
    Ordinal,
    Parameter,
    Real,
    parameters_from_dict,
)
from .serialize import (
    UnserializableConstraintError,
    load_space,
    save_space,
    space_from_dict,
    space_to_dict,
)
from .space import InfeasibleSpaceError, PinnedSubspace, RepairStats, SearchSpace

__all__ = [
    "Parameter",
    "Constant",
    "Real",
    "Integer",
    "Ordinal",
    "Categorical",
    "parameters_from_dict",
    "Constraint",
    "ExpressionConstraint",
    "ConstraintViolation",
    "check_all",
    "SearchSpace",
    "PinnedSubspace",
    "InfeasibleSpaceError",
    "RepairStats",
    "Condition",
    "ConditionalSpace",
    "space_to_dict",
    "space_from_dict",
    "save_space",
    "load_space",
    "UnserializableConstraintError",
]

"""Exact rational LP substrate: simplex, linear algebra, vertex enumeration."""

from .fraction_utils import (
    DEFAULT_MAX_DENOMINATOR,
    log_base_fraction,
    to_fraction,
)
from .linalg import matrix_rank, solve_square_system
from .polytope import (
    HalfSpace,
    enumerate_vertices,
    is_dominated,
    non_dominated,
    nonnegativity_constraints,
)
from .simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, LPError, LPResult, maximize, minimize

__all__ = [
    "DEFAULT_MAX_DENOMINATOR",
    "log_base_fraction",
    "to_fraction",
    "matrix_rank",
    "solve_square_system",
    "HalfSpace",
    "enumerate_vertices",
    "is_dominated",
    "non_dominated",
    "nonnegativity_constraints",
    "INFEASIBLE",
    "OPTIMAL",
    "UNBOUNDED",
    "LPError",
    "LPResult",
    "maximize",
    "minimize",
]

"""Conjunctive query substrate: atoms, parsing, families, residual queries."""

from .atoms import Atom, ConjunctiveQuery, QueryError
from .families import (
    FAMILIES,
    cartesian_product_query,
    chain_query,
    clique_query,
    cycle_query,
    simple_join_query,
    star_query,
    triangle_query,
    two_path_query,
)
from .parser import parse_atom, parse_query
from .residual import (
    ResidualQuery,
    extended_query,
    packing_slacks,
    residual_query,
)

__all__ = [
    "Atom",
    "ConjunctiveQuery",
    "QueryError",
    "FAMILIES",
    "cartesian_product_query",
    "chain_query",
    "clique_query",
    "cycle_query",
    "simple_join_query",
    "star_query",
    "triangle_query",
    "two_path_query",
    "parse_atom",
    "parse_query",
    "ResidualQuery",
    "extended_query",
    "packing_slacks",
    "residual_query",
]

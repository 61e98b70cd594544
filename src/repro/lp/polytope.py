"""Exact vertex enumeration for small polytopes.

The packing polytope of a query (Section 3.3) is defined by the constraints
(2): one ``<=`` row per variable plus nonnegativity.  Its vertices ``pk(q)``
(after discarding dominated ones) determine the closed-form optimal load
``L_lower = L_upper = max_{u in pk(q)} L(u, M, p)`` of Theorem 3.6.

Vertices are enumerated the way the paper describes: choose ``dim`` of the
``k + l`` inequalities, turn them into equalities, solve, and keep solutions
that satisfy every constraint.  All arithmetic is exact.

A polytope is enumerated once per process: :func:`enumerate_vertices` keeps
its answers in one bounded :func:`functools.lru_cache` keyed on the
constraints themselves — the packing polytope depends on the query alone —
and hands each caller a fresh list (``.cache_info()`` reads the memo).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Sequence

from .fraction_utils import Number, to_fraction
from .linalg import solve_square_system

Point = tuple[Fraction, ...]


@dataclass(frozen=True)
class HalfSpace:
    """The constraint ``coefficients . x <= bound``."""

    coefficients: tuple[Fraction, ...]
    bound: Fraction

    @classmethod
    def build(cls, coefficients: Sequence[Number], bound: Number) -> "HalfSpace":
        return cls(
            coefficients=tuple(to_fraction(v) for v in coefficients),
            bound=to_fraction(bound),
        )

    def satisfied_by(self, point: Sequence[Fraction]) -> bool:
        value = sum(
            (c * x for c, x in zip(self.coefficients, point)), start=Fraction(0)
        )
        return value <= self.bound


def nonnegativity_constraints(dim: int) -> list[HalfSpace]:
    """``x_j >= 0`` written as ``-x_j <= 0`` for every coordinate."""
    constraints = []
    for j in range(dim):
        coefficients = [Fraction(0)] * dim
        coefficients[j] = Fraction(-1)
        constraints.append(HalfSpace(tuple(coefficients), Fraction(0)))
    return constraints


#: Distinct polytopes remembered (one per query shape; a few points each).
POLYTOPE_CACHE_SIZE = 256


def enumerate_vertices(
    constraints: Sequence[HalfSpace], dim: int
) -> list[Point]:
    """All vertices of ``{x : every constraint holds}``.

    Assumes the polytope is bounded (true for packing polytopes once every
    coordinate appears in some ``<=`` constraint).  Runs over all
    ``C(len(constraints), dim)`` potential bases; fine for the query sizes in
    this project (``dim <= ~10``).
    """
    return list(_vertices(tuple(constraints), dim))


@lru_cache(maxsize=POLYTOPE_CACHE_SIZE)
def _vertices(constraints: tuple[HalfSpace, ...], dim: int) -> tuple[Point, ...]:
    if dim == 0:
        return ((),)
    vertices: set[Point] = set()
    for subset in combinations(range(len(constraints)), dim):
        matrix = [list(constraints[i].coefficients) for i in subset]
        rhs = [constraints[i].bound for i in subset]
        solution = solve_square_system(matrix, rhs)
        if solution is None:
            continue
        point = tuple(solution)
        if point in vertices:
            continue
        if all(c.satisfied_by(point) for c in constraints):
            vertices.add(point)
    return tuple(sorted(vertices))


enumerate_vertices.cache_info = _vertices.cache_info


def is_dominated(point: Point, other: Point) -> bool:
    """``other`` dominates ``point`` iff it is >= componentwise and differs."""
    return other != point and all(o >= p for p, o in zip(point, other))


def non_dominated(points: Iterable[Point]) -> list[Point]:
    """Filter to the points not dominated by any other (the paper's pk(q))."""
    point_list = list(points)
    return [
        p
        for p in point_list
        if not any(is_dominated(p, other) for other in point_list)
    ]

"""Residual-query lower bounds for skewed data (Section 4.3, Theorem 4.7).

Fix a variable set ``x`` and the frequency maps ``m_j(h_j)`` on
``x_j = x intersect vars(S_j)``.  For a fractional edge packing ``u`` of the
residual query ``q_x`` that *saturates* ``x``, any one-round algorithm needs
load

    L_x(u, M, p) = ( sum_{h in [n]^d}  prod_j M_j(h_j)^{u_j}  /  p )^{1/u}

(Eq. 12), ``M_j(h_j) = a_j m_j(h_j) log2 n``.  Atoms with ``u_j = 0``
contribute factor 1 (the ``0^0`` convention); atoms untouched by ``x``
contribute the constant ``M_j^{u_j}``, outside the sum (``x = emptyset``
is all constants).  The inner sum is Friedgut's left side over the maps
(:func:`repro.core.friedgut.friedgut_lhs`, one fold) — saturation
guarantees they cover all of ``x``, so the sum is finite and cheap.

The maps are a :class:`~repro.stats.provider.StatisticsProvider`'s heavy
hitters.  With ``threshold_factor=0`` they are Section 4.3's full degree
maps (Eq. 12 on the whole database); the planner's own keep only the values
above ``m_j / p``, still a lower bound, as every term is nonnegative.

For ``x = emptyset`` the bound degenerates to Theorem 3.5's ``L(u, M, p)``.
Example 4.8: the join gets ``sqrt(sum_h m1(h) m2(h) / p)`` via ``x = {z}``;
the triangle gets ``sqrt(sum_h m1(h) m3(h) / p)`` via ``x = {x1}``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations as subset_combinations
from typing import AbstractSet, Iterable, Mapping

from ..lp.polytope import (
    HalfSpace,
    enumerate_vertices,
    non_dominated,
    nonnegativity_constraints,
)
from ..query.atoms import Atom, ConjunctiveQuery
from ..query.residual import residual_query
from ..seq.relation import bits_per_value
from ..stats.cardinality import StatisticsError
from ..stats.provider import StatisticsProvider, canonical_subset
from .friedgut import friedgut_lhs
from .packing import Packing


def saturating_packing_vertices(
    query: ConjunctiveQuery, variables: AbstractSet[str]
) -> list[Packing]:
    """Vertices of the *saturated residual polytope*: fractional edge
    packings of ``q_x`` that saturate every variable of ``x``.

    Constraints: per remaining variable ``sum u_j <= 1`` (over residual
    atoms); per removed variable ``sum_{j: x_i in vars(S_j)} u_j >= 1``
    (membership in the *original* atoms); ``0 <= u_j``; and ``u_j <= 1``
    for atoms swallowed whole by ``x`` (implied for the rest, and required
    by the Friedgut step of the proof).
    """
    removed = frozenset(variables)
    residual = residual_query(query, removed)
    num_atoms = query.num_atoms

    constraints: list[HalfSpace] = []
    for var in residual.remaining:
        row = [
            Fraction(1) if var in atom.variable_set else Fraction(0)
            for atom in residual.query.atoms
        ]
        constraints.append(HalfSpace(tuple(row), Fraction(1)))
    for var in removed:
        row = [
            Fraction(-1) if var in atom.variable_set else Fraction(0)
            for atom in query.atoms
        ]
        constraints.append(HalfSpace(tuple(row), Fraction(-1)))
    for idx, atom in enumerate(residual.query.atoms):
        if not atom.variable_set:
            row = [Fraction(0)] * num_atoms
            row[idx] = Fraction(1)
            constraints.append(HalfSpace(tuple(row), Fraction(1)))
    constraints.extend(nonnegativity_constraints(num_atoms))

    vertices = enumerate_vertices(constraints, num_atoms)
    names = [atom.name for atom in query.atoms]
    return [dict(zip(names, vertex)) for vertex in non_dominated(vertices)]


def _variable_set(
    query: ConjunctiveQuery, variables: AbstractSet[str]
) -> frozenset[str]:
    """``x`` as a frozenset; a variable outside ``query`` is refused."""
    var_set = frozenset(variables)
    unknown = var_set - set(query.variables)
    if unknown:
        raise StatisticsError(
            f"variables {sorted(unknown)} do not appear in {query.name}"
        )
    return var_set


def residual_load(
    query: ConjunctiveQuery,
    stats: StatisticsProvider,
    variables: AbstractSet[str],
    packing: Mapping[str, object],
    p: int,
) -> float:
    """``L_x(u, M, p)`` of Eq. 12 for ``x = variables`` and a concrete
    saturating packing, summed over ``stats``' frequency maps."""
    var_set = _variable_set(query, variables)
    simple = stats.simple
    per_value = bits_per_value(simple.domain_size)
    u_total, inner = 0.0, 1.0
    factors, tables = [], {}
    for atom in query.atoms:
        u_j = float(Fraction(packing.get(atom.name, 0)))  # type: ignore[arg-type]
        u_total += u_j
        if u_j == 0:
            continue
        arity = simple.arity(atom.name)
        subset = canonical_subset(atom.variable_set & var_set)
        if not subset:  # untouched by x: the constant M_j^{u_j}
            inner *= (arity * simple.cardinality(atom.name) * per_value) ** u_j
            continue
        frequencies = stats.hitters.get((atom.name, subset))
        if frequencies is None:
            raise StatisticsError(
                f"the statistics hold no frequencies of {atom.name} "
                f"on {subset}"
            )
        factors.append(Atom(atom.name, subset))
        tables[atom.name] = {
            assignment: (arity * freq * per_value) ** u_j
            for assignment, freq in frequencies.items()
        }
    if u_total == 0:
        raise ValueError("packing must have positive total weight")
    if factors:
        inner *= friedgut_lhs(ConjunctiveQuery(factors), tables)
    if inner <= 0:
        return 0.0
    return 2.0 ** ((math.log2(inner) - math.log2(p)) / u_total)


@dataclass(frozen=True)
class ResidualBound:
    """The best residual bound found, with its witnesses."""

    bits: float
    variables: frozenset[str]
    packing: Packing


def residual_lower_bound(
    query: ConjunctiveQuery,
    stats: StatisticsProvider,
    variables: AbstractSet[str],
    p: int,
) -> ResidualBound | None:
    """``max_u L_x(u, M, p)`` over saturating packing vertices for
    ``x = variables``; ``None`` when no packing saturates ``x``."""
    var_set = _variable_set(query, variables)
    best: ResidualBound | None = None
    for packing in saturating_packing_vertices(query, var_set):
        value = residual_load(query, stats, var_set, packing, p)
        if best is None or value > best.bits:
            best = ResidualBound(bits=value, variables=var_set, packing=packing)
    return best


def best_residual_lower_bound(
    query: ConjunctiveQuery,
    stats: StatisticsProvider,
    p: int,
    candidate_sets: Iterable[AbstractSet[str]] | None = None,
    max_set_size: int | None = None,
) -> tuple[ResidualBound | None, dict[frozenset[str], float]]:
    """Maximize the Theorem 4.7 bound over candidate sets ``x``, every one
    read from the same ``stats``.

    Returns the best bound plus the per-``x`` values (for experiment E8's
    breakdown).  ``x = emptyset`` (the Theorem 3.5 bound) is *not* included;
    combine with `repro.core.bounds.lower_bound` for the full picture.
    Raises :class:`~repro.stats.cardinality.StatisticsError` for a
    candidate naming a variable outside ``query``, or when ``stats`` lacks
    an (atom, subset) map a bound needs.
    """
    if candidate_sets is None:
        limit = len(query.variables) if max_set_size is None else max_set_size
        candidate_sets = (
            combo
            for size in range(1, min(limit, len(query.variables)) + 1)
            for combo in subset_combinations(query.variables, size)
        )
    best: ResidualBound | None = None
    breakdown: dict[frozenset[str], float] = {}
    for variables in candidate_sets:
        bound = residual_lower_bound(query, stats, variables, p)
        if bound is None:
            continue
        breakdown[bound.variables] = bound.bits
        if best is None or bound.bits > best.bits:
            best = bound
    return best, breakdown

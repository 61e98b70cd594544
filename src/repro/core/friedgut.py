"""Friedgut's inequality and the AGM output-size bound (Section 2.3).

For a query ``q`` with fractional edge cover ``u`` and nonnegative weights
``w_j`` on the atoms' value combinations:

    sum_{a in [n]^k} prod_j w_j(a_j)
        <=  prod_j ( sum_{a_j} w_j(a_j)^(1/u_j) )^(u_j)        (Eq. 3)

Setting 0/1 weights from relation membership recovers the AGM bound
``|q(I)| <= prod_j |S_j|^(u_j)``; e.g. ``|C3| <= sqrt(m1 m2 m3)``.

The left side is a weighted join: only assignments inside the join of the
weight supports contribute, so one :func:`repro.seq.acyclic.fold` (which
Eq. 12 shares) sums it rather than iterating over ``[n]^k``.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from ..query.atoms import ConjunctiveQuery, QueryError
from ..seq.acyclic import Count, fold
from ..seq.relation import Database, Tuple
from .packing import is_edge_cover, minimum_edge_cover

Weights = Mapping[str, Mapping[Tuple, float]]


def _validate_weights(query: ConjunctiveQuery, weights: Weights) -> None:
    for atom in query.atoms:
        table = weights.get(atom.name)
        if table is None:
            raise QueryError(f"missing weights for atom {atom.name!r}")
        arity = atom.arity
        for key, value in table.items():
            if len(key) != arity:
                raise QueryError(
                    f"weight key {key} has length {len(key)}, expected "
                    f"arity {atom.arity} of {atom.name}"
                )
            if value < 0:
                raise QueryError(
                    f"negative weight {value!r} for {atom.name}{key}"
                )


class _Weighed(Count):
    """:class:`~repro.seq.acyclic.Count` in floats, which need no guard
    against int64 wrapping; a tuple of atom ``name`` starts at its entry
    of ``tuples[name]``, or at 1."""

    def __init__(self, tuples: Mapping[str, np.ndarray]) -> None:
        self._tuples = tuples

    def start(self, name: str, n: int) -> np.ndarray:
        return self._tuples[name] if name in self._tuples else self.ones(n)

    def times(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a * b


def friedgut_lhs(query: ConjunctiveQuery, weights: Weights) -> float:
    """``sum_a prod_j w_j(a_j)``: one fold over the weight tables, each
    key a tuple starting at its weight."""
    _validate_weights(query, weights)
    keys, starts = {}, {}
    for atom in query.atoms:
        table = weights[atom.name]
        try:  # the fold's relations hold int64 values
            keys[atom.name] = np.array(list(table), dtype=np.int64).reshape(
                len(table), atom.arity).T
        except (OverflowError, TypeError, ValueError):
            raise QueryError(f"weight keys of {atom.name} must be int64 "
                             "values") from None
        starts[atom.name] = np.fromiter(table.values(), float, len(table))
    return float(fold(query, keys, (_Weighed(starts),))[0])


def friedgut_rhs(
    query: ConjunctiveQuery, cover: Mapping[str, object], weights: Weights
) -> float:
    """``prod_j (sum w_j^(1/u_j))^(u_j)``.

    Atoms with ``u_j = 0`` contribute their maximum weight — the
    ``u_j -> 0`` limit of the norm, matching the paper's limiting argument
    in Appendix A.
    """
    _validate_weights(query, weights)
    if not is_edge_cover(query, cover):  # Friedgut needs a cover
        raise QueryError("friedgut_rhs requires a fractional edge cover")
    result = 1.0
    for atom in query.atoms:
        u_j = float(cover.get(atom.name, 0))  # type: ignore[arg-type]
        table = weights[atom.name]
        if u_j == 0:
            factor = max(table.values(), default=0.0)
        else:
            factor = sum(value ** (1.0 / u_j) for value in table.values()) ** u_j
        result *= factor
    return result


def friedgut_gap(
    query: ConjunctiveQuery, cover: Mapping[str, object], weights: Weights
) -> tuple[float, float]:
    """(lhs, rhs) of Eq. 3 — tests assert ``lhs <= rhs (1 + eps)``."""
    return friedgut_lhs(query, weights), friedgut_rhs(query, cover, weights)


def agm_bound(
    query: ConjunctiveQuery, cardinalities: Mapping[str, int]
) -> float:
    """``min_u prod_j m_j^(u_j)`` over fractional edge covers ``u``.

    The Grohe-Marx / AGM bound on ``|q(I)|`` the paper derives from
    Friedgut's inequality.
    """
    if any(cardinalities[atom.name] == 0 for atom in query.atoms):
        return 0.0
    costs = {
        atom.name: math.log2(cardinalities[atom.name])
        if cardinalities[atom.name] > 1
        else 0.0
        for atom in query.atoms
    }
    cover = minimum_edge_cover(query, costs)
    exponent = sum(
        float(cover[atom.name]) * costs[atom.name] for atom in query.atoms
    )
    return 2.0**exponent


def check_agm(query: ConjunctiveQuery, db: Database) -> tuple[int, float]:
    """(actual answer count, AGM bound) for a concrete instance."""
    from ..seq.join import count_answers

    actual = count_answers(query, db)
    bound = agm_bound(
        query, {atom.name: db.relation(atom.name).cardinality for atom in query.atoms}
    )
    return actual, bound

"""The classic parallel hash join, as a one-round MPC baseline.

Hash-partitioning on a set of join variables is exactly HyperCube with the
entire server budget spent on those variables (share 1 everywhere else):
atoms missing a partition variable get replicated along its dimension, and
atoms containing all of them land on a single server.  On skew-free data
this achieves the ideal ``O(m/p)``; on skewed data it collapses to ``Omega(m)``
(Example 3.3) — the failure mode the paper's skew-aware algorithms repair.
"""

from __future__ import annotations

import math
from typing import Sequence

from ..query.atoms import ConjunctiveQuery, QueryError
from .hypercube import HyperCubeAlgorithm


def default_partition_variables(query: ConjunctiveQuery) -> tuple[str, ...]:
    """Variables occurring in *every* atom — the natural hash-join keys."""
    common = set(query.variables)
    for atom in query.atoms:
        common &= atom.variable_set
    return tuple(v for v in query.variables if v in common)


class HashJoinAlgorithm(HyperCubeAlgorithm):
    """Hash-partition the query on ``partition_variables`` across ``p``.

    The server budget is split evenly (``p^(1/|X|)`` per key) when several
    partition variables are given.
    """

    @classmethod
    def applicability(cls, query: ConjunctiveQuery) -> str | None:
        if not default_partition_variables(query):
            return (
                "no variable occurs in every atom, so there is no default "
                "hash-partition key"
            )
        return None

    def __init__(
        self,
        query: ConjunctiveQuery,
        p: int,
        partition_variables: Sequence[str] | None = None,
    ) -> None:
        if partition_variables is None:
            partition_variables = default_partition_variables(query)
        if not partition_variables:
            raise QueryError(
                f"query {query.name!r} has no variable common to all atoms; "
                "pass partition_variables explicitly"
            )
        unknown = [v for v in partition_variables if not query.has_variable(v)]
        if unknown:
            raise QueryError(f"unknown partition variables {unknown}")

        shares = {var: 1 for var in query.variables}
        per_key = max(1, math.floor(p ** (1.0 / len(partition_variables)) + 1e-9))
        for var in partition_variables:
            shares[var] = per_key
        super().__init__(query, shares, name="hashjoin")
        self.partition_variables = tuple(partition_variables)

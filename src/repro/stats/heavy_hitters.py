"""Complex database statistics: heavy hitters and their frequencies
(Section 4).

For a relation ``S_j`` with ``|S_j| = m_j`` and a nonempty subset
``x_j subset vars(S_j)``, a partial assignment ``h_j`` to ``x_j`` is a
*heavy hitter* iff its frequency ``m_j(h_j) = |sigma_{x_j = h_j}(S_j)|``
exceeds ``m_j / p`` (Section 4.2).  There are fewer than ``p`` heavy hitters
per (relation, subset) pair, so the statistics stay ``O(p)``-sized.

The one-round algorithms assume every input server knows these statistics;
:meth:`HeavyHitterStatistics.of` counts them exactly on a database's int64
columns; :class:`repro.sketch.SketchedHeavyHitterStatistics` estimates them
in one bounded-state pass over the same columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..query.atoms import ConjunctiveQuery
from ..seq.relation import Batch, Database, Relation, distinct_rows
from .cardinality import SimpleStatistics, StatisticsError
from .provider import (
    Assignment,
    StatisticsProvider,
    VarSubset,
    canonical_subset,
)


#: Cap on the per-atom variable count before the ``2^n - 1`` subset
#: enumeration is refused.  No algorithm in the registry consults subsets
#: of more than a handful of variables, and silently materializing
#: thousands of frequency maps for a high-arity atom is a far worse
#: failure mode than a clear error.
MAX_SUBSET_VARIABLES = 12


def nonempty_subsets(variables: VarSubset) -> list[VarSubset]:
    """Every nonempty subset of ``variables``, in mask order.

    Raises :class:`StatisticsError` beyond :data:`MAX_SUBSET_VARIABLES`
    variables — the enumeration is exponential, so a high-arity atom must
    fail loudly instead of blowing up memory.
    """
    n = len(variables)
    if n > MAX_SUBSET_VARIABLES:
        raise StatisticsError(
            f"refusing to enumerate 2^{n} - 1 variable subsets of "
            f"{variables}; heavy-hitter statistics cap atoms at "
            f"{MAX_SUBSET_VARIABLES} variables"
        )
    subsets: list[VarSubset] = []
    for mask in range(1, 1 << n):
        subsets.append(
            tuple(variables[i] for i in range(n) if mask & (1 << i))
        )
    return subsets


def heavy_values(
    relation: Relation, positions: Sequence[int], threshold: float
) -> dict[Assignment, int]:
    """The assignments to ``positions`` occurring more than ``threshold``
    times, counted on the columns; only those are materialized, in the
    order ``relation.frequencies(positions)`` lists them (first
    occurrence).

    A key covering every column is the tuple itself, so by set semantics
    every count is 1: nothing is heavy when ``threshold >= 1`` and every
    tuple is otherwise — no counting either way.
    """
    keys = relation.batch.columns[list(positions)]
    if len(positions) == relation.arity:
        if threshold >= 1:
            return {}
        first = np.arange(keys.shape[1])
        counts = np.ones(keys.shape[1], dtype=np.int64)
    else:
        first, counts = distinct_rows(keys)
        heavy = counts > threshold
        first, counts = first[heavy], counts[heavy]
    rows = Batch(len(keys), columns=keys[:, first]).rows
    return dict(zip(rows, counts.tolist()))


@dataclass(frozen=True)
class HeavyHitterStatistics(StatisticsProvider):
    """Exact heavy hitters of every (relation, variable-subset) pair."""

    @classmethod
    def of(
        cls,
        query: ConjunctiveQuery,
        db: Database,
        p: int,
        threshold_factor: float = 1.0,
    ) -> "HeavyHitterStatistics":
        """Extract exact heavy-hitter statistics for ``query`` from ``db``;
        ``threshold_factor=0`` counts the full degree maps."""
        if p < 1:
            raise StatisticsError("p must be >= 1")
        if not (math.isfinite(threshold_factor) and threshold_factor >= 0):
            raise StatisticsError(
                f"threshold_factor must be finite and >= 0, "
                f"got {threshold_factor!r}"
            )
        simple = SimpleStatistics.of(db)
        hitters: dict[tuple[str, VarSubset], dict[Assignment, int]] = {}
        for atom in query.atoms:
            relation = db.relation(atom.name)
            threshold = threshold_factor * relation.cardinality / p
            atom_vars = canonical_subset(atom.variables)
            for subset in nonempty_subsets(atom_vars):
                positions = [atom.positions_of(var)[0] for var in subset]
                hitters[(atom.name, subset)] = heavy_values(
                    relation, positions, threshold
                )
        return cls(
            simple=simple, p=p, threshold_factor=threshold_factor, hitters=hitters
        )

"""Complex database statistics: heavy hitters and their frequencies
(Section 4).

For a relation ``S_j`` with ``|S_j| = m_j`` and a nonempty subset
``x_j subset vars(S_j)``, a partial assignment ``h_j`` to ``x_j`` is a
*heavy hitter* iff its frequency ``m_j(h_j) = |sigma_{x_j = h_j}(S_j)|``
exceeds ``m_j / p`` (Section 4.2).  There are fewer than ``p`` heavy hitters
per (relation, subset) pair, so the statistics stay ``O(p)``-sized.

The one-round algorithms assume every input server knows these statistics;
:meth:`HeavyHitterStatistics.of` extracts them exactly from a database, which
models the sampling/statistics pass of practical systems.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from ..query.atoms import ConjunctiveQuery
from ..seq.relation import Database, Relation, distinct_values
from .cardinality import SimpleStatistics, StatisticsError
from .provider import Assignment, VarSubset


#: Cap on the per-atom variable count before the ``2^n - 1`` subset
#: enumeration is refused.  No algorithm in the registry consults subsets
#: of more than a handful of variables, and silently materializing
#: thousands of frequency maps for a high-arity atom is a far worse
#: failure mode than a clear error.
MAX_SUBSET_VARIABLES = 12


def canonical_subset(variables: Iterable[str]) -> VarSubset:
    return tuple(sorted(set(variables)))


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


class HeavyHitterLookup:
    """The read side of heavy-hitter statistics, shared by the exact and
    the sketched providers (both satisfy
    :class:`repro.stats.provider.StatisticsProvider`).

    Implementations supply ``simple``, ``p``, ``threshold_factor`` and a
    ``hitters`` mapping ``(atom_name, subset) -> {assignment: frequency}``
    in canonical (sorted-variable) order.
    """

    simple: SimpleStatistics
    p: int
    threshold_factor: float
    hitters: Mapping[tuple[str, VarSubset], Mapping[Assignment, int]]

    def threshold(self, atom_name: str) -> float:
        """The heavy-hitter frequency threshold ``m_j / p`` (scaled)."""
        return self.threshold_factor * self.simple.cardinality(atom_name) / self.p

    def heavy_hitters(
        self, atom_name: str, variables: Iterable[str]
    ) -> Mapping[Assignment, int]:
        """Heavy assignments (and frequencies) for an atom/subset pair."""
        key = (atom_name, canonical_subset(variables))
        return self.hitters.get(key, {})

    def frequency(
        self, atom_name: str, variables: Iterable[str], assignment: Assignment
    ) -> int | None:
        """``m_j(h_j)`` if heavy; ``None`` means light (``<= m_j/p``)."""
        return self.heavy_hitters(atom_name, variables).get(tuple(assignment))

    def is_heavy(
        self, atom_name: str, variables: Iterable[str], assignment: Assignment
    ) -> bool:
        return tuple(assignment) in self.heavy_hitters(atom_name, variables)

    def frequency_or_light_bound(
        self, atom_name: str, variables: Iterable[str], assignment: Assignment
    ) -> float:
        """Known frequency for heavy hitters; the ``m_j/p`` bound otherwise."""
        freq = self.frequency(atom_name, variables, assignment)
        if freq is not None:
            return float(freq)
        return self.threshold(atom_name)

    def total_heavy_count(self) -> int:
        return sum(len(mapping) for mapping in self.hitters.values())


def _heavy_values(
    relation: Relation, position: int, threshold: float
) -> dict[Assignment, int]:
    """The values occurring more than ``threshold`` times in one column,
    counted on the column; only those are materialized, in the order
    ``relation.frequencies([position])`` lists them (first occurrence)."""
    values, first, _, counts = distinct_values(relation.batch.columns[position])
    heavy = np.flatnonzero(counts > threshold)
    heavy = heavy[np.argsort(first[heavy])]
    return {
        (value,): count
        for value, count in zip(values[heavy].tolist(), counts[heavy].tolist())
    }


@dataclass(frozen=True)
class HeavyHitterStatistics(HeavyHitterLookup):
    """Exact heavy hitters of every (relation, variable-subset) pair.

    Attributes
    ----------
    simple:
        The underlying cardinality statistics.
    p:
        Number of servers the thresholds were computed against.
    threshold_factor:
        Heavy iff ``m_j(h_j) > threshold_factor * m_j / p``.  The paper uses
        factor 1; lowering it (e.g. ``1 / log p``) is an ablation knob.
    hitters:
        ``(atom_name, subset) -> {assignment: frequency}`` with subsets and
        assignments in canonical (sorted-variable) order.
    """

    simple: SimpleStatistics
    p: int
    threshold_factor: float
    hitters: Mapping[tuple[str, VarSubset], Mapping[Assignment, int]]

    @classmethod
    def of(
        cls,
        query: ConjunctiveQuery,
        db: Database,
        p: int,
        threshold_factor: float = 1.0,
    ) -> "HeavyHitterStatistics":
        """Extract exact heavy-hitter statistics for ``query`` from ``db``."""
        if p < 1:
            raise StatisticsError("p must be >= 1")
        simple = SimpleStatistics.of(db)
        hitters: dict[tuple[str, VarSubset], dict[Assignment, int]] = {}
        for atom in query.atoms:
            relation = db.relation(atom.name)
            threshold = threshold_factor * relation.cardinality / p
            atom_vars = canonical_subset(atom.variables)
            for subset in nonempty_subsets(atom_vars):
                positions = [atom.positions_of(var)[0] for var in subset]
                if len(positions) == 1:
                    heavy = _heavy_values(relation, positions[0], threshold)
                elif threshold >= 1 and len(positions) == relation.arity:
                    # Set semantics: a key covering every column is the
                    # tuple itself, so every count is 1.
                    heavy = {}
                else:
                    heavy = {
                        assignment: count
                        for assignment, count
                        in relation.frequencies(positions).items()
                        if count > threshold
                    }
                hitters[(atom.name, subset)] = heavy
        return cls(
            simple=simple, p=p, threshold_factor=threshold_factor, hitters=hitters
        )

    @classmethod
    def estimate(
        cls,
        query: ConjunctiveQuery,
        db: Database,
        p: int,
        sample_rate: float = 0.1,
        seed: int = 0,
        threshold_factor: float = 1.0,
    ) -> "HeavyHitterStatistics":
        """Sampling-based heavy-hitter detection.

        Models the statistics pass of practical systems (the paper's
        introduction: "first detecting the heavy hitters (e.g. using
        sampling)"): scan a Bernoulli sample of each relation, scale the
        sampled frequencies by ``1/sample_rate``, and keep the assignments
        whose *estimate* crosses the threshold.  Frequencies are therefore
        approximate — which is all the algorithms need, since the Section
        4.2 bins are factor-2 coarse by design.

        The one-round algorithms stay *correct* with estimated statistics:
        routing only requires every input server to classify values
        consistently, and they all share the same statistics object.
        """
        import random

        if not 0 < sample_rate <= 1:
            raise StatisticsError("sample_rate must lie in (0, 1]")
        if p < 1:
            raise StatisticsError("p must be >= 1")
        simple = SimpleStatistics.of(db)
        rng = random.Random(f"hh-sample:{seed}")
        hitters: dict[tuple[str, VarSubset], dict[Assignment, int]] = {}
        for atom in query.atoms:
            relation = db.relation(atom.name)
            sampled = [
                t for t in sorted(relation.tuples) if rng.random() < sample_rate
            ]
            threshold = threshold_factor * relation.cardinality / p
            atom_vars = canonical_subset(atom.variables)
            for subset in nonempty_subsets(atom_vars):
                positions = [atom.positions_of(var)[0] for var in subset]
                counts: dict[Assignment, int] = {}
                for t in sampled:
                    key = tuple(t[pos] for pos in positions)
                    counts[key] = counts.get(key, 0) + 1
                heavy = {}
                for assignment, count in counts.items():
                    estimate = count / sample_rate
                    if estimate > threshold:
                        heavy[assignment] = min(
                            relation.cardinality, round(estimate)
                        )
                hitters[(atom.name, subset)] = heavy
        return cls(
            simple=simple, p=p, threshold_factor=threshold_factor, hitters=hitters
        )

"""The one statistics class the skew-aware machinery consumes.

:class:`StatisticsProvider` holds heavy hitters and answers every question
asked of them.  Two subclasses fill it:

* :class:`repro.stats.heavy_hitters.HeavyHitterStatistics` — exact, counted
  on a :class:`~repro.seq.relation.Database`'s int64 columns;
* :class:`repro.sketch.SketchedHeavyHitterStatistics` — estimated, recovered
  from mergeable Count-Sketches fed the same columns in one pass.

Everything downstream (the Section 4 algorithms' ``applicability()`` and
``predicted_load_bits()`` hooks, the planner, the bin machinery) reads the
base class, so exact and sketched statistics are interchangeable.
:func:`heavy_of`, the single arbiter of "which statistics are these", is an
``isinstance`` check against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .cardinality import SimpleStatistics

# A subset of an atom's variables, kept sorted for canonical keying.
VarSubset = tuple[str, ...]
# Values for a VarSubset, aligned with the sorted variable order.
Assignment = tuple[int, ...]


def canonical_subset(variables: Iterable[str]) -> VarSubset:
    return tuple(sorted(set(variables)))


@dataclass(frozen=True)
class StatisticsProvider:
    """Heavy-hitter statistics, exact or estimated.

    A provider knows, for every (relation, variable-subset) pair of a
    query, which partial assignments are *heavy* (frequency above
    ``threshold_factor * m_j / p``, Section 4.2) and what their
    (possibly estimated) frequencies are.

    Attributes
    ----------
    simple:
        The underlying cardinality statistics.
    p:
        Number of servers the thresholds were computed against — hitters
        thresholded for a different ``p`` are unusable.
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


#: What every ``stats`` argument accepts: cardinalities alone, or a
#: provider (richer statistics buy skew-aware predictions).
Statistics = SimpleStatistics | StatisticsProvider


def simple_of(stats: Statistics) -> SimpleStatistics:
    """The cardinalities: ``stats`` itself, or its ``simple`` part."""
    return getattr(stats, "simple", stats)


def heavy_of(
    stats: Statistics | None, p: int | None = None
) -> StatisticsProvider | None:
    """``stats`` as a usable heavy-hitter provider, or None.

    Statistics qualify only when they are a :class:`StatisticsProvider` —
    exact or sketched — *and*, when ``p`` is given, their hitters were
    thresholded against this ``p``; hitters computed for a different
    ``m/p`` threshold are unusable.
    """
    if isinstance(stats, StatisticsProvider) and (p is None or stats.p == p):
        return stats
    return None

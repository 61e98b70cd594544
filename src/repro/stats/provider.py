"""The shared statistics surface the skew-aware machinery consumes.

Two implementations exist today:

* :class:`repro.stats.heavy_hitters.HeavyHitterStatistics` — exact, from a
  fully materialized :class:`~repro.seq.relation.Database`;
* :class:`repro.sketch.SketchedHeavyHitterStatistics` — estimated, from a
  single streaming pass of mergeable Count-Sketches.

Everything downstream (the Section 4 algorithms' ``applicability()`` and
``predicted_load_bits()`` hooks, the planner, the bin machinery) talks to
the :class:`StatisticsProvider` protocol instead of a concrete class, so
exact and sketched statistics are interchangeable.  The protocol is
``runtime_checkable``: :func:`heavy_of`, the single arbiter of "which
statistics are these", uses an ``isinstance`` check against it.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Protocol, runtime_checkable

from .cardinality import SimpleStatistics

# A subset of an atom's variables, kept sorted for canonical keying.
VarSubset = tuple[str, ...]
# Values for a VarSubset, aligned with the sorted variable order.
Assignment = tuple[int, ...]


@runtime_checkable
class StatisticsProvider(Protocol):
    """Heavy-hitter statistics, exact or estimated.

    A provider knows, for every (relation, variable-subset) pair of a
    query, which partial assignments are *heavy* (frequency above
    ``threshold_factor * m_j / p``, Section 4.2) and what their
    (possibly estimated) frequencies are.  ``p`` is the server count the
    thresholds were computed against — statistics thresholded for a
    different ``p`` are unusable, which is why the protocol carries it.
    """

    simple: SimpleStatistics
    p: int
    threshold_factor: float

    def threshold(self, atom_name: str) -> float:
        """The heavy-hitter frequency threshold ``m_j / p`` (scaled)."""
        ...

    def heavy_hitters(
        self, atom_name: str, variables: Iterable[str]
    ) -> Mapping[Assignment, int]:
        """Heavy assignments (and frequencies) for an atom/subset pair."""
        ...

    def frequency(
        self, atom_name: str, variables: Iterable[str], assignment: Assignment
    ) -> int | None:
        """``m_j(h_j)`` if heavy; ``None`` means light (``<= m_j/p``)."""
        ...

    def is_heavy(
        self, atom_name: str, variables: Iterable[str], assignment: Assignment
    ) -> bool:
        ...

    def frequency_or_light_bound(
        self, atom_name: str, variables: Iterable[str], assignment: Assignment
    ) -> float:
        """Known frequency for heavy hitters; the ``m_j/p`` bound otherwise."""
        ...

    def total_heavy_count(self) -> int:
        ...


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

    Statistics qualify only when they satisfy the
    :class:`StatisticsProvider` protocol — the exact
    :class:`~repro.stats.heavy_hitters.HeavyHitterStatistics` and the
    sketched :class:`~repro.sketch.SketchedHeavyHitterStatistics` both do
    — *and*, when ``p`` is given, their hitters were thresholded against
    this ``p``; hitters computed for a different ``m/p`` threshold are
    unusable.
    """
    if isinstance(stats, StatisticsProvider) and (p is None or stats.p == p):
        return stats
    return None

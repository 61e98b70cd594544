"""Sketch-based statistics: one-pass, mergeable heavy-hitter estimation.

The estimating counterpart of :mod:`repro.stats` — Count-Sketches fed each
relation's int64 columns in one pass (or one pass per column slice, merged
by table addition), with hierarchical heavy-hitter recovery, combined into
:class:`SketchedHeavyHitterStatistics`: a
:class:`~repro.stats.provider.StatisticsProvider` subclass, like the exact
statistics, for the planner and the Section 4 skew-aware algorithms.
"""

from .count_sketch import (
    LARGE_PRIME,
    CountSketch,
    HierarchicalCountSketch,
    SketchError,
    mulmod61,
)
from .statistics import (
    RelationSketchSet,
    RelationSketchSpec,
    SketchConfig,
    SketchedHeavyHitterStatistics,
    build_sketch_set,
    sketch_fidelity,
)

__all__ = [
    "LARGE_PRIME",
    "CountSketch",
    "HierarchicalCountSketch",
    "SketchError",
    "mulmod61",
    "RelationSketchSet",
    "RelationSketchSpec",
    "SketchConfig",
    "SketchedHeavyHitterStatistics",
    "build_sketch_set",
    "sketch_fidelity",
]

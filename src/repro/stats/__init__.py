"""Database statistics: cardinalities, heavy hitters, frequency bins,
degree sequences."""

from .bins import (
    BinCombination,
    assignment_bin_exponent,
    bin_exponent,
    bin_index,
    combination_for_assignment,
    light_bin_index,
    num_heavy_bins,
)
from .cardinality import SimpleStatistics, StatisticsError
from .degrees import DegreeStatistics
from .heavy_hitters import (
    MAX_SUBSET_VARIABLES,
    HeavyHitterStatistics,
    nonempty_subsets,
)
from .provider import (
    Assignment,
    StatisticsProvider,
    VarSubset,
    canonical_subset,
)

__all__ = [
    "MAX_SUBSET_VARIABLES",
    "StatisticsProvider",
    "nonempty_subsets",
    "BinCombination",
    "assignment_bin_exponent",
    "bin_exponent",
    "bin_index",
    "combination_for_assignment",
    "light_bin_index",
    "num_heavy_bins",
    "SimpleStatistics",
    "StatisticsError",
    "DegreeStatistics",
    "Assignment",
    "HeavyHitterStatistics",
    "VarSubset",
    "canonical_subset",
]

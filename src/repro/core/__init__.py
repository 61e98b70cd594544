"""The paper's primary contribution: packings, bounds, and the one-round
algorithms (HyperCube and its skew-aware extensions)."""

from .._lazy import lazy_exports

#: Every re-exported name → its module, imported on first access (PEP
#: 562): the routing path never loads the counting, Friedgut, MapReduce
#: or residual bounds.
_EXPORTS, __getattr__, __dir__ = lazy_exports(globals(), {
    ".bounds": (
        "BoundError", "K", "LowerBound", "broadcast_reduction", "load",
        "log2_K", "lower_bound", "space_exponent", "uniform_lower_bound",
        "vertex_loads",
    ),
    ".broadcast": ("BroadcastHyperCube", "reduced_query"),
    ".cartesian": (
        "CartesianProductAlgorithm", "cartesian_lower_bound_bits",
        "optimal_grid",
    ),
    ".counting": (
        "answers_per_server_bound", "expected_answer_count",
        "lower_bound_constant", "per_packing_fraction_bounds",
        "reported_fraction_bound",
    ),
    ".friedgut": (
        "agm_bound", "check_agm", "friedgut_gap", "friedgut_lhs",
        "friedgut_rhs",
    ),
    ".hashjoin": ("HashJoinAlgorithm", "default_partition_variables"),
    ".hypercube": ("HyperCubeAlgorithm", "HyperCubePlan"),
    ".mr_bounds": (
        "minimum_reducers", "replication_rate_bound_for_packing",
        "replication_rate_lower_bound", "triangle_replication_shape",
    ),
    ".packing": (
        "Packing", "fractional_edge_cover_number",
        "fractional_vertex_cover_number", "is_edge_cover",
        "is_edge_packing", "is_tight", "maximum_packing",
        "maximum_packing_value", "minimum_edge_cover",
        "non_dominated_packing_vertices", "packing_constraints",
        "packing_value", "packing_vertices",
    ),
    ".residual_bounds": (
        "ResidualBound", "best_residual_lower_bound", "residual_load",
        "residual_lower_bound", "saturating_packing_vertices",
    ),
    ".shares": (
        "DualShareSolution", "ShareError", "ShareExponents",
        "afrati_ullman_share_exponents", "dual_share_solution",
        "equal_integer_shares", "integer_shares",
        "optimal_share_exponents", "shares_product",
    ),
    ".skew_general": (
        "BinHyperCubeAlgorithm", "BinHyperCubePlan", "BinLP",
        "build_cprime", "solve_bin_lp",
    ),
    ".skew_join": (
        "SkewAwareJoin", "SkewAwareJoinPlan", "skew_join_load_bound",
    ),
})

__all__ = list(_EXPORTS)


"""repro — a reproduction of *Skew in Parallel Query Processing*
(Beame, Koutris, Suciu, PODS 2014; arXiv:1401.1872).

The package implements the MPC model, the HyperCube algorithm with
LP-optimal shares, the skew-aware one-round algorithms of Section 4, and
the matching communication lower bounds — plus every substrate they need
(conjunctive queries, an exact rational LP solver, a cluster simulator,
workload generators, balls-into-bins analysis, and the Section 5 MapReduce
model).

The public entry point is the experiment API (:mod:`repro.api`): a
registry of algorithms with declared applicability, a planner that ranks
them by the Section 3 predicted loads, and a sweep runner that executes
declarative grids through the pluggable execution engines.

Quickstart::

    from repro import Database, autoplan, plan, run_one_round
    from repro.data import uniform_relation

    q = "q(x, y, z) :- S1(x, z), S2(y, z)"
    db = Database.from_relations([
        uniform_relation("S1", 4096, 10_000, seed=1),
        uniform_relation("S2", 4096, 10_000, seed=2),
    ])
    query_plan = plan(q, db=db, p=64)       # ranked predictions + bound
    print(query_plan.explain())
    algo = query_plan.instantiate()         # minimum-predicted-load winner
    result = run_one_round(algo, db, p=64, verify=True)
    assert result.is_complete
    print(result.max_load_bits, query_plan.lower_bound_bits)

or, sweeping a grid::

    from repro import Sweep

    result = Sweep(q, workload="zipf", p_values=(8, 32),
                   skews=(0.0, 1.5)).run(max_workers=4)
    print(result.summary())
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

#: Every re-exported name → the subpackage it comes from, imported on
#: first access (PEP 562): ``import repro`` loads none of them, so a
#: command pays only for what it runs.
_EXPORTS, __getattr__, __dir__ = lazy_exports(globals(), {
    ".api": (
        "AlgorithmSpec", "Experiment", "QueryPlan", "RunRecord", "Sweep",
        "SweepResult", "WorkloadSpec", "algorithm_keys",
        "algorithm_specs", "applicable_specs", "autoplan", "get_spec",
        "plan", "register", "run_cell",
    ),
    ".core": (
        "BinHyperCubeAlgorithm", "BroadcastHyperCube",
        "CartesianProductAlgorithm", "HashJoinAlgorithm",
        "HyperCubeAlgorithm", "SkewAwareJoin", "agm_bound",
        "best_residual_lower_bound", "fractional_edge_cover_number",
        "fractional_vertex_cover_number", "lower_bound",
        "maximum_packing_value", "non_dominated_packing_vertices",
        "optimal_share_exponents", "replication_rate_lower_bound",
        "residual_lower_bound", "skew_join_load_bound", "space_exponent",
        "vertex_loads",
    ),
    ".mpc": (
        "BatchedEngine", "Cluster", "ExecutionEngine", "ExecutionResult",
        "HashFamily", "LoadReport", "MultiprocessEngine",
        "ReferenceEngine", "available_engines", "run_one_round",
    ),
    ".obs": ("MetricsRegistry", "Observation", "Tracer"),
    ".query": (
        "Atom", "ConjunctiveQuery", "QueryError", "parse_query",
        "residual_query", "triangle_query",
    ),
    ".seq": (
        "Database", "Relation", "RelationError", "count_answers",
        "evaluate",
    ),
    ".sketch": (
        "CountSketch", "HierarchicalCountSketch", "SketchConfig",
        "SketchedHeavyHitterStatistics", "sketch_fidelity",
    ),
    ".stats": (
        "DegreeStatistics", "HeavyHitterStatistics", "SimpleStatistics",
        "StatisticsProvider",
    ),
})

__all__ = [*_EXPORTS, "__version__"]


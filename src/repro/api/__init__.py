"""The experiment API: registry, bound-driven planner, and sweep runner.

This package is the intended public entry point for running the paper's
algorithms as *experiments* rather than hand-assembled scripts:

1. the registry (:mod:`repro.core.registry`, re-exported here) — every
   algorithm registered with declared applicability and a predicted-load
   cost hook (the one-round ones there, the multi-round ones by
   :mod:`repro.rounds`, which this package imports first);
2. :mod:`repro.api.planner` — :func:`plan`/:func:`autoplan` rank the
   registered algorithms by predicted max-load (Section 3 bounds) and
   instantiate the winner, carrying the Theorem 3.6 lower bound for
   optimality-gap reporting; :func:`tradeoff` is the round/load curve;
3. :mod:`repro.api.experiment` — :class:`Catalog` (query x
   :class:`WorkloadSpec` x ``p`` x statistics method) is the one value
   ``(query, database, statistics)`` is built from; :class:`Sweep`
   describes a declarative grid of cells (one point of it is a sweep whose
   axes hold one value each); one path takes a :class:`Cell` to a
   schema-checked :class:`RunRecord` (through
   :func:`repro.rounds.run_rounds`, for one round or many), driven by
   :func:`execute_cells`, the fault-isolated executor shared with
   ``repro serve`` and ``repro race``;
4. :mod:`repro.api.bench` — :data:`BENCH_SUITES`, one :class:`Suite` row
   per pinned quality suite behind ``repro bench`` and the committed
   ``BENCH_<suite>.json`` files (``core``, ``sketch``, ``rounds``: loads,
   gaps, regret and recall, no wall-clock — ``perf/`` times);
   :func:`run_suite` runs a row's grid once into its bench document,
   :func:`validate_bench` checks one, :func:`compare_bench` lists its
   differences from a baseline (the CI gate: none) and
   :func:`suite_gate_failures` the row's absolute gates.

The multi-round algorithms (two-round triangle, the generic
round-composed join) and the runner ``run_rounds`` live one layer down in
:mod:`repro.rounds`; the planner ranks them whenever
``plan(..., max_rounds >= 2)`` admits them, and :class:`Sweep` exposes
the budget as its ``rounds`` axis.

Typical use::

    from repro.api import Sweep, autoplan

    algo = autoplan("q(x,y,z) :- S1(x,z), S2(y,z)", db=db, p=32)
    result = Sweep(
        "q(x,y,z) :- S1(x,z), S2(y,z)",
        workload="zipf", p_values=(8, 32), skews=(0.0, 1.5),
    ).run(max_workers=4)
    print(result.summary())
"""

from .. import rounds  # noqa: F401 - registers the multi-round algorithms
from .._lazy import lazy_exports

#: Every re-exported name → its module, imported on first access (PEP
#: 562): a sweep never loads :mod:`repro.api.bench` or the sketch.
_EXPORTS, __getattr__, __dir__ = lazy_exports(globals(), {
    ".bench": (
        "BENCH_SCHEMA", "BENCH_SUITES", "BenchError", "Suite",
        "compare_bench", "run_suite", "suite_gate_failures",
        "validate_bench",
    ),
    ".experiment": (
        "Catalog", "Cell", "ExperimentError", "Sweep",
        "SweepResult", "WORKLOAD_KINDS", "WorkloadSpec", "execute_cells",
        "failure_record", "run_cell",
    ),
    ".planner": (
        "PlanError", "Prediction", "QueryPlan", "STATS_METHODS",
        "TradeoffPoint", "autoplan", "plan", "resolve_statistics",
        "tradeoff",
    ),
    ".records": (
        "RUN_RECORD_FIELDS", "RUN_RECORD_SCHEMA", "RecordError",
        "RunRecord", "records_from_json", "records_to_csv",
        "records_to_json", "validate_record",
    ),
    "..core.registry": (
        "AlgorithmSpec", "RegistryError", "algorithm_keys",
        "algorithm_specs", "applicable_specs", "get_spec", "register",
        "unregister",
    ),
})

__all__ = list(_EXPORTS)


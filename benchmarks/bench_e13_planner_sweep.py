"""E13 — the experiment API itself: planner accuracy and sweep throughput.

Two questions the paper's Section 3 story implies but the seed never
measured:

1. **Planner accuracy** — across a skew grid, how often does the
   minimum-*predicted*-load algorithm actually achieve (close to) the
   minimum *measured* load?  The planner is useful exactly when this
   regret stays small.
2. **Sweep throughput** — cells/second of the declarative grid runner,
   the number that bounds every larger experiment campaign.

Per-cell timings come from the observability layer: an
:class:`~repro.obs.Observation` is passed into :meth:`Sweep.run` and the
``sweep.cell.seconds`` histogram it accumulates is reported alongside the
pytest-benchmark wall clock.
"""

from __future__ import annotations

from conftest import phase_ms, record
from repro.api import Sweep, run_suite, suite_gate_failures
from repro.obs import Observation

QUERY = "q(x, y, z) :- S1(x, z), S2(y, z)"
P_VALUES = (8, 32)
SKEWS = (0.0, 1.0, 2.0)
M = 600


def test_planner_regret(benchmark):
    """The planner's pick measures within 2x of the best algorithm."""
    sweep = Sweep(
        query=QUERY,
        workload="zipf",
        p_values=P_VALUES,
        m_values=(M,),
        skews=SKEWS,
        algorithms="applicable",
    )

    obs = Observation.create()
    result = benchmark.pedantic(
        lambda: sweep.run(obs=obs), rounds=1, iterations=1
    )
    worst_regret = 0.0
    picked_best = 0
    cells = result.best_per_cell()
    for cell, best in cells.items():
        auto = Sweep(
            query=QUERY,
            workload="zipf",
            p_values=(best.p,),
            m_values=(best.m,),
            skews=(best.skew,),
            seeds=(best.seed,),
            algorithms="auto",
        ).run().records[0]
        regret = auto.max_load_bits / best.max_load_bits
        worst_regret = max(worst_regret, regret)
        picked_best += int(auto.algorithm == best.algorithm)
    record(
        benchmark,
        "E13",
        cells=len(cells),
        picked_best=picked_best,
        worst_regret=worst_regret,
        cell_ms=phase_ms(obs, "sweep.cell"),
    )
    assert worst_regret <= 2.0


def test_sketch_planner_regret(benchmark):
    """Estimation error -> planner regret, as the pinned ``sketch`` suite
    measures and gates it: planning from the one-pass Count-Sketch
    statistics stays within 10% of the exact planner's worst-case regret,
    and the sketch misses no true heavy hitter."""
    obs = Observation.create()
    document = benchmark.pedantic(
        lambda: run_suite("sketch", obs=obs, repeats=1),
        rounds=1, iterations=1,
    )
    assert suite_gate_failures(document) == []
    summary = document["summary"]
    record(
        benchmark,
        "E13",
        exact_regret=summary["exact_worst_regret"],
        sketch_regret=summary["sketch_worst_regret"],
        regret_ratio=summary["regret_ratio"],
        min_recall=summary["sketch_min_recall"],
        stats_pass_ms=phase_ms(obs, "stats.build"),
    )


def test_sweep_throughput(benchmark):
    """Cells/second through the batched engine (load-only cells)."""
    sweep = Sweep(
        query=QUERY,
        workload="zipf",
        p_values=P_VALUES,
        m_values=(M,),
        skews=SKEWS,
        algorithms=("hypercube-lp", "hashjoin", "skew-join"),
    )
    obs = Observation.create()
    result = benchmark(lambda: sweep.run(obs=obs))
    assert len(result) == len(P_VALUES) * len(SKEWS) * 3
    record(
        benchmark,
        "E13",
        cells=len(result),
        cell_ms=phase_ms(obs, "sweep.cell"),
        mean_gap=sum(
            r.optimality_gap for r in result if r.optimality_gap
        ) / len(result),
    )

"""The pinned benchmark suites behind ``repro bench`` and ``BENCH_<suite>.json``.

This is the repo's persisted perf trajectory.  A *suite* is one row of
:data:`BENCH_SUITES`: a pinned workload grid (fixed query, generator
kind, skews, seeds and server counts), the sweep axes, entry columns and
summary numbers it adds, and its absolute acceptance gates.
:func:`run_suite` — the only function that assembles a bench document —
executes a row's grid through the sweep runner with full observability
and reduces it to a JSON document with three regression-gateable
families of numbers per grid cell:

* **wall-clock** — per-cell and total, plus a machine-speed
  ``calibration_seconds`` (a fixed pure-Python workload timed on the same
  interpreter) so CI can compare *normalized* wall-clock across runners;
* **max-load vs the Theorem 3.6 lower bound** — the optimality gap, which
  is deterministic for a pinned grid (hashing is seeded), so any drift is
  a real behavior change;
* **planner optimality gap** — the regret of the minimum-*predicted*-load
  pick against the minimum-*measured*-load algorithm per cell.

:func:`validate_bench` checks a document against :data:`BENCH_SCHEMA` and
its suite's own columns (what CI runs over the emitted file);
:func:`compare_bench` produces the list of regressions versus a committed
baseline and :func:`suite_gate_failures` the row's absolute gate failures
(empty = gate passes).  A committed ``BENCH_<suite>.json`` is refreshed
with ``repro bench --suite <suite> --quick --output BENCH_<suite>.json``;
its git history is the trajectory.

The rows: ``core`` (the simple join on a Zipf grid), ``sketch`` (the core
grid planned and executed twice per cell, from exact frequencies and from
the one-pass Count-Sketch estimates: what estimation error costs the
planner) and ``rounds`` (a triangle grid under a round budget of two: what
the second round buys).  Adding a suite is adding a row.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from itertools import product
from typing import Callable, Mapping, Sequence

import numpy as np

from ..mpc.farm import split_contiguous
from ..obs import Observation
from ..sketch import (
    RelationSketchSet,
    SketchConfig,
    SketchedHeavyHitterStatistics,
    build_sketch_set,
    sketch_fidelity,
)
from ..stats.heavy_hitters import HeavyHitterStatistics
from .experiment import Catalog, Sweep, SweepResult, WorkloadSpec
from .records import RunRecord, Schema, check_fields


class BenchError(ValueError):
    """Raised when a bench document does not match :data:`BENCH_SCHEMA`,
    or when a suite, baseline or tolerance cannot be used."""


_NUMBER = ((int, float), False)

#: what every suite's document has at top level
BENCH_SCHEMA: Schema = {
    "schema_version": ((int,), False),
    "suite": ((str,), False),
    "quick": ((bool,), False),
    "repeats": ((int,), False),
    "query": ((str,), False),
    "grid": ((dict,), False),
    "calibration_seconds": _NUMBER,
    "entries": ((list,), False),
    "summary": ((dict,), False),
}

#: what every suite's entries have, around a row's ``entry_columns``; every
#: field but ``id`` is read off the :class:`RunRecord` under its own name
_ENTRY_HEAD: Schema = {
    "id": ((str,), False),
    "algorithm": ((str,), False),
    "workload": ((str,), False),
    "p": ((int,), False),
    "m": ((int,), False),
    "skew": _NUMBER,
    "seed": ((int,), False),
}
_ENTRY_TAIL: Schema = {
    "wall_seconds": _NUMBER,   # the best across the run's passes
    "max_load_bits": _NUMBER,
    "lower_bound_bits": _NUMBER,
    "optimality_gap": ((int, float), True),
    "predicted_load_bits": _NUMBER,
}

#: what every suite's summary has; a row's ``summary_numbers`` come on top
_SUMMARY_FIELDS = (
    "total_wall_seconds",
    "normalized_wall",
    "mean_optimality_gap",
    "max_optimality_gap",
    "planner_mean_regret",
    "planner_worst_regret",
)


@dataclass(frozen=True)
class Suite:
    """One pinned suite: everything ``repro bench --suite NAME`` is.

    Changing a row's query or grids invalidates baseline comparability —
    rename the suite if you must.
    """

    name: str
    query: str
    #: :class:`Sweep` grid arguments of the full and the ``--quick`` run
    full_grid: Mapping[str, object]
    quick_grid: Mapping[str, object]
    #: the :class:`Sweep` axes the suite adds to its grid
    axes: Mapping[str, object] = field(default_factory=dict)
    #: the :class:`RunRecord` fields every entry carries between
    #: :data:`_ENTRY_HEAD` and :data:`_ENTRY_TAIL`, with their schema
    entry_columns: Schema = field(default_factory=dict)
    #: the summary numbers ``extend`` adds to :data:`_SUMMARY_FIELDS`
    summary_numbers: tuple[str, ...] = ()
    #: ``extend(document, records, grid, obs)``: the suite's own pass over
    #: the assembled document and the records it was assembled from
    extend: Callable[..., None] | None = None
    #: absolute acceptance gates, beyond :func:`compare_bench`'s relative
    #: ones: (summary key, what its value must satisfy, the failure
    #: message, formatted with ``value``)
    gates: tuple[tuple[str, Callable[[float], bool], str], ...] = ()

    @property
    def entry_schema(self) -> Schema:
        return {**_ENTRY_HEAD, **self.entry_columns, **_ENTRY_TAIL}


def calibrate(rounds: int = 3) -> float:
    """Seconds for a fixed pure-Python workload on this interpreter.

    The denominator that makes wall-clock portable across machines: a
    regression gate compares ``total_wall_seconds / calibration_seconds``,
    so a uniformly slower CI runner does not read as a regression.
    Best-of-``rounds`` to shed scheduler noise.
    """
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        best = min(best, time.perf_counter() - started)
    # Guard against pathological clocks; the workload takes >1ms anywhere.
    return max(best, 1e-4)


def _entry_id(record: RunRecord) -> str:
    # The stats method is suffixed only when non-default so the ids of the
    # committed core baseline (written before the stats axis existed)
    # remain comparable.
    suffix = "" if record.stats == "exact" else f"-{record.stats}"
    return (
        f"{record.workload}-m{record.m}-s{record.skew:g}-p{record.p}-"
        f"{record.algorithm}{suffix}"
    )


def regrets(records: Sequence[RunRecord]) -> list[float]:
    """Planner regret of every cell of ``records``.

    The planner's pick is the minimum-*predicted*-cost record of the cell
    (exactly what ``algorithms="auto"`` would choose, since every
    applicable algorithm was measured); its measured cost over the cell's
    best measured cost is the regret.  Cost is the planner's scale, max
    per-round load x rounds — plain load on one-round grids.
    """
    out = []
    for cell_records in SweepResult(records).by_cell().values():
        picked = min(cell_records,
                     key=lambda r: r.predicted_load_bits * r.rounds)
        best = min(cell_records, key=lambda r: r.max_load_bits * r.rounds)
        best_cost = best.max_load_bits * best.rounds
        if best_cost > 0:
            out.append(picked.max_load_bits * picked.rounds / best_cost)
    return out


def _jsonable(value: object) -> object:
    return list(value) if isinstance(value, tuple) else value


def _merge_bit_identical(query, db, config) -> bool:
    """Two-shard build merges to exactly the single-pass sketch tables."""
    single = build_sketch_set(query, db, config)
    domains = {
        atom.name: db.relation(atom.name).domain_size for atom in query.atoms
    }
    first = RelationSketchSet.empty(query, domains, config)
    second = RelationSketchSet.empty(query, domains, config)
    for name in dict.fromkeys(atom.name for atom in query.atoms):
        halves = split_contiguous(db.relation(name).batch, 2)
        for shard, half in zip((first, second), halves):
            shard.update(name, half.columns)
    merged = first.merge(second)
    return all(
        np.array_equal(mine, theirs)
        for key, sketch in single.sketches.items()
        for mine, theirs in zip(sketch.tables(),
                                merged.sketches[key].tables())
    )


def _sketch_pass(document, records, grid, obs) -> None:
    """What sketch estimation error costs the planner, next to the core
    families (which the ``stats`` axis makes per statistics method): the
    worst regret planning from exact and from sketched statistics and
    their ratio, a ``fidelity`` point per grid point (recall must be 1.0:
    a missed heavy hitter overloads the light path), and whether
    sharded-then-merged sketches equal the single-pass build bit for bit
    (checked once per generated database).
    """
    exact_regret, sketch_regret = (
        max(regrets([r for r in records if r.stats == method]), default=1.0)
        for method in ("exact", "sketch")
    )

    config = SketchConfig()
    merge_identical = True
    points = []
    for m, skew, seed in product(
        grid["m_values"], grid["skews"], grid["seeds"]
    ):
        query, db = Catalog(
            document["query"], WorkloadSpec(grid["workload"], m, skew, seed)
        ).generate(obs)
        merge_identical &= _merge_bit_identical(query, db, config)
        for p in grid["p_values"]:
            report = sketch_fidelity(
                HeavyHitterStatistics.of(query, db, p),
                SketchedHeavyHitterStatistics.of(
                    query, db, p, config=config, obs=obs
                ),
            )
            points.append({
                "m": m, "skew": skew, "seed": seed, "p": p,
                **{key: report[key] for key in (
                    "recall", "precision", "max_rel_error",
                    "true_heavy", "sketched_heavy",
                )},
            })

    # Re-inserted so "fidelity" keeps its place ahead of "summary".
    summary = document.pop("summary")
    document["fidelity"] = points
    document["summary"] = {
        **summary,
        # Over the two statistics methods, not over the cells.
        "planner_mean_regret": (exact_regret + sketch_regret) / 2,
        "exact_worst_regret": exact_regret,
        "sketch_worst_regret": sketch_regret,
        "regret_ratio": sketch_regret / exact_regret,   # a regret is >= 1
        "sketch_min_recall": min(point["recall"] for point in points),
        "sketch_mean_precision":
            sum(point["precision"] for point in points) / len(points),
        "sketch_max_rel_error":
            max(point["max_rel_error"] for point in points),
        "merge_bit_identical": 1.0 if merge_identical else 0.0,
    }


def _rounds_pass(document, records, grid, obs) -> None:
    """The two-round triangle against the best one-round algorithm, per
    cell: predicted and measured max-load speedups (worst case over the
    grid) and the two-round optimality gaps (against the multi-round
    repartition bound its entries carry as ``lower_bound_bits``)."""
    speedups_predicted: list[float] = []
    speedups_measured: list[float] = []
    two_round_gaps: list[float] = []
    for cell_records in SweepResult(records).by_cell().values():
        one_round = [r for r in cell_records if r.rounds == 1]
        two = next((r for r in cell_records
                    if r.algorithm == "two-round-triangle"), None)
        if not one_round or two is None:
            continue
        if two.predicted_load_bits > 0:
            speedups_predicted.append(
                min(r.predicted_load_bits for r in one_round)
                / two.predicted_load_bits
            )
        if two.max_load_bits > 0:
            speedups_measured.append(
                min(r.max_load_bits for r in one_round) / two.max_load_bits
            )
        if two.optimality_gap is not None:
            two_round_gaps.append(two.optimality_gap)

    document["summary"].update({
        "two_round_min_speedup_predicted":
            min(speedups_predicted, default=0.0),
        "two_round_min_speedup_measured":
            min(speedups_measured, default=0.0),
        "two_round_mean_speedup_measured":
            (sum(speedups_measured) / len(speedups_measured)
             if speedups_measured else 0.0),
        "two_round_min_gap": min(two_round_gaps, default=0.0),
        "two_round_max_gap": max(two_round_gaps, default=0.0),
    })


_CORE = Suite(
    name="core",
    query="q(x, y, z) :- S1(x, z), S2(y, z)",
    full_grid=dict(workload="zipf", p_values=(8, 32), m_values=(400,),
                   skews=(0.0, 1.0, 2.0), seeds=(0,)),
    quick_grid=dict(workload="zipf", p_values=(8,), m_values=(160,),
                    skews=(0.0, 1.2), seeds=(0,)),
)

#: suite name -> row; the single source of truth for what ``repro bench
#: --suite`` accepts, runs, validates and gates.
BENCH_SUITES: dict[str, Suite] = {suite.name: suite for suite in (
    _CORE,
    replace(
        _CORE,
        name="sketch",
        axes={"stats": ("exact", "sketch")},
        entry_columns={"stats": ((str,), False)},
        summary_numbers=(
            "exact_worst_regret",
            "sketch_worst_regret",
            "regret_ratio",
            "sketch_min_recall",
            "sketch_mean_precision",
            "sketch_max_rel_error",
            "merge_bit_identical",
        ),
        extend=_sketch_pass,
        gates=(
            ("sketch_min_recall", lambda recall: recall >= 1.0,
             "sketched statistics missed true heavy hitters "
             "(min recall {value!r}, want 1.0)"),
            ("merge_bit_identical", lambda identical: identical == 1.0,
             "sharded sketch merge is not bit-identical to the "
             "single-pass build"),
            ("regret_ratio", lambda ratio: ratio <= 1.10,
             "sketched planner regret ratio {value!r} exceeds 1.10x "
             "the exact planner's"),
        ),
    ),
    # The triangle: the query where one communication round is provably
    # expensive (Example 3.7's p^{1/3} replication) and two rounds are
    # not.  ``rounds=2`` with every applicable algorithm measures each
    # one-round algorithm that accepts the triangle *and* both multi-round
    # ones, so each cell prices the round/load tradeoff end to end.
    Suite(
        name="rounds",
        query="q(x, y, z) :- R(x, y), S(y, z), T(z, x)",
        full_grid=dict(workload="zipf", p_values=(8, 16), m_values=(300,),
                       skews=(0.0, 0.8, 1.5), seeds=(0,)),
        quick_grid=dict(workload="zipf", p_values=(8,), m_values=(160,),
                        skews=(0.0, 1.5), seeds=(0,)),
        axes={"rounds": 2},
        entry_columns={
            "rounds": ((int,), False),
            "round_load_bits": ((list,), True),
        },
        summary_numbers=(
            "two_round_min_speedup_predicted",
            "two_round_min_speedup_measured",
            "two_round_mean_speedup_measured",
            "two_round_min_gap",
            "two_round_max_gap",
        ),
        extend=_rounds_pass,
        gates=(
            ("two_round_min_speedup_predicted", lambda speedup: speedup > 1.0,
             "two-round triangle does not beat the best one-round "
             "algorithm's predicted load on every cell "
             "(min speedup {value!r}, want > 1.0)"),
            # The paper's point: more rounds buy load.
            ("two_round_min_speedup_measured", lambda speedup: speedup > 1.0,
             "two-round triangle does not beat the best one-round "
             "algorithm's measured load on every cell "
             "(min speedup {value!r}, want > 1.0)"),
            # A gap < 1 would mean the bound, or the fold, is wrong.
            ("two_round_min_gap", lambda gap: gap >= 1.0,
             "two-round measured load dips below the multi-round lower "
             "bound (min gap {value!r}, want >= 1.0)"),
        ),
    ),
)}


def _suite(name: object) -> Suite:
    try:
        return BENCH_SUITES[name]
    except (KeyError, TypeError):
        raise BenchError(
            f"unknown bench suite {name!r}; "
            f"choose from {', '.join(BENCH_SUITES)}"
        ) from None


def run_suite(
    name: str,
    quick: bool = False,
    obs: Observation | None = None,
    repeats: int = 3,
) -> dict:
    """Run the named row of :data:`BENCH_SUITES`; return its bench
    document.  Unknown names list the valid choices.

    Loads, gaps and regret are deterministic (seeded hashing), so one pass
    suffices for them; wall-clock is not, so the grid runs ``repeats``
    times and every timing is the best (minimum) across passes — the
    standard way to shed scheduler noise from a sub-second suite.
    """
    suite = _suite(name)
    if repeats < 1:
        raise BenchError(f"the {name} suite needs repeats >= 1")
    grid = suite.quick_grid if quick else suite.full_grid
    sweep = Sweep(query=suite.query, algorithms="applicable", observe=True,
                  **grid, **suite.axes)
    calibration = calibrate()
    obs = obs if obs is not None else Observation.create()
    total_wall = float("inf")
    best_wall: dict[str, float] = {}
    for _ in range(repeats):
        started = time.perf_counter()
        records = sweep.run(obs=obs).records
        total_wall = min(total_wall, time.perf_counter() - started)
        for record in records:
            entry_id = _entry_id(record)
            best_wall[entry_id] = min(
                best_wall.get(entry_id, float("inf")), record.wall_seconds
            )
    columns = [name for name in suite.entry_schema if name != "id"]
    entries = [
        {
            "id": _entry_id(record),
            **{name: _jsonable(getattr(record, name)) for name in columns},
            "wall_seconds": best_wall[_entry_id(record)],
        }
        for record in records
    ]
    gaps = [e["optimality_gap"] for e in entries
            if e["optimality_gap"] is not None]
    cell_regrets = regrets(records)
    document = {
        "schema_version": 1,
        "suite": name,
        "quick": quick,
        "repeats": repeats,
        "query": suite.query,
        "grid": {key: _jsonable(value) for key, value in grid.items()},
        "calibration_seconds": calibration,
        "entries": entries,
        "summary": {
            "total_wall_seconds": total_wall,
            "normalized_wall": total_wall / calibration,
            "mean_optimality_gap": sum(gaps) / len(gaps) if gaps else 0.0,
            "max_optimality_gap": max(gaps, default=0.0),
            "planner_mean_regret":
                sum(cell_regrets) / len(cell_regrets) if cell_regrets else 1.0,
            "planner_worst_regret": max(cell_regrets, default=1.0),
        },
    }
    if suite.extend is not None:
        suite.extend(document, records, grid, obs)
    return document


def validate_bench(data: object) -> None:
    """Check a bench document against :data:`BENCH_SCHEMA` and its suite's
    row; raise :class:`BenchError` on the first violation."""
    check_fields(data, BENCH_SCHEMA, BenchError, "bench document")
    suite = _suite(data["suite"])
    if not data["entries"]:
        raise BenchError("bench document has no entries")
    entry_schema = suite.entry_schema
    seen: set[str] = set()
    for entry in data["entries"]:
        check_fields(entry, entry_schema, BenchError, "entry")
        if entry["id"] in seen:
            raise BenchError(f"duplicate entry id {entry['id']!r}")
        seen.add(entry["id"])
    check_fields(
        data["summary"],
        dict.fromkeys(_SUMMARY_FIELDS + suite.summary_numbers, _NUMBER),
        BenchError, "summary",
    )


def suite_gate_failures(document: Mapping) -> list[str]:
    """Failures of the absolute gates of ``document``'s suite (empty =
    passes; a row without gates passes vacuously)."""
    summary = document.get("summary", {})
    failures = []
    for key, passes, message in _suite(document.get("suite")).gates:
        value = summary.get(key)
        if not isinstance(value, (int, float)) or not passes(value):
            failures.append(message.format(value=value))
    return failures


def compare_bench(
    baseline: Mapping, current: Mapping, max_regression: float = 0.20
) -> list[str]:
    """Regressions of ``current`` vs ``baseline``; empty list = gate passes.

    Gates, each tolerating a relative ``max_regression`` (default 20%):

    * normalized wall-clock (total wall over the machine calibration);
    * per-entry optimality gap, on entries present in both documents
      (deterministic for a pinned grid, so the tolerance only absorbs
      float noise and generator tweaks);
    * planner worst-case regret.

    Comparing documents from different suites, queries or grids is an
    error — those numbers are not commensurable — and so is a negative
    tolerance.
    """
    if max_regression < 0:
        raise BenchError(
            f"the regression tolerance must be >= 0, got {max_regression}"
        )
    for what in ("suite", "query", "grid"):
        if baseline.get(what) != current.get(what):
            raise BenchError(
                f"cannot compare bench documents of different {what}: "
                f"baseline {baseline.get(what)!r}, "
                f"current {current.get(what)!r}"
            )
    base_entries = {e["id"]: e for e in baseline["entries"]}
    base_summary, summary = baseline["summary"], current["summary"]
    # (what, baseline, current, digits shown, what follows the numbers)
    pairs = [
        ("normalized wall-clock",
         base_summary["normalized_wall"], summary["normalized_wall"], 1,
         f" calibration units, tolerance {max_regression:.0%}"),
        *((f"{entry['id']}: optimality gap",
           base_entries[entry["id"]]["optimality_gap"],
           entry["optimality_gap"], 3, "")
          for entry in current["entries"] if entry["id"] in base_entries),
        ("planner worst regret",
         base_summary["planner_worst_regret"],
         summary["planner_worst_regret"], 3, ""),
    ]
    failures = []
    for what, base, value, digits, unit in pairs:
        if base is None or value is None or base <= 0:
            continue
        if value > base * (1.0 + max_regression):
            failures.append(
                f"{what} regressed {value / base:.2f}x ({value:.{digits}f} "
                f"vs baseline {base:.{digits}f}{unit})"
            )
    return failures

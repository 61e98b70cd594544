"""The pinned benchmark suite behind ``repro bench`` and ``BENCH_core.json``.

This is the repo's persisted perf trajectory: :func:`run_bench` executes a
*pinned* workload grid (fixed query, generator kinds, skews, seeds and
server counts) through the sweep runner with full observability, and
reduces it to a JSON document with three regression-gateable families of
numbers per grid cell:

* **wall-clock** — per-cell and total, plus a machine-speed
  ``calibration_seconds`` (a fixed pure-Python workload timed on the same
  interpreter) so CI can compare *normalized* wall-clock across runners;
* **max-load vs the Theorem 3.6 lower bound** — the optimality gap, which
  is deterministic for a pinned grid (hashing is seeded), so any drift is
  a real behavior change;
* **planner optimality gap** — the regret of the minimum-*predicted*-load
  pick against the minimum-*measured*-load algorithm per cell.

:func:`validate_bench` checks a document against :data:`BENCH_SCHEMA`
(what CI runs over the emitted file); :func:`compare_bench` produces the
list of regressions versus a committed baseline (empty = gate passes).
The committed ``BENCH_core.json`` is refreshed with ``repro bench --quick
--output BENCH_core.json``; its git history is the trajectory.

A second suite, :func:`run_sketch_bench` (``repro bench --suite sketch``,
persisted as ``BENCH_sketch.json``), runs the same pinned grid under both
statistics methods and measures what sketch estimation error costs the
planner; :func:`sketch_gate_failures` holds its absolute acceptance
gates (full heavy-hitter recall, bit-identical shard merges, regret
within 10% of exact).

A third suite, :func:`run_rounds_bench` (``repro bench --suite rounds``,
persisted as ``BENCH_rounds.json``), runs a pinned *triangle* grid with
a round budget of two and prices the multi-round subsystem: two-round
wall-clock, optimality gap versus the multi-round (repartition) lower
bound, and the two-round speedup over the best one-round algorithm —
predicted and measured — which :func:`rounds_gate_failures` gates
absolutely (the two-round triangle must win both on every grid cell).

:data:`BENCH_SUITES` maps suite names to runners; :func:`run_suite`
dispatches by name and lists the valid suites on a miss.
"""

from __future__ import annotations

import time
from typing import Callable, Mapping, Sequence

import numpy as np

from ..obs import Observation
from ..sketch import (
    RelationSketchSet,
    SketchConfig,
    SketchedHeavyHitterStatistics,
    build_sketch_set,
    sketch_fidelity,
)
from ..stats.heavy_hitters import HeavyHitterStatistics
from .experiment import Catalog, Sweep, WorkloadSpec
from .records import RunRecord


class BenchError(ValueError):
    """Raised when a bench document does not match :data:`BENCH_SCHEMA`."""


#: The pinned workload grid.  Changing anything here invalidates baseline
#: comparability — bump ``suite`` if you must.
QUERY = "q(x, y, z) :- S1(x, z), S2(y, z)"
FULL_GRID = {
    "workload": "zipf",
    "p_values": (8, 32),
    "m_values": (400,),
    "skews": (0.0, 1.0, 2.0),
    "seeds": (0,),
}
QUICK_GRID = {
    "workload": "zipf",
    "p_values": (8,),
    "m_values": (160,),
    "skews": (0.0, 1.2),
    "seeds": (0,),
}

#: top-level field -> (accepted types, nullable)
BENCH_SCHEMA: Mapping[str, tuple[tuple[type, ...], bool]] = {
    "schema_version": ((int,), False),
    "suite": ((str,), False),
    "quick": ((bool,), False),
    "repeats": ((int,), False),
    "query": ((str,), False),
    "grid": ((dict,), False),
    "calibration_seconds": ((int, float), False),
    "entries": ((list,), False),
    "summary": ((dict,), False),
}

_ENTRY_FIELDS: Mapping[str, tuple[tuple[type, ...], bool]] = {
    "id": ((str,), False),
    "algorithm": ((str,), False),
    "workload": ((str,), False),
    "p": ((int,), False),
    "m": ((int,), False),
    "skew": ((int, float), False),
    "seed": ((int,), False),
    "wall_seconds": ((int, float), False),
    "max_load_bits": ((int, float), False),
    "lower_bound_bits": ((int, float), False),
    "optimality_gap": ((int, float), True),
    "predicted_load_bits": ((int, float), False),
}

_SUMMARY_FIELDS = (
    "total_wall_seconds",
    "normalized_wall",
    "mean_optimality_gap",
    "max_optimality_gap",
    "planner_mean_regret",
    "planner_worst_regret",
)


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


def _by_cell(records: Sequence[RunRecord]) -> list[list[RunRecord]]:
    """``records`` grouped by grid cell (every axis but the algorithm)."""
    cells: dict[tuple, list[RunRecord]] = {}
    for r in records:
        key = (r.workload, r.m, r.skew, r.seed, r.p, r.stats)
        cells.setdefault(key, []).append(r)
    return list(cells.values())


def bench_sweep(quick: bool = False) -> Sweep:
    """The pinned :class:`Sweep` (every applicable algorithm per cell)."""
    grid = QUICK_GRID if quick else FULL_GRID
    return Sweep(query=QUERY, algorithms="applicable", observe=True, **grid)


def _regrets(records: Sequence[RunRecord]) -> list[float]:
    """Planner regret of every cell of ``records``.

    The planner's pick is the minimum-*predicted*-cost record of the cell
    (exactly what ``algorithms="auto"`` would choose, since every
    applicable algorithm was measured); its measured cost over the cell's
    best measured cost is the regret.  Cost is the planner's scale, max
    per-round load x rounds — plain load on one-round grids.
    """
    regrets = []
    for cell_records in _by_cell(records):
        picked = min(cell_records,
                     key=lambda r: r.predicted_load_bits * r.rounds)
        best = min(cell_records, key=lambda r: r.max_load_bits * r.rounds)
        best_cost = best.max_load_bits * best.rounds
        if best_cost > 0:
            regrets.append(picked.max_load_bits * picked.rounds / best_cost)
    return regrets


def _run_pinned(
    suite: str,
    sweep: Sweep,
    grid: Mapping[str, object],
    quick: bool,
    obs: Observation | None,
    repeats: int,
    extra_columns: Callable[[RunRecord], dict] = lambda record: {},
) -> tuple[dict, tuple[RunRecord, ...]]:
    """What every suite shares: run the pinned ``sweep``, assemble the
    entries and the six gateable summary numbers.

    Loads, gaps and regret are deterministic (seeded hashing), so one pass
    suffices for them; wall-clock is not, so the grid runs ``repeats``
    times and every timing is the best (minimum) across passes — the
    standard way to shed scheduler noise from a sub-second suite.  A
    suite adds entry fields through ``extra_columns(record)`` and extends
    the returned document's ``summary``; the records come back too.
    """
    if repeats < 1:
        raise BenchError(f"the {suite} suite needs repeats >= 1")
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
    entries = [
        {
            "id": _entry_id(record),
            "algorithm": record.algorithm,
            "workload": record.workload,
            "p": record.p,
            "m": record.m,
            "skew": record.skew,
            "seed": record.seed,
            **extra_columns(record),
            "wall_seconds": best_wall[_entry_id(record)],
            "max_load_bits": record.max_load_bits,
            "lower_bound_bits": record.lower_bound_bits,
            "optimality_gap": record.optimality_gap,
            "predicted_load_bits": record.predicted_load_bits,
        }
        for record in records
    ]
    gaps = [e["optimality_gap"] for e in entries
            if e["optimality_gap"] is not None]
    regrets = _regrets(records)
    return {
        "schema_version": 1,
        "suite": suite,
        "quick": quick,
        "repeats": repeats,
        "query": str(sweep.query),
        "grid": {key: list(value) if isinstance(value, tuple) else value
                 for key, value in grid.items()},
        "calibration_seconds": calibration,
        "entries": entries,
        "summary": {
            "total_wall_seconds": total_wall,
            "normalized_wall": total_wall / calibration,
            "mean_optimality_gap": sum(gaps) / len(gaps) if gaps else 0.0,
            "max_optimality_gap": max(gaps, default=0.0),
            "planner_mean_regret":
                sum(regrets) / len(regrets) if regrets else 1.0,
            "planner_worst_regret": max(regrets, default=1.0),
        },
    }, records


def run_bench(
    quick: bool = False,
    obs: Observation | None = None,
    repeats: int = 3,
) -> dict:
    """Execute the pinned grid; return the ``BENCH_core.json`` document."""
    document, _ = _run_pinned(
        "core", bench_sweep(quick), QUICK_GRID if quick else FULL_GRID,
        quick, obs, repeats,
    )
    return document


def validate_bench(data: object) -> None:
    """Check a bench document against :data:`BENCH_SCHEMA`; raise
    :class:`BenchError` on the first violation."""
    if not isinstance(data, dict):
        raise BenchError("bench document must be a JSON object")
    for name, (types, nullable) in BENCH_SCHEMA.items():
        if name not in data:
            raise BenchError(f"bench document is missing field {name!r}")
        value = data[name]
        if value is None and not nullable:
            raise BenchError(f"field {name!r} must not be null")
        if isinstance(value, bool) and bool not in types:
            raise BenchError(f"field {name!r} has type bool, wants {types}")
        if value is not None and not isinstance(value, types):
            raise BenchError(
                f"field {name!r} has type {type(value).__name__}"
            )
    if not data["entries"]:
        raise BenchError("bench document has no entries")
    seen: set[str] = set()
    for entry in data["entries"]:
        if not isinstance(entry, dict):
            raise BenchError("entries must be objects")
        for name, (types, nullable) in _ENTRY_FIELDS.items():
            if name not in entry:
                raise BenchError(f"entry is missing field {name!r}")
            value = entry[name]
            if value is None:
                if not nullable:
                    raise BenchError(f"entry field {name!r} must not be null")
                continue
            if isinstance(value, bool) and bool not in types:
                raise BenchError(f"entry field {name!r} has type bool")
            if not isinstance(value, types):
                raise BenchError(
                    f"entry field {name!r} has type {type(value).__name__}"
                )
        if entry["id"] in seen:
            raise BenchError(f"duplicate entry id {entry['id']!r}")
        seen.add(entry["id"])
    summary = data["summary"]
    for name in _SUMMARY_FIELDS:
        if not isinstance(summary.get(name), (int, float)):
            raise BenchError(f"summary is missing numeric field {name!r}")


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

    Comparing documents from different suites or grids is an error —
    those numbers are not commensurable.
    """
    failures: list[str] = []
    if baseline.get("suite") != current.get("suite"):
        raise BenchError(
            f"cannot compare suites {baseline.get('suite')!r} and "
            f"{current.get('suite')!r}"
        )
    allowed = 1.0 + max_regression

    base_wall = baseline["summary"]["normalized_wall"]
    cur_wall = current["summary"]["normalized_wall"]
    if base_wall > 0 and cur_wall > base_wall * allowed:
        failures.append(
            f"normalized wall-clock regressed {cur_wall / base_wall:.2f}x "
            f"({cur_wall:.1f} vs baseline {base_wall:.1f} calibration units, "
            f"tolerance {max_regression:.0%})"
        )

    base_entries = {e["id"]: e for e in baseline["entries"]}
    shared = [e for e in current["entries"] if e["id"] in base_entries]
    for entry in shared:
        base_gap = base_entries[entry["id"]]["optimality_gap"]
        gap = entry["optimality_gap"]
        if base_gap is None or gap is None or base_gap <= 0:
            continue
        if gap > base_gap * allowed:
            failures.append(
                f"{entry['id']}: optimality gap regressed "
                f"{gap / base_gap:.2f}x ({gap:.3f} vs baseline "
                f"{base_gap:.3f})"
            )

    base_regret = baseline["summary"]["planner_worst_regret"]
    cur_regret = current["summary"]["planner_worst_regret"]
    if base_regret > 0 and cur_regret > base_regret * allowed:
        failures.append(
            f"planner worst regret regressed {cur_regret / base_regret:.2f}x "
            f"({cur_regret:.3f} vs baseline {base_regret:.3f})"
        )
    return failures


# ----------------------------------------------------------------------
# the sketch suite (``repro bench --suite sketch`` / BENCH_sketch.json)
# ----------------------------------------------------------------------

def sketch_bench_sweep(quick: bool = False) -> Sweep:
    """The pinned grid run under *both* statistics methods.

    Same workload points as the core suite, with the ``stats`` axis added
    — every cell is planned and executed twice, once from exact
    frequencies and once from the one-pass Count-Sketch estimates, so the
    document can price what estimation error costs the planner.
    """
    grid = QUICK_GRID if quick else FULL_GRID
    return Sweep(
        query=QUERY, algorithms="applicable", observe=True,
        stats=("exact", "sketch"), **grid,
    )


def _merge_bit_identical(query, db, config) -> bool:
    """Two-shard build merges to exactly the single-pass sketch tables."""
    single = build_sketch_set(query, db, config)
    domains = {
        atom.name: db.relation(atom.name).domain_size for atom in query.atoms
    }
    first = RelationSketchSet.empty(query, domains, config)
    second = RelationSketchSet.empty(query, domains, config)
    for name in dict.fromkeys(atom.name for atom in query.atoms):
        tuples = sorted(db.relation(name).tuples)
        half = len(tuples) // 2
        first.update_relation(name, tuples[:half])
        second.update_relation(name, tuples[half:])
    merged = first.merge(second)
    return all(
        np.array_equal(mine, theirs)
        for key, sketch in single.sketches.items()
        for mine, theirs in zip(sketch.tables(),
                                merged.sketches[key].tables())
    )


def run_sketch_bench(
    quick: bool = False,
    obs: Observation | None = None,
    repeats: int = 3,
) -> dict:
    """Execute the sketch suite; return the ``BENCH_sketch.json`` document.

    Besides the core suite's three gateable families (normalized wall,
    per-entry optimality gaps, planner regret — all now per stats
    method), the summary carries the estimation-error -> planner-regret
    measurement the sketch subsystem is gated on:

    * ``sketch_min_recall`` — worst-case fraction of true heavy hitters
      the sketch recovered across the grid (must be 1.0: a missed heavy
      hitter overloads the light path);
    * ``merge_bit_identical`` — 1.0 iff sharded-then-merged sketches
      equal the single-pass build bit for bit;
    * ``exact_worst_regret`` / ``sketch_worst_regret`` /
      ``regret_ratio`` — what planning from estimates costs relative to
      planning from exact statistics (gated at 1.10).
    """
    grid = QUICK_GRID if quick else FULL_GRID
    document, records = _run_pinned(
        "sketch", sketch_bench_sweep(quick), grid, quick, obs, repeats,
        extra_columns=lambda record: {"stats": record.stats},
    )
    exact_regret = max(
        _regrets([r for r in records if r.stats == "exact"]), default=1.0
    )
    sketch_regret = max(
        _regrets([r for r in records if r.stats == "sketch"]), default=1.0
    )
    regret_ratio = (sketch_regret / exact_regret) if exact_regret > 0 else 1.0

    # Fidelity pass: exact vs sketched heavy hitters on every grid point,
    # plus the shard-merge bit-identity check (once per workload).
    config = SketchConfig()
    min_recall = 1.0
    precisions: list[float] = []
    max_rel_error = 0.0
    merge_identical = True
    fidelity_points = []
    for m in grid["m_values"]:
        for skew in grid["skews"]:
            for seed in grid["seeds"]:
                query, db = Catalog(QUERY, WorkloadSpec(
                    grid["workload"], m, skew, seed)).generate(obs)
                merge_identical &= _merge_bit_identical(query, db, config)
                for p in grid["p_values"]:
                    exact = HeavyHitterStatistics.of(query, db, p)
                    sketched = SketchedHeavyHitterStatistics.of(
                        query, db, p, config=config, obs=obs
                    )
                    report = sketch_fidelity(exact, sketched)
                    min_recall = min(min_recall, report["recall"])
                    precisions.append(report["precision"])
                    max_rel_error = max(
                        max_rel_error, report["max_rel_error"]
                    )
                    fidelity_points.append({
                        "m": m, "skew": skew, "seed": seed, "p": p,
                        "recall": report["recall"],
                        "precision": report["precision"],
                        "max_rel_error": report["max_rel_error"],
                        "true_heavy": report["true_heavy"],
                        "sketched_heavy": report["sketched_heavy"],
                    })

    # Re-inserted so "fidelity" keeps its place ahead of "summary".
    summary = document.pop("summary")
    document["fidelity"] = fidelity_points
    document["summary"] = {
        **summary,
        "planner_mean_regret": (exact_regret + sketch_regret) / 2,
        "planner_worst_regret": max(exact_regret, sketch_regret),
        "exact_worst_regret": exact_regret,
        "sketch_worst_regret": sketch_regret,
        "regret_ratio": regret_ratio,
        "sketch_min_recall": min_recall,
        "sketch_mean_precision":
            sum(precisions) / len(precisions) if precisions else 1.0,
        "sketch_max_rel_error": max_rel_error,
        "merge_bit_identical": 1.0 if merge_identical else 0.0,
    }
    return document


def sketch_gate_failures(document: Mapping) -> list[str]:
    """The sketch suite's *absolute* acceptance gates (beyond
    :func:`compare_bench`'s relative ones); empty list = gate passes.

    * every true heavy hitter recovered (``sketch_min_recall == 1.0``);
    * sharded build bit-identical to single-pass
      (``merge_bit_identical == 1.0``);
    * planning from sketch estimates within 10% of the exact planner's
      worst-case regret (``regret_ratio <= 1.10``).
    """
    summary = document.get("summary", {})
    failures: list[str] = []
    recall = summary.get("sketch_min_recall")
    if not isinstance(recall, (int, float)) or recall < 1.0:
        failures.append(
            f"sketched statistics missed true heavy hitters "
            f"(min recall {recall!r}, want 1.0)"
        )
    identical = summary.get("merge_bit_identical")
    if identical != 1.0:
        failures.append(
            "sharded sketch merge is not bit-identical to the "
            "single-pass build"
        )
    ratio = summary.get("regret_ratio")
    if not isinstance(ratio, (int, float)) or ratio > 1.10:
        failures.append(
            f"sketched planner regret ratio {ratio!r} exceeds 1.10x "
            f"the exact planner's"
        )
    return failures


# ----------------------------------------------------------------------
# the rounds suite (``repro bench --suite rounds`` / BENCH_rounds.json)
# ----------------------------------------------------------------------

#: The pinned triangle grid — the query where one communication round is
#: provably expensive (Example 3.7's p^{1/3} replication) and two rounds
#: are not.  Same invalidation rule as the core grid.
ROUNDS_QUERY = "q(x, y, z) :- R(x, y), S(y, z), T(z, x)"
ROUNDS_FULL_GRID = {
    "workload": "zipf",
    "p_values": (8, 16),
    "m_values": (300,),
    "skews": (0.0, 0.8, 1.5),
    "seeds": (0,),
}
ROUNDS_QUICK_GRID = {
    "workload": "zipf",
    "p_values": (8,),
    "m_values": (160,),
    "skews": (0.0, 1.5),
    "seeds": (0,),
}

_TWO_ROUND_KEY = "two-round-triangle"


def rounds_bench_sweep(quick: bool = False) -> Sweep:
    """The pinned triangle grid under a round budget of two.

    ``algorithms="applicable"`` with ``rounds=2`` measures every
    one-round algorithm that accepts the triangle *and* both multi-round
    algorithms, so each cell prices the round/load tradeoff end to end.
    """
    grid = ROUNDS_QUICK_GRID if quick else ROUNDS_FULL_GRID
    return Sweep(
        query=ROUNDS_QUERY, algorithms="applicable", observe=True,
        rounds=2, **grid,
    )


def run_rounds_bench(
    quick: bool = False,
    obs: Observation | None = None,
    repeats: int = 3,
) -> dict:
    """Execute the rounds suite; return the ``BENCH_rounds.json`` document.

    Entries carry the executed round count and per-round loads on top of
    the core fields; each entry's ``lower_bound_bits`` is the bound that
    actually constrains it (Theorem 3.6 for one-round entries, the
    multi-round repartition bound for the rest), so the optimality-gap
    gates of :func:`compare_bench` stay meaningful per family.  The
    summary adds the two-round-vs-best-one-round speedups (predicted and
    measured, worst case over the grid) that
    :func:`rounds_gate_failures` gates absolutely, plus the planner's
    regret on its combined scale (max per-round load x rounds).
    """
    document, records = _run_pinned(
        "rounds", rounds_bench_sweep(quick),
        ROUNDS_QUICK_GRID if quick else ROUNDS_FULL_GRID, quick, obs, repeats,
        extra_columns=lambda record: {
            "rounds": record.rounds,
            "round_load_bits": (None if record.round_load_bits is None
                                else list(record.round_load_bits)),
        },
    )

    # Per cell: the two-round triangle against the best one-round
    # algorithm (predicted and measured max-load).
    speedups_predicted: list[float] = []
    speedups_measured: list[float] = []
    two_round_gaps: list[float] = []
    for cell_records in _by_cell(records):
        one_round = [r for r in cell_records if r.rounds == 1]
        two_round = [r for r in cell_records
                     if r.algorithm == _TWO_ROUND_KEY]
        if one_round and two_round:
            best_predicted = min(r.predicted_load_bits for r in one_round)
            best_measured = min(r.max_load_bits for r in one_round)
            two = two_round[0]
            if two.predicted_load_bits > 0:
                speedups_predicted.append(
                    best_predicted / two.predicted_load_bits
                )
            if two.max_load_bits > 0:
                speedups_measured.append(best_measured / two.max_load_bits)
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
    return document


def rounds_gate_failures(document: Mapping) -> list[str]:
    """The rounds suite's *absolute* acceptance gates (beyond
    :func:`compare_bench`'s relative ones); empty list = gate passes.

    * the two-round triangle beats the best one-round algorithm's
      *predicted* max-load on every grid cell;
    * it beats the best one-round algorithm's *measured* max-load on
      every grid cell too (the paper's point: more rounds buy load);
    * its measured load never dips below the multi-round repartition
      bound (a gap < 1 would mean the bound, or the fold, is wrong).
    """
    summary = document.get("summary", {})
    failures: list[str] = []
    predicted = summary.get("two_round_min_speedup_predicted")
    if not isinstance(predicted, (int, float)) or predicted <= 1.0:
        failures.append(
            f"two-round triangle does not beat the best one-round "
            f"algorithm's predicted load on every cell "
            f"(min speedup {predicted!r}, want > 1.0)"
        )
    measured = summary.get("two_round_min_speedup_measured")
    if not isinstance(measured, (int, float)) or measured <= 1.0:
        failures.append(
            f"two-round triangle does not beat the best one-round "
            f"algorithm's measured load on every cell "
            f"(min speedup {measured!r}, want > 1.0)"
        )
    min_gap = summary.get("two_round_min_gap")
    if not isinstance(min_gap, (int, float)) or min_gap < 1.0:
        failures.append(
            f"two-round measured load dips below the multi-round lower "
            f"bound (min gap {min_gap!r}, want >= 1.0)"
        )
    return failures


# ----------------------------------------------------------------------
# suite dispatch
# ----------------------------------------------------------------------

#: suite name -> runner; the single source of truth for what
#: ``repro bench --suite`` accepts.
BENCH_SUITES: Mapping[str, object] = {
    "core": run_bench,
    "sketch": run_sketch_bench,
    "rounds": run_rounds_bench,
}

#: suite name -> its absolute acceptance gate (beyond the relative
#: baseline comparison); suites without one pass vacuously.
BENCH_GATES: Mapping[str, object] = {
    "sketch": sketch_gate_failures,
    "rounds": rounds_gate_failures,
}


def run_suite(
    name: str,
    quick: bool = False,
    obs: Observation | None = None,
    repeats: int = 3,
) -> dict:
    """Run the named suite; unknown names list the valid choices."""
    try:
        runner = BENCH_SUITES[name]
    except KeyError:
        raise BenchError(
            f"unknown bench suite {name!r}; "
            f"choose from {', '.join(BENCH_SUITES)}"
        ) from None
    return runner(quick=quick, obs=obs, repeats=repeats)


def suite_gate_failures(document: Mapping) -> list[str]:
    """Absolute gate failures for ``document``'s suite (empty = passes)."""
    gate = BENCH_GATES.get(document.get("suite"))
    if gate is None:
        return []
    return gate(document)

"""The three shell workloads: ``repro sweep`` from argv to a records file.

End to end (:func:`run_end_to_end`) the program is a child process given
argv and an output path; the harness times it, reads the file back and
checks every record.  The traced run (:func:`run_traced`) replays the
same grid in-process through the functions the ``repro`` packages
export, one span per call into a layer, next to untraced reference runs
of the CLI so the layer sums can be held against the wall they explain.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import statistics
import time
from dataclasses import dataclass, field, replace
from types import SimpleNamespace

from . import OUT, check
from .harness import (
    SETUP_SAMPLES, RunResult, end_to_end_result, is_seconds, measure_units,
    run_repro, scratch_dir, tail,
)
from .spans import Tracer

JOIN = "q(x,y,z) :- S1(x,z), S2(y,z)"
TRIANGLE = "q(x,y,z) :- R(x,y), S(y,z), T(z,x)"

@dataclass(frozen=True)
class SweepCommand:
    """One ``repro sweep`` invocation (default ``batched`` engine, no
    ``--workers``): the grid, as argv for the CLI and as cells for the
    replay."""

    query: str
    workload: str
    m: int
    p_values: tuple[int, ...]
    skews: tuple[float, ...] = (1.0,)
    stats: tuple[str, ...] = ("exact",)
    rounds: int = 1
    verify: bool = False

    def argv(self, seed: int, output: str) -> list[str]:
        argv = [
            "sweep", self.query, "--workload", self.workload,
            "--m", str(self.m),
            "--p", ",".join(map(str, self.p_values)),
            "--skew", ",".join(map(str, self.skews)),
            "--stats", ",".join(self.stats),
            "--rounds", str(self.rounds),
            "--seeds", str(seed),
            "--format", "json", "--output", output, "-q",
        ]
        return argv + ["--verify"] if self.verify else argv

    def sweep(self, seed: int, api: SimpleNamespace):
        """The same grid as a public ``Sweep`` (what ``cmd_sweep`` builds)."""
        return api.Sweep(
            query=self.query, workload=self.workload, m_values=(self.m,),
            p_values=self.p_values, skews=self.skews, seeds=(seed,),
            stats=self.stats, rounds=(self.rounds,), verify=self.verify,
        )

    def startup(self) -> "SweepCommand":
        """The same command on a trivial grid: interpreter start, imports,
        registry, argparse, LP, JSON write — what every invocation pays."""
        return replace(self, m=8, p_values=(2,))


#: name → (commands, ``m`` under ``--quick``).  Sizes are the largest at
#: which a unit (all commands once) takes ≈5 s on the 2-core reference
#: machine, so several units fit the driver's run length; see README.
WORKLOADS: dict[str, tuple[tuple[SweepCommand, ...], int]] = {
    "uniform-scale": ((
        SweepCommand(JOIN, "uniform", 50_000, (64,)),
        SweepCommand(TRIANGLE, "uniform", 10_000, (64,), rounds=2),
    ), 300),
    "zipf-skew": ((
        SweepCommand(JOIN, "zipf", 2_000, (64,), skews=(0.8, 1.2),
                     stats=("exact", "sketch")),
    ), 300),
    "worst-answers": ((
        SweepCommand(JOIN, "worst", 400, (16, 64), verify=True),
    ), 60),
}


def commands(name: str, quick: bool) -> tuple[SweepCommand, ...]:
    full, quick_m = WORKLOADS[name]
    return tuple(replace(c, m=quick_m) for c in full) if quick else full


# ----------------------------------------------------------------------
# The program's public functions, resolved by name so that a missing one
# costs its layer's metrics and nothing else.
# ----------------------------------------------------------------------

_PUBLIC = {
    "parse_query": "repro.query",
    "Sweep": "repro.api", "WorkloadSpec": "repro.api", "plan": "repro.api",
    "get_spec": "repro.api", "records_to_json": "repro.api",
    "records_from_json": "repro.api",
    "HeavyHitterStatistics": "repro.stats",
    "SketchedHeavyHitterStatistics": "repro.sketch",
    "sketch_fidelity": "repro.sketch",
    "run_one_round": "repro.mpc",
    "run_rounds": "repro.rounds",
    "Relation": "repro.seq", "evaluate": "repro.seq", "count_answers": "repro.seq",
}

#: Without these nothing can be replayed; the others only lose a layer.
_ESSENTIAL = ("parse_query", "Sweep", "WorkloadSpec", "plan", "get_spec",
              "HeavyHitterStatistics", "run_one_round")

#: Optional function → prefix of the metrics that are null without it.
_LAYER_OF = {
    "SketchedHeavyHitterStatistics": "sketch.", "sketch_fidelity": "sketch.",
    "run_rounds": "rounds.", "Relation": "seq.relation_build",
    "evaluate": "seq.", "records_to_json": "records.",
    "records_from_json": "records.",
}


def public_api() -> tuple[SimpleNamespace, dict[str, str]]:
    """``(functions, reasons)``: every name of :data:`_PUBLIC` (``None``
    when it cannot be imported) and, per metric prefix, why it is null."""
    api, reasons = SimpleNamespace(), {}
    for name, module in _PUBLIC.items():
        try:
            value = getattr(importlib.import_module(module), name)
        except (ImportError, AttributeError) as exc:
            value = None
            prefix = "" if name in _ESSENTIAL else _LAYER_OF[name]
            reasons[prefix] = f"{module}.{name}: {type(exc).__name__}: {exc}"
        setattr(api, name, value)
    return api, reasons


# ----------------------------------------------------------------------
# End to end.
# ----------------------------------------------------------------------

@dataclass
class Unit:
    """All of a workload's commands run once, outputs checked."""

    wall_s: float
    rss_mb: float
    cells: int
    failures: list[str]
    outputs: list[str] = field(default_factory=list)

    @property
    def ok_ops(self) -> int:
        return max(0, self.cells - len(self.failures))


class CliWorkload:
    """One workload's commands bound to a seed and a scratch directory."""

    def __init__(self, name: str, seed: int, quick: bool, tmp: str, log,
                 api: SimpleNamespace) -> None:
        self.commands = commands(name, quick)
        self.seed, self.tmp, self.log, self.api = seed, tmp, log, api
        self.expected_cells = [self._cells(c) for c in self.commands]
        self.startup_command = self.commands[0].startup()
        self.startup_cells = self._cells(self.startup_command)
        self.expected_answers = self._oracle_counts()

    def _cells(self, command: SweepCommand) -> int:
        return len(command.sweep(self.seed, self.api).cells())

    def _oracle_counts(self) -> dict[tuple, int]:
        """The sequential oracle's answer count for each database a
        ``--verify`` command joins, computed once, outside any timing."""
        api, counts = self.api, {}
        for command in self.commands:
            if not command.verify:
                continue
            for cell in command.sweep(self.seed, api).cells():
                query = api.parse_query(cell.query)
                spec = api.WorkloadSpec(kind=cell.workload, m=cell.m,
                                        skew=cell.skew, seed=cell.seed)
                key = (cell.query, cell.workload, cell.m, cell.skew,
                       cell.seed, spec.domain_size)
                if key not in counts:
                    counts[key] = api.count_answers(query, spec.build(query))
        return counts

    def _run(self, command: SweepCommand, path: str, cells: int) -> tuple:
        """Run ``command`` writing to ``path``; ``(child, what it wrote,
        the failed operations among its ``cells``)``."""
        child = run_repro(command.argv(self.seed, path), self.log)
        try:
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
            os.remove(path)
            records = json.loads(text)
        except (OSError, ValueError) as exc:
            text, records = "", []
            self.log.write(f"perf: {path}: {exc}\n")
        failures = check.check_records(
            records, verify=command.verify, expected_count=cells,
            expected_answers=self.expected_answers,
        )
        if child.returncode != 0 and not failures:
            failures = [f"exit code {child.returncode}"]
        return child, text, failures

    def startup(self) -> Unit:
        """One run of the first command's start-up variant."""
        child, _, failures = self._run(
            self.startup_command, os.path.join(self.tmp, "startup.json"),
            self.startup_cells)
        return Unit(child.wall_s, child.rss_mb, self.startup_cells, failures)

    def unit(self) -> Unit:
        started = time.perf_counter()
        runs = [
            self._run(command, os.path.join(self.tmp, f"records-{i}.json"), cells)
            for i, (command, cells) in enumerate(
                zip(self.commands, self.expected_cells))
        ]
        # The checks are inside the clock, as they are for a user who
        # reads the file; they cost under a millisecond per command.
        wall = time.perf_counter() - started
        return Unit(
            wall, max(child.rss_mb for child, _, _ in runs),
            sum(self.expected_cells),
            [f for _, _, failures in runs for f in failures],
            [text for _, text, _ in runs],
        )


def run_end_to_end(name: str, seed: int, seconds: float, quick: bool) -> RunResult:
    startups: list[Unit] = []
    with scratch_dir() as tmp, open(os.path.join(tmp, "stderr.log"), "w+") as log:
        workload = CliWorkload(name, seed, quick, tmp, log, public_api()[0])
        measured = measure_units(
            workload.unit, seconds,
            lambda: startups.extend(
                workload.startup() for _ in range(1 if quick else SETUP_SAMPLES)),
            quick,
        )
        stderr = tail(log)
    result = end_to_end_result(
        measured, [unit.wall_s for unit in startups],
        statistics.median(unit.rss_mb for unit in measured.units),
        attempted=sum(unit.cells for unit in startups + measured.units),
        failures=[f for unit in startups + measured.units for f in unit.failures],
    )
    result.stderr = stderr
    return result


# ----------------------------------------------------------------------
# The traced replay.
# ----------------------------------------------------------------------

@dataclass
class Tally:
    """Counts taken at the layer boundaries of one replay."""

    data_tuples: int = 0
    heavy_hitters: int = 0
    true_heavy: int = 0
    missed_heavy: int = 0
    spurious_heavy: int = 0
    sketched: bool = False
    candidates: int = 0
    regret_worst: float = 1.0
    prediction_ratio_worst: float = 1.0
    tuples_routed: int = 0
    bits_shipped: float = 0.0
    replication_rates: list[float] = field(default_factory=list)
    load_gaps: list[float] = field(default_factory=list)
    intermediate_tuples: int = 0
    oracle_answers: int = 0
    problems: list[str] = field(default_factory=list)


def _coordinates(cell) -> tuple:
    """What determines a cell's database, statistics and plan."""
    return (cell.query, cell.workload, cell.m, cell.skew, cell.seed,
            cell.domain, cell.p, cell.stats, cell.rounds)


def replay_command(command: SweepCommand, seed: int, api: SimpleNamespace,
                   tracer: Tracer, tally: Tally) -> None:
    """What ``repro sweep`` does for this grid, layer call by layer call.

    Spans marked ``probe`` time a call the CLI does not make on its own
    (a split or a ground truth); they feed layer metrics but not the
    coverage sum.
    """
    groups: dict[tuple, list] = {}
    for cell in command.sweep(seed, api).cells():
        groups.setdefault(_coordinates(cell), []).append(cell)
    for group in groups.values():
        first = group[0]
        with tracer.span("query.parse"):
            query = api.parse_query(first.query)
        with tracer.span("data.generate"):
            db = api.WorkloadSpec(
                kind=first.workload, m=first.m, skew=first.skew,
                seed=first.seed, domain=first.domain,
            ).build(query)
        tally.data_tuples += db.total_tuples
        if api.Relation is not None:
            with tracer.span("seq.relation_build", probe=True):
                for relation in db:
                    api.Relation(relation.name, relation.arity,
                                 frozenset(relation.tuples), relation.domain_size)

        if first.stats == "sketch":
            if api.SketchedHeavyHitterStatistics is None:
                continue
            with tracer.span("sketch.build"):
                stats = api.SketchedHeavyHitterStatistics.of(query, db, first.p)
            if api.sketch_fidelity is not None:
                with tracer.span("stats.exact", probe=True):
                    exact = api.HeavyHitterStatistics.of(query, db, first.p)
                fidelity = api.sketch_fidelity(exact, stats)
                tally.sketched = True
                tally.true_heavy += fidelity["true_heavy"]
                tally.missed_heavy += fidelity["false_negatives"]
                tally.spurious_heavy += fidelity["false_positives"]
        else:
            with tracer.span("stats.exact"):
                stats = api.HeavyHitterStatistics.of(query, db, first.p)
            tally.heavy_hitters += stats.total_heavy_count()

        keys = sorted({cell.algorithm for cell in group})
        rounds_of = {key: api.get_spec(key).rounds(query) for key in keys}
        with tracer.span("planner.plan"):
            query_plan = api.plan(
                query, stats, first.p, algorithms=keys,
                max_rounds=max(first.rounds, *rounds_of.values()),
            )
        tally.candidates += len(query_plan.applicable)

        loads: dict[str, float] = {}
        gaps: list[float] = []
        for cell in group:
            key = cell.algorithm
            algorithm = query_plan.instantiate(key)
            answers = cell.compute_answers or cell.verify
            run_args = dict(seed=cell.seed, engine=cell.engine)
            if rounds_of[key] > 1:
                if api.run_rounds is None:
                    continue
                with tracer.span("rounds.run", algorithm=key):
                    result = api.run_rounds(algorithm, db, cell.p,
                                            compute_answers=answers, **run_args)
                reports = [r.report for r in result.rounds]
                tally.intermediate_tuples += sum(
                    r.answer_count or 0 for r in result.rounds[:-1])
                replication = result.replication_rate
            else:
                with tracer.span("engine.route", algorithm=key, probe=answers):
                    result = api.run_one_round(algorithm, db, cell.p,
                                               compute_answers=False, **run_args)
                if answers:
                    with tracer.span("engine.run", algorithm=key):
                        result = api.run_one_round(algorithm, db, cell.p,
                                                   compute_answers=True, **run_args)
                reports = [result.report]
                replication = result.report.replication_rate
            if cell.verify and api.evaluate is not None:
                with tracer.span("seq.oracle"):
                    expected = api.evaluate(query, db)
                    complete = result.answers == expected
                tally.oracle_answers += len(expected)
                if not complete:
                    tally.problems.append(f"replay: {key} p={cell.p} incomplete")
                del expected
            tally.tuples_routed += sum(r.total_tuples for r in reports)
            tally.bits_shipped += sum(r.total_bits for r in reports)
            tally.replication_rates.append(replication)
            prediction = query_plan.prediction(key)
            measured = loads[key] = result.max_load_bits
            predicted = prediction.predicted_load_bits
            if predicted and measured:
                tally.prediction_ratio_worst = max(
                    tally.prediction_ratio_worst,
                    measured / predicted, predicted / measured)
            bound = (prediction.lower_bound_bits
                     if prediction.lower_bound_bits is not None
                     else query_plan.lower_bound_bits)
            if bound:
                gaps.append(measured / bound)
            del result
        if gaps:
            tally.load_gaps.append(min(gaps))
        chosen = query_plan.chosen.key
        if loads.get(chosen) and min(loads.values()) > 0:
            tally.regret_worst = max(tally.regret_worst,
                                     loads[chosen] / min(loads.values()))


#: span name → the per-layer metric its self time adds to.
_SPAN_METRIC = {
    "query.parse": "query.parse_s", "data.generate": "data.generate_s",
    "seq.relation_build": "seq.relation_build_s", "seq.oracle": "seq.oracle_s",
    "stats.exact": "stats.exact_s", "sketch.build": "sketch.build_s",
    "planner.plan": "planner.plan_s", "rounds.run": "rounds.run_s",
    "records.serialize": "records.serialize_s",
}


def layer_metrics(tracer: Tracer, tally: Tally) -> dict[str, float]:
    """One replay's spans and counts as per-layer metrics."""
    metrics: dict[str, float] = {name: 0.0 for name in _SPAN_METRIC.values()}
    metrics.update({"engine.route_s": 0.0, "engine.local_join_s": 0.0})
    attributed = 0.0
    for span, own in zip(tracer.spans, tracer.self_times()):
        name, probe = span["name"], span["args"].get("probe", False)
        if name == "replay":
            continue
        if not probe:
            attributed += own
        if name == "engine.route":
            metrics["engine.route_s"] += own
            per_key = f"engine.route_s.{span['args']['algorithm']}"
            metrics[per_key] = metrics.get(per_key, 0.0) + own
            if probe:  # the answers run of this cell repeats the routing
                metrics["engine.local_join_s"] -= own
        elif name == "engine.run":
            metrics["engine.local_join_s"] += own
        elif not (probe and name == "stats.exact"):
            metrics[_SPAN_METRIC[name]] += own
    metrics.update({
        "data.tuples": tally.data_tuples,
        "seq.answers": tally.oracle_answers,
        "stats.heavy_hitters": tally.heavy_hitters,
        "sketch.recall": (1.0 - tally.missed_heavy / tally.true_heavy
                          if tally.true_heavy else float(tally.sketched)),
        "sketch.spurious": tally.spurious_heavy,
        "planner.candidates": tally.candidates,
        "planner.regret_worst": tally.regret_worst,
        "planner.prediction_ratio_worst": tally.prediction_ratio_worst,
        "engine.tuples_routed": tally.tuples_routed,
        "engine.bits_shipped": tally.bits_shipped,
        "engine.replication_rate_mean": (
            statistics.fmean(tally.replication_rates)
            if tally.replication_rates else 0.0),
        "engine.best_load_gap": (
            math.exp(statistics.fmean(map(math.log, tally.load_gaps)))
            if tally.load_gaps else 0.0),
        "rounds.intermediate_tuples": tally.intermediate_tuples,
        "trace.attributed_s": attributed,
    })
    return metrics


def run_traced(name: str, seed: int, seconds: float, quick: bool) -> RunResult:
    """Alternate an untraced CLI unit with an in-process replay until
    ``seconds`` have passed.  Each layer metric is its median over the
    replays, in reference seconds; their sum (plus start-up) is held
    against the median CLI unit."""
    api, reasons = public_api()
    if "" in reasons:
        return RunResult(1, [f"replay impossible: {reasons['']}"], {}, reasons=reasons)
    startups: list[Unit] = []
    replays: list[dict[str, float]] = []
    failures: list[str] = []
    with scratch_dir() as tmp, open(os.path.join(tmp, "stderr.log"), "w+") as log:
        workload = CliWorkload(name, seed, quick, tmp, log, api)

        def unit_then_replay() -> Unit:
            unit = workload.unit()
            tracer, tally = Tracer(name), Tally()
            with tracer.span("replay"):
                for command in workload.commands:
                    replay_command(command, seed, api, tracer, tally)
                if api.records_to_json and api.records_from_json:
                    for i, text in enumerate(unit.outputs):
                        records = api.records_from_json(text)
                        with tracer.span("records.serialize"):
                            payload = api.records_to_json(records)
                            with open(os.path.join(tmp, f"replayed-{i}.json"), "w",
                                      encoding="utf-8") as handle:
                                handle.write(payload + "\n")
            metrics = layer_metrics(tracer, tally)
            metrics["records.bytes"] = sum(len(text) for text in unit.outputs)
            replays.append(metrics)
            tracer.write_chrome_trace(str(OUT / f"trace-{name}.json"))
            failures.extend(unit.failures + tally.problems)
            return unit

        measured = measure_units(
            unit_then_replay, seconds,
            lambda: startups.extend(
                workload.startup() for _ in range(1 if quick else 3)),
            quick,
        )
        failures += [f for unit in startups for f in unit.failures]
        stderr = tail(log)

    keys = sorted({key for metrics in replays for key in metrics})
    metrics = {key: statistics.median(m.get(key, 0.0) for m in replays)
               for key in keys}
    wall = statistics.median(unit.wall_s for unit in measured.units)
    startup = len(workload.commands) * statistics.median(
        unit.wall_s for unit in startups)
    attributed = metrics.pop("trace.attributed_s") + startup
    metrics.update({
        "cli.startup_s": startup,
        # Each replay against the CLI unit run just before it: the two
        # share the machine's speed of that moment.
        "trace.coverage": statistics.median(
            (replay["trace.attributed_s"] + startup) / unit.wall_s
            for replay, unit in zip(replays, measured.units)),
        "trace.unattributed_s": wall - attributed,
    })
    metrics = {key: measured.reference_seconds(value) if is_seconds(key) else value
               for key, value in metrics.items()}
    generate = metrics["data.generate_s"]
    metrics["data.tuples_per_s"] = metrics["data.tuples"] / generate if generate else 0.0
    metrics["harness.calibration_s"] = measured.kernel_s
    for prefix in reasons:
        for key in metrics:
            if key.startswith(prefix):
                metrics[key] = None
    return RunResult(
        attempted=sum(unit.cells for unit in startups + measured.units),
        failures=failures, metrics=metrics, reasons=reasons, stderr=stderr,
        notes={"raw_wall_s": [unit.wall_s for unit in measured.units],
               "kernels_s": measured.kernels},
    )

"""Chaos tests for the one process fan-out (:mod:`repro.mpc.farm`) and the
three things that run on it: ``mp`` engine shards, sketch shards, sweep
cells.  A worker that raises, dies or hangs must end as a structured
outcome (an ``EngineError``, a ``SketchError``, a ``failed:`` record),
never as a hang or a leaked process.

Every test runs under a wall-clock guard (SIGALRM), so a regression to
"blocks forever" fails here instead of hanging CI.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

from repro.api import (
    AlgorithmSpec,
    Cell,
    Sweep,
    WorkloadSpec,
    execute_cells,
    register,
    run_cell,
    unregister,
)
from repro.cli import main
from repro.core import HashJoinAlgorithm
from repro.mpc import (
    BatchedEngine,
    EngineError,
    MultiprocessEngine,
    run_one_round,
)
from repro.mpc.engine import shard as shard_module
from repro.mpc.execution import OneRoundAlgorithm
from repro.mpc.farm import (
    Farm,
    FarmUnavailable,
    check_workers,
    split_contiguous,
)
from repro.obs import Observation
from repro.query import parse_query
from repro.seq.relation import Batch
from repro.sketch import SketchConfig, SketchError, build_sketch_set
from repro.sketch.statistics import RelationSketchSet

JOIN_TEXT = "q(x, y, z) :- S1(x, z), S2(y, z)"
GUARD_SECONDS = 60
#: What "within a few seconds" means for a death to surface.
PROMPT_SECONDS = 10.0


@pytest.fixture(autouse=True)
def wall_clock_guard():
    def on_alarm(signum, frame):
        raise AssertionError(f"still running after {GUARD_SECONDS}s: a hang")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(GUARD_SECONDS)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(autouse=True)
def no_surviving_children():
    yield
    assert multiprocessing.active_children() == []


def _die(*args, **kwargs):
    os._exit(1)


def _task(item):
    """The primitive's test task: doubles numbers, obeys commands."""
    if item == "die":
        os._exit(3)
    if item == "hang":
        time.sleep(300)
    if item == "raise":
        raise OSError("boom")
    if isinstance(item, float):
        time.sleep(item)
    return item * 2


@pytest.fixture(scope="module")
def query():
    return parse_query(JOIN_TEXT)


@pytest.fixture(scope="module")
def db(query):
    return WorkloadSpec(kind="zipf", m=200, skew=1.2, seed=3).build(query)


# ----------------------------------------------------------------------
# The primitive.
# ----------------------------------------------------------------------

class TestFarm:
    @pytest.mark.parametrize("item, status, value", [
        (21, "ok", 42),
        ("raise", "error", "OSError: boom"),
        ("die", "died", "its worker exited with code 3"),
        ("hang", "timeout", "no result within 0.5s"),
    ])
    def test_every_ending_is_a_structured_outcome(self, item, status, value):
        with Farm(_task, 2, timeout=0.5) as farm:
            (outcome,) = farm.map([item])
        assert (outcome.status, outcome.value) == (status, value)
        assert outcome.ok == (status == "ok")
        assert outcome.seconds >= (0.5 if status == "timeout" else 0.0)

    def test_a_dead_or_hung_worker_is_replaced(self):
        # One worker: everything after the casualty runs on a replacement.
        with Farm(_task, 1, timeout=0.5) as farm:
            outcomes = farm.map(["die", 1, "hang", 2, "raise", 3])
            assert [o.status for o in outcomes] == \
                ["died", "ok", "timeout", "ok", "error", "ok"]
            assert [o.value for o in outcomes if o.ok] == [2, 4, 6]
            # ... and the farm is good for another map.
            assert [o.value for o in farm.map([4, 5])] == [8, 10]

    def test_results_come_back_in_task_order(self):
        items = [0.3, 0.01, 0.15, 0.02]
        landed = []
        with Farm(_task, 4) as farm:
            outcomes = farm.map(
                items, lambda index, outcome: landed.append(index)
            )
        assert [o.value for o in outcomes] == [2 * item for item in items]
        assert sorted(landed) == [0, 1, 2, 3]
        assert landed[-1] == 0, "each() reports in completion order"

    def test_no_child_survives_an_exception_in_the_caller(self):
        def impatient(index, outcome):
            raise RuntimeError("caller gave up")

        with pytest.raises(RuntimeError, match="gave up"):
            with Farm(_task, 3) as farm:
                # One quick task; two workers are still mid-"hang" when
                # the caller raises out of the block.
                farm.map(["hang", 1, "hang"], impatient)
        assert multiprocessing.active_children() == []

    def test_no_child_survives_a_clean_exit(self):
        with Farm(_task, 3) as farm:
            farm.map(range(10))
            assert len(multiprocessing.active_children()) == 3
        assert multiprocessing.active_children() == []

    def test_no_startable_worker_is_one_exception_type(self, monkeypatch):
        monkeypatch.setattr(Farm, "_spawn", lambda self: False)
        with pytest.raises(FarmUnavailable):
            Farm(_task, 2)
        assert issubclass(FarmUnavailable, OSError)


# ----------------------------------------------------------------------
# One worker-count rule, checked where a count enters.
# ----------------------------------------------------------------------

class TestWorkerCount:
    @pytest.mark.parametrize("workers", [0, -3, 2.5, True, "4"])
    def test_must_be_an_integer_of_at_least_one(self, workers, query, db):
        cells = Sweep(query=JOIN_TEXT, m_values=(40,), p_values=(4,)).cells()
        for call in (
            lambda: check_workers(workers),
            lambda: Farm(_task, workers),
            lambda: MultiprocessEngine(workers=workers),
            lambda: build_sketch_set(query, db, SketchConfig(),
                                     workers=workers),
            lambda: execute_cells(cells, max_workers=workers),
        ):
            with pytest.raises(ValueError, match="worker count"):
                call()

    @pytest.mark.parametrize("argv", [
        ["stats", JOIN_TEXT, "-m", "60", "-p", "4", "--workers", "0"],
        ["sweep", JOIN_TEXT, "--m", "60", "--p", "4", "--workers", "0"],
    ])
    def test_cli_exits_with_one_line(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        message = str(excinfo.value.code)
        assert "worker count" in message and "\n" not in message


# ----------------------------------------------------------------------
# One way to cut work for the workers (mp engine shards, sketch shards).
# ----------------------------------------------------------------------

class TestSplitContiguous:
    @pytest.mark.parametrize("length, pieces, sizes", [
        (0, 3, []),
        (1, 3, [1]),
        (5, 2, [3, 2]),
        (6, 3, [2, 2, 2]),
        (7, 3, [3, 2, 2]),
        (3, 8, [1, 1, 1]),
    ])
    def test_cuts_a_list_into_balanced_nonempty_runs(
        self, length, pieces, sizes
    ):
        items = list(range(length))
        chunks = split_contiguous(items, pieces)
        assert [len(chunk) for chunk in chunks] == sizes
        assert [item for chunk in chunks for item in chunk] == items

    def test_cuts_a_batch_into_column_slices(self):
        batch = Batch.of([(i, 10 * i) for i in range(7)])
        chunks = split_contiguous(batch, 3)
        assert all(isinstance(chunk, Batch) for chunk in chunks)
        assert [len(chunk) for chunk in chunks] == [3, 2, 2]
        assert np.array_equal(
            np.concatenate([chunk.columns for chunk in chunks], axis=1),
            batch.columns,
        )


# ----------------------------------------------------------------------
# The mp engine.
# ----------------------------------------------------------------------

class TestEngineChaos:
    @pytest.mark.parametrize("function, names", [
        ("route_shard", "relation 'S1'"),
        ("join_shard", "the local joins"),
    ])
    def test_a_dying_shard_worker_is_an_engine_error(
        self, monkeypatch, query, db, function, names
    ):
        monkeypatch.setattr(shard_module, function, _die)
        started = time.perf_counter()
        with pytest.raises(EngineError, match=names) as excinfo:
            run_one_round(HashJoinAlgorithm(query, 4), db, 4,
                          engine=MultiprocessEngine(workers=2))
        assert time.perf_counter() - started < PROMPT_SECONDS
        assert "died" in str(excinfo.value)

    def test_a_raising_shard_task_is_an_engine_error(
        self, monkeypatch, query, db
    ):
        def refuse(*args):
            raise OSError("no room")

        monkeypatch.setattr(shard_module, "route_shard", refuse)
        with pytest.raises(EngineError, match="OSError: no room"):
            run_one_round(HashJoinAlgorithm(query, 4), db, 4,
                          engine=MultiprocessEngine(workers=2))

    def test_an_mp_cell_fails_promptly_instead_of_hanging(self, monkeypatch):
        # The probe of ISSUE 15: this blocked forever in Pool.map.
        monkeypatch.setattr(shard_module, "route_shard", _die)
        started = time.perf_counter()
        with pytest.raises(EngineError, match="died"):
            run_cell(Cell(query=JOIN_TEXT, workload="uniform", m=80, skew=0.0,
                          seed=0, p=4, algorithm="hashjoin", engine="mp"))
        assert time.perf_counter() - started < PROMPT_SECONDS

    def test_without_worker_processes_the_round_runs_in_process(
        self, monkeypatch, query, db
    ):
        algorithm = HashJoinAlgorithm(query, 4)
        expected = run_one_round(algorithm, db, 4, engine=BatchedEngine())
        monkeypatch.setattr(Farm, "_spawn", lambda self: False)
        result = run_one_round(algorithm, db, 4,
                               engine=MultiprocessEngine(workers=2))
        assert result.report == expected.report
        assert result.answers == expected.answers


# ----------------------------------------------------------------------
# The sketch pass.
# ----------------------------------------------------------------------

class TestSketchChaos:
    def test_a_dying_shard_worker_is_a_sketch_error(
        self, monkeypatch, query, db
    ):
        monkeypatch.setattr(RelationSketchSet, "update", _die)
        started = time.perf_counter()
        with pytest.raises(SketchError, match="died"):
            build_sketch_set(query, db, SketchConfig(), workers=2)
        assert time.perf_counter() - started < PROMPT_SECONDS

    def test_an_oserror_inside_a_shard_task_surfaces(
        self, monkeypatch, query, db
    ):
        # It used to be taken for "cannot start workers" and swallowed:
        # the build silently reran single-pass.
        def unreadable(self, atom_name, columns):
            raise OSError("disk gone")

        monkeypatch.setattr(RelationSketchSet, "update", unreadable)
        with pytest.raises(SketchError, match="OSError: disk gone"):
            build_sketch_set(query, db, SketchConfig(), workers=2)

    def test_without_worker_processes_the_build_is_single_pass(
        self, monkeypatch, query, db
    ):
        single = build_sketch_set(query, db, SketchConfig(), workers=1)
        monkeypatch.setattr(Farm, "_spawn", lambda self: False)
        fallback = build_sketch_set(query, db, SketchConfig(), workers=2)
        for key, sketch in single.sketches.items():
            assert all(
                np.array_equal(mine, theirs)
                for mine, theirs in zip(sketch.tables(),
                                        fallback.sketches[key].tables())
            )


# ----------------------------------------------------------------------
# Sweeps.
# ----------------------------------------------------------------------

class DieAlgorithm(OneRoundAlgorithm):
    """Passes planning, then takes its worker process down with it."""

    def __init__(self, query):
        super().__init__(query, "die")

    def routing_plan(self, db, p, hashes):
        os._exit(1)

    def predicted_load_bits(self, stats, p):
        return 1.0


class HangAlgorithm(DieAlgorithm):
    """Passes planning, then sleeps past any deadline."""

    def routing_plan(self, db, p, hashes):
        time.sleep(300)


@pytest.fixture
def die_registry():
    for key, cls in (("die", DieAlgorithm), ("hang", HangAlgorithm)):
        register(AlgorithmSpec(
            key=key, algorithm_class=cls,
            factory=lambda query, stats, p, cls=cls: cls(query),
            summary="test: takes its worker down while routing",
        ))
    try:
        yield
    finally:
        unregister("die")
        unregister("hang")


def measurements(record):
    """Everything on a record that is not a timing."""
    return {**record.to_dict(), "wall_seconds": None, "metrics": None}


def _sweep(algorithms):
    return Sweep(
        query=JOIN_TEXT, workload="zipf", p_values=(4,), m_values=(50,),
        skews=(0.0,), seeds=(0,), algorithms=algorithms,
    )


class TestSweepChaos:
    @pytest.mark.parametrize("max_workers", [2, 4])
    def test_a_dead_cell_worker_costs_exactly_one_record(
        self, die_registry, max_workers
    ):
        algorithms = ("hashjoin", "die", "hypercube-lp", "hypercube-equal",
                      "hypercube-broadcast")
        obs = Observation.create()
        progressed = []
        result = _sweep(algorithms).run(
            max_workers=max_workers, obs=obs, progress=progressed.append
        )
        # Grid order kept, nothing lost, nothing duplicated.
        assert tuple(r.algorithm for r in result) == algorithms
        assert sorted(r.algorithm for r in progressed) == sorted(algorithms)
        statuses = {r.algorithm: r.status for r in result}
        assert statuses.pop("die") == "failed:worker-died"
        assert set(statuses.values()) == {"ok"}
        counters = {n: c.value for n, c in obs.metrics.counters.items()}
        assert counters["sweep.cells.failed"] == 1
        assert counters["sweep.cells.ok"] == 4

    @pytest.mark.parametrize("casualty, status, deadline", [
        ("die", "failed:worker-died", 30.0), ("hang", "timeout", 1.0),
    ])
    def test_the_replacement_worker_starts_empty_and_runs_the_rest(
        self, die_registry, casualty, status, deadline
    ):
        """One worker, so every cell after the casualty runs on its
        replacement: a context that holds nothing of what the lost one had
        built, and records equal to the serial ones all the same."""
        algorithms = ("hashjoin", "hypercube-lp", casualty,
                      "hypercube-equal", "skew-join", "bin-hypercube")
        obs = Observation.create()
        result = _sweep(algorithms).run(cell_timeout=deadline, obs=obs)
        assert [r.status for r in result] == \
            ["ok", "ok", status, "ok", "ok", "ok"]
        healthy = tuple(key for key in algorithms if key != casualty)
        assert [measurements(r) for r in result if r.ok] == \
            [measurements(r) for r in _sweep(healthy).run()]
        # Generated by the first worker, and again by its replacement.
        assert obs.metrics.histogram("data.generate.seconds").count == 2

    def test_without_worker_processes_a_sweep_runs_serially(
        self, monkeypatch
    ):
        sweep = _sweep(("hashjoin", "hypercube-lp"))
        expected = sweep.run()
        monkeypatch.setattr(Farm, "_spawn", lambda self: False)
        result = sweep.run(max_workers=2)
        assert [r.status for r in result] == ["ok", "ok"]
        assert [r.max_load_bits for r in result] == \
            [r.max_load_bits for r in expected]

    def test_without_worker_processes_a_deadline_fails_every_cell(
        self, monkeypatch
    ):
        # In-process execution cannot honour cell_timeout, and a raw
        # OSError used to escape with no records at all.
        monkeypatch.setattr(Farm, "_spawn", lambda self: False)
        result = _sweep(("hashjoin", "hypercube-lp")).run(cell_timeout=5.0)
        assert [r.algorithm for r in result] == ["hashjoin", "hypercube-lp"]
        assert all(r.status.startswith("failed:FarmUnavailable")
                   for r in result)

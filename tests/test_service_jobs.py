"""The fault-isolated cell executor and the service job queue."""

import ast
import gc
import pickle
import sys
import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.api import (
    AlgorithmSpec,
    Cell,
    ExperimentError,
    Sweep,
    WorkloadSpec,
    failure_record,
    register,
    unregister,
    validate_record,
)
from repro.api import experiment as experiment_module
from repro.api.records import RUN_RECORD_FIELDS
from repro.mpc import hashing
from repro.mpc.execution import OneRoundAlgorithm
from repro.obs import Observation
from repro.service import jobs as jobs_module
from repro.service import (
    BackpressureError,
    CatalogCache,
    JobQueue,
    ServiceError,
    execute_cells,
)

JOIN_TEXT = "q(x, y, z) :- S1(x, z), S2(y, z)"


class PoisonAlgorithm(OneRoundAlgorithm):
    """Passes planning, then raises when its routing plan is built."""

    def __init__(self, query):
        super().__init__(query, "poison")

    def routing_plan(self, db, p, hashes):
        raise ValueError("poisoned cell")

    def predicted_load_bits(self, stats, p):
        return 1.0


class HangAlgorithm(OneRoundAlgorithm):
    """Sleeps far past any test deadline — a hung worker stand-in."""

    def __init__(self, query):
        super().__init__(query, "hang")

    def routing_plan(self, db, p, hashes):
        time.sleep(300)
        raise AssertionError("the hang should have been killed")

    def predicted_load_bits(self, stats, p):
        return 1.0


class SilentAlgorithm(PoisonAlgorithm):
    """Raises an exception without a message while routing."""

    def routing_plan(self, db, p, hashes):
        raise ValueError()


@pytest.fixture
def poison_registry():
    """Register the poison/hang/silent algorithms; always clean up."""
    register(AlgorithmSpec(
        key="silent", algorithm_class=SilentAlgorithm,
        factory=lambda query, stats, p: SilentAlgorithm(query),
        summary="test: raises a bare ValueError while routing",
    ))
    register(AlgorithmSpec(
        key="poison", algorithm_class=PoisonAlgorithm,
        factory=lambda query, stats, p: PoisonAlgorithm(query),
        summary="test: raises while routing",
    ))
    register(AlgorithmSpec(
        key="hang", algorithm_class=HangAlgorithm,
        factory=lambda query, stats, p: HangAlgorithm(query),
        summary="test: sleeps forever",
    ))
    try:
        yield
    finally:
        unregister("poison")
        unregister("hang")
        unregister("silent")


def _sweep(algorithms, **overrides):
    config = dict(
        query=JOIN_TEXT, workload="zipf", p_values=(4,), m_values=(50,),
        skews=(0.0,), seeds=(0,), algorithms=algorithms,
    )
    config.update(overrides)
    return Sweep(**config)


class TestSerialFaultIsolation:
    def test_failing_cell_yields_failed_record(self, poison_registry):
        result = _sweep(("hashjoin", "poison", "hypercube-lp")).run()
        assert [r.algorithm for r in result] == \
            ["hashjoin", "poison", "hypercube-lp"]
        statuses = [r.status for r in result]
        assert statuses[0] == "ok" and statuses[2] == "ok"
        assert statuses[1].startswith("failed:")
        assert "poisoned cell" in statuses[1]
        # Healthy rows keep real measurements; the failed row is zeroed.
        assert result.records[0].max_load_bits > 0
        assert result.records[1].max_load_bits == 0.0
        # Every row (including the failure) passes the schema.
        for record in result:
            validate_record(record.to_dict())

    def test_an_experiment_isolates_a_failing_cell(self, poison_registry):
        records = Sweep(
            JOIN_TEXT, workload="zipf", m_values=(50,), skews=(0.0,),
            p_values=(4,), algorithms=("hashjoin", "poison", "hypercube-lp"),
        ).run().records
        assert [r.algorithm for r in records] == \
            ["hashjoin", "poison", "hypercube-lp"]
        assert [r.status.split(":")[0] for r in records] == \
            ["ok", "failed", "ok"]
        assert "poisoned cell" in records[1].status

    def test_prepare_failure_fails_the_whole_group(self):
        # A cell with an invalid stats method slips past cells() when
        # built by hand; preparation must fail it structurally, not
        # abort the sweep.
        good = Cell(query=JOIN_TEXT, workload="zipf", m=40, skew=0.0,
                    seed=0, p=4, algorithm="hashjoin")
        bad = Cell(query=JOIN_TEXT, workload="zipf", m=40, skew=0.0,
                   seed=0, p=4, algorithm="hashjoin", stats="psychic")
        records = execute_cells([good, bad])
        assert records[0].status == "ok"
        assert records[1].status.startswith("failed:")
        assert "psychic" in records[1].status

    def test_a_raising_cell_reads_the_same_in_process_and_farmed(
        self, poison_registry
    ):
        cells = _sweep(("hashjoin", "silent", "poison")).cells()
        expected = ["ok", "failed:ValueError: ",
                    "failed:ValueError: poisoned cell"]
        assert [r.status for r in execute_cells(cells)] == expected
        assert [r.status for r in execute_cells(cells, max_workers=2)] == \
            expected

    def test_failure_counters_reach_the_metrics(self, poison_registry):
        obs = Observation.create()
        _sweep(("hashjoin", "poison")).run(obs=obs)
        counters = {name: c.value for name, c in obs.metrics.counters.items()}
        assert counters["sweep.cells.ok"] == 1
        assert counters["sweep.cells.failed"] == 1


class TestFarmFaultIsolation:
    """The satellite regression test: one crashing worker cell must not
    lose the completed records (the old pool path dropped everything)."""

    def test_surviving_records_returned_with_failure_recorded(
        self, poison_registry
    ):
        result = _sweep(("hashjoin", "poison", "hypercube-lp",
                         "hypercube-equal")).run(max_workers=2)
        assert len(result) == 4
        by_algorithm = {r.algorithm: r for r in result}
        assert by_algorithm["poison"].status.startswith("failed:")
        assert "poisoned cell" in by_algorithm["poison"].status
        for key in ("hashjoin", "hypercube-lp", "hypercube-equal"):
            assert by_algorithm[key].status == "ok"
            assert by_algorithm[key].max_load_bits > 0
        # Grid order survives the completion order.
        assert [r.algorithm for r in result] == \
            ["hashjoin", "poison", "hypercube-lp", "hypercube-equal"]

    def test_timeout_kills_and_replaces_the_worker(self, poison_registry):
        obs = Observation.create()
        started = time.perf_counter()
        result = _sweep(("hashjoin", "hang", "hypercube-lp")).run(
            max_workers=2, cell_timeout=1.5, obs=obs,
        )
        elapsed = time.perf_counter() - started
        assert elapsed < 60, "the hung cell was not killed"
        by_algorithm = {r.algorithm: r for r in result}
        assert by_algorithm["hang"].status == "timeout"
        assert by_algorithm["hang"].wall_seconds >= 1.5
        # The replacement worker finished the rest of the grid.
        assert by_algorithm["hashjoin"].status == "ok"
        assert by_algorithm["hypercube-lp"].status == "ok"
        counters = {name: c.value for name, c in obs.metrics.counters.items()}
        assert counters["sweep.cells.timeout"] == 1
        assert counters["sweep.cells.ok"] == 2

    def test_mixed_failure_and_timeout_in_one_grid(self, poison_registry):
        """The acceptance scenario: one raising cell + one hung cell in
        the same sweep; every healthy record comes back in grid order
        with structured statuses for the bad cells."""
        result = _sweep(("hashjoin", "poison", "hang", "hypercube-lp")).run(
            max_workers=2, cell_timeout=1.5,
        )
        assert [r.algorithm for r in result] == \
            ["hashjoin", "poison", "hang", "hypercube-lp"]
        assert [r.status.split(":")[0] for r in result] == \
            ["ok", "failed", "timeout", "ok"]
        for record in result:
            validate_record(record.to_dict())

    def test_cell_timeout_forces_process_isolation(self, poison_registry):
        # Even without max_workers, a timeout must be enforceable — the
        # executor runs the farm with one worker.
        result = _sweep(("hang",)).run(cell_timeout=1.0)
        assert result.records[0].status == "timeout"

    def test_invalid_timeout_rejected(self):
        with pytest.raises(ExperimentError, match="positive"):
            execute_cells(_sweep("applicable").cells(), cell_timeout=-1)

    def test_a_worker_never_receives_the_callers_cache(self, monkeypatch):
        """The server-wide cache holds a ``threading.Lock`` another job
        thread may hold at fork: what the farm is handed is the step of a
        fresh context that pickles, so it holds no lock at all."""
        handed = []

        class RecordingFarm(experiment_module.Farm):
            def __init__(self, task, workers, timeout=None):
                handed.append(task)
                super().__init__(task, workers, timeout=timeout)

        monkeypatch.setattr(experiment_module, "Farm", RecordingFarm)
        cache = CatalogCache()
        records = execute_cells(_sweep(("hashjoin", "hypercube-lp")).cells(),
                                max_workers=2, cache=cache)
        assert [r.status for r in records] == ["ok", "ok"]
        (task,) = handed
        context = task.__self__
        assert isinstance(context, experiment_module.SharedContext)
        assert task.__func__ is experiment_module.SharedContext.step
        assert context.cache is not cache and len(cache) == 0
        with pytest.raises(TypeError, match="lock"):
            pickle.dumps(cache)
        # Still empty: the parent never steps on the context it hands out,
        # so a replacement worker forks an empty one too.
        fresh = pickle.loads(pickle.dumps(context))
        assert fresh.cache == {}
        assert context.cache == {}


class TestSerialGrouping:
    """Shuffled cells must not re-run workload generation + planning once
    per cell: grouping is by coordinate key, not contiguity."""

    def _interleaved_cells(self):
        cells = _sweep(("hashjoin", "hypercube-lp"),
                       skews=(0.0, 1.2)).cells()
        assert len(cells) == 4
        # Interleave the two coordinate groups: A B A B.
        return [cells[0], cells[2], cells[1], cells[3]]

    @pytest.mark.parametrize("executor", [{}, {"cell_timeout": 60}])
    def test_builds_once_per_distinct_coordinates(self, executor):
        """In-process or on a one-worker farm: one database, one statistics
        pass and one plan per group, not per cell."""
        shuffled = self._interleaved_cells()
        obs = Observation.create()
        records = execute_cells(shuffled, obs=obs, **executor)
        builds = {name: obs.metrics.histogram(f"{name}.seconds").count
                  for name in ("data.generate", "stats.build", "plan.build")}
        assert builds == {"data.generate": 2, "stats.build": 2,
                          "plan.build": 2}
        # Records still come back in the caller's (shuffled) order.
        assert [(r.skew, r.algorithm) for r in records] == \
            [(c.skew, c.algorithm) for c in shuffled]

    def test_shuffled_equals_sorted_results(self):
        shuffled = self._interleaved_cells()
        by_key = {
            (r.skew, r.algorithm): r.max_load_bits
            for r in execute_cells(shuffled)
        }
        sorted_by_key = {
            (r.skew, r.algorithm): r.max_load_bits
            for r in _sweep(("hashjoin", "hypercube-lp"),
                            skews=(0.0, 1.2)).run()
        }
        assert by_key == sorted_by_key

    def test_serial_cache_reuses_prepared_contexts(self):
        obs = Observation.create()
        cache = CatalogCache()
        cells = _sweep(("hashjoin",)).cells()
        first = execute_cells(cells, cache=cache, obs=obs)
        cold_misses = cache.misses
        second = execute_cells(cells, cache=cache, obs=obs)
        builds = {
            name: obs.metrics.histogram(f"{name}.seconds").count
            for name in ("data.generate", "stats.build")
        }
        assert builds == {"data.generate": 1, "stats.build": 1}, \
            "the second run should build nothing"
        assert cache.misses == cold_misses
        assert cache.hits == cold_misses  # every section looked up, and hit
        assert [r.max_load_bits for r in second] == \
            [r.max_load_bits for r in first]

    @pytest.mark.parametrize("max_workers", [None, 2])
    @pytest.mark.parametrize("broken", [
        {"workload": "nope"}, {"m": 0},
    ])
    def test_cell_without_a_catalog_fails_structurally(
        self, broken, max_workers
    ):
        """A cell no catalog can describe is a ``failed:`` record, serial
        and farmed — not an exception out of the grouping loop."""
        good = Cell(query=JOIN_TEXT, workload="zipf", m=40, skew=0.0,
                    seed=0, p=4, algorithm="hashjoin")
        records = execute_cells(
            [good, replace(good, **broken), good], max_workers=max_workers
        )
        assert [r.status.split(":")[0] for r in records] == \
            ["ok", "failed", "ok"]
        assert "ExperimentError" in records[1].status
        for record in records:
            validate_record(record.to_dict())


class TestFailureRecord:
    def test_status_round_trips_the_schema(self):
        cell = Cell(query=JOIN_TEXT, workload="zipf", m=40, skew=1.0,
                    seed=0, p=4, algorithm="hashjoin")
        record = failure_record(cell, "failed:ValueError: boom",
                                wall_seconds=0.5)
        payload = record.to_dict()
        validate_record(payload)
        assert payload["status"] == "failed:ValueError: boom"
        assert payload["domain"] == 160  # zipf default 4*m
        assert not record.ok

    def test_status_column_reaches_the_csv(self):
        cell = Cell(query=JOIN_TEXT, workload="zipf", m=40, skew=1.0,
                    seed=0, p=4, algorithm="hashjoin")
        result = execute_cells([cell])
        csv_text = _sweep(("hashjoin",)).run().to_csv()
        header = csv_text.splitlines()[0].split(",")
        assert "status" in header
        assert header == list(RUN_RECORD_FIELDS)
        assert result[0].status == "ok"

    def test_bad_status_string_rejected(self):
        cell = Cell(query=JOIN_TEXT, workload="zipf", m=40, skew=1.0,
                    seed=0, p=4, algorithm="hashjoin")
        payload = failure_record(cell, "timeout").to_dict()
        validate_record(payload)
        payload["status"] = "exploded"
        with pytest.raises(Exception, match="status"):
            validate_record(payload)


class TestJobQueueUnit:
    def test_unknown_kind_rejected(self):
        queue = JobQueue(workers=0)
        with pytest.raises(ServiceError, match="unknown job kind"):
            queue.submit("race", {"query": JOIN_TEXT})
        queue.shutdown()

    def test_spec_needs_a_query(self):
        queue = JobQueue(workers=0)
        with pytest.raises(ServiceError, match="query"):
            queue.submit("plan", {})
        queue.shutdown()

    @pytest.mark.parametrize("field, value", [
        ("p_values", "16"),     # ended as failed: TypeError '<' str/int
        ("skews", 1.0),         # ended as failed: 'float' is not iterable
        ("seeds", ["a"]),       # was accepted and "done" with 6 failed cells
        ("workers", "4"),       # ended as failed: TypeError '<=' str/int
        ("workers", 2.5),       # ended as failed: 'float' is not an integer
        ("workers", -3),        # silently ran serial
        ("cell_timeout", "soon"),
        ("cell_timeout", 0),    # was accepted, then failed in the executor
        ("p_value", [4]),       # these two ran the default grid, p=16 and
        ("skew", [2.0]),        # skew=1.0, and answered with its numbers
        ("skews", [-1.0]),      # drew an inverse Zipf, reported skew=-1.00
        ("skews", [float("nan")]),  # "skew": NaN in every record: not JSON
        ("seeds", [2**63]),     # every cell failed: int too big to convert
        ("engine", "mp"),       # these four were accepted as jobs that
        ("workload", "nope"),   # could only fail
        ("stats", "bogus"),
        ("stats", ["exact", "bogus"]),
        ("algorithms", []),     # an empty axis was a job "done" with no
        ("p_values", []),       # records, or one that failed later
        ("m_values", []),
        ("skews", []),
        ("seeds", []),
        ("stats", []),
        ("rounds", []),
        ("p_values", [0]),      # these three were accepted, then failed
        ("m_values", [0]),
        ("domain", 0),
        ("query", "q(x :- R(x"),   # accepted, then failed as QueryError
    ])
    def test_malformed_sweep_spec_rejected_at_submit(self, field, value):
        queue = JobQueue(workers=0)
        with pytest.raises(ServiceError, match=field):
            queue.submit("sweep", {"query": JOIN_TEXT, field: value})
        assert queue.jobs() == []
        queue.shutdown()

    @pytest.mark.parametrize("kind", ["plan", "stats"])
    @pytest.mark.parametrize("field, value", [
        ("m", 2.7),           # was truncated to m=2 and reported done
        ("seed", True),       # ran as seed 1
        ("m", "abc"),         # ended as failed: invalid literal for int()
        ("skew", "hot"),
        ("m", "120"),         # was coerced; now as strict as a sweep spec
        ("p", "4"),
        ("query", 17),        # failed in the parser
        ("p", 0),             # these four failed inside the job
        ("m", -5),
        ("stats", "bogus"),
        ("workload", "nope"),
        ("P", 4),             # these two planned the default catalog:
        ("kind", "worst"),    # uniform at p=16
        ("skew", -1),
        ("skew", float("inf")),
        ("seed", -(2**63) - 1),
        ("query", "q(x :- R(x"),   # accepted, then failed as QueryError
    ])
    def test_malformed_catalog_spec_rejected_at_submit(
        self, kind, field, value
    ):
        queue = JobQueue(workers=0)
        with pytest.raises(ServiceError, match=field):
            queue.submit(kind, {"query": JOIN_TEXT, field: value})
        assert queue.jobs() == []
        queue.shutdown()

    def test_backpressure_rejection_when_full(self):
        queue = JobQueue(queue_size=2, workers=0)
        queue.submit("plan", {"query": JOIN_TEXT})
        queue.submit("plan", {"query": JOIN_TEXT})
        with pytest.raises(BackpressureError, match="full"):
            queue.submit("plan", {"query": JOIN_TEXT})
        # The rejected job leaves no trace in the job table.
        assert len(queue.jobs()) == 2
        counters = queue.obs.metrics.counters
        assert counters["service.jobs.rejected"].value == 1
        queue.shutdown()

    def test_cancel_queued_job(self):
        queue = JobQueue(queue_size=4, workers=0)
        job = queue.submit("plan", {"query": JOIN_TEXT})
        assert queue.cancel(job.id) is True
        assert queue.status(job.id)["state"] == "cancelled"
        with pytest.raises(ServiceError, match="cancelled"):
            queue.result(job.id)
        # Cancelling twice is a no-op, not an error.
        assert queue.cancel(job.id) is False
        queue.shutdown()

    def test_unknown_job_id(self):
        queue = JobQueue(workers=0)
        with pytest.raises(ServiceError, match="unknown job"):
            queue.status("job-999999")
        queue.shutdown()

    def test_result_not_ready(self):
        queue = JobQueue(workers=0)
        job = queue.submit("plan", {"query": JOIN_TEXT})
        with pytest.raises(ServiceError, match="not ready"):
            queue.result(job.id)
        queue.shutdown()

    def test_bad_spec_fails_the_job_not_the_queue(self):
        """A spec that passes the submit check but names a workload the
        generator cannot realize fails in its job worker."""
        queue = JobQueue(workers=1)
        bad = queue.submit("plan", {"query": "q(x,y) :- R(x), S(x,y)",
                                    "workload": "worst", "m": 50})
        good = queue.submit("plan", {"query": JOIN_TEXT, "p": 4, "m": 40})
        assert queue.join(timeout=60)
        assert queue.status(bad.id)["state"] == "failed"
        assert queue.status(bad.id)["error"]
        assert queue.status(good.id)["state"] == "done"
        queue.shutdown()

    def test_every_waiter_sees_its_job_settle(self):
        """Eight submitters on four workers, more threads than cores and a
        short switch interval: a lost notify leaves a waiter to its 30 s
        timeout, a lost count shows in the counters."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        queue = JobQueue(queue_size=64, workers=4)
        spec = {"query": JOIN_TEXT, "p": 4, "m": 40}

        def submitter(_):
            return [queue.wait(queue.submit("plan", spec), 30.0)["state"]
                    for _ in range(5)]

        try:
            started = time.perf_counter()
            with ThreadPoolExecutor(8) as pool:
                outcomes = list(pool.map(submitter, range(8), timeout=120))
            assert time.perf_counter() - started < 30
        finally:
            sys.setswitchinterval(interval)
            queue.shutdown()
        assert [state for batch in outcomes for state in batch] == (
            ["done"] * 40)
        assert queue.obs.metrics.counters["service.jobs.done"].value == 40

    def test_nothing_grows_with_the_number_of_jobs_served(self, monkeypatch):
        """A long-lived queue forgets all but the newest finished jobs and
        keeps no job's spans — its metrics still count every one."""
        monkeypatch.setattr(jobs_module, "RETAINED_JOBS", 3)
        queue = JobQueue(queue_size=8, workers=1)
        spec = {"query": JOIN_TEXT, "workload": "zipf", "m_values": [40],
                "p_values": [4], "algorithms": ["hashjoin"]}
        ids = [queue.submit("sweep", spec).id for _ in range(6)]
        assert queue.join(timeout=120)
        assert [entry["id"] for entry in queue.jobs()] == ids[-3:]
        # One more at a time: each that finishes forgets the oldest one.
        for _ in range(2):
            job = queue.submit("sweep", spec)
            ids.append(job.id)
            assert queue.wait(job, 120)["state"] == "done"
            assert [entry["id"] for entry in queue.jobs()] == ids[-3:]
        assert queue.result(ids[-1])["count"] == 1
        with pytest.raises(ServiceError, match="unknown job"):
            queue.status(ids[0])
        assert queue.obs.tracer.spans == ()
        histogram = queue.obs.metrics.histogram
        assert histogram("service.job.seconds").count == 8
        assert histogram("records.serialize.seconds").count == 8
        assert histogram("data.generate.seconds").count == 1
        queue.shutdown()

    def test_server_histograms_keep_a_window_of_ten_blocks(self):
        """Ten blocks of mixed plan, stats and sweep jobs: every histogram
        of the queue's registry counts each observation and keeps at most
        :data:`METRICS_WINDOW` of them."""
        triangle = "q(x, y, z) :- R(x, y), S(y, z), T(z, x)"
        queue = JobQueue(queue_size=32, workers=1)
        jobs = 0
        for block in range(10):
            specs = [
                ("plan", {"query": JOIN_TEXT, "p": 16, "m": 100 + block,
                          "seed": block}),
                ("stats", {"query": triangle, "workload": "zipf",
                           "m": 60 + block, "seed": block, "stats": "exact"}),
                ("sweep", {"query": JOIN_TEXT, "workload": "zipf",
                           "m_values": [100 + block], "p_values": [27],
                           "skews": [1.2], "seeds": [block]}),
            ]
            ids = [queue.submit(kind, spec).id for kind, spec in specs]
            jobs += len(ids)
            assert queue.join(timeout=120)
            assert all(queue.status(i)["state"] == "done" for i in ids)
        queue.shutdown()
        histograms = queue.obs.metrics.histograms
        assert histograms["service.job.seconds"].count == jobs
        loads = histograms["engine.server_load_bits"]
        assert loads.count > jobs_module.METRICS_WINDOW
        assert loads.summary()["count"] == loads.count
        assert all(
            len(histogram.values) <= jobs_module.METRICS_WINDOW
            for histogram in histograms.values()
        )

    def test_a_served_sweep_counts_what_the_executor_counts(self):
        """A sweep job observes more server loads than a histogram window
        keeps; the server's registry still counts every one."""
        spec = {"query": JOIN_TEXT, "workload": "zipf", "m_values": [200],
                "p_values": [64], "skews": [0.0, 1.2], "seeds": [0, 1]}
        obs = Observation.create()
        records = execute_cells(Sweep.from_spec(spec).cells(), obs=obs)
        queue = JobQueue(workers=1)
        job = queue.submit("sweep", spec)
        assert queue.join(timeout=120)
        assert queue.result(job.id)["count"] == len(records)
        queue.shutdown()
        served = queue.obs.metrics.histogram("engine.server_load_bits")
        local = obs.metrics.histogram("engine.server_load_bits")
        assert local.count > jobs_module.METRICS_WINDOW
        assert (served.count, served.min, served.max) == \
            (local.count, local.min, local.max)
        assert served.total == pytest.approx(local.total)

    def test_a_served_sweep_leaves_no_column_hashes_in_the_cache(
            self, monkeypatch):
        """The raw column hashes a sweep job routes with belong to its
        context: gone with the job, and never reachable from its worker's
        cache.  With no worker process to start, the job worker runs its
        jobs in this process, where both can be seen."""
        made = []
        real = hashing.ColumnHashes.__init__

        def tracked(self, stores):
            made.append(weakref.ref(self))
            real(self, stores)

        monkeypatch.setattr(jobs_module.Farm, "_spawn", lambda self: False)
        queue = JobQueue(queue_size=4, workers=1)
        (lane,) = queue._lanes
        assert lane.farm is None
        spec = {"query": JOIN_TEXT, "workload": "zipf", "m_values": [300],
                "p_values": [8], "skews": [1.2]}
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(hashing.ColumnHashes, "__init__", tracked)
            job = queue.submit("sweep", spec)
            assert queue.join(timeout=120)
        assert queue.result(job.id)["count"] > 1
        queue.shutdown()
        assert len(made) == 1
        gc.collect()
        assert made[0]() is None
        seen, todo = set(), [lane.runner.cache]
        while todo:
            item = todo.pop()
            if id(item) in seen or isinstance(item, type):
                continue
            seen.add(id(item))
            assert not isinstance(item, hashing.ColumnHashes)
            assert not (isinstance(item, np.ndarray)
                        and item.dtype == np.uint64), item
            todo.extend(gc.get_referents(item))

    def test_concurrent_submits_at_capacity(self):
        """Racing submits at a full queue: exactly ``queue_size`` win,
        every loser gets :class:`BackpressureError`, and the job table
        holds exactly the winners (no half-registered losers)."""
        queue = JobQueue(queue_size=4, workers=0)
        contenders = 12
        start = threading.Barrier(contenders)
        lock = threading.Lock()
        accepted, rejected, surprises = [], [], []

        def submit():
            start.wait(timeout=30)
            try:
                job = queue.submit("plan", {"query": JOIN_TEXT})
            except BackpressureError as exc:
                with lock:
                    rejected.append(exc)
            except Exception as exc:  # pragma: no cover - test diagnostics
                with lock:
                    surprises.append(exc)
            else:
                with lock:
                    accepted.append(job)

        threads = [threading.Thread(target=submit) for _ in range(contenders)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not surprises
        assert len(accepted) == 4
        assert len(rejected) == contenders - 4
        counters = queue.obs.metrics.counters
        assert counters["service.jobs.rejected"].value == contenders - 4
        table = queue.jobs()
        assert {entry["id"] for entry in table} == {j.id for j in accepted}
        assert all(entry["state"] == "queued" for entry in table)
        queue.shutdown()

    def _gate_runs(self, queue, gate):
        """Make every job's dispatch to its worker block on ``gate`` instead
        of doing real work."""
        def run(job, lane):
            gate.wait(timeout=30)
            return {"ran": job.id}, None
        queue._run = run

    def _wait_running(self, queue, job, timeout=30.0):
        deadline = time.time() + timeout
        while time.time() < deadline:
            if queue.status(job.id)["state"] == "running":
                return
            time.sleep(0.01)
        raise AssertionError(f"job {job.id} never started running")

    def test_backpressure_then_fifo_drain_order(self):
        """Submits past capacity are rejected without disturbing the
        queue: once the worker unblocks, the accepted jobs run in
        submission order."""
        gate = threading.Event()
        queue = JobQueue(queue_size=3, workers=1)
        self._gate_runs(queue, gate)
        blocker = queue.submit("plan", {"query": JOIN_TEXT})
        self._wait_running(queue, blocker)   # capacity is now exactly 3
        queued = [queue.submit("plan", {"query": JOIN_TEXT})
                  for _ in range(3)]
        with pytest.raises(BackpressureError, match="full"):
            queue.submit("plan", {"query": JOIN_TEXT})
        gate.set()
        assert queue.join(timeout=60)
        for job in [blocker, *queued]:
            assert queue.status(job.id)["state"] == "done"
        starts = [queue.get(job.id).started_at for job in queued]
        assert starts == sorted(starts)
        queue.shutdown()

    def test_cancel_queued_job_never_leaks_the_worker(self):
        """Cancelling a queued job must not consume the worker that
        eventually drains it: the cancelled job is skipped unstarted and
        later jobs (including post-cancel submissions) still run."""
        gate = threading.Event()
        queue = JobQueue(queue_size=8, workers=1)
        self._gate_runs(queue, gate)
        blocker = queue.submit("plan", {"query": JOIN_TEXT})
        self._wait_running(queue, blocker)
        doomed = queue.submit("plan", {"query": JOIN_TEXT})
        survivor = queue.submit("plan", {"query": JOIN_TEXT})
        assert queue.cancel(doomed.id) is True
        gate.set()
        assert queue.join(timeout=60)
        assert queue.status(blocker.id)["state"] == "done"
        assert queue.status(doomed.id)["state"] == "cancelled"
        assert queue.get(doomed.id).started_at is None  # never ran
        assert queue.status(survivor.id)["state"] == "done"
        # The worker thread survived the cancelled job and still serves.
        assert all(thread.is_alive() for thread in queue._threads)
        extra = queue.submit("plan", {"query": JOIN_TEXT})
        assert queue.join(timeout=60)
        assert queue.status(extra.id)["state"] == "done"
        queue.shutdown()

    def test_status_never_shows_finished_job_without_finished_at(self):
        """``state``, ``finished_at`` and the result/error are stamped in
        one critical section: a poller racing the workers never reads a
        terminal state with ``finished_at`` still null."""
        queue = JobQueue(queue_size=16, workers=2)

        def run(job, lane):
            if int(job.id.rsplit("-", 1)[1]) % 2:
                raise ValueError("odd jobs fail")
            return {"ran": job.id}, None
        queue._run = run

        recent: list[str] = []
        torn: list[dict] = []
        stop = threading.Event()

        def poll():
            while not stop.is_set():
                for job_id in recent[-8:]:
                    doc = queue.status(job_id)
                    if (doc["state"] in ("done", "failed")
                            and doc["finished_at"] is None):
                        torn.append(doc)

        poller = threading.Thread(target=poll)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            poller.start()
            deadline = time.time() + 60
            submitted = 0
            while submitted < 400 and time.time() < deadline:
                try:
                    recent.append(queue.submit("plan", {"query": JOIN_TEXT}).id)
                    submitted += 1
                except BackpressureError:
                    time.sleep(0.001)
            assert submitted == 400
            assert queue.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
            stop.set()
            poller.join(timeout=30)
            queue.shutdown()
        assert not poller.is_alive()
        assert torn == []
        states = {entry["state"] for entry in queue.jobs()}
        assert states == {"done", "failed"}

    def test_sweep_job_reports_failures(self, poison_registry):
        queue = JobQueue(workers=1)
        job = queue.submit("sweep", {
            "query": JOIN_TEXT, "workload": "zipf", "p_values": [4],
            "m_values": [40], "skews": [0.0],
            "algorithms": ["hashjoin", "poison"],
        })
        assert queue.join(timeout=120)
        result = queue.result(job.id)
        assert result["count"] == 2
        assert result["failed"] == 1
        statuses = [entry["status"] for entry in result["records"]]
        assert statuses[0] == "ok" and statuses[1].startswith("failed:")
        for entry in result["records"]:
            validate_record(entry)
        queue.shutdown()

    def test_a_sweep_job_under_a_cell_deadline_answers_as_in_thread(self):
        spec = {"query": JOIN_TEXT, "workload": "zipf", "p_values": [4, 8],
                "m_values": [40], "skews": [0.0, 1.2], "verify": True}
        results = []
        for settings in ({}, {"cell_timeout": 30.0}):
            queue = JobQueue(workers=1, **settings)
            job = queue.submit("sweep", spec)
            assert queue.join(timeout=120)
            results.append(queue.result(job.id))
            queue.shutdown()
        in_thread, isolated = results
        assert isolated["count"] == 24 and isolated["failed"] == 0
        strip = lambda record: {**record, "wall_seconds": None,
                                "metrics": None}
        assert [strip(r) for r in isolated["records"]] == \
            [strip(r) for r in in_thread["records"]]

    def test_cache_keys_are_built_in_one_class(self):
        """What is cached under which key is ``SharedContext``'s to say:
        the jobs hand it the server's cache and build no key themselves."""
        source = Path(experiment_module.__file__).parents[1]
        callers = set()
        for path in sorted(source.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
            for scope in tree.body:         # classes, top-level functions
                if any(isinstance(node, ast.Call)
                       and isinstance(node.func, ast.Attribute)
                       and node.func.attr in ("get_or_build", "lookup",
                                              "store")
                       for node in ast.walk(scope)):
                    callers.add((path.name, scope.name))
        # ``CatalogCache.get_or_build`` is its own ``lookup`` + ``store``.
        assert callers == {("experiment.py", "SharedContext"),
                           ("cache.py", "CatalogCache")}

    def test_verified_sweep_job_caches_what_an_unverified_one_does(self):
        """Oracle answers live with the executor, never in the 64-entry
        catalog cache, where they would outlive the job.  The worker's
        cache is seen through what it reports: its lookups by section and
        outcome, and its entries."""
        spec = {"query": JOIN_TEXT, "workload": "worst", "p_values": [4, 8],
                "m_values": [20, 30], "algorithms": ["hashjoin", "skew-join"],
                "rounds": [1, 2]}
        contents = {}
        for verify in (False, True):
            queue = JobQueue(workers=1)
            job = queue.submit("sweep", {**spec, "verify": verify})
            assert queue.join(timeout=120)
            records = queue.result(job.id)["records"]
            queue.shutdown()
            assert [r["complete"] for r in records] == \
                [True if verify else None] * 16
            metrics = queue.obs.metrics.to_dict()
            contents[verify] = {
                "lookups": {name: value
                            for name, value in metrics["counters"].items()
                            if name.startswith("service.cache.")},
                "entries": metrics["gauges"]["service.cache.entries"],
            }
        assert contents[True] == contents[False]
        # A database per m (two catalogs, p = 4 and 8, on each), a plan
        # per catalog and round budget, whatever the algorithms: each
        # stored once, on its one miss, and never evicted.
        lookups = contents[True]["lookups"]
        assert {section: lookups[f"service.cache.{section}.miss"]
                for section in ("data", "stats", "plan")} == \
            {"data": 2, "stats": 4, "plan": 4 * 2}
        assert contents[True]["entries"] == 2 + 4 + 4 * 2

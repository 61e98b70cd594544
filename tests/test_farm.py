"""Chaos tests for the one process fan-out (:mod:`repro.mpc.farm`) and the
one thing that runs on it: sweep cells.  A worker that raises, dies or
hangs must end as a structured outcome (a ``failed:`` record), never as a
hang or a leaked process.

Every test runs under a wall-clock guard (SIGALRM), so a regression to
"blocks forever" fails here instead of hanging CI.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.api import (
    AlgorithmSpec,
    Sweep,
    execute_cells,
    register,
    unregister,
)
from repro.cli import main
from repro.mpc.execution import OneRoundAlgorithm
from repro.mpc.farm import Farm, FarmUnavailable, check_workers
from repro.obs import Observation
from repro.service import ReproService, ServiceClient

JOIN_TEXT = "q(x, y, z) :- S1(x, z), S2(y, z)"
GUARD_SECONDS = 60


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

    def test_a_worker_that_died_idle_costs_no_task(self):
        with Farm(_task, 1) as farm:
            assert farm.map([1])[0].value == 2
            (worker,) = multiprocessing.active_children()
            os.kill(worker.pid, signal.SIGKILL)
            while worker.is_alive():
                time.sleep(0.01)
            outcomes = farm.map([2, 3])
            assert [(o.status, o.value) for o in outcomes] == \
                [("ok", 4), ("ok", 6)]
            (replacement,) = multiprocessing.active_children()
            assert replacement.pid != worker.pid

    def test_a_farm_never_left_does_not_hold_the_exit(self):
        """A process that exits with a farm still open (a long-lived one,
        say) exits: its idle workers are not joined while they wait on a
        pipe the exit has yet to close."""
        program = ("from repro.mpc.farm import Farm; "
                   "farm = Farm(abs, 2); print(farm.map([-3])[0].value)")
        done = subprocess.run(
            [sys.executable, "-c", program], text=True, capture_output=True,
            timeout=30,
            env={**os.environ, "PYTHONPATH":
                 os.path.dirname(os.path.dirname(repro.__file__))},
        )
        assert (done.returncode, done.stdout) == (0, "3\n"), done.stderr

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
    def test_must_be_an_integer_of_at_least_one(self, workers):
        cells = Sweep(query=JOIN_TEXT, m_values=(40,), p_values=(4,)).cells()
        for call in (
            lambda: check_workers(workers),
            lambda: Farm(_task, workers),
            lambda: execute_cells(cells, max_workers=workers),
        ):
            with pytest.raises(ValueError, match="worker count"):
                call()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_cli_exits_with_one_line(self, workers):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", JOIN_TEXT, "--m", "60", "--p", "4",
                  "--workers", workers])
        message = str(excinfo.value.code)
        assert "worker count" in message and "\n" not in message


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


class StallAlgorithm(DieAlgorithm):
    """Passes planning, makes the file :attr:`marker` (set before the
    worker forks), then sleeps past any deadline."""

    marker = ""

    def routing_plan(self, db, p, hashes):
        Path(StallAlgorithm.marker).touch()
        time.sleep(300)


@pytest.fixture
def die_registry():
    casualties = (("die", DieAlgorithm), ("hang", HangAlgorithm),
                  ("stall", StallAlgorithm))
    for key, cls in casualties:
        register(AlgorithmSpec(
            key=key, algorithm_class=cls,
            factory=lambda query, stats, p, cls=cls: cls(query),
            summary="test: takes its worker down while routing",
        ))
    try:
        yield
    finally:
        for key, _ in casualties:
            unregister(key)


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


class TestServedSweepChaos:
    @pytest.mark.parametrize("casualty, isolation, status", [
        ("die", {"workers": 2}, "failed:worker-died"),
        ("hang", {"workers": 2, "cell_timeout": 1.0}, "timeout"),
    ])
    def test_a_lost_cell_worker_costs_a_served_job_one_record(
        self, die_registry, casualty, isolation, status
    ):
        """A sweep job farmed by the service: the job is ``done``, the
        lost cell is one structured record among healthy ones, and the
        service runs the next job."""
        service = ReproService(port=0, job_workers=1)
        service.serve_in_background()
        client = ServiceClient(service.url, timeout=30.0)
        spec = {
            "query": JOIN_TEXT, "workload": "zipf", "p_values": [4],
            "m_values": [50], "skews": [0.0], **isolation,
            "algorithms": ["hashjoin", casualty, "hypercube-lp"],
        }
        try:
            client.wait_until_healthy()
            job = client.submit("sweep", spec)
            assert client.wait(job["id"])["state"] == "done"
            result = client.result(job["id"])["result"]
            assert {r["algorithm"]: r["status"]
                    for r in result["records"]} == {
                "hashjoin": "ok", casualty: status, "hypercube-lp": "ok",
            }
            assert result["failed"] == 1
            after = client.submit("sweep",
                                  {**spec, "algorithms": ["hashjoin"]})
            assert client.wait(after["id"])["state"] == "done"
            assert client.result(after["id"])["result"]["failed"] == 0
        finally:
            client.close()
            service.shutdown()

    def test_a_job_worker_killed_mid_job_fails_that_job_only(
        self, die_registry, monkeypatch, tmp_path
    ):
        """SIGKILL the process of the one job worker while it runs a sweep
        job: that job is ``failed`` with the farm's ``died`` message, the
        next job runs on the replacement, and the service stays healthy."""
        marker = tmp_path / "routing"
        monkeypatch.setattr(StallAlgorithm, "marker", str(marker))
        service = ReproService(port=0, job_workers=1)
        service.serve_in_background()
        client = ServiceClient(service.url, timeout=30.0)
        spec = {
            "query": JOIN_TEXT, "workload": "zipf", "p_values": [4],
            "m_values": [50], "skews": [0.0], "algorithms": ["stall"],
        }
        try:
            (worker,) = multiprocessing.active_children()
            job = client.submit("sweep", spec)
            while not marker.exists():
                time.sleep(0.01)
            os.kill(worker.pid, signal.SIGKILL)
            final = client.wait(job["id"])
            assert final["state"] == "failed"
            assert final["error"] == (
                f"worker-died: its worker exited with code {-signal.SIGKILL}")
            after = client.submit("sweep",
                                  {**spec, "algorithms": ["hashjoin"]})
            assert client.wait(after["id"])["state"] == "done"
            assert client.result(after["id"])["result"]["failed"] == 0
            (replacement,) = multiprocessing.active_children()
            assert replacement.pid != worker.pid
            health = client.health()
            assert health["state"] == "ok"
            assert health["jobs"] == {"failed": 1, "done": 1}
        finally:
            client.close()
            service.shutdown()

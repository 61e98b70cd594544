"""The service's async job queue.

:class:`JobQueue` is a bounded submit/status/result/cancel queue over
``plan``, ``stats`` and ``sweep`` jobs inside a long-lived ``repro serve``
process.  A full queue rejects with :class:`BackpressureError` (the server
maps it to HTTP 429) instead of buffering without bound.

Each job worker is a thread of the server and a process of its own: the
thread takes a job off the queue and hands it to a one-worker
:class:`~repro.mpc.farm.Farm`, which runs it and answers with the result.
So two workers compute on two cores instead of taking turns on one
interpreter lock, while the job table and the HTTP front stay in the
server process.  The farms are started with the queue, before any of its
threads and before the server binds its socket, so that no worker
inherits a lock another thread holds, or the listening socket.  A worker
that dies fails the job it held (``worker-died: ...``) and the farm
replaces it — the one fork made while the server's threads run, whose
child holds the listening socket until the queue shuts down.  Where no
process can be started, the thread runs the same jobs itself.

All three kinds build ``(query, database, statistics)`` from a
:class:`repro.api.Catalog` through the executor's
:class:`~repro.api.experiment.SharedContext` — which says what is kept
under which key — over the worker's own
:class:`~repro.service.cache.CatalogCache`, so the second request on a
catalog that a worker has served, of any kind, is a cache hit there, not
a rebuild.  ``cache_capacity`` is the server's total, split evenly over
the workers.

A caller that wants a job's outcome waits on the queue, not on a clock:
one :class:`threading.Condition` on the queue's lock is notified whenever
a job turns terminal (its worker finishes it, or :meth:`JobQueue.cancel`
or :meth:`JobQueue.shutdown` cancels it), and :meth:`JobQueue.wait`
returns a job's status document as soon as that happens or its timeout
passes.  One condition for the queue, not one event per job, so a
retained job costs no more than its record.

Observability (all through the existing :mod:`repro.obs` layer): a job
runs under an observation of its own in its worker, which answers with a
snapshot of its registry — the ``service.job.seconds`` span, the cell
executor's ``sweep.*`` metrics, a ``records.serialize`` span per sweep
job, the cache's ``service.cache.{hit,miss}`` counters — and the thread
merges it into the queue's registry, which also holds the
``service.queue.depth`` gauge and the ``service.jobs.*`` counters.  A job
that raised answers with no snapshot.  With each job a worker reports its
cache's size and its process's LP memo counts; summed over the workers
they are the gauges ``service.cache.entries`` and
``lp.cache.{hits,misses,entries}``.

The process is long-lived, so nothing here grows with its uptime: the
queue keeps the newest :data:`RETAINED_JOBS` finished jobs, each job runs
under a tracer of its own, so its spans go when it is done, and the
registry's histograms count every observation but keep only the newest
:data:`METRICS_WINDOW` for their percentiles (:func:`service_observation`).
"""

from __future__ import annotations

import itertools
import logging
import os
import queue
import threading
import time
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field

from ..api.experiment import (
    _WORKLOAD_KEYS,
    Catalog,
    ExperimentError,
    SharedContext,
    Sweep,
    execute_cells,
)
from ..lp import enumerate_vertices, maximize
from ..mpc.farm import Farm, FarmUnavailable, attempt, check_workers
from ..obs import MetricsRegistry, Observation
from .cache import CatalogCache

_LOG = logging.getLogger("repro.service.jobs")

#: Job kinds the queue accepts.
JOB_KINDS = ("plan", "stats", "sweep")

#: Job lifecycle states.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

#: The states a job never leaves.
TERMINAL_STATES = JOB_STATES[2:]

#: Finished jobs whose status and result the queue still answers for.
RETAINED_JOBS = 256

#: The newest observations each histogram of a service's registry takes
#: its percentiles over; its count, total, min and max cover every one.
METRICS_WINDOW = 1024


def service_observation() -> Observation:
    """The observation a long-lived service runs under when none is
    given: histograms windowed at :data:`METRICS_WINDOW`."""
    return Observation(metrics=MetricsRegistry(window=METRICS_WINDOW))


class ServiceError(RuntimeError):
    """Raised for unknown jobs, bad specs, and results read too early."""


class BackpressureError(ServiceError):
    """Raised when the bounded job queue is full: the caller must retry
    later (or against another instance) — the server never buffers
    unboundedly on behalf of a client."""

    def __init__(self, capacity: int) -> None:
        super().__init__(
            f"job queue is full ({capacity} queued jobs); retry later"
        )
        self.capacity = capacity


# ----------------------------------------------------------------------
# The job queue.
# ----------------------------------------------------------------------

_JOB_IDS = itertools.count(1)


@dataclass
class Job:
    """One submitted unit of service work and its lifecycle."""

    id: str
    kind: str
    spec: dict
    state: str = "queued"
    submitted_at: float = field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None
    result: object = None
    error: str | None = None

    def describe(self) -> dict:
        """The JSON status document ``GET /v1/jobs/<id>`` returns."""
        return {
            "id": self.id,
            "kind": self.kind,
            "state": self.state,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "error": self.error,
        }

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES


class _JobRunner:
    """What a job worker's process runs: one job at a time, against a
    catalog cache of its own.  The cache is made by the first job, so the
    runner the server holds — and every worker forked from it, a
    replacement included — starts empty and holds no lock."""

    def __init__(self, capacity: int, cell_workers: int | None,
                 cell_timeout: float | None) -> None:
        self.capacity = capacity
        self.cell_workers = cell_workers
        self.cell_timeout = cell_timeout
        self.cache: CatalogCache | None = None

    def __call__(self, item: tuple[str, dict, str]) -> tuple:
        """``(result, snapshot, report)`` of the job ``(kind, spec, id)``:
        its result, its registry's snapshot, and the worker's own state —
        its process id, its cache's entries and its LP memo counts."""
        kind, spec, job_id = item
        obs = service_observation()
        if self.cache is None:
            self.cache = CatalogCache(self.capacity)
        self.cache.obs = obs  # the cache counts into the job looking it up
        with obs.timed("service.job", kind=kind, job=job_id):
            if kind == "plan":
                result = self._run_plan(spec, obs)
            elif kind == "stats":
                result = self._run_stats(spec, obs)
            else:
                result = self._run_sweep(spec, obs)
        memos = (maximize.cache_info(), enumerate_vertices.cache_info())
        report = {
            "pid": os.getpid(),
            "cache_entries": len(self.cache),
            "lp": tuple(sum(getattr(memo, name) for memo in memos)
                        for name in ("hits", "misses", "currsize")),
        }
        return result, obs.metrics.snapshot(), report

    def _run_plan(self, spec: dict, obs: Observation) -> dict:
        # What an ``auto`` cell on the catalog plans at a round budget of 1.
        catalog = Catalog.from_spec(spec).canonical()
        return SharedContext(self.cache).plan(catalog, obs)[1].to_dict()

    def _run_stats(self, spec: dict, obs: Observation) -> dict:
        catalog = Catalog.from_spec(spec).canonical()
        query, db, stats = SharedContext(self.cache).build(catalog, obs)
        echo = catalog.to_spec()
        return {
            "query": str(query),
            "p": catalog.p,
            "method": catalog.stats,
            "workload": {name: echo[name] for name in _WORKLOAD_KEYS},
            "relations": {
                atom.name: db.relation(atom.name).cardinality
                for atom in query.atoms
            },
            "total_heavy_count": stats.total_heavy_count(),
            "heavy_hitters": {
                f"{atom}[{','.join(subset)}]": len(heavy)
                for (atom, subset), heavy in stats.hitters.items()
            },
        }

    def _run_sweep(self, spec: dict, obs: Observation) -> dict:
        records = execute_cells(
            Sweep.from_spec(spec).cells(),
            max_workers=spec.get("workers", self.cell_workers),
            cell_timeout=spec.get("cell_timeout", self.cell_timeout),
            obs=obs,
            cache=self.cache,
        )
        with obs.timed("records.serialize", records=len(records)):
            rendered = [record.to_dict() for record in records]
        return {
            "count": len(records),
            "failed": sum(1 for record in records if not record.ok),
            "records": rendered,
        }


@dataclass
class _Lane:
    """One job worker as the server sees it: the runner its process runs,
    the farm that process lives in (None where no process could be
    started: the thread runs the runner itself), and the worker's last
    report (None until its first job, and again once it died)."""

    runner: _JobRunner
    farm: Farm | None
    report: dict | None = None


class JobQueue:
    """A bounded async job queue with worker processes and backpressure.

    ``queue_size`` bounds the number of *queued* (not yet running) jobs;
    :meth:`submit` on a full queue raises :class:`BackpressureError`
    immediately.  ``workers`` job workers drain the queue, each a thread
    feeding a process of its own with a ``cache_capacity // workers``-entry
    catalog cache (``workers=0`` leaves it paused — jobs queue up and can
    be cancelled, which is what the backpressure tests use).
    ``cell_workers``/``cell_timeout`` configure the fault-isolated cell
    farm each sweep job executes through, whose processes never see their
    job worker's :class:`~repro.service.cache.CatalogCache`.
    """

    def __init__(
        self,
        queue_size: int = 32,
        workers: int = 2,
        cache_capacity: int = 64,
        obs: Observation | None = None,
        cell_workers: int | None = None,
        cell_timeout: float | None = None,
    ) -> None:
        if queue_size < 1:
            raise ServiceError(
                f"queue_size must be >= 1, got {queue_size}"
            )
        if workers < 0:
            raise ServiceError(f"workers must be >= 0, got {workers}")
        if cache_capacity < 1:
            raise ServiceError(
                f"cache_capacity must be >= 1, got {cache_capacity}"
            )
        if cell_workers is not None:
            check_workers(cell_workers)
        self.obs = obs if obs is not None else service_observation()
        self._queue: queue.Queue = queue.Queue(maxsize=queue_size)
        self._jobs: dict[str, Job] = {}
        # Finished job ids, oldest first: the retention order.
        self._finished: deque[str] = deque()
        self._lock = threading.Lock()
        # Notified, under the lock, each time a job turns terminal.
        self._settled = threading.Condition(self._lock)
        self._closed = False
        # Every worker process is forked here, before any thread starts.
        self._lanes = []
        for _ in range(workers):
            runner = _JobRunner(max(1, cache_capacity // workers),
                                cell_workers, cell_timeout)
            try:
                farm = Farm(runner, 1)
            except FarmUnavailable as exc:
                _LOG.warning("job worker runs in the server process: %s",
                             exc)
                farm = None
            self._lanes.append(_Lane(runner, farm))
        self._threads = [
            threading.Thread(
                target=self._worker_loop, args=(lane,),
                name=f"repro-job-worker-{i}", daemon=True,
            )
            for i, lane in enumerate(self._lanes)
        ]
        for thread in self._threads:
            thread.start()

    # -- client surface -------------------------------------------------
    def submit(self, kind: str, spec: dict) -> Job:
        """Enqueue a job; raises :class:`BackpressureError` when full."""
        if kind not in JOB_KINDS:
            raise ServiceError(
                f"unknown job kind {kind!r}; expected one of "
                f"{', '.join(JOB_KINDS)}"
            )
        # Shape check and query parse (the job rebuilds it): a malformed
        # spec is the client's error (400), not a job that can only fail.
        try:
            (Sweep if kind == "sweep" else Catalog).from_spec(spec)
        except ExperimentError as exc:
            raise ServiceError(str(exc)) from None
        job = Job(id=f"job-{next(_JOB_IDS)}", kind=kind, spec=dict(spec))
        with self._lock:
            if self._closed:
                raise ServiceError("the job queue is shut down")
            try:
                self._queue.put_nowait(job)
            except queue.Full:
                self.obs.count("service.jobs.rejected")
                raise BackpressureError(self._queue.maxsize) from None
            self._jobs[job.id] = job
        self.obs.count("service.jobs.submitted")
        self.obs.set_gauge("service.queue.depth", self._queue.qsize())
        _LOG.info("job %s queued (%s)", job.id, kind)
        return job

    def get(self, job_id: str) -> Job:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise ServiceError(f"unknown job {job_id!r}")
        return job

    def status(self, job_id: str, timeout: float = 0.0) -> dict:
        """The status document of the job ``job_id``, waited for as
        :meth:`wait` does."""
        return self.wait(self.get(job_id), timeout)

    def result(self, job_id: str) -> object:
        """The result payload of a ``done`` job (error otherwise)."""
        job = self.get(job_id)
        if job.state == "failed":
            raise ServiceError(f"job {job_id} failed: {job.error}")
        if job.state == "cancelled":
            raise ServiceError(f"job {job_id} was cancelled")
        if job.state != "done":
            raise ServiceError(
                f"job {job_id} is {job.state}; result not ready"
            )
        return job.result

    def cancel(self, job_id: str) -> bool:
        """Cancel a *queued* job; running/terminal jobs are not touched."""
        job = self.get(job_id)
        with self._lock:
            if job.state != "queued":
                return False
            self._settle(job, "cancelled")
            self.obs.count("service.jobs.cancelled")
            self._settled.notify_all()
        _LOG.info("job %s cancelled", job.id)
        return True

    def jobs(self) -> list[dict]:
        with self._lock:
            return [job.describe() for job in self._jobs.values()]

    def wait(self, job: Job, timeout: float) -> dict:
        """``job``'s status document once it is terminal or ``timeout``
        seconds have passed, whichever is first."""
        with self._settled:
            self._settled.wait_for(lambda: job.terminal, timeout)
            return job.describe()

    def join(self, timeout: float = 60.0) -> bool:
        """Wait until every submitted job is terminal (tests, shutdown)."""
        with self._settled:
            return self._settled.wait_for(
                lambda: all(job.terminal for job in self._jobs.values()),
                timeout,
            )

    def shutdown(self, wait: bool = True) -> None:
        """Stop the job workers (queued jobs are left cancelled); with
        ``wait``, return once their threads and processes are gone —
        also when another caller began the shutdown."""
        with self._lock:
            first = not self._closed
            if first:
                self._closed = True
                for job in list(self._jobs.values()):
                    if job.state == "queued":
                        self._settle(job, "cancelled")
                self._settled.notify_all()
        if first:
            for _ in self._threads:
                self._queue.put(None)
        if wait:
            for thread in self._threads:
                thread.join(timeout=30)

    # -- the worker side ------------------------------------------------
    def _settle(self, job: Job, state: str) -> None:
        """Under the lock: end ``job`` in ``state`` and retain it, forgetting
        the oldest finished job past :data:`RETAINED_JOBS`."""
        job.finished_at = time.time()
        job.state = state
        self._finished.append(job.id)
        while len(self._finished) > RETAINED_JOBS:
            del self._jobs[self._finished.popleft()]

    def _worker_loop(self, lane: _Lane) -> None:
        # Leaving the loop closes the farm: its process is joined.
        with lane.farm if lane.farm is not None else nullcontext():
            while True:
                job = self._queue.get()
                if job is None:
                    return
                self.obs.set_gauge("service.queue.depth",
                                   self._queue.qsize())
                with self._lock:
                    if job.state != "queued":  # cancelled while waiting
                        continue
                    job.state = "running"
                    job.started_at = time.time()
                _LOG.info("job %s running (%s)", job.id, job.kind)
                try:
                    result, error = self._run(job, lane)
                except Exception as exc:
                    result, error = None, f"{type(exc).__name__}: {exc}"
                outcome = "done" if error is None else "failed"
                # One critical section, state last: a status poll never
                # sees a finished job without its finished_at/result/error,
                # and a waiter it wakes finds the job counted.
                with self._lock:
                    job.result, job.error = result, error
                    self._settle(job, outcome)
                    self.obs.count(f"service.jobs.{outcome}")
                    self.obs.count(f"service.jobs.{outcome}.{job.kind}")
                    self._settled.notify_all()
                if error is None:
                    _LOG.info("job %s done", job.id)
                else:
                    _LOG.warning("job %s failed: %s", job.id, error)

    def _run(self, job: Job, lane: _Lane) -> tuple[object, str | None]:
        """``(result, None)`` of ``job`` run by ``lane``'s worker, or
        ``(None, error)``.  What the worker answers with is merged into the
        queue's registry before the job is settled."""
        item = (job.kind, job.spec, job.id)
        if lane.farm is None:
            outcome = attempt(lane.runner, item)
        else:
            (outcome,) = lane.farm.map([item])
        if outcome.status == "died":  # replaced empty by the farm
            lane.report = None
            self._report_gauges()
            return None, f"worker-died: {outcome.value}"
        if not outcome.ok:
            return None, outcome.value
        result, snapshot, lane.report = outcome.value
        self.obs.metrics.merge_snapshot(snapshot)
        self._report_gauges()
        return result, None

    def _report_gauges(self) -> None:
        """The workers' reports, summed: their caches' entries, and the LP
        memos of their processes (each process counted once)."""
        reports = [lane.report for lane in self._lanes
                   if lane.report is not None]
        self.obs.set_gauge("service.cache.entries",
                           sum(report["cache_entries"] for report in reports))
        memos = {report["pid"]: report["lp"] for report in reports}
        for index, name in enumerate(("hits", "misses", "entries")):
            self.obs.set_gauge(f"lp.cache.{name}",
                               sum(memo[index] for memo in memos.values()))

"""The service's async job queue.

:class:`JobQueue` is a bounded submit/status/result/cancel queue over
``plan``, ``stats`` and ``sweep`` jobs, drained by daemon worker threads
inside a long-lived ``repro serve`` process.  A full queue rejects with
:class:`BackpressureError` (the server maps it to HTTP 429) instead of
buffering without bound.  All three kinds build ``(query, database,
statistics)`` from a :class:`repro.api.Catalog` through the executor's
:class:`~repro.api.experiment.SharedContext` — which says what is kept
under which key — over one shared
:class:`~repro.service.cache.CatalogCache`, so the second request on a
catalog, of any kind, is a cache hit, not a rebuild.

Observability (all through the existing :mod:`repro.obs` layer):
``service.queue.depth`` gauge, ``service.jobs.*`` counters,
``service.job.seconds`` spans per job, the cell executor's ``sweep.*``
metrics, and the cache's ``service.cache.{hit,miss}`` counters.

The process is long-lived, so nothing here grows with its uptime: the
queue keeps the newest :data:`RETAINED_JOBS` finished jobs, and each job
runs under a tracer of its own (the metrics registry is the queue's), so
its spans go when it is done.
"""

from __future__ import annotations

import itertools
import logging
import queue
import threading
import time
from dataclasses import dataclass, field

from ..api.experiment import (
    Catalog,
    ExperimentError,
    SharedContext,
    Sweep,
    execute_cells,
)
from ..mpc.farm import check_workers
from ..obs import Observation
from .cache import CatalogCache

_LOG = logging.getLogger("repro.service.jobs")

#: Job kinds the queue accepts.
JOB_KINDS = ("plan", "stats", "sweep")

#: Job lifecycle states.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

#: Finished jobs whose status and result the queue still answers for.
RETAINED_JOBS = 256


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
        return self.state in ("done", "failed", "cancelled")


class JobQueue:
    """A bounded async job queue with worker threads and backpressure.

    ``queue_size`` bounds the number of *queued* (not yet running) jobs;
    :meth:`submit` on a full queue raises :class:`BackpressureError`
    immediately.  ``workers`` threads drain the queue (``workers=0``
    leaves it paused — jobs queue up and can be cancelled, which is what
    the backpressure tests use).  ``cell_workers``/``cell_timeout``
    configure the fault-isolated cell farm each sweep job executes
    through, whose processes never see the shared
    :class:`~repro.service.cache.CatalogCache` all else runs against.
    """

    def __init__(
        self,
        queue_size: int = 32,
        workers: int = 2,
        cache: CatalogCache | None = None,
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
        if cell_workers is not None:
            check_workers(cell_workers)
        self.obs = obs if obs is not None else Observation.create()
        self.cache = cache if cache is not None else CatalogCache(
            obs=self.obs
        )
        self.cell_workers = cell_workers
        self.cell_timeout = cell_timeout
        self._queue: queue.Queue = queue.Queue(maxsize=queue_size)
        self._jobs: dict[str, Job] = {}
        self._lock = threading.Lock()
        self._closed = False
        self._threads = [
            threading.Thread(
                target=self._worker_loop, name=f"repro-job-worker-{i}",
                daemon=True,
            )
            for i in range(workers)
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
        # Shape check only (the job rebuilds it): a malformed spec is the
        # client's error (400), not a job that can only fail.
        try:
            (Sweep if kind == "sweep" else Catalog).from_spec(spec)
        except ExperimentError as exc:
            raise ServiceError(str(exc)) from None
        if self._closed:
            raise ServiceError("the job queue is shut down")
        job = Job(id=f"job-{next(_JOB_IDS)}", kind=kind, spec=dict(spec))
        with self._lock:
            self._jobs[job.id] = job
        try:
            self._queue.put_nowait(job)
        except queue.Full:
            with self._lock:
                del self._jobs[job.id]
            self.obs.count("service.jobs.rejected")
            raise BackpressureError(self._queue.maxsize) from None
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

    def status(self, job_id: str) -> dict:
        job = self.get(job_id)
        with self._lock:
            return job.describe()

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
            job.state = "cancelled"
            job.finished_at = time.time()
        self.obs.count("service.jobs.cancelled")
        _LOG.info("job %s cancelled", job.id)
        return True

    def jobs(self) -> list[dict]:
        with self._lock:
            return [job.describe() for job in self._jobs.values()]

    def join(self, timeout: float = 60.0) -> bool:
        """Wait until every submitted job is terminal (tests, shutdown)."""
        deadline = time.time() + timeout
        while time.time() < deadline:
            with self._lock:
                if all(job.terminal for job in self._jobs.values()):
                    return True
            time.sleep(0.01)
        return False

    def shutdown(self, wait: bool = True) -> None:
        """Stop the worker threads (queued jobs are left cancelled)."""
        if self._closed:
            return
        self._closed = True
        with self._lock:
            for job in self._jobs.values():
                if job.state == "queued":
                    job.state = "cancelled"
                    job.finished_at = time.time()
        for _ in self._threads:
            self._queue.put(None)
        if wait:
            for thread in self._threads:
                thread.join(timeout=30)

    # -- the worker side ------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            job = self._queue.get()
            if job is None:
                return
            self.obs.set_gauge("service.queue.depth", self._queue.qsize())
            with self._lock:
                if job.state != "queued":  # cancelled while waiting
                    continue
                job.state = "running"
                job.started_at = time.time()
            _LOG.info("job %s running (%s)", job.id, job.kind)
            result, error = None, None
            try:
                result = self._run(job)
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
            outcome = "done" if error is None else "failed"
            # One critical section, state last: a status poll never sees
            # a finished job without its finished_at/result/error.
            with self._lock:
                job.result, job.error = result, error
                job.finished_at = time.time()
                job.state = outcome
                finished = [key for key, old in self._jobs.items()
                            if old.terminal]
                for key in finished[:-RETAINED_JOBS]:
                    del self._jobs[key]
            self.obs.count(f"service.jobs.{outcome}")
            self.obs.count(f"service.jobs.{outcome}.{job.kind}")
            if error is None:
                _LOG.info("job %s done", job.id)
            else:
                _LOG.warning("job %s failed: %s", job.id, error)

    def _run(self, job: Job) -> object:
        obs = Observation(metrics=self.obs.metrics)
        with obs.timed("service.job", kind=job.kind, job=job.id):
            if job.kind == "plan":
                return self._run_plan(job.spec, obs)
            if job.kind == "stats":
                return self._run_stats(job.spec, obs)
            return self._run_sweep(job.spec, obs)

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
            "workload": {name: echo[name] for name in
                         ("workload", "m", "skew", "seed", "domain")},
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
        return {
            "count": len(records),
            "failed": sum(1 for record in records if not record.ok),
            "records": [record.to_dict() for record in records],
        }

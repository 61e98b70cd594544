"""Fault-isolated sweep execution and the service's async job queue.

Two layers live here, one stacked on the other:

1. :func:`execute_cells` — the *cell executor* both the library
   (:meth:`repro.api.experiment.Sweep.run`) and the service share.  It
   replaces the old all-or-nothing process pool: a cell that raises
   becomes a structured ``failed:<reason>`` record, a cell that exceeds
   its deadline becomes a ``timeout`` record (its worker process is
   killed and replaced), and every healthy record is returned in grid
   order regardless of what its neighbors did.

2. :class:`JobQueue` — a bounded submit/status/result/cancel queue over
   ``plan``, ``stats`` and ``sweep`` jobs, drained by daemon worker
   threads inside a long-lived ``repro serve`` process.  A full queue
   rejects with :class:`BackpressureError` (the server maps it to HTTP
   429) instead of buffering without bound.  Plan and statistics work
   goes through a shared :class:`~repro.service.cache.CatalogCache`, so
   the second catalog-identical request is a cache hit, not a rebuild.

Observability (all through the existing :mod:`repro.obs` layer):
``service.queue.depth`` gauge, ``service.jobs.*`` counters,
``service.job.seconds`` spans per job, the cell farm's
``sweep.queue_wait.seconds`` / ``sweep.cell.seconds`` histograms and
``sweep.cells.{ok,failed,timeout}`` counters, and the cache's
``service.cache.{hit,miss}`` counters.
"""

from __future__ import annotations

import itertools
import logging
import queue
import threading
import time
from collections import deque
from dataclasses import dataclass, field, replace
from multiprocessing.connection import Connection
from multiprocessing.connection import wait as _connection_wait
from typing import Callable, Sequence

from ..api import experiment as _experiment
from ..api.planner import plan as _plan
from ..api.records import RunRecord
from ..mpc.engine.multiprocess import pool_context
from ..obs import Observation, maybe_timed
from .cache import CatalogCache, catalog_key

_LOG = logging.getLogger("repro.service.jobs")

#: Job kinds the queue accepts.
JOB_KINDS = ("plan", "stats", "sweep")

#: Job lifecycle states.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")


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


def _failure_status(exc: BaseException) -> str:
    """The ``failed:<reason>`` status string for an exception."""
    reason = str(exc) or type(exc).__name__
    return f"failed:{type(exc).__name__}: {reason}"


# ----------------------------------------------------------------------
# The cell executor: serial and farmed, both fault-isolated.
# ----------------------------------------------------------------------

def _log_record(record: RunRecord, done: int, total: int) -> None:
    _LOG.info(
        "cell %d/%d: %s p=%d m=%d skew=%.2f seed=%d -> "
        "%.0f bits (%s) in %.3fs",
        done, total, record.algorithm, record.p, record.m,
        record.skew, record.seed, record.max_load_bits,
        record.status if not record.ok
        else "gap " + ("-" if record.optimality_gap is None
                       else format(record.optimality_gap, ".2f")),
        record.wall_seconds,
    )


def _count_status(obs: Observation | None, record: RunRecord) -> None:
    if obs is None:
        return
    if record.ok:
        obs.count("sweep.cells.ok")
    elif record.status == "timeout":
        obs.count("sweep.cells.timeout")
    else:
        obs.count("sweep.cells.failed")


def _prepared_context(group, obs, cache: CatalogCache | None):
    """``(db, query_plan)`` for a coordinate group, through the cache.

    The cache key covers everything :func:`repro.api.experiment._prepare`
    consumes: the coordinates plus the algorithm keys the plan must cost.
    """
    if cache is None:
        return _experiment._prepare(group, obs=obs)
    first = group[0]
    key = catalog_key(
        kind="prepare",
        query=first.query, workload=first.workload, m=first.m,
        skew=first.skew, seed=first.seed, domain=first.domain,
        p=first.p, stats=first.stats, rounds=first.rounds,
        algorithms=sorted({cell.algorithm for cell in group}),
    )
    return cache.get_or_build(
        "plan", key, lambda: _experiment._prepare(group, obs=obs)
    )


def _execute_serial(
    cells: Sequence["_experiment.Cell"],
    progress: Callable[[RunRecord], None] | None,
    obs: Observation | None,
    cache: CatalogCache | None,
) -> list[RunRecord]:
    """In-process execution: one ``_prepare`` per distinct coordinate
    group (order-independent — shuffled grids do not re-prepare), with
    per-cell and per-group fault isolation.  Timeouts need process
    isolation, so they are the farm's job."""
    groups: dict[tuple, list[int]] = {}
    for index, cell in enumerate(cells):
        groups.setdefault(_experiment._coordinates(cell), []).append(index)
    slots: list[RunRecord | None] = [None] * len(cells)
    total = len(cells)
    done = 0

    def _finish(index: int, record: RunRecord) -> None:
        nonlocal done
        done += 1
        slots[index] = record
        _log_record(record, done, total)
        _count_status(obs, record)
        if progress is not None:
            progress(record)

    with maybe_timed(obs, "sweep.run", cells=total, workers=1):
        for indexes in groups.values():
            group = [cells[i] for i in indexes]
            try:
                with maybe_timed(obs, "sweep.prepare", cells=len(group)):
                    db, query_plan = _prepared_context(group, obs, cache)
            except Exception as exc:
                _LOG.warning("sweep: preparing %d cell(s) failed: %s",
                             len(group), exc)
                for i in indexes:
                    _finish(i, _experiment.failure_record(
                        cells[i], _failure_status(exc)
                    ))
                continue
            for i in indexes:
                started = time.perf_counter()
                try:
                    record = _experiment._execute(
                        cells[i], db, query_plan, obs=obs
                    )
                except Exception as exc:
                    _LOG.warning("sweep: cell %d failed: %s", i, exc)
                    record = _experiment.failure_record(
                        cells[i], _failure_status(exc),
                        wall_seconds=time.perf_counter() - started,
                    )
                _finish(i, record)
    return [record for record in slots if record is not None]


@dataclass
class _Worker:
    """One farm worker process and what it is currently running."""

    process: object
    conn: Connection
    index: int | None = None          # cell index in flight, None if idle
    dispatched_at: float | None = None
    deadline: float | None = None

    @property
    def busy(self) -> bool:
        return self.index is not None


def _cell_worker(conn: Connection) -> None:
    """Farm worker loop: receive a cell, run it, send the outcome.

    Exceptions are caught *here* and shipped back as structured errors,
    so a poisoned cell costs one message, not the worker.  Only a hard
    crash (or a kill from the parent on timeout) loses the process — the
    parent notices the closed pipe and replaces it.
    """
    while True:
        try:
            cell = conn.recv()
        except (EOFError, OSError):
            return
        if cell is None:
            return
        try:
            outcome = ("ok", _experiment.run_cell(cell))
        except BaseException as exc:  # isolate *everything* per cell
            outcome = ("error", f"{type(exc).__name__}: {exc}")
        try:
            conn.send(outcome)
        except (BrokenPipeError, OSError):
            return


def _execute_farm(
    cells: Sequence["_experiment.Cell"],
    max_workers: int,
    cell_timeout: float | None,
    progress: Callable[[RunRecord], None] | None,
    obs: Observation | None,
) -> list[RunRecord]:
    """Farm cells over dedicated worker processes with fault isolation.

    Unlike a :class:`~concurrent.futures.ProcessPoolExecutor`, each
    worker is dispatched exactly one cell at a time over its own pipe, so
    the parent always knows which cell a hung worker holds: on deadline
    it kills that worker, records a ``timeout`` for that cell only, and
    spawns a replacement.  Worker processes are non-daemonic (cells
    running the ``mp`` engine open their own pool inside).
    """
    ctx = pool_context()
    total = len(cells)
    if obs is not None:
        # Workers cannot write to this process' registry; ship the
        # request with each cell and read the digest off the record.
        cells = [replace(cell, observe=True) for cell in cells]
    slots: list[RunRecord | None] = [None] * total
    pending: deque[int] = deque(range(total))
    workers: list[_Worker] = []
    done = 0
    busy_seconds = 0.0
    farm_started = time.perf_counter()

    def _spawn() -> _Worker:
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        process = ctx.Process(
            target=_cell_worker, args=(child_conn,), daemon=False
        )
        process.start()
        child_conn.close()
        return _Worker(process=process, conn=parent_conn)

    def _dispatch(worker: _Worker) -> None:
        index = pending.popleft()
        worker.index = index
        worker.dispatched_at = time.perf_counter()
        worker.deadline = (
            None if cell_timeout is None
            else worker.dispatched_at + cell_timeout
        )
        worker.conn.send(cells[index])

    def _finish(index: int, record: RunRecord) -> None:
        nonlocal done, busy_seconds
        done += 1
        slots[index] = record
        if obs is not None:
            turnaround = time.perf_counter() - farm_started
            obs.observe("sweep.queue_wait.seconds",
                        max(0.0, turnaround - record.wall_seconds))
            obs.observe("sweep.cell.seconds", record.wall_seconds)
            busy_seconds += record.wall_seconds
            if record.metrics is not None:
                obs.metrics.merge_snapshot({
                    "counters": record.metrics.get("counters", {}),
                    "gauges": record.metrics.get("gauges", {}),
                })
        _log_record(record, done, total)
        _count_status(obs, record)
        if progress is not None:
            progress(record)

    def _retire(worker: _Worker, *, kill: bool) -> None:
        workers.remove(worker)
        if kill and worker.process.is_alive():
            worker.process.terminate()
        try:
            worker.conn.close()
        except OSError:
            pass
        worker.process.join(timeout=5)
        if worker.process.is_alive():  # pragma: no cover - stubborn child
            worker.process.kill()
            worker.process.join(timeout=5)

    worker_target = min(max_workers, total)
    with maybe_timed(obs, "sweep.run", cells=total, workers=worker_target):
        workers.extend(_spawn() for _ in range(worker_target))
        try:
            while done < total:
                for worker in workers:
                    if not worker.busy and pending:
                        _dispatch(worker)
                busy = [worker for worker in workers if worker.busy]
                if not busy:  # pragma: no cover - every worker just died
                    while pending:
                        index = pending.popleft()
                        _finish(index, _experiment.failure_record(
                            cells[index], "failed:worker-pool-exhausted"
                        ))
                    break
                now = time.perf_counter()
                deadlines = [w.deadline for w in busy
                             if w.deadline is not None]
                wait_for = (None if not deadlines
                            else max(0.0, min(deadlines) - now))
                ready = _connection_wait(
                    [worker.conn for worker in busy], timeout=wait_for
                )
                for worker in busy:
                    if worker.conn not in ready:
                        continue
                    index = worker.index
                    elapsed = time.perf_counter() - worker.dispatched_at
                    try:
                        kind, payload = worker.conn.recv()
                    except (EOFError, OSError):
                        # The worker died mid-cell (crash, OOM kill, ...):
                        # record the casualty and replace the process.
                        _LOG.warning("sweep: worker died running cell %d",
                                     index)
                        _finish(index, _experiment.failure_record(
                            cells[index], "failed:worker-died",
                            wall_seconds=elapsed,
                        ))
                        _retire(worker, kill=True)
                        if pending:
                            workers.append(_spawn())
                        continue
                    if kind == "ok":
                        _finish(index, payload)
                    else:
                        _finish(index, _experiment.failure_record(
                            cells[index], f"failed:{payload}",
                            wall_seconds=elapsed,
                        ))
                    worker.index = None
                    worker.dispatched_at = None
                    worker.deadline = None
                now = time.perf_counter()
                for worker in list(workers):
                    if (worker.busy and worker.deadline is not None
                            and now >= worker.deadline):
                        index = worker.index
                        _LOG.warning(
                            "sweep: cell %d exceeded its %.1fs deadline; "
                            "killing and replacing its worker",
                            index, cell_timeout,
                        )
                        _finish(index, _experiment.failure_record(
                            cells[index], "timeout",
                            wall_seconds=now - worker.dispatched_at,
                        ))
                        _retire(worker, kill=True)
                        if pending:
                            workers.append(_spawn())
        finally:
            for worker in list(workers):
                if not worker.busy:
                    try:
                        worker.conn.send(None)
                    except (BrokenPipeError, OSError):
                        pass
                _retire(worker, kill=worker.busy)
    if obs is not None:
        elapsed = time.perf_counter() - farm_started
        obs.set_gauge("sweep.pool_workers", worker_target)
        if elapsed > 0:
            obs.set_gauge(
                "sweep.pool_utilization",
                busy_seconds / (worker_target * elapsed),
            )
    return [record for record in slots if record is not None]


def execute_cells(
    cells: Sequence["_experiment.Cell"],
    max_workers: int | None = None,
    cell_timeout: float | None = None,
    progress: Callable[[RunRecord], None] | None = None,
    obs: Observation | None = None,
    cache: CatalogCache | None = None,
) -> list[RunRecord]:
    """Execute sweep cells with per-cell fault isolation.

    The single executor behind both :meth:`repro.api.experiment.Sweep.run`
    and the service's sweep jobs.  Records come back in grid (input)
    order; a raising cell yields a ``failed:<reason>`` record and a cell
    past ``cell_timeout`` seconds yields a ``timeout`` record — neither
    disturbs its neighbors.

    ``max_workers`` > 1 farms cells over worker processes; ``None``/1
    runs in-process (sharing one database/statistics/plan per distinct
    coordinate group, in any input order).  ``cell_timeout`` requires
    process isolation, so setting it forces the farm even for a single
    worker.  ``cache`` (a :class:`~repro.service.cache.CatalogCache`)
    lets the serial path reuse prepared contexts across calls — the
    service's sweep jobs pass the server-wide cache.
    """
    if not cells:
        return []
    workers = 0 if max_workers is None else max_workers
    if cell_timeout is not None and cell_timeout <= 0:
        raise ServiceError(
            f"cell_timeout must be positive, got {cell_timeout}"
        )
    if cell_timeout is None and (workers <= 1 or len(cells) == 1):
        return _execute_serial(cells, progress, obs, cache)
    return _execute_farm(
        cells, max(1, workers), cell_timeout, progress, obs
    )


# ----------------------------------------------------------------------
# Catalog-cached builders shared by plan and stats jobs.
# ----------------------------------------------------------------------

def _workload_parts(spec: dict) -> dict:
    """The workload coordinates of a plan/stats job spec, normalized."""
    domain = spec.get("domain")
    return {
        "workload": str(spec.get("workload", "uniform")),
        "m": int(spec.get("m", 1000)),
        "skew": float(spec.get("skew", 1.0)),
        "seed": int(spec.get("seed", 0)),
        "domain": None if domain is None else int(domain),
    }


def _cached_query(text: str, cache: CatalogCache | None):
    if cache is None:
        return _experiment.parse_query(text)
    key = catalog_key(kind="query", text=text)
    return cache.get_or_build(
        "query", key, lambda: _experiment.parse_query(text)
    )


def _cached_statistics(
    query, parts: dict, p: int, method: str,
    cache: CatalogCache | None, obs: Observation | None,
):
    """``(db, stats)`` for a catalog, via the cache's ``stats`` section."""
    _experiment._validate_stats_method(method)

    def _build():
        workload = _experiment.WorkloadSpec(
            kind=parts["workload"], m=parts["m"], skew=parts["skew"],
            seed=parts["seed"], domain=parts["domain"],
        )
        db = workload.build(query)
        with maybe_timed(obs, "stats.build", method=method):
            stats = _experiment._build_statistics(query, db, p, method,
                                                  obs=obs)
        return db, stats

    if cache is None:
        return _build()
    key = catalog_key(kind="stats", query=str(query), p=p, method=method,
                      **parts)
    return cache.get_or_build("stats", key, _build)


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
    through; plan and stats jobs run in-thread against the shared
    :class:`~repro.service.cache.CatalogCache`.
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
        if not isinstance(spec, dict) or not spec.get("query"):
            raise ServiceError(
                "job spec must be an object with at least a 'query'"
            )
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
                with maybe_timed(self.obs, "service.job",
                                 kind=job.kind, job=job.id):
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
            self.obs.count(f"service.jobs.{outcome}")
            self.obs.count(f"service.jobs.{outcome}.{job.kind}")
            if error is None:
                _LOG.info("job %s done", job.id)
            else:
                _LOG.warning("job %s failed: %s", job.id, error)

    def _run(self, job: Job) -> object:
        if job.kind == "plan":
            return self._run_plan(job.spec)
        if job.kind == "stats":
            return self._run_stats(job.spec)
        return self._run_sweep(job.spec)

    def _run_plan(self, spec: dict) -> dict:
        parts = _workload_parts(spec)
        p = int(spec.get("p", 16))
        method = str(spec.get("stats", "exact"))
        query = _cached_query(str(spec["query"]), self.cache)
        _, stats = _cached_statistics(
            query, parts, p, method, self.cache, self.obs
        )
        key = catalog_key(kind="plan", query=str(query), p=p,
                          method=method, **parts)
        query_plan = self.cache.get_or_build(
            "plan", key,
            lambda: _plan(query, stats, p, obs=self.obs),
        )
        return query_plan.to_dict()

    def _run_stats(self, spec: dict) -> dict:
        parts = _workload_parts(spec)
        p = int(spec.get("p", 16))
        method = str(spec.get("stats", "exact"))
        query = _cached_query(str(spec["query"]), self.cache)
        db, stats = _cached_statistics(
            query, parts, p, method, self.cache, self.obs
        )
        return {
            "query": str(query),
            "p": p,
            "method": method,
            "workload": parts,
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

    def _run_sweep(self, spec: dict) -> dict:
        algorithms = spec.get("algorithms", "applicable")
        if isinstance(algorithms, list):
            algorithms = tuple(algorithms)
        stats = spec.get("stats_axis", spec.get("stats", "exact"))
        if isinstance(stats, list):
            stats = tuple(stats)
        rounds = spec.get("rounds", 1)
        if isinstance(rounds, list):
            rounds = tuple(rounds)
        sweep = _experiment.Sweep(
            query=str(spec["query"]),
            workload=str(spec.get("workload", "zipf")),
            p_values=tuple(spec.get("p_values", (16,))),
            m_values=tuple(spec.get("m_values", (1000,))),
            skews=tuple(spec.get("skews", (1.0,))),
            seeds=tuple(spec.get("seeds", (0,))),
            algorithms=algorithms,
            engine=str(spec.get("engine", "batched")),
            verify=bool(spec.get("verify", False)),
            domain=spec.get("domain"),
            stats=stats,
            rounds=rounds,
        )
        cells = sweep.cells()
        records = execute_cells(
            cells,
            max_workers=spec.get("workers", self.cell_workers),
            cell_timeout=spec.get("cell_timeout", self.cell_timeout),
            obs=self.obs,
            cache=self.cache,
        )
        return {
            "count": len(records),
            "failed": sum(1 for record in records if not record.ok),
            "records": [record.to_dict() for record in records],
        }

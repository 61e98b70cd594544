"""The one process fan-out: a small farm of fault-isolated workers.

The simulator stands real processes in for the model's servers in three
places — the ``mp`` engine's shards, the sketch pass's shards and the
sweep runner's cells — and all three run here.  A :class:`Farm` keeps
long-lived worker processes, each fed one task at a time over its own
pipe, so the parent always knows which task a worker holds.  Every task
ends in a structured :class:`Outcome`:

* ``ok`` — the task function returned; ``value`` is its result;
* ``error`` — it raised; ``value`` is ``"ExcType: message"`` and the
  worker lives on;
* ``died`` — its worker process exited mid-task (crash, ``os._exit``, OOM
  kill); the parent sees the closed pipe and replaces the worker;
* ``timeout`` — no result within the farm's per-task deadline; the worker
  is killed and replaced.

Nothing here hangs on a lost worker, and leaving the ``with`` block joins
every child (killing those still mid-task), also when the caller raised.

The task function is captured when a worker starts: inherited under the
``fork`` start method (preferred where the platform has it — plans and
cells cost nothing to ship), pickled once per worker otherwise.  Workers
are non-daemonic, so a task may open a farm of its own (a sweep cell
running the ``mp`` engine does).

This is the only module of ``repro`` that imports ``multiprocessing``
(``tests/test_layering.py`` holds it to that), and only once a farm is
made: a command that runs in one process never loads it.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence, Sized

if TYPE_CHECKING:
    from multiprocessing.connection import Connection


class FarmUnavailable(OSError):
    """No worker process could be started (restricted sandboxes): the
    caller runs the same work in-process."""


def check_workers(workers: int) -> int:
    """``workers``, if it is a usable worker count: an integer >= 1."""
    if isinstance(workers, bool) or not isinstance(workers, int) \
            or workers < 1:
        raise ValueError(
            f"worker count must be an integer >= 1, got {workers!r}"
        )
    return workers


def split_contiguous(items: Sized, pieces: int) -> list:
    """Split ``items`` into at most ``pieces`` contiguous nonempty chunks
    (slices: of a list, or of a batch's columns) — how the ``mp`` engine
    and the sketch pass cut their work for the workers."""
    if not items:
        return []
    pieces = min(pieces, len(items))
    size, extra = divmod(len(items), pieces)
    out, start = [], 0
    for i in range(pieces):
        end = start + size + (1 if i < extra else 0)
        out.append(items[start:end])
        start = end
    return out


@dataclass(frozen=True)
class Outcome:
    """How one task ended: ``status`` is ``ok``, ``error``, ``died`` or
    ``timeout``; ``value`` the result when ``ok`` and a description
    otherwise; ``seconds`` how long the task ran — on the worker's clock
    when it answered, since dispatch on the parent's when it did not."""

    status: str
    value: object = None
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass
class _Worker:
    """One worker process and the task it is running."""

    process: object
    conn: Connection
    index: int | None = None          # task index in flight, None if idle
    dispatched_at: float = 0.0


def _serve(conn: Connection, task: Callable[[object], object]) -> None:
    """Worker loop: receive ``(item,)``, answer ``(status, value, seconds)``.

    Exceptions are caught *here* and shipped back as structured errors, so
    a poisoned task costs one message, not the worker.  Only a hard crash
    (or a kill from the parent) loses the process.
    """
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message is None:
            return
        started = time.perf_counter()
        try:
            status, value = "ok", task(message[0])
        except BaseException as exc:  # isolate *everything* per task
            status, value = "error", f"{type(exc).__name__}: {exc}"
        try:
            conn.send((status, value, time.perf_counter() - started))
        except OSError:
            return


class Farm:
    """``workers`` processes running ``task(item)``, one item each at a
    time; a context manager whose :meth:`map` can be called repeatedly.

    ``timeout`` (seconds, optional) is the per-task deadline.  Raises
    :class:`FarmUnavailable` when not even one worker can be started;
    with fewer than asked for, the farm runs on those it got.
    """

    def __init__(self, task: Callable[[object], object], workers: int,
                 timeout: float | None = None) -> None:
        import multiprocessing

        self._task = task
        self._timeout = timeout
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else None
        )
        self._workers: list[_Worker] = []
        for _ in range(check_workers(workers)):
            if not self._spawn() and not self._workers:
                raise FarmUnavailable("no worker process could be started")

    def __enter__(self) -> "Farm":
        return self

    def __exit__(self, *exc_info: object) -> None:
        for worker in list(self._workers):
            busy = worker.index is not None
            if not busy:
                try:
                    worker.conn.send(None)
                except OSError:
                    pass
            self._retire(worker, kill=busy)

    def map(self, items: Sequence[object],
            each: Callable[[int, Outcome], None] | None = None,
            ) -> list[Outcome]:
        """Run every item; the outcomes, in item order.

        ``each(index, outcome)`` is called as tasks end, in completion
        order.
        """
        from multiprocessing.connection import wait

        outcomes: list[Outcome | None] = [None] * len(items)
        pending = deque(range(len(items)))

        def finish(index: int, *outcome: object) -> None:
            outcomes[index] = Outcome(*outcome)
            if each is not None:
                each(index, outcomes[index])

        while pending or any(w.index is not None for w in self._workers):
            for worker in self._workers:
                if worker.index is None and pending:
                    worker.index = pending.popleft()
                    worker.dispatched_at = time.perf_counter()
                    try:
                        worker.conn.send((items[worker.index],))
                    except OSError:
                        # It died while idle; its closed pipe reads as
                        # EOF below, which records the death.
                        pass
            busy = [w for w in self._workers if w.index is not None]
            if not busy:  # every worker died and none could be replaced
                while pending:
                    finish(pending.popleft(), "died",
                           "no worker process left to run it")
                break
            patience = None
            if self._timeout is not None:
                oldest = min(w.dispatched_at for w in busy)
                patience = max(
                    0.0, oldest + self._timeout - time.perf_counter()
                )
            ready = wait([w.conn for w in busy], patience)
            for worker in busy:
                index = worker.index
                elapsed = time.perf_counter() - worker.dispatched_at
                if worker.conn in ready:
                    try:
                        reply = worker.conn.recv()
                    except (EOFError, OSError):
                        code = self._retire(worker, kill=False)
                        self._spawn()
                        finish(index, "died",
                               f"its worker exited with code {code}", elapsed)
                    else:
                        worker.index = None
                        finish(index, *reply)
                elif self._timeout is not None and elapsed >= self._timeout:
                    self._retire(worker, kill=True)
                    self._spawn()
                    finish(index, "timeout",
                           f"no result within {self._timeout}s", elapsed)
        return outcomes

    def _spawn(self) -> bool:
        """Start one more worker; False when the platform refuses."""
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_serve, args=(child_conn, self._task), daemon=False
        )
        try:
            process.start()
        except OSError:
            parent_conn.close()
            return False
        finally:
            child_conn.close()
        self._workers.append(_Worker(process, parent_conn))
        return True

    def _retire(self, worker: _Worker, *, kill: bool) -> int | None:
        """Drop a worker and join it; its exit code."""
        self._workers.remove(worker)
        if kill and worker.process.is_alive():
            worker.process.terminate()
        worker.conn.close()
        worker.process.join(timeout=5)
        if worker.process.is_alive():  # ignores SIGTERM, or never exits
            worker.process.kill()
            worker.process.join(timeout=5)
        return worker.process.exitcode

"""The multiprocessing engine: the batched kernel over many shards.

:class:`MultiprocessEngine` is :class:`repro.mpc.engine.BatchedEngine` with
the shards farmed out to a worker pool; the kernel
(:mod:`repro.mpc.engine.shard`) is the same:

1. **Routing** — each relation's tuples are split into per-worker chunks;
   every worker runs :func:`~repro.mpc.engine.shard.route_shard` on its
   chunk and returns per-server received counts plus (when answers are
   requested) the per-server fragment slices.  The parent folds the shards
   into the round's ledger exactly as the in-process engine folds its
   single shard: counts by integer addition, fragments by set union, bits
   once per relation as ``count * tuple_bits`` — so loads stay
   bit-identical.
2. **Local joins** — the nonempty servers are sharded across the same pool;
   each worker joins its servers' fragments and the answer sets are unioned.

When observing (``obs`` not None), each worker snapshots its own metrics
(chunk routing/join wall clock, tuples per chunk) as plain dicts; the
parent folds them into the round's :class:`~repro.obs.MetricsRegistry`
via ``merge_snapshot`` — counters add and histogram values concatenate,
so per-worker timings aggregate exactly.

The routing plan is shipped to the workers once via the pool initializer.
Worker processes use the ``fork`` start method when the platform offers it
(cheapest; the plan is inherited), falling back to the default method
otherwise.  When only one worker is configured — or the platform cannot
spawn processes at all — no pool is opened and the round runs in-process
on the inherited :class:`BatchedEngine` path, which is result-identical.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator, Sequence

from ...query.atoms import ConjunctiveQuery
from ...seq.relation import Tuple
from ..execution import RoutingPlan
from .batched import BatchedEngine
from .shard import InProcessShards, Shard, join_shard, route_shard

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...obs import Observation


def pool_context():
    """Fork-first multiprocessing context (fork inherits routing plans and
    cells for free); the platform default otherwise.  Shared by this
    engine and the sweep runner's cell farm."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


# Per-worker state installed by the pool initializer (plan, query, domain,
# compute_answers).  Module-level so the worker functions are picklable.
_STATE: dict[str, object] = {}


def _init_worker(
    plan: RoutingPlan,
    query: ConjunctiveQuery,
    domain_size: int,
    compute_answers: bool,
    observe: bool = False,
) -> None:
    _STATE["plan"] = plan
    _STATE["query"] = query
    _STATE["domain_size"] = domain_size
    _STATE["compute_answers"] = compute_answers
    _STATE["observe"] = observe


def _route_chunk(
    task: tuple[str, Sequence[Tuple]]
) -> tuple[Shard, dict | None]:
    """Route one chunk of one relation: (shard, worker metrics snapshot or
    None)."""
    relation_name, tuples = task
    started = time.perf_counter() if _STATE.get("observe") else None
    shard = route_shard(
        _STATE["plan"], relation_name, tuples, _STATE["compute_answers"]
    )
    snapshot = None
    if started is not None:
        # A plain-dict MetricsRegistry.merge_snapshot payload: picklable,
        # and aggregated exactly in the parent (counters add, histogram
        # values concatenate).
        snapshot = {
            "counters": {"mp.route_chunks": 1, "mp.route_tuples": len(tuples)},
            "histograms": {
                "mp.worker_route.seconds": [time.perf_counter() - started],
            },
        }
    return shard, snapshot


def _join_chunk(
    server_fragments: Sequence[dict[str, set[Tuple]]]
) -> tuple[set[Tuple], dict | None]:
    """Join the fragments of a shard of servers and union their answers."""
    started = time.perf_counter() if _STATE.get("observe") else None
    collected = join_shard(
        _STATE["query"], server_fragments, _STATE["domain_size"]
    )
    snapshot = None
    if started is not None:
        snapshot = {
            "counters": {"mp.join_chunks": 1,
                         "mp.join_servers": len(server_fragments)},
            "histograms": {
                "mp.worker_join.seconds": [time.perf_counter() - started],
            },
        }
    return collected, snapshot


def _chunks(items: list, pieces: int) -> list[list]:
    """Split ``items`` into at most ``pieces`` contiguous nonempty chunks."""
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


class _PoolShards:
    """Where shards run, pool flavour: each relation is cut into one chunk
    per worker, and the occupied servers likewise for the local joins."""

    def __init__(self, pool, workers: int, obs: "Observation | None") -> None:
        self.pool = pool
        self.workers = workers
        self.obs = obs

    def route(self, relation_name: str, tuples: list[Tuple]) -> list[Shard]:
        tasks = [
            (relation_name, chunk) for chunk in _chunks(tuples, self.workers)
        ]
        return self._payloads(self.pool.map(_route_chunk, tasks))

    def join(self, occupied: list[dict[str, set[Tuple]]]) -> set[Tuple]:
        collected: set[Tuple] = set()
        for joined in self._payloads(
            self.pool.map(_join_chunk, _chunks(occupied, self.workers))
        ):
            collected |= joined
        return collected

    def _payloads(self, results) -> list:
        """Strip the workers' metric snapshots off ``(payload, snapshot)``
        results, folding them into the round's metrics."""
        payloads = []
        for payload, snapshot in results:
            payloads.append(payload)
            if self.obs is not None and snapshot is not None:
                self.obs.metrics.merge_snapshot(snapshot)
        return payloads


class MultiprocessEngine(BatchedEngine):
    """Shards routing and local joins across a ``multiprocessing`` pool."""

    name = "mp"

    def __init__(self, workers: int | None = None) -> None:
        self.workers = workers

    def _resolved_workers(self) -> int:
        if self.workers is not None:
            if self.workers < 1:
                raise ValueError("worker count must be >= 1")
            return self.workers
        return max(2, min(4, os.cpu_count() or 1))

    @contextmanager
    def _shards(
        self,
        plan: RoutingPlan,
        query: ConjunctiveQuery,
        domain_size: int,
        compute_answers: bool,
        obs: "Observation | None",
    ) -> Iterator[object]:
        workers = self._resolved_workers()
        pool = None
        if workers > 1:
            try:
                pool = pool_context().Pool(
                    processes=workers,
                    initializer=_init_worker,
                    initargs=(plan, query, domain_size, compute_answers,
                              obs is not None),
                )
            except OSError:
                # No processes available (restricted sandboxes): same
                # results, computed in-process.  Errors *during* the
                # parallel phases are real failures and propagate.
                pass
        if pool is None:
            yield InProcessShards(plan, query, domain_size, compute_answers)
            return
        if obs is not None:
            obs.set_gauge("mp.workers", workers)
            obs.count("mp.pools_opened")
        with pool:
            yield _PoolShards(pool, workers, obs)

"""The multiprocessing engine: the batched kernel over many shards.

:class:`MultiprocessEngine` is :class:`repro.mpc.engine.BatchedEngine` with
the shards run on the process farm (:mod:`repro.mpc.farm`); the kernel
(:mod:`repro.mpc.engine.shard`) is the same, down to the object: the
workers call the very :class:`~repro.mpc.engine.shard.InProcessShards` the
batched engine calls in-process, captured when they start.

1. **Routing** — each relation's batch is sliced into one chunk per
   worker, shipped as int64 columns; every worker routes its chunk and
   returns per-server received counts or (answers on) its deliveries,
   ``(tuple index, server)`` arrays the parent re-bases from the chunk to
   the whole batch.  The parent folds the shards into the round's ledger
   as the in-process engine folds its single shard: counts by addition,
   deliveries by concatenation, bits once per relation as
   ``count * tuple_bits`` — so loads stay bit-identical.
2. **Local joins** — the occupied servers are cut into contiguous ranges
   the same way; each worker is shipped the delivered columns of its range
   and joins them, and the parent merges the answer arrays with one sort.

One farm serves the whole round (k routing maps, then the join).  A chunk
whose worker raised or died is an :class:`EngineError` naming the relation
— never a hang.  When observing (``obs`` not None), the parent records per
chunk what the farm reports: chunk and tuple counts and the worker's own
wall clock (``mp.worker_route.seconds`` / ``mp.worker_join.seconds``).

With one worker configured — or when no worker process can be started at
all — the round runs in-process on the inherited :class:`BatchedEngine`
path, which is result-identical.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from functools import partial
from typing import TYPE_CHECKING, Iterator

import numpy as np

from ...query.atoms import ConjunctiveQuery
from ...seq.join import Answers
from ...seq.relation import Batch
from ..execution import RoutingPlan
from ..farm import Farm, FarmUnavailable, check_workers, split_contiguous
from .base import EngineError
from .batched import BatchedEngine
from .shard import InProcessShards, Shard

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...obs import Observation


def _shard_task(shards: InProcessShards, task: tuple) -> object:
    """What a farm worker runs: ``("route", relation_name, batch)`` or
    ``("join", delivered)`` against the round's shard kernel."""
    method, *args = task
    return getattr(shards, method)(*args)


class _FarmShards:
    """Where shards run, farm flavour: each relation is cut into one chunk
    per worker, and the occupied servers likewise for the local joins."""

    def __init__(
        self, farm: Farm, workers: int, obs: "Observation | None",
        local: InProcessShards,
    ) -> None:
        self.farm = farm
        self.workers = workers
        self.obs = obs
        self.local = local

    def route(self, relation_name: str, batch: Batch) -> list[Shard]:
        # At least one chunk, also for an empty relation.
        chunks = split_contiguous(batch, self.workers) or [batch]
        shards = [shard for (shard,) in self._run(
            "route", f"relation {relation_name!r}", "tuples", chunks,
            [(relation_name, chunk) for chunk in chunks],
        )]
        if self.local.deliver:
            # A worker's indices count from the start of its chunk.
            start = 0
            for chunk, (indices, _) in zip(chunks, shards):
                indices += start
                start += len(chunk)
        return shards

    def join(self, delivered: dict[str, np.ndarray]) -> Answers:
        occupied = np.flatnonzero(np.bincount(np.concatenate(
            [columns[-1] for columns in delivered.values()]
        )))
        chunks = split_contiguous(occupied.tolist(), self.workers)
        parts = self._run("join", "the local joins", "servers", chunks, [
            ({name: columns[:, (chunk[0] <= columns[-1])
                            & (columns[-1] <= chunk[-1])]
              for name, columns in delivered.items()},)
            for chunk in chunks
        ])
        nothing = np.empty((len(self.local.query.head), 0), dtype=np.int64)
        return Answers.of(
            np.concatenate([nothing] + [part.columns for part in parts],
                           axis=1),
            self.local.domain_size,
        )

    def _run(
        self, phase: str, what: str, unit: str, chunks: list, tasks: list,
    ) -> list:
        """Map one phase's ``tasks`` (the arguments of ``phase``, one per
        chunk) over the farm; the results in chunk order, or
        :class:`EngineError` for a chunk without one."""
        outcomes = self.farm.map([(phase, *task) for task in tasks])
        for number, (chunk, outcome) in enumerate(zip(chunks, outcomes), 1):
            if not outcome.ok:
                raise EngineError(
                    f"mp engine: chunk {number}/{len(chunks)} of {what} "
                    f"{outcome.status}: {outcome.value}"
                )
            if self.obs is not None:
                self.obs.count(f"mp.{phase}_chunks")
                self.obs.count(f"mp.{phase}_{unit}", len(chunk))
                self.obs.observe(
                    f"mp.worker_{phase}.seconds", outcome.seconds
                )
        return [outcome.value for outcome in outcomes]


class MultiprocessEngine(BatchedEngine):
    """Shards routing and local joins across farm worker processes."""

    name = "mp"

    def __init__(self, workers: int | None = None) -> None:
        self.workers = None if workers is None else check_workers(workers)

    @contextmanager
    def _shards(
        self,
        plan: RoutingPlan,
        query: ConjunctiveQuery,
        domain_size: int,
        compute_answers: bool,
        obs: "Observation | None",
    ) -> Iterator[object]:
        local = InProcessShards(plan, query, domain_size, compute_answers)
        workers = self.workers or max(2, min(4, os.cpu_count() or 1))
        try:
            farm = (Farm(partial(_shard_task, local), workers)
                    if workers > 1 else None)
        except FarmUnavailable:
            # Same results, computed in-process.  Failures *during* the
            # parallel phases are real and raise EngineError.
            farm = None
        if farm is None:
            yield local
            return
        if obs is not None:
            obs.set_gauge("mp.workers", workers)
            obs.count("mp.pools_opened")
        with farm:
            yield _FarmShards(farm, workers, obs, local)

"""The multiprocessing engine: the batched kernel over many shards.

:class:`MultiprocessEngine` is :class:`repro.mpc.engine.BatchedEngine` with
the shards run on the process farm (:mod:`repro.mpc.farm`); the kernel
(:mod:`repro.mpc.engine.shard`) is the same, down to the object: the
workers call the very :class:`~repro.mpc.engine.shard.InProcessShards` the
batched engine calls in-process, captured when they start.

1. **Routing** — each relation's batch is sliced into one chunk per
   worker, shipped as int64 columns (a worker that delivers fragments
   rebuilds the rows from them); every worker routes its chunk and returns
   per-server received counts plus (when answers are requested) the
   per-server fragment slices.  The parent folds the shards into the round's ledger exactly as
   the in-process engine folds its single shard: counts by integer
   addition, fragments by set union, bits once per relation as
   ``count * tuple_bits`` — so loads stay bit-identical.
2. **Local joins** — the nonempty servers are cut into chunks the same
   way; each worker joins its servers' fragments and the answer sets are
   unioned.

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

from ...query.atoms import ConjunctiveQuery
from ...seq.relation import Batch, Tuple
from ..execution import RoutingPlan
from ..farm import Farm, FarmUnavailable, check_workers
from .base import EngineError
from .batched import BatchedEngine
from .shard import InProcessShards, Shard

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...obs import Observation


def _shard_task(shards: InProcessShards, task: tuple) -> object:
    """What a farm worker runs: ``("route", relation_name, tuples)`` or
    ``("join", server_fragments)`` against the round's shard kernel."""
    method, *args = task
    return getattr(shards, method)(*args)


def _chunks(items: "list | Batch", pieces: int) -> list:
    """Split ``items`` into at most ``pieces`` contiguous nonempty chunks
    (slices: of a list, or of a batch's columns)."""
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


class _FarmShards:
    """Where shards run, farm flavour: each relation is cut into one chunk
    per worker, and the occupied servers likewise for the local joins."""

    def __init__(
        self, farm: Farm, workers: int, obs: "Observation | None"
    ) -> None:
        self.farm = farm
        self.workers = workers
        self.obs = obs

    def route(self, relation_name: str, batch: Batch) -> list[Shard]:
        routed = self._run("route", f"relation {relation_name!r}", "tuples",
                           batch, relation_name)
        return [shard for (shard,) in routed]

    def join(
        self, occupied: list[dict[str, set[Tuple]]]
    ) -> frozenset[Tuple]:
        parts = self._run("join", "the local joins", "servers", occupied)
        # A lone chunk's answers as they are: a union would copy them.
        return parts[0] if len(parts) == 1 else frozenset().union(*parts)

    def _run(
        self, phase: str, what: str, unit: str, items: "list | Batch",
        *head: object,
    ) -> list:
        """Map one phase's chunks of ``items`` over the farm; the results
        in chunk order, or :class:`EngineError` for a chunk without one."""
        chunks = _chunks(items, self.workers)
        outcomes = self.farm.map([(phase, *head, chunk) for chunk in chunks])
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
            yield _FarmShards(farm, workers, obs)

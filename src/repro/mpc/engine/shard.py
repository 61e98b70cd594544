"""Shard routing and load accounting shared by ``batched`` and ``mp``.

Both engines run the same kernel through the two methods
:class:`RoutingPlan` derives from a plan's :meth:`RoutingPlan.claims`
(:meth:`RoutingPlan.destination_counts` when only loads are wanted,
:meth:`RoutingPlan.deliveries` when the local joins are): a *shard* — a
:class:`~repro.seq.relation.Batch`: the relation's whole column store
in-process, one slice of its columns per farm worker in ``mp`` — is routed
by :func:`route_shard`, the shards of a relation are folded into the
round's :class:`RoundLedger`, and what the servers received is joined by
:func:`join_shard`.  No Python tuple is built on the way: deliveries are
``(tuple index, server)`` arrays, the ledger counts them with
``np.bincount`` and keeps them as the relation ``D_j`` — the delivered
tuples' columns, the receiving server one more row — and the local joins
of all servers are *one* array join in which the server is one more shared
variable (:func:`repro.seq.join.join_columns`, ``tagged``).  *Where* shards
run is the one thing the engines differ in: :class:`InProcessShards`
called here, or the same object called in the workers of a
:class:`repro.mpc.farm.Farm` in ``mp``.  Counts merge by integer addition,
deliveries by concatenation, answers by one more sort, and bits are folded
once per relation as ``count * tuple_bits``, so the result does not depend
on how a relation was sharded.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Mapping

import numpy as np

from ...query.atoms import ConjunctiveQuery
from ...seq.join import Answers, join_columns
from ...seq.relation import Batch
from ..cluster import LoadReport
from ..execution import RoutingPlan

# What routing one shard yields: per-server received counts (load-only), or
# its deliveries, ``(indices into the shard, servers)``.
Shard = Mapping[int, int] | tuple[np.ndarray, np.ndarray]


def route_shard(
    plan: RoutingPlan,
    relation_name: str,
    batch: Batch,
    deliver: bool,
) -> Shard:
    """Route one shard of one relation.

    With ``deliver`` false nothing is listed per tuple at all: the plan
    counts receives per server directly.
    """
    if not deliver:
        return plan.destination_counts(relation_name, batch)
    return plan.deliveries(relation_name, batch)


def join_shard(
    query: ConjunctiveQuery,
    delivered: Mapping[str, np.ndarray],
    domain_size: int,
) -> Answers:
    """The local joins of the servers in ``delivered`` (all or some of
    :attr:`RoundLedger.delivered`) and the union of their answers: one
    join, one sort."""
    return Answers.of(join_columns(query, delivered, tagged=True), domain_size)


class InProcessShards:
    """Where shards run, in-process flavour: the whole relation is a single
    shard routed — and every server joined — in the calling process.
    ``mp`` calls the same two methods from farm workers, a chunk at a
    time."""

    def __init__(
        self,
        plan: RoutingPlan,
        query: ConjunctiveQuery,
        domain_size: int,
        deliver: bool,
    ) -> None:
        self.plan = plan
        self.query = query
        self.domain_size = domain_size
        self.deliver = deliver

    def route(self, relation_name: str, batch: Batch) -> list[Shard]:
        return [route_shard(self.plan, relation_name, batch, self.deliver)]

    def join(self, delivered: Mapping[str, np.ndarray]) -> Answers:
        return join_shard(self.query, delivered, self.domain_size)


class RoundLedger:
    """Per-server loads — and, with answers on, deliveries — of one round."""

    def __init__(self, p: int, compute_answers: bool) -> None:
        self.per_server_tuples = np.zeros(p, dtype=np.int64)
        self.per_server_bits = np.zeros(p)
        #: Per relation its deliveries as ``(arity + 1, d)`` columns: the
        #: delivered tuple's values, the receiving server in the last row.
        self.delivered: dict[str, np.ndarray] | None = (
            {} if compute_answers else None
        )

    def add(
        self, relation_name: str, tuple_bits: float, batch: Batch,
        shards: Iterable[Shard],
    ) -> int:
        """Fold one relation's routed shards (``batch``'s, their indices
        counted from its start) in; returns tuples routed."""
        p = len(self.per_server_tuples)
        if self.delivered is None:
            merged: Counter[int] = Counter()
            for shard_counts in shards:
                merged.update(shard_counts)
            servers = np.fromiter(merged, dtype=np.int64, count=len(merged))
            weights = list(merged.values())
        else:
            indices, servers = map(np.concatenate, zip(*shards))
            weights = None
            self.delivered[relation_name] = np.concatenate(
                (np.take(batch.columns, indices, axis=1), servers[None])
            )
        # The batched engines' one range check, raising what the reference
        # does (``Cluster.send``): unchecked, -1 charges the last server.
        outside = (servers < 0) | (servers >= p)
        if outside.any():
            raise IndexError(
                f"server index {int(servers[outside][0])} outside [0, {p})"
            )
        counts = np.bincount(servers, weights, minlength=p).astype(np.int64)
        self.per_server_tuples += counts
        self.per_server_bits += counts * tuple_bits
        return int(counts.sum())

    def report(self, input_tuples: int, input_bits: float) -> LoadReport:
        return LoadReport(
            p=len(self.per_server_tuples),
            per_server_tuples=tuple(self.per_server_tuples.tolist()),
            per_server_bits=tuple(self.per_server_bits.tolist()),
            input_tuples=input_tuples,
            input_bits=input_bits,
        )

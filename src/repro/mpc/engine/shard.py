"""Shard routing and load accounting shared by ``batched`` and ``mp``.

Both engines run the same kernel through the two methods
:class:`RoutingPlan` derives from a plan's :meth:`RoutingPlan.claims`
(:meth:`RoutingPlan.destination_counts` when only loads are wanted,
:meth:`RoutingPlan.destinations_batch` when fragments are): a *shard* — a
:class:`~repro.seq.relation.Batch`: the relation's whole cached view
in-process, one slice of its columns per farm worker in ``mp`` — is routed
by :func:`route_shard`, the shards of a relation are folded into the
round's :class:`RoundLedger`, and the occupied servers are joined a shard
at a time by :func:`join_shard` (one answer set per shard, built once from
its servers' rows — the in-process engine returns it as it is).  *Where* shards run is the one thing the
engines differ in: :class:`InProcessShards` called here, or the same
object called in the workers of a :class:`repro.mpc.farm.Farm` in ``mp``.
Counts merge by integer addition and fragments by set union, and bits are
folded once per relation as ``count * tuple_bits``, so the result does not
depend on how a relation was sharded.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from itertools import chain
from typing import Iterable, Mapping, Sequence

from ...query.atoms import ConjunctiveQuery
from ...seq.join import local_join_rows
from ...seq.relation import Batch, Tuple
from ..cluster import LoadReport
from ..execution import RoutingPlan

# What routing one shard yields: per-server received counts, and (answers
# on) the tuples each server received.
Shard = tuple[Mapping[int, int], Mapping[int, list[Tuple]] | None]


def route_shard(
    plan: RoutingPlan,
    relation_name: str,
    batch: Batch,
    deliver: bool,
) -> Shard:
    """Route one shard of one relation.

    With ``deliver`` false no per-tuple destination list is built at all
    (and the batch's rows are never touched): the plan counts receives per
    server directly.
    """
    if not deliver:
        return plan.destination_counts(relation_name, batch), None
    received: defaultdict[int, list[Tuple]] = defaultdict(list)
    for tup, dests in zip(
        batch.rows, plan.destinations_batch(relation_name, batch)
    ):
        for server in dests:
            received[server].append(tup)
    # Batch destinations are duplicate-free, so a server's count is the
    # length of what it received.
    return {server: len(got) for server, got in received.items()}, received


def join_shard(
    query: ConjunctiveQuery,
    server_fragments: Iterable[Mapping[str, set[Tuple]]],
    domain_size: int,
) -> frozenset[Tuple]:
    """Join the fragments of a shard of servers and union their answers:
    one set, built once, from the rows of all of them."""
    return frozenset(chain.from_iterable(
        local_join_rows(query, fragments, domain_size)
        for fragments in server_fragments
    ))


class InProcessShards:
    """Where shards run, in-process flavour: the whole relation is a single
    shard routed — and every occupied server joined — in the calling
    process.  ``mp`` calls the same two methods from farm workers, a chunk
    at a time."""

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

    def join(
        self, occupied: Sequence[Mapping[str, set[Tuple]]]
    ) -> frozenset[Tuple]:
        return join_shard(self.query, occupied, self.domain_size)


class RoundLedger:
    """Per-server loads — and, with answers on, fragments — of one round."""

    def __init__(self, p: int, compute_answers: bool) -> None:
        self.per_server_tuples = [0] * p
        self.per_server_bits = [0.0] * p
        self.fragments: list[dict[str, set[Tuple]]] | None = (
            [{} for _ in range(p)] if compute_answers else None
        )

    def add(
        self, relation_name: str, tuple_bits: float, shards: Iterable[Shard]
    ) -> int:
        """Fold one relation's routed shards in; returns tuples routed."""
        counts: Counter[int] = Counter()
        for shard_counts, received in shards:
            counts.update(shard_counts)
            if received:
                for server, tuples in received.items():
                    self.fragments[server].setdefault(
                        relation_name, set()
                    ).update(tuples)
        for server, count in counts.items():
            self.per_server_tuples[server] += count
            self.per_server_bits[server] += count * tuple_bits
        return sum(counts.values())

    def report(self, input_tuples: int, input_bits: float) -> LoadReport:
        return LoadReport(
            p=len(self.per_server_tuples),
            per_server_tuples=tuple(self.per_server_tuples),
            per_server_bits=tuple(self.per_server_bits),
            input_tuples=input_tuples,
            input_bits=input_bits,
        )

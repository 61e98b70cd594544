"""The batched engine: column-at-a-time routing, streaming load accounting.

The round is driven entirely through :meth:`RoutingPlan.claims`, the batch
primitive every in-tree :class:`~repro.mpc.execution.RoutingPlan`
implements natively (the scalar ``destinations`` is only
:class:`ReferenceEngine`'s oracle and the fallback for user-defined plans).
What it is handed is :attr:`Relation.batch <repro.seq.relation.Relation.batch>`
— the relation's tuples as int64 columns, built once per relation and
shared by every algorithm routed on it — by way of the two methods
``RoutingPlan`` derives from ``claims``:

* with ``compute_answers=False`` each relation costs one
  :meth:`RoutingPlan.destination_counts` call — no fragment and no
  per-tuple destination list is materialized and the batch's rows are
  never read, so load experiments scale to inputs far beyond what the
  reference engine holds in memory;
* with ``compute_answers=True`` (or ``keep_deliveries=True``) each
  relation costs one :meth:`RoutingPlan.deliveries` call — ``(tuple
  index, server)`` arrays, counted with ``np.bincount`` and kept by the
  :class:`RoundLedger` as the delivered tuples' columns with the
  receiving server one more row — and, with answers on, the ``p`` local
  joins are one array join in which the server is one more shared
  variable (:func:`repro.seq.join.join_columns`, ``tagged``); no Python
  tuple is built.  Kept deliveries go on the result as they are.

Per-server bit loads are folded as ``count * tuple_bits`` per relation in
atom order exactly like the reference cluster, so the engines agree bit for
bit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping

import numpy as np

from ...obs import maybe_timed
from ...seq.join import Answers, join_columns
from ...seq.relation import Batch, Database
from ..cluster import LoadReport
from ..execution import ExecutionResult, OneRoundAlgorithm
from ..hashing import HashFamily
from .base import ExecutionEngine

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...obs import Observation


class RoundLedger:
    """Per-server loads — and, with answers on, deliveries — of a round."""

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
        routed: Mapping[int, int] | tuple[np.ndarray, np.ndarray],
    ) -> int:
        """Fold one relation in: what routing ``batch`` gave — its
        per-server counts (:meth:`RoutingPlan.destination_counts`) when
        only loads are kept, its ``(indices, servers)`` arrays
        (:meth:`RoutingPlan.deliveries`) when deliveries are; returns
        tuples routed.  A server outside ``[0, p)`` charges nothing."""
        p = len(self.per_server_tuples)
        if self.delivered is None:
            servers = np.fromiter(routed, dtype=np.int64, count=len(routed))
            weights = list(routed.values())
        else:
            indices, servers = routed
            weights = None
        # The batched engine's one range check, raising what the reference
        # does (``Cluster.send``): unchecked, -1 charges the last server.
        outside = (servers < 0) | (servers >= p)
        if outside.any():
            raise IndexError(
                f"server index {int(servers[outside][0])} outside [0, {p})"
            )
        if self.delivered is not None:
            self.delivered[relation_name] = np.concatenate(
                (np.take(batch.columns, indices, axis=1), servers[None])
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


class BatchedEngine(ExecutionEngine):
    """Batch routing; streams loads without fragments when answers are off."""

    name = "batched"

    def _run(
        self,
        algorithm: OneRoundAlgorithm,
        db: Database,
        p: int,
        hashes: HashFamily,
        compute_answers: bool,
        keep_deliveries: bool,
        obs: "Observation | None",
    ) -> ExecutionResult:
        if p < 1:
            raise ValueError("cluster needs at least one server")
        query = algorithm.query
        db.validate_against(query)
        with maybe_timed(obs, "engine.plan_build", algorithm=algorithm.name):
            plan = algorithm.routing_plan(db, p, hashes)
        delivering = compute_answers or keep_deliveries
        route = plan.deliveries if delivering else plan.destination_counts

        ledger = RoundLedger(p, delivering)
        input_tuples = 0
        input_bits = 0.0
        for atom in query.atoms:
            relation = db.relation(atom.name)
            tuple_bits = relation.tuple_bits
            input_tuples += relation.cardinality
            input_bits += relation.bits
            batch = relation.batch
            with maybe_timed(obs, "engine.route", relation=atom.name):
                routed = ledger.add(atom.name, tuple_bits, batch,
                                    route(atom.name, batch))
            if obs is not None:
                obs.count(f"engine.routed_tuples.{atom.name}", routed)
                obs.count(f"engine.shipped_bits.{atom.name}",
                          routed * tuple_bits)

        answers: Answers | None = None
        if compute_answers:
            with maybe_timed(obs, "engine.local_join"):
                answers = Answers.of(
                    join_columns(query, ledger.delivered, tagged=True),
                    db.domain_size,
                )

        return ExecutionResult(
            algorithm=algorithm.name,
            query=query,
            p=p,
            seed=hashes.seed,
            report=ledger.report(input_tuples, input_bits),
            answers=answers,
            deliveries=ledger.delivered if keep_deliveries else None,
            details=dict(plan.describe()),
        )

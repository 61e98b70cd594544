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
* with ``compute_answers=True`` each relation costs one
  :meth:`RoutingPlan.deliveries` call — ``(tuple index, server)`` arrays,
  counted with ``np.bincount`` — and the ``p`` local joins are one array
  join in which the server is one more shared variable
  (:func:`repro.seq.join.join_columns`); no Python tuple is built.

The kernel (:mod:`repro.mpc.engine.shard`) is shared with
:class:`repro.mpc.engine.MultiprocessEngine`, which overrides only *where*
shards are routed and joined (:meth:`BatchedEngine._shards`): this engine
runs one shard per relation in the calling process.  Per-server bit loads are folded as
``count * tuple_bits`` per relation in atom order exactly like the
reference cluster, so all engines agree bit for bit.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator

from ...obs import maybe_timed
from ...query.atoms import ConjunctiveQuery
from ...seq.join import Answers
from ...seq.relation import Database
from ..execution import ExecutionResult, OneRoundAlgorithm, RoutingPlan
from ..hashing import HashFamily
from .base import ExecutionEngine
from .shard import InProcessShards, RoundLedger

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...obs import Observation


class BatchedEngine(ExecutionEngine):
    """Batch routing; streams loads without fragments when answers are off."""

    name = "batched"

    def _run(
        self,
        algorithm: OneRoundAlgorithm,
        db: Database,
        p: int,
        seed: int,
        compute_answers: bool,
        obs: "Observation | None",
    ) -> ExecutionResult:
        if p < 1:
            raise ValueError("cluster needs at least one server")
        query = algorithm.query
        db.validate_against(query)
        hashes = HashFamily(seed)
        with maybe_timed(obs, "engine.plan_build", algorithm=algorithm.name):
            plan = algorithm.routing_plan(db, p, hashes)

        ledger = RoundLedger(p, compute_answers)
        input_tuples = 0
        input_bits = 0.0
        answers: Answers | None = None
        with self._shards(
            plan, query, db.domain_size, compute_answers, obs
        ) as shards:
            for atom in query.atoms:
                relation = db.relation(atom.name)
                tuple_bits = relation.tuple_bits
                input_tuples += relation.cardinality
                input_bits += relation.bits
                with maybe_timed(obs, "engine.route", relation=atom.name):
                    routed = ledger.add(
                        atom.name,
                        tuple_bits,
                        relation.batch,
                        shards.route(atom.name, relation.batch),
                    )
                if obs is not None:
                    obs.count(f"engine.routed_tuples.{atom.name}", routed)
                    obs.count(f"engine.shipped_bits.{atom.name}",
                              routed * tuple_bits)

            if ledger.delivered is not None:
                with maybe_timed(obs, "engine.local_join"):
                    answers = shards.join(ledger.delivered)

        return ExecutionResult(
            algorithm=algorithm.name,
            query=query,
            p=p,
            seed=seed,
            report=ledger.report(input_tuples, input_bits),
            answers=answers,
            details=dict(plan.describe()),
        )

    @contextmanager
    def _shards(
        self,
        plan: RoutingPlan,
        query: ConjunctiveQuery,
        domain_size: int,
        compute_answers: bool,
        obs: "Observation | None",
    ) -> Iterator[InProcessShards]:
        """Where the round's shards are routed and joined: here, in the
        calling process; the mp engine overrides this with a farm."""
        yield InProcessShards(plan, query, domain_size, compute_answers)

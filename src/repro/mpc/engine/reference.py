"""The reference engine: tuple-at-a-time routing through a full cluster.

This is the seed simulator's ``run_one_round`` body, unchanged in behavior:
every tuple goes through the scalar :meth:`RoutingPlan.destinations` path,
every fragment is materialized in :class:`repro.mpc.cluster.Server` objects.
It is the slowest engine and the parity oracle the others are tested
against — keep it simple enough to trust.

Instrumentation (``obs`` not None) is per phase and per relation — never
per tuple — so observing the oracle does not distort what it measures.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ...obs import maybe_timed
from ...seq.join import Answers, local_join
from ...seq.relation import Batch, Database, Tuple
from ..cluster import Cluster
from ..execution import ExecutionResult, OneRoundAlgorithm
from ..hashing import HashFamily
from .base import ExecutionEngine

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...obs import Observation


class ReferenceEngine(ExecutionEngine):
    """Tuple-at-a-time simulation with fully materialized fragments."""

    name = "reference"

    def _run(
        self,
        algorithm: OneRoundAlgorithm,
        db: Database,
        p: int,
        seed: int,
        compute_answers: bool,
        obs: "Observation | None",
    ) -> ExecutionResult:
        query = algorithm.query
        db.validate_against(query)
        cluster = Cluster(p)
        hashes = HashFamily(seed)
        with maybe_timed(obs, "engine.plan_build", algorithm=algorithm.name):
            plan = algorithm.routing_plan(db, p, hashes)

        input_tuples = 0
        input_bits = 0.0
        for atom in query.atoms:
            relation = db.relation(atom.name)
            tuple_bits = relation.tuple_bits
            input_tuples += relation.cardinality
            input_bits += relation.bits
            routed_before = sum(s.received_tuples for s in cluster.servers) \
                if obs is not None else 0
            with maybe_timed(obs, "engine.route", relation=atom.name):
                for tup in relation.tuples:
                    cluster.send_many(
                        plan.destinations(atom.name, tup), atom.name, tup,
                        tuple_bits,
                    )
            if obs is not None:
                routed = sum(
                    s.received_tuples for s in cluster.servers
                ) - routed_before
                obs.count(f"engine.routed_tuples.{atom.name}", routed)
                obs.count(f"engine.shipped_bits.{atom.name}",
                          routed * tuple_bits)

        answers: Answers | None = None
        if compute_answers:
            collected: set[Tuple] = set()
            with maybe_timed(obs, "engine.local_join"):
                for server in cluster.servers:
                    if server.fragments:
                        collected |= local_join(
                            query, server.fragments, db.domain_size
                        )
            # The tuple kernel's result, wrapped once: every engine
            # returns the same kind of answers.
            answers = Answers.of(
                Batch(len(query.head), rows=list(collected)).columns,
                db.domain_size,
            )

        return ExecutionResult(
            algorithm=algorithm.name,
            query=query,
            p=p,
            seed=seed,
            report=cluster.load_report(input_tuples, input_bits),
            answers=answers,
            details=dict(plan.describe()),
        )

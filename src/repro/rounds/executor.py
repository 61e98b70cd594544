"""Execution of any MPC algorithm, round by round, through the engines.

:func:`run_rounds` is the one runner above the engines.  It walks an
:class:`~repro.mpc.execution.MPCAlgorithm`'s round plan — a single final
round for a one-round algorithm, several for the algorithms of this
package: each round's query runs through the selected
:class:`~repro.mpc.engine.ExecutionEngine` exactly like a one-round
experiment, and its answer rows are frozen into an intermediate
:class:`~repro.seq.relation.Relation` (same ``Relation`` path as base
inputs) that the next round's database includes.  Because every engine
returns identical answers and bit-identical loads for a one-round run
(the parity contract of :mod:`repro.mpc.engine`), multi-round runs are
bit-identical across engines *by construction* — the intermediates, and
hence every subsequent round's input, cannot differ.

Loads are reported per round (:attr:`MultiRoundResult.round_load_bits`)
and summarized as the max across rounds, matching the planner's
``max per-round load x rounds`` cost scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from ..mpc.engine import ExecutionEngine, resolve_engine
from ..mpc.execution import ExecutionResult, MPCAlgorithm, RoundSpec
from ..mpc.hashing import ColumnHashes
from ..obs import Observation, maybe_timed
from ..query.atoms import ConjunctiveQuery
from ..seq.join import Answers, evaluate
from ..seq.relation import Database, Relation
from .base import RoundsError

#: Per-round seed decorrelation stride (a large prime, so round ``r`` uses
#: hash seed ``seed + r * stride`` deterministically on every engine).
ROUND_SEED_STRIDE = 1_000_003


@dataclass(frozen=True)
class MultiRoundResult:
    """Everything measured across one execution (one round or many)."""

    algorithm: str
    query: ConjunctiveQuery
    p: int
    seed: int
    rounds: tuple[ExecutionResult, ...]
    answers: Answers | None
    expected_answers: Answers | None
    #: ``answers == expected_answers``; None unless both are there.
    is_complete: bool | None
    input_bits: float
    input_tuples: int
    details: Mapping[str, object] = field(default_factory=dict)

    @property
    def round_count(self) -> int:
        return len(self.rounds)

    @property
    def round_load_bits(self) -> tuple[float, ...]:
        """Max per-server bits of every round, in round order."""
        return tuple(r.max_load_bits for r in self.rounds)

    @property
    def round_load_tuples(self) -> tuple[int, ...]:
        return tuple(r.max_load_tuples for r in self.rounds)

    @property
    def max_load_bits(self) -> float:
        """The busiest server of the busiest round (the cost scale's L)."""
        return max(self.round_load_bits, default=0.0)

    @property
    def max_load_tuples(self) -> int:
        return max(self.round_load_tuples, default=0)

    @property
    def total_bits(self) -> float:
        """Bits communicated across all rounds and servers."""
        return sum(r.report.total_bits for r in self.rounds)

    @property
    def replication_rate(self) -> float:
        """Total communicated bits over the *base* input bits."""
        if self.input_bits == 0:
            return 0.0
        return self.total_bits / self.input_bits

    @property
    def balance(self) -> float:
        """Balance of the round carrying the maximum load."""
        if not self.rounds:
            return 1.0
        busiest = max(self.rounds, key=lambda r: r.max_load_bits)
        return busiest.report.balance

    @property
    def answer_count(self) -> int | None:
        return None if self.answers is None else len(self.answers)

    def describe(self) -> str:
        loads = ", ".join(f"{bits:,.0f}" for bits in self.round_load_bits)
        return (
            f"{self.algorithm}: {self.round_count} rounds, "
            f"per-round load [{loads}] bits, max {self.max_load_bits:,.0f}"
        )


def _round_database(
    spec: RoundSpec,
    db: Database,
    intermediates: Mapping[str, Relation],
) -> Database:
    relations = []
    for atom in spec.query.atoms:
        if atom.name in intermediates:
            relations.append(intermediates[atom.name])
        else:
            relations.append(db.relation(atom.name))
    return Database.from_relations(relations)


def oracle_answers(
    query: ConjunctiveQuery, db: Database, obs: Observation | None = None
) -> Answers:
    """The sequential oracle's answers, under the ``rounds.verify`` span.

    What ``run_rounds(verify=True)`` compares with.  A caller that runs
    many algorithms on one database evaluates once, here, and hands the
    set to each run as ``expected=``.
    """
    with maybe_timed(obs, "rounds.verify"):
        return evaluate(query, db)


def run_rounds(
    algorithm: MPCAlgorithm,
    db: Database,
    p: int,
    seed: int = 0,
    compute_answers: bool = True,
    verify: bool = False,
    engine: str | ExecutionEngine = "batched",
    obs: Observation | None = None,
    expected: Answers | None = None,
    column_hashes: ColumnHashes | None = None,
) -> MultiRoundResult:
    """Simulate every communication round of ``algorithm`` on ``db``.

    Same knobs and engine selection as
    :func:`repro.mpc.execution.run_one_round`; each round is one run of
    the selected engine (round 0 under ``seed`` itself, so a one-round
    algorithm measures exactly what a direct ``run_one_round`` does).
    Non-final rounds always compute answers — their output *is* the next
    round's input; the final round honors ``compute_answers``.
    ``verify=True`` checks the final answers against the sequential
    evaluation of the *original* query on the *base* database, the
    strongest completeness check available; it is evaluated here
    (:func:`oracle_answers`) unless the caller hands it in as ``expected``.
    The comparison runs under the ``rounds.compare`` span.
    ``column_hashes`` is a caller's cache of raw hashes of ``db``'s
    columns, handed to every round's engine: a caller that runs many
    algorithms on one database hashes each column once per seed and salt
    (the sweep executor keeps one per database).  It moves no bucket; an
    intermediate's columns are never in it.
    """
    db.validate_against(algorithm.query)
    resolved = resolve_engine(engine)
    plan = algorithm.round_plan()
    if not plan or plan[-1].output is not None:
        raise RoundsError(
            f"{algorithm.name}: round plan must end with a final round"
        )

    input_bits = sum(db.relation(a.name).bits for a in algorithm.query.atoms)
    input_tuples = sum(
        db.relation(a.name).cardinality for a in algorithm.query.atoms
    )

    intermediates: dict[str, Relation] = {}
    results: list[ExecutionResult] = []
    round_keys: list[str] = []
    with maybe_timed(
        obs, "rounds.run", algorithm=algorithm.name, rounds=len(plan)
    ):
        for spec in plan:
            round_db = _round_database(spec, db, intermediates)
            round_algorithm = algorithm.round_algorithm(spec, round_db, p)
            round_keys.append(round_algorithm.name)
            with maybe_timed(
                obs,
                "rounds.round",
                index=spec.index,
                algorithm=round_algorithm.name,
                query=str(spec.query),
            ):
                result = resolved.run(
                    round_algorithm,
                    round_db,
                    p,
                    seed=seed + spec.index * ROUND_SEED_STRIDE,
                    compute_answers=compute_answers or not spec.is_final,
                    verify=False,
                    obs=obs,
                    column_hashes=column_hashes,
                )
            results.append(result)
            if obs is not None:
                obs.count("rounds.executed")
                obs.set_gauge(
                    f"rounds.load_bits.round{spec.index + 1}",
                    result.max_load_bits,
                )
            if not spec.is_final:
                assert result.answers is not None
                intermediates[spec.output] = Relation.from_columns(
                    spec.output, result.answers.columns, db.domain_size
                )

        answers = results[-1].answers
        if verify and expected is None:
            expected = oracle_answers(algorithm.query, db, obs)
        is_complete = None
        if answers is not None and expected is not None:
            with maybe_timed(obs, "rounds.compare"):
                is_complete = answers == expected
        if obs is not None:
            obs.set_gauge("rounds.max_load_bits", max(
                r.max_load_bits for r in results
            ))

    return MultiRoundResult(
        algorithm=algorithm.name,
        query=algorithm.query,
        p=p,
        seed=seed,
        rounds=tuple(results),
        answers=answers,
        expected_answers=expected,
        is_complete=is_complete,
        input_bits=input_bits,
        input_tuples=input_tuples,
        details={
            "round_algorithms": tuple(round_keys),
            "intermediate_sizes": {
                name: rel.cardinality for name, rel in intermediates.items()
            },
        },
    )

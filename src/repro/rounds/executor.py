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

Verification compares the final round with the sequential oracle of the
*original* query on the *base* database, held by an :class:`Oracle`.  The
comparison is of answer fingerprints (:mod:`repro.mpc.fingerprint`): the
oracle's off the database, the servers' off the final round's deliveries
— for an acyclic query in ``O(m)`` and ``O(deliveries)``, no answer
listed; equal fingerprints mean every answer was found exactly once.
When they differ — an answer missed, or found more than once
(bin-hypercube may) — the run falls back to comparing answer sets, so
``complete`` still means "every answer found at least once".
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping

from ..mpc.engine import ExecutionEngine, resolve_engine
from ..mpc.execution import ExecutionResult, MPCAlgorithm, RoundSpec
from ..mpc.hashing import ColumnHashes
from ..obs import Observation, maybe_timed
from ..query.atoms import ConjunctiveQuery
from ..seq.join import Answers, evaluate, join_columns
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
    #: The final answers, when the run computed them.
    answers: Answers | None
    #: How many distinct answers the run found; None when it neither
    #: computed nor verified them.
    answer_count: int | None
    #: Whether the run found every answer; None unless it verified.
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


class Oracle:
    """The sequential oracle of ``query`` on ``db``, for every run verified
    against it: the answers' fingerprint, evaluated once, under the
    ``rounds.verify`` span.

    A caller that runs many algorithms on one database makes one and hands
    it to each run as ``expected=``.  The answers themselves are evaluated
    only when a run's fingerprint differs (:meth:`answers`).
    The fingerprint kernel is imported by the first oracle: a command that
    verifies nothing does not compile it."""

    def __init__(
        self, query: ConjunctiveQuery, db: Database,
        obs: Observation | None = None,
    ) -> None:
        from ..mpc.fingerprint import fingerprint

        self.query, self._db = query, db
        self._answers: Answers | None = None
        self._failure: BaseException | None = None
        with maybe_timed(obs, "rounds.verify"):
            self.fingerprint = fingerprint(query, {
                atom.name: db.relation(atom.name).batch.columns
                for atom in query.atoms
            })

    def answers(self, obs: Observation | None = None) -> Answers:
        """``q(I)``, evaluated on the first call, under the
        ``rounds.verify.answers`` span; an evaluation that raised raises
        again rather than running twice."""
        if self._failure is not None:
            raise self._failure.with_traceback(None)
        if self._answers is None:
            try:
                with maybe_timed(obs, "rounds.verify.answers"):
                    self._answers = evaluate(self.query, self._db)
            except Exception as exc:
                self._failure = exc
                raise
        return self._answers

    def compare(
        self, final: ExecutionResult, obs: Observation | None = None
    ) -> tuple[bool, int]:
        """``(complete, distinct answers found)`` of a run's final round,
        which kept its deliveries: by fingerprint, by answer sets when the
        fingerprint differs.  A fallback counts ``verify.fallbacks`` and,
        as ``verify.duplicate_answers``, the answers emitted beyond the
        distinct ones; the first on a database evaluates the oracle's
        answers (:meth:`answers`), inside this comparison."""
        from ..mpc.fingerprint import fingerprint

        emitted = fingerprint(final.query, final.deliveries, tagged=True)
        if emitted == self.fingerprint:
            return True, emitted[0]
        answers = final.answers
        if answers is None:
            answers = Answers.of(
                join_columns(final.query, final.deliveries, tagged=True),
                self._db.domain_size,
            )
        if obs is not None:
            obs.count("verify.fallbacks")
            obs.count("verify.duplicate_answers", emitted[0] - len(answers))
        return answers == self.answers(obs), len(answers)


def run_rounds(
    algorithm: MPCAlgorithm,
    db: Database,
    p: int,
    seed: int = 0,
    compute_answers: bool = True,
    verify: bool = False,
    engine: str | ExecutionEngine = "batched",
    obs: Observation | None = None,
    expected: Oracle | None = None,
    column_hashes: ColumnHashes | None = None,
) -> MultiRoundResult:
    """Simulate every communication round of ``algorithm`` on ``db``.

    Same knobs and engine selection as
    :func:`repro.mpc.execution.run_one_round`; each round is one run of
    the selected engine (round 0 under ``seed`` itself, so a one-round
    algorithm measures exactly what a direct ``run_one_round`` does).
    Non-final rounds always compute answers — their output *is* the next
    round's input; the final round honors ``compute_answers``.
    ``verify=True`` checks the final round against the sequential
    evaluation of the *original* query on the *base* database, the
    strongest completeness check available; it is evaluated here
    (:class:`Oracle`, before the first round) unless the caller hands it in
    as ``expected``.  The final round then keeps its deliveries and joins
    them only if ``compute_answers`` asks; :meth:`Oracle.compare` runs
    under the ``rounds.compare`` span.
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
        if verify and expected is None:
            expected = Oracle(algorithm.query, db, obs)
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
                    obs=obs,
                    column_hashes=column_hashes,
                    keep_deliveries=spec.is_final and verify,
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

        final = results[-1]
        answers = final.answers
        answer_count = None if answers is None else len(answers)
        is_complete = None
        if verify:
            with maybe_timed(obs, "rounds.compare"):
                is_complete, answer_count = expected.compare(final, obs)
            results[-1] = replace(final, deliveries=None)
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
        answer_count=answer_count,
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

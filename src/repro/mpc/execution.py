"""MPC algorithms as round sequences, and one-round execution.

:class:`MPCAlgorithm` is the round protocol every algorithm speaks;
:class:`OneRoundAlgorithm` is its one-round case, which this module also
executes (:func:`run_one_round` is the per-round primitive that
:func:`repro.rounds.run_rounds` drives for any number of rounds).

A one-round algorithm supplies a :class:`RoutingPlan` — a pure function
from input tuple to destination servers, computable from the database
*statistics* alone (never from other tuples; that is the essence of the
one-round restriction and of treating tuples independently, Section 2.1).
The executor:

1. routes every input tuple to its destinations, charging each server's load;
2. lets every server join its received fragments locally (servers have
   unlimited compute);
3. unions the local answers and reports loads.

Every locally produced tuple is a genuine answer (fragments are subsets of
the true relations), so correctness of an algorithm means *completeness*:
the union must equal the sequential join.  ``run_one_round(..., verify=True)``
checks exactly that.

The simulation itself is pluggable: :func:`run_one_round` delegates to an
:class:`repro.mpc.engine.ExecutionEngine` selected by the ``engine``
argument (``"reference"``, ``"batched"`` or ``"mp"``).  All engines are
answer- and load-identical; they differ only in speed and memory
(``tests/test_engine_parity.py`` enforces this).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from ..query.atoms import ConjunctiveQuery
from ..seq.join import Answers
from ..seq.relation import (
    Batch, Database, Tuple, distinct_values, expand_runs, starts_run,
)
from ..stats.provider import heavy_of, simple_of
from .cluster import LoadReport
from .hashing import HashFamily

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs import Observation
    from .engine import ExecutionEngine


# One claim on a batch: the positions (into the batch) of the tuples it
# covers, one integer routing key per covered tuple — both int64 arrays —
# and the duplicate-free destination tuple of every distinct key.
Claim = tuple[np.ndarray, np.ndarray, Mapping[int, tuple[int, ...]]]


class RoutingPlan(ABC):
    """Maps each input tuple to the servers that must receive it.

    A plan states its deliveries twice:

    * :meth:`destinations` — one tuple at a time.  The definition of the
      plan: :class:`repro.mpc.engine.ReferenceEngine` routes through it and
      is the parity oracle for everything else.
    * :meth:`claims` — a whole relation (or shard) at once, as routing
      keys: a tuple's destinations are a function of a small key (its grid
      base, its hash-join server, its heavy assignment), so a batch is an
      integer key per tuple, computed from the batch's columns, plus the
      destinations of each *distinct* key.

    What the batched engines consume — :meth:`deliveries` when the local
    joins are wanted, :meth:`destination_counts` for load-only rounds — is
    derived from the claims here, once, for every plan (both take a plain
    sequence of tuples too and make the batch).  Every in-tree
    plan implements :meth:`claims` natively, column-at-a-time
    (``tests/test_routing_contract.py`` checks it against the scalar
    definition and that no registered algorithm inherits the default).  The
    default loops the scalar path; it exists so that a user-defined plan
    only has to write :meth:`destinations` to run on every engine.
    """

    @abstractmethod
    def destinations(self, relation_name: str, tup: Tuple) -> Iterable[int]:
        """Server indices in ``[0, p)`` that receive ``tup``."""

    def claims(self, relation_name: str, batch: Batch) -> list[Claim]:
        """The batch's deliveries as :data:`Claim` s: tuple ``i`` goes to the
        union of ``table[key]`` over the claims that cover it.

        Extension fallback: one claim over the whole batch whose keys
        number the distinct deduplicated scalar :meth:`destinations`.
        """
        numbers: dict[tuple[int, ...], int] = {}
        keys = [
            numbers.setdefault(
                tuple(dict.fromkeys(self.destinations(relation_name, tup))),
                len(numbers),
            )
            for tup in batch.rows
        ]
        table = {number: dests for dests, number in numbers.items()}
        return [(np.arange(len(keys)), np.array(keys, dtype=np.int64), table)]

    def deliveries(
        self, relation_name: str, tuples: Batch | Sequence[Tuple]
    ) -> tuple[np.ndarray, np.ndarray]:
        """The batch's deliveries as two int64 arrays ``(indices,
        servers)``: tuple ``indices[k]`` goes to server ``servers[k]``, no
        pair twice.  The one place claims are expanded: pairs come claim by
        claim, a tuple's servers in its table row's order, and where
        several claims cover a tuple a repeated pair keeps its first place.
        """
        batch = Batch.of(tuples)
        claims = self.claims(relation_name, batch)
        parts = [np.empty((2, 0), dtype=np.int64)]
        for covered, keys, table in claims:
            distinct, _, slot, _ = distinct_values(keys)
            rows = [table[key] for key in distinct.tolist()]
            sizes = np.array([len(row) for row in rows], dtype=np.int64)
            flat = np.array(list(chain.from_iterable(rows)), dtype=np.int64)
            count = sizes[slot]
            first = (np.cumsum(sizes) - sizes)[slot]
            parts.append(np.stack(
                (np.repeat(covered, count), flat[expand_runs(first, count)])
            ))
        pairs = np.concatenate(parts, axis=1)
        if len(claims) > 1:
            order = np.lexsort(pairs[::-1])  # stable: first places first
            repeated = np.empty(len(order), dtype=bool)
            repeated[order] = ~starts_run(pairs[:, order])
            pairs = pairs[:, ~repeated]
        return pairs[0], pairs[1]

    def destination_counts(
        self, relation_name: str, tuples: Batch | Sequence[Tuple]
    ) -> Mapping[int, int]:
        """Per-server received-tuple counts for a batch, answers not needed.

        Load-only simulation (``compute_answers=False``) never looks at
        *which* tuples a server received, only *how many*, so no per-tuple
        destination list is built: a tuple covered by a single claim is
        counted through its routing key — distinct keys are counted in one
        array pass and each key's destinations folded once.  Only tuples
        that several claims cover are unioned per tuple.
        """
        batch = Batch.of(tuples)
        claims = self.claims(relation_name, batch)
        contested: dict[int, set[int]] = {}
        if len(claims) > 1:
            shared = np.bincount(
                np.concatenate([indices for indices, _, _ in claims])
            ) > 1
            contested = {i: set() for i in np.flatnonzero(shared).tolist()}
        counts: Counter[int] = Counter()
        for indices, keys, table in claims:
            if contested:
                mine = shared[indices]
                for i, key in zip(indices[mine].tolist(), keys[mine].tolist()):
                    contested[i].update(table[key])
                keys = keys[~mine]
            distinct, _, _, occurrences = distinct_values(keys)
            for key, n in zip(distinct.tolist(), occurrences.tolist()):
                for server in table[key]:
                    counts[server] += n
        for dests in contested.values():
            counts.update(dests)
        return counts

    def describe(self) -> Mapping[str, object]:
        """Plan metadata surfaced in the execution result (e.g. shares)."""
        return {}


@dataclass(frozen=True)
class RoundSpec:
    """One communication round: a one-round query plus its output name.

    Attributes
    ----------
    index:
        0-based round number.
    query:
        The round's full conjunctive query, over the relation names
        available in this round (base relations and/or intermediates of
        earlier rounds).  Its head order is the column order of the
        produced intermediate.
    output:
        Name of the intermediate relation materialized from this round's
        answers; ``None`` marks the final round (its answers are the
        query result).
    """

    index: int
    query: ConjunctiveQuery
    output: str | None

    @property
    def is_final(self) -> bool:
        return self.output is None


class MPCAlgorithm(ABC):
    """An MPC algorithm for a fixed query: a sequence of communication rounds.

    This is the round protocol :func:`repro.rounds.run_rounds` executes
    and the planner (:mod:`repro.api`) costs: :meth:`round_plan` declares
    the round queries and intermediate names, :meth:`round_algorithm`
    picks the one-round algorithm that routes each round, and
    :meth:`predicted_round_loads` supplies the per-round cost curve.  A
    :class:`OneRoundAlgorithm` is the one-round case; the algorithms of
    :mod:`repro.rounds` use several rounds.
    """

    def __init__(self, query: ConjunctiveQuery, name: str) -> None:
        self.query = query
        self.name = name

    @classmethod
    def applicability(cls, query: ConjunctiveQuery) -> str | None:
        """None if the algorithm handles ``query``, else a reason string.

        The default declares the algorithm applicable to every full
        conjunctive query; restricted algorithms override this.
        """
        return None

    @classmethod
    @abstractmethod
    def round_count(cls, query: ConjunctiveQuery) -> int:
        """Communication rounds used on ``query``; the registry ranks every
        algorithm on the same ``max per-round load x rounds`` scale."""

    @abstractmethod
    def round_plan(self) -> tuple[RoundSpec, ...]:
        """The round sequence (``round_count`` entries, last one final)."""

    @abstractmethod
    def round_algorithm(
        self, spec: RoundSpec, db: Database, p: int
    ) -> "OneRoundAlgorithm":
        """The one-round algorithm executing round ``spec`` on ``db``.

        The choice may depend on ``(db, p)`` but never on the engine,
        which is what keeps runs bit-identical across engines.
        """

    @abstractmethod
    def predicted_round_loads(
        self, stats: object, p: int
    ) -> tuple[float, ...]:
        """Predicted max per-server load (bits) of every round."""

    def predicted_load_bits(self, stats: object, p: int) -> float:
        """Max predicted per-round load, from statistics alone.

        The convention matches :attr:`ExecutionResult.max_load_bits`: the
        busiest server's *total* received bits, summed over relations —
        here in the busiest round.
        """
        return max(self.predicted_round_loads(stats, p))

    def lower_bound_bits(self, stats: object, p: int) -> float:
        """The repartition bound ``max_j M_j / p``, valid for any number of
        rounds: each base relation is reshuffled in some round, so some
        server receives a ``1/p`` fraction of its bits.  (The planner
        attaches the sharper Theorem 3.6 bound to one-round plans.)"""
        simple = self._simple_stats(stats)
        return max(simple.bits(atom.name) for atom in self.query.atoms) / p

    # The arbiters every cost hook (and the registry) shares.
    _simple_stats = staticmethod(simple_of)
    _heavy_stats = staticmethod(heavy_of)


class OneRoundAlgorithm(MPCAlgorithm):
    """A one-round MPC algorithm: one final round, routed by itself.

    Subclasses supply :meth:`routing_plan` and the
    :meth:`predicted_load_bits` cost hook; the round protocol falls out
    of those two.
    """

    @classmethod
    def round_count(cls, query: ConjunctiveQuery) -> int:
        return 1

    def round_plan(self) -> tuple[RoundSpec, ...]:
        return (RoundSpec(index=0, query=self.query, output=None),)

    def round_algorithm(
        self, spec: RoundSpec, db: Database, p: int
    ) -> "OneRoundAlgorithm":
        return self

    def predicted_round_loads(
        self, stats: object, p: int
    ) -> tuple[float, ...]:
        return (self.predicted_load_bits(stats, p),)

    @abstractmethod
    def routing_plan(
        self, db: Database, p: int, hashes: HashFamily
    ) -> RoutingPlan:
        """Build the routing plan for ``p`` servers.

        Implementations may consult database *statistics* (cardinalities,
        heavy hitters) but must route each tuple independently of the others.
        """

    def predicted_load_bits(self, stats: object, p: int) -> float:
        """Predicted max per-server load (bits) on a workload with ``stats``.

        ``stats`` is a :class:`~repro.stats.cardinality.SimpleStatistics`
        or a :class:`~repro.stats.heavy_hitters.HeavyHitterStatistics`
        (the latter enables skew-aware predictions).  The prediction is
        what the bounds machinery *expects* the measured
        :attr:`ExecutionResult.max_load_bits` to track, sans the paper's
        polylog factors — the planner ranks algorithms by this value.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement a load prediction"
        )


@dataclass(frozen=True)
class ExecutionResult:
    """Everything measured in one simulated round."""

    algorithm: str
    query: ConjunctiveQuery
    p: int
    seed: int
    report: LoadReport
    answers: Answers | None
    #: The sequential oracle's answers, when the run verified.
    expected_answers: Answers | None = None
    details: Mapping[str, object] = field(default_factory=dict)

    @property
    def answer_count(self) -> int | None:
        return None if self.answers is None else len(self.answers)

    @property
    def is_complete(self) -> bool | None:
        """True iff the algorithm found every answer (needs ``verify=True``)."""
        if self.answers is None or self.expected_answers is None:
            return None
        return self.answers == self.expected_answers

    @property
    def max_load_bits(self) -> float:
        return self.report.max_load_bits

    @property
    def max_load_tuples(self) -> int:
        return self.report.max_load_tuples


def run_one_round(
    algorithm: OneRoundAlgorithm,
    db: Database,
    p: int,
    seed: int = 0,
    compute_answers: bool = True,
    verify: bool = False,
    engine: "str | ExecutionEngine" = "batched",
    obs: "Observation | None" = None,
) -> ExecutionResult:
    """Simulate one communication round of ``algorithm`` on ``db``.

    Parameters
    ----------
    compute_answers:
        When False, skip the local joins and only measure communication —
        useful for load-focused experiments whose output would be huge.
    verify:
        When True, also run the sequential join and record it for
        :attr:`ExecutionResult.is_complete`.
    engine:
        Which execution engine simulates the round: ``"batched"`` (the
        library-wide default — column-at-a-time routing, streams load
        accounting), ``"reference"`` (the tuple-at-a-time parity oracle),
        ``"mp"`` (the batched kernel over multiprocessing shards), or any
        :class:`repro.mpc.engine.ExecutionEngine` instance.  All engines
        return identical answers and loads, so the default is purely a
        speed choice; ``"reference"`` remains the oracle the parity suite
        checks the others against.
    obs:
        An :class:`repro.obs.Observation` collecting nested timed spans
        (plan-build, routing, local join, verify) and metrics (tuples
        routed, bits shipped per relation, per-server load histogram,
        skew ratio) for the round.  ``None`` (the default) disables
        instrumentation entirely.
    """
    from .engine import resolve_engine  # local import: engines import us

    return resolve_engine(engine).run(
        algorithm,
        db,
        p,
        seed=seed,
        compute_answers=compute_answers,
        verify=verify,
        obs=obs,
    )

"""The bound-driven auto-planner.

:func:`plan` ranks every registered algorithm on a query by its predicted
max per-server load (the Section 3 bounds machinery, via each algorithm's
``predicted_load_bits`` cost hook), attaches the Theorem 3.6 lower bound
``L_lower = max_u L(u, M, p)`` for optimality-gap reporting, and exposes
the ranking as a :class:`QueryPlan`.  :func:`autoplan` instantiates the
winner directly; :func:`tradeoff` reads the round/load curve off one
plan (:meth:`QueryPlan.tradeoff`) — for every round count up to the
budget, the best algorithm using exactly that many rounds.

Predictions are skew-aware when heavy-hitter statistics are supplied
(pass a database, or a ready
:class:`~repro.stats.heavy_hitters.HeavyHitterStatistics`); with simple
cardinality statistics they are the skew-free expectations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from ..core.bounds import lower_bound
from ..core.registry import Statistics, algorithm_specs, get_spec
from ..mpc.execution import MPCAlgorithm
from ..obs import Observation, maybe_timed
from ..query.atoms import ConjunctiveQuery
from ..query.parser import parse_query
from ..seq.relation import Database
from ..stats.heavy_hitters import HeavyHitterStatistics
from ..stats.provider import simple_of


class PlanError(ValueError):
    """Raised when no registered algorithm can run the query."""


@dataclass(frozen=True)
class Prediction:
    """One algorithm's planner row.

    ``rounds`` and ``round_loads`` carry the multi-round shape: one-round
    algorithms report ``rounds=1`` with a single-entry load vector, and
    ``lower_bound_bits`` is the Theorem 3.6 one-round bound for them but
    the multi-round repartition bound (``max_j M_j / p``) for multi-round
    algorithms — the one-round bound does not constrain extra rounds.
    """

    key: str
    summary: str
    applicable: bool
    reason: str | None = None
    predicted_load_bits: float | None = None
    lower_bound_bits: float | None = None
    rounds: int = 1
    round_loads: tuple[float, ...] | None = None

    @property
    def cost_bits(self) -> float | None:
        """The ranking scale: max per-round load x number of rounds."""
        if self.predicted_load_bits is None:
            return None
        return self.predicted_load_bits * self.rounds

    @property
    def optimality_ratio(self) -> float | None:
        """Predicted load over the attached lower bound (>= ~1)."""
        if (
            self.predicted_load_bits is None
            or not self.lower_bound_bits
            or self.lower_bound_bits <= 0
        ):
            return None
        return self.predicted_load_bits / self.lower_bound_bits


@dataclass(frozen=True)
class TradeoffPoint:
    """The best algorithm at one round count (``key`` None if none)."""

    rounds: int
    key: str | None = None
    predicted_load_bits: float | None = None
    round_loads: tuple[float, ...] | None = None
    lower_bound_bits: float | None = None

    @property
    def cost_bits(self) -> float | None:
        """The planner's scale: max per-round load x rounds."""
        if self.predicted_load_bits is None:
            return None
        return self.predicted_load_bits * self.rounds

    def to_dict(self) -> dict:
        return {
            "rounds": self.rounds,
            "key": self.key,
            "predicted_load_bits": self.predicted_load_bits,
            "round_loads": (
                None if self.round_loads is None else list(self.round_loads)
            ),
            "cost_bits": self.cost_bits,
            "lower_bound_bits": self.lower_bound_bits,
        }


@dataclass(frozen=True)
class QueryPlan:
    """The ranked output of :func:`plan`.

    ``predictions`` lists applicable algorithms first, sorted by the
    combined cost scale ``max per-round load x rounds`` (ties broken by
    total communication, then registration order), followed by the
    inapplicable ones with their declared reasons.  ``chosen`` is the
    first entry.  With the default ``max_rounds=1`` this reduces to the
    classic predicted-load ranking over one-round algorithms.
    """

    query: ConjunctiveQuery
    p: int
    stats: Statistics
    lower_bound_bits: float
    predictions: tuple[Prediction, ...] = field(default_factory=tuple)
    # Instances constructed while costing, reused by instantiate() so a
    # plan-then-run cycle never builds an algorithm twice.
    built: Mapping[str, MPCAlgorithm] = field(
        default_factory=dict, repr=False, compare=False
    )
    max_rounds: int = 1

    @property
    def chosen(self) -> Prediction:
        for prediction in self.predictions:
            if prediction.applicable:
                return prediction
        raise PlanError(
            f"no registered algorithm is applicable to {self.query.name!r}"
        )

    @property
    def applicable(self) -> tuple[Prediction, ...]:
        return tuple(pr for pr in self.predictions if pr.applicable)

    def prediction(self, key: str) -> Prediction:
        for prediction in self.predictions:
            if prediction.key == key:
                return prediction
        raise PlanError(f"algorithm {key!r} is not part of this plan")

    def instantiate(self, key: str | None = None) -> MPCAlgorithm:
        """The chosen (or an explicitly named) algorithm, ready to run.

        Returns the instance the planner already constructed while
        costing; only keys outside this plan trigger a fresh build.  Run
        the result with :func:`repro.rounds.run_rounds`, whatever its
        round count.
        """
        chosen_key = self.chosen.key if key is None else key
        cached = self.built.get(chosen_key)
        if cached is not None:
            return cached
        return get_spec(chosen_key).build(self.query, self.stats, self.p)

    def tradeoff(self) -> tuple[TradeoffPoint, ...]:
        """The round/load curve: for every round count ``1..max_rounds``,
        the best applicable algorithm using exactly that many rounds.

        Round counts with no applicable algorithm yield a point with
        ``key=None`` — e.g. a two-atom join has no two-round candidate,
        and a triangle has a one-round HyperCube but no one-round hash
        join.
        """
        best: dict[int, Prediction] = {}
        for prediction in self.applicable:
            # ``applicable`` is cost-sorted, so the first entry per round
            # count is that count's winner.
            best.setdefault(prediction.rounds, prediction)
        return tuple(
            TradeoffPoint(rounds=r) if r not in best else TradeoffPoint(
                rounds=r,
                key=best[r].key,
                predicted_load_bits=best[r].predicted_load_bits,
                round_loads=best[r].round_loads,
                lower_bound_bits=best[r].lower_bound_bits,
            )
            for r in range(1, self.max_rounds + 1)
        )

    def explain(self) -> str:
        """A human-readable ranking table."""
        lines = [
            f"plan for {self.query} at p={self.p}",
            f"Theorem 3.6 lower bound: {self.lower_bound_bits:,.0f} bits",
        ]
        for rank, prediction in enumerate(self.applicable, start=1):
            marker = "*" if prediction.key == self.chosen.key else " "
            ratio = prediction.optimality_ratio
            gap = f"{ratio:6.2f}x" if ratio is not None else "      -"
            rounds = (
                f"  ({prediction.rounds} rounds)"
                if prediction.rounds > 1
                else ""
            )
            lines.append(
                f" {marker}{rank}. {prediction.key:<20} "
                f"predicted {prediction.predicted_load_bits:>14,.0f} bits  "
                f"vs bound {gap}{rounds}"
            )
        for prediction in self.predictions:
            if not prediction.applicable:
                lines.append(
                    f"  -  {prediction.key:<20} not applicable: "
                    f"{prediction.reason}"
                )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-ready summary (used by ``repro plan --json``)."""
        return {
            "query": str(self.query),
            "p": self.p,
            "max_rounds": self.max_rounds,
            "lower_bound_bits": self.lower_bound_bits,
            "chosen": self.chosen.key,
            "predictions": [
                {
                    "key": pr.key,
                    "applicable": pr.applicable,
                    "reason": pr.reason,
                    "predicted_load_bits": pr.predicted_load_bits,
                    "optimality_ratio": pr.optimality_ratio,
                    "rounds": pr.rounds,
                    "round_loads": (
                        None if pr.round_loads is None
                        else list(pr.round_loads)
                    ),
                    "cost_bits": pr.cost_bits,
                }
                for pr in self.predictions
            ],
        }


#: How heavy-hitter statistics are obtained when extracted from a
#: database: ``"exact"`` materializes true frequencies
#: (:meth:`HeavyHitterStatistics.of`), ``"sketch"`` runs the one-pass
#: Count-Sketch statistics pass
#: (:meth:`repro.sketch.SketchedHeavyHitterStatistics.of`).
STATS_METHODS = ("exact", "sketch")


def resolve_statistics(
    query: ConjunctiveQuery,
    stats: Statistics | None,
    p: int,
    db: Database | None = None,
    stats_method: str = "exact",
    obs: Observation | None = None,
) -> Statistics:
    """The richest statistics available: explicit > extracted > error.

    ``stats_method`` selects the extraction path when statistics must be
    pulled from ``db`` (explicitly supplied statistics are used as-is):
    ``"exact"`` or ``"sketch"`` (see :data:`STATS_METHODS`).
    """
    if stats is not None:
        return stats
    if stats_method not in STATS_METHODS:
        raise PlanError(
            f"unknown stats method {stats_method!r}; "
            f"expected one of {STATS_METHODS}"
        )
    if db is not None:
        with maybe_timed(obs, "stats.build", method=stats_method):
            if stats_method == "sketch":
                from ..sketch import SketchedHeavyHitterStatistics

                return SketchedHeavyHitterStatistics.of(query, db, p, obs=obs)
            return HeavyHitterStatistics.of(query, db, p)
    raise PlanError("plan() needs statistics or a database to extract them from")


def plan(
    query: ConjunctiveQuery | str,
    stats: Statistics | None = None,
    p: int = 16,
    db: Database | None = None,
    algorithms: Iterable[str] | None = None,
    obs: Observation | None = None,
    stats_method: str = "exact",
    max_rounds: int = 1,
) -> QueryPlan:
    """Rank registered algorithms on ``query`` by predicted cost.

    Parameters
    ----------
    query:
        A :class:`ConjunctiveQuery` or its textual form.
    stats:
        :class:`SimpleStatistics` (skew-free predictions) or
        :class:`HeavyHitterStatistics` (skew-aware).  May be omitted when
        ``db`` is given — heavy-hitter statistics are then extracted.
    p:
        Number of servers.
    algorithms:
        Restrict the ranking to these registry keys (default: all).
    obs:
        An :class:`repro.obs.Observation`: times the plan build, the
        Theorem 3.6 bound, and every ``applicability()``/
        ``predicted_load_bits()`` cost-hook evaluation; counts
        considered/applicable/inapplicable algorithms.  ``None`` (the
        default) disables instrumentation.
    stats_method:
        How statistics are extracted when only ``db`` is given:
        ``"exact"`` (materialized frequencies) or ``"sketch"`` (the
        one-pass Count-Sketch statistics pass).  Ignored when ``stats``
        is supplied.
    max_rounds:
        Round budget.  The default 1 keeps the classic one-round
        ranking; with ``max_rounds >= 2`` the multi-round algorithms of
        :mod:`repro.rounds` compete too, everything ranked on the single
        scale ``max per-round load x rounds`` (ties broken by total
        communication, then registration order).  Algorithms needing
        more rounds than the budget are reported as inapplicable.
    """
    if isinstance(query, str):
        query = parse_query(query)
    if max_rounds < 1:
        raise PlanError(f"max_rounds must be >= 1, got {max_rounds}")
    with maybe_timed(obs, "plan.build", query=str(query), p=p):
        stats = resolve_statistics(
            query, stats, p, db, stats_method=stats_method, obs=obs
        )
        simple = simple_of(stats)
        bits = simple.bits_vector(query)
        with maybe_timed(obs, "plan.lower_bound"):
            if p >= 2 and any(value > 0 for value in bits.values()):
                bound_bits = lower_bound(query, bits, p).bits
            else:
                bound_bits = sum(bits.values())

        ranked: list[tuple[float, float, int, Prediction]] = []
        inapplicable: list[Prediction] = []
        built: dict[str, MPCAlgorithm] = {}
        for order, spec in enumerate(algorithm_specs(algorithms)):
            if obs is not None:
                obs.count("planner.algorithms_considered")
            with maybe_timed(obs, "plan.applicability", algorithm=spec.key):
                reason = spec.applicability(query)
                rounds = 1 if reason is not None else spec.rounds(query)
            if reason is None and rounds > max_rounds:
                reason = (
                    f"needs {rounds} rounds but the round budget is "
                    f"max_rounds={max_rounds}"
                )
            if reason is not None:
                if obs is not None:
                    obs.count("planner.inapplicable")
                inapplicable.append(Prediction(
                    key=spec.key,
                    summary=spec.summary,
                    applicable=False,
                    reason=reason,
                ))
                continue
            if obs is not None:
                obs.count("planner.applicable")
            with maybe_timed(obs, "plan.cost", algorithm=spec.key):
                algorithm = spec.build(query, stats, p)
                built[spec.key] = algorithm
                round_loads = tuple(algorithm.predicted_round_loads(stats, p))
                predicted = max(round_loads)
                # Theorem 3.6 constrains one round only; an algorithm
                # that reshuffles intermediates carries its own bound.
                algo_bound = (bound_bits if rounds == 1
                              else algorithm.lower_bound_bits(stats, p))
            if not math.isfinite(predicted) or predicted < 0:
                raise PlanError(
                    f"algorithm {spec.key!r} predicted a non-finite load "
                    f"({predicted!r}) on {query.name!r}"
                )
            if obs is not None:
                obs.set_gauge(
                    f"planner.predicted_load_bits.{spec.key}", predicted
                )
            # The single ranking scale: max per-round load x rounds,
            # ties broken by total communication (p x sum of per-round
            # loads), then registration order.
            cost = predicted * rounds
            total_comm = p * sum(round_loads)
            ranked.append((cost, total_comm, order, Prediction(
                key=spec.key,
                summary=spec.summary,
                applicable=True,
                predicted_load_bits=predicted,
                lower_bound_bits=algo_bound,
                rounds=rounds,
                round_loads=round_loads,
            )))
        ranked.sort(key=lambda item: (item[0], item[1], item[2]))
        predictions = tuple(pr for _, _, _, pr in ranked) + tuple(inapplicable)
        if not any(pr.applicable for pr in predictions):
            raise PlanError(
                f"no registered algorithm is applicable to {query.name!r}"
            )
        if obs is not None:
            obs.set_gauge("planner.lower_bound_bits", bound_bits)
    return QueryPlan(
        query=query,
        p=p,
        stats=stats,
        lower_bound_bits=bound_bits,
        predictions=predictions,
        built=built,
        max_rounds=max_rounds,
    )


def autoplan(
    query: ConjunctiveQuery | str,
    stats: Statistics | None = None,
    p: int = 16,
    db: Database | None = None,
    algorithms: Iterable[str] | None = None,
    stats_method: str = "exact",
    max_rounds: int = 1,
) -> MPCAlgorithm:
    """Instantiate the minimum-cost applicable algorithm.

    Run it with :func:`repro.rounds.run_rounds`; with ``max_rounds >= 2``
    it may use several rounds.
    """
    return plan(
        query, stats, p, db=db, algorithms=algorithms,
        stats_method=stats_method, max_rounds=max_rounds,
    ).instantiate()


def tradeoff(
    query: ConjunctiveQuery | str,
    p: int = 16,
    rounds: int = 2,
    stats: Statistics | None = None,
    db: Database | None = None,
    algorithms: Iterable[str] | None = None,
    stats_method: str = "exact",
    obs: Observation | None = None,
) -> tuple[TradeoffPoint, ...]:
    """Predicted max-load per round count, for ``1..rounds`` rounds.

    Answers the multi-round question directly: *how does the predicted
    max per-round load fall as the round budget grows?*  It is
    :meth:`QueryPlan.tradeoff` of one :func:`plan` at
    ``max_rounds=rounds`` (same statistics resolution, same ranking).
    """
    return plan(
        query, stats, p, db=db, algorithms=algorithms,
        stats_method=stats_method, obs=obs, max_rounds=rounds,
    ).tradeoff()

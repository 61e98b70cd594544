"""The multi-round MPC protocol (Beame-Koutris-Suciu, multi-round model).

The one-round restriction (Section 2.1) is what makes cyclic queries like
the triangle provably expensive: every tuple must be routed from
statistics alone.  The multi-round model lifts it — an algorithm runs a
*sequence* of communication rounds, each a shuffle plus unrestricted
local compute, with the answers of one round materialized as an
intermediate relation that the next round reshuffles.  The cost scale is
``max per-round load x rounds`` (ties broken by total communication),
which is how the planner ranks one- and multi-round candidates together.

A :class:`MultiRoundAlgorithm` describes its rounds statically as
:class:`~repro.mpc.execution.RoundSpec` entries — each a full
conjunctive query over the relations available in that round (base
relations plus earlier intermediates) and the name of the intermediate it
produces.  Each round
is then executed as an ordinary one-round algorithm through the pluggable
engines (:func:`repro.rounds.run_rounds`), so every engine inherits
bit-identical multi-round loads from the one-round parity contract.

The matching lower bound is the trivial repartition bound
``max_j M_j / p``: any algorithm in the family reshuffles each base
relation in some round, so some server receives at least a ``1/p``
fraction of its bits in that round.  It is the degenerate (round-count
independent) case of the multi-round tradeoffs of "Communication Cost in
Parallel Query Processing"; the one-round Theorem 3.6 bound does *not*
apply across rounds, which is exactly why two rounds beat it.
"""

from __future__ import annotations

from typing import Sequence

from ..core.registry import algorithm_specs
from ..mpc.execution import MPCAlgorithm, OneRoundAlgorithm, RoundSpec
from ..query.atoms import Atom, ConjunctiveQuery
from ..seq.relation import Database
from ..stats.heavy_hitters import HeavyHitterStatistics, canonical_subset
from ..stats.provider import StatisticsProvider, simple_of


class RoundsError(ValueError):
    """Raised for malformed round plans or unusable round inputs."""


def intermediate_name(query: ConjunctiveQuery, index: int) -> str:
    """A relation name for round ``index``'s output, clash-free vs ``query``."""
    name = f"_J{index + 1}"
    while query.has_atom(name):
        name = "_" + name
    return name


def estimate_join_size(
    left_name: str,
    left_variables: Sequence[str],
    left_cardinality: float,
    right: Atom,
    stats: object,
    domain_size: int,
    hh: StatisticsProvider | None = None,
) -> float:
    """Estimated ``|L join R|`` for an intermediate/atom pair.

    The baseline is the independence estimate
    ``m_L * m_R / n^{|shared|}``; when heavy-hitter statistics cover both
    sides (``hh`` given and ``left_name`` is a real atom), the heavy
    assignments contribute their known ``f_L(h) * f_R(h)`` products and
    only the residual light mass goes through the independence term —
    this is what makes the round-2 prediction blow up when round 1's
    partial join is skewed on its shared variables.  Capped at the
    cross-product size.
    """
    simple = simple_of(stats)
    m_left = float(left_cardinality)
    m_right = float(simple.cardinality(right.name))
    shared = canonical_subset(set(left_variables) & right.variable_set)
    cross = m_left * m_right
    if not shared or cross == 0:
        return cross
    combos = float(domain_size) ** len(shared)
    estimate = cross / combos
    if hh is not None:
        heavy_left = dict(hh.heavy_hitters(left_name, shared))
        heavy_right = dict(hh.heavy_hitters(right.name, shared))
        if heavy_left or heavy_right:
            light_left = max(0.0, m_left - sum(heavy_left.values()))
            light_right = max(0.0, m_right - sum(heavy_right.values()))
            avg_left = light_left / combos
            avg_right = light_right / combos
            estimate = light_left * light_right / combos
            for h in set(heavy_left) | set(heavy_right):
                f_left = float(heavy_left.get(h, avg_left))
                f_right = float(heavy_right.get(h, avg_right))
                estimate += f_left * f_right
    return min(cross, estimate)


def select_one_round(
    query: ConjunctiveQuery, stats: object, p: int
) -> tuple[OneRoundAlgorithm, str, float]:
    """The registry's best one-round algorithm for one round's query.

    Mirrors the planner's ranking restricted to the specs that use one
    round on ``query``: minimum ``predicted_load_bits`` over the
    applicable ones, ties broken by registration order.  Returns the built
    instance, its registry key and its prediction — the same selection
    is used both for cost prediction and for execution, so predicted and
    executed round algorithms always agree.
    """
    best: tuple[float, int] | None = None
    chosen: tuple[OneRoundAlgorithm, str, float] | None = None
    for order, spec in enumerate(algorithm_specs()):
        if not spec.is_applicable(query) or spec.rounds(query) != 1:
            continue
        algorithm = spec.build(query, stats, p)
        predicted = algorithm.predicted_load_bits(stats, p)
        rank = (predicted, order)
        if best is None or rank < best:
            best = rank
            chosen = (algorithm, spec.key, predicted)
    if chosen is None:
        raise RoundsError(
            f"no registered one-round algorithm is applicable to the "
            f"round query {query.name!r}"
        )
    return chosen


def predict_one_round(query: ConjunctiveQuery, stats: object, p: int) -> float:
    """The predicted load of :func:`select_one_round`'s pick."""
    return select_one_round(query, stats, p)[2]


class MultiRoundAlgorithm(MPCAlgorithm):
    """An MPC algorithm whose rounds are chosen from the registry.

    Subclasses declare :meth:`round_count`, :meth:`round_plan` and
    :meth:`predicted_round_loads`; each round is routed by the best
    registered one-round algorithm for that round's live database.  The
    matching lower bound is the inherited repartition bound
    (:meth:`~repro.mpc.execution.MPCAlgorithm.lower_bound_bits`).
    """

    def round_algorithm(
        self, spec: RoundSpec, db: Database, p: int
    ) -> OneRoundAlgorithm:
        """Exact heavy-hitter statistics of the round database, then
        :func:`select_one_round` — a function of ``(db, p)`` only."""
        stats = HeavyHitterStatistics.of(spec.query, db, p)
        return select_one_round(spec.query, stats, p)[0]

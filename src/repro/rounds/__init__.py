"""Multi-round MPC: round sequences, two-round algorithms, tradeoffs.

The one-round model (Section 2.1) routes every tuple from statistics
alone; this package implements the multi-round extension the paper's
sequel ("Communication Cost in Parallel Query Processing", PAPERS.md)
studies — algorithms that materialize intermediates between rounds, the
two-round triangle that beats every one-round algorithm on cyclic
queries, and the round/load tradeoff curve the planner ranks against.

* :class:`MultiRoundAlgorithm` — the round protocol of
  :class:`~repro.mpc.execution.MPCAlgorithm` (per-round shuffle + local
  compute over materialized intermediates, declared as
  :class:`RoundSpec` entries) with rounds routed from the registry;
* :class:`TwoRoundTriangle` — partial join then hash-join finish;
* :class:`RoundComposedJoin` — the generic ``l - 1``-round composition
  for connected queries;
* :func:`run_rounds` / :class:`MultiRoundResult` — the one runner above
  the engines, for one round or many, bit-identical by construction.

Importing the package registers the two algorithms in
:mod:`repro.core.registry`, after the one-round ones.  The predicted
round/load curve is :func:`repro.api.tradeoff`.
"""

from ..core.registry import AlgorithmSpec, register
from ..mpc.execution import RoundSpec
from .base import (
    MultiRoundAlgorithm,
    RoundsError,
    estimate_join_size,
    intermediate_name,
    predict_one_round,
    select_one_round,
)
from .composed import RoundComposedJoin
from .executor import (
    ROUND_SEED_STRIDE,
    MultiRoundResult,
    oracle_answers,
    run_rounds,
)
from .triangle import TwoRoundTriangle

# Ranked only when the planner's round budget admits them
# (``plan(..., max_rounds >= 2)``).
register(AlgorithmSpec(
    key="two-round-triangle",
    algorithm_class=TwoRoundTriangle,
    factory=lambda query, stats, p: TwoRoundTriangle(query, stats=stats),
    summary="two-round triangle: bounded partial join, then hash-join "
            "finish",
))

register(AlgorithmSpec(
    key="round-join",
    algorithm_class=RoundComposedJoin,
    factory=lambda query, stats, p: RoundComposedJoin(query, stats=stats),
    summary="round-composed join: one binary join per round (l-1 rounds)",
))

__all__ = [
    "MultiRoundAlgorithm",
    "MultiRoundResult",
    "ROUND_SEED_STRIDE",
    "RoundComposedJoin",
    "RoundSpec",
    "RoundsError",
    "TwoRoundTriangle",
    "estimate_join_size",
    "intermediate_name",
    "oracle_answers",
    "predict_one_round",
    "run_rounds",
    "select_one_round",
]

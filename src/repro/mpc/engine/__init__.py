"""Pluggable execution engines for the one-round MPC simulator.

The engine subsystem separates *what* a one-round algorithm does (its
:class:`repro.mpc.execution.RoutingPlan`) from *how* the round is simulated:

``reference``
    :class:`ReferenceEngine` — the original tuple-at-a-time simulator with
    fully materialized server fragments, routed through the scalar
    ``RoutingPlan.destinations``.  Slowest; the parity oracle.
``batched``
    :class:`BatchedEngine` — routes each relation's int64 columns
    (``Relation.batch``) with one call into the batch primitive every
    in-tree plan implements natively, ``RoutingPlan.claims``, through the
    two methods ``RoutingPlan`` derives from it: ``destination_counts``
    when only loads are wanted (nothing is listed per tuple), ``deliveries``
    — ``(tuple index, server)`` arrays — when answers are, which the local
    joins of all servers consume as one array join.

The two engines are answer- and load-identical
(``tests/test_engine_parity.py``); ``batched`` is the default everywhere.
Processes enter above the engines: a sweep farms whole cells
(:mod:`repro.mpc.farm`), each running its rounds in-process.
"""

from .base import EngineError, ExecutionEngine, available_engines, resolve_engine
from .batched import BatchedEngine
from .reference import ReferenceEngine

__all__ = [
    "EngineError",
    "ExecutionEngine",
    "available_engines",
    "resolve_engine",
    "ReferenceEngine",
    "BatchedEngine",
]

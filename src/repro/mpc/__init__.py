"""MPC simulator: hash families, cluster, pluggable execution engines."""

from .allocation import ServerAllocator
from .cluster import Cluster, LoadReport, Server
from .engine import (
    BatchedEngine,
    EngineError,
    ExecutionEngine,
    MultiprocessEngine,
    ReferenceEngine,
    available_engines,
    resolve_engine,
)
from .execution import (
    ExecutionResult,
    MPCAlgorithm,
    OneRoundAlgorithm,
    RoundSpec,
    RoutingPlan,
    run_one_round,
)
from .hashing import HashFamily

__all__ = [
    "ServerAllocator",
    "Cluster",
    "LoadReport",
    "Server",
    "EngineError",
    "ExecutionEngine",
    "ReferenceEngine",
    "BatchedEngine",
    "MultiprocessEngine",
    "available_engines",
    "resolve_engine",
    "ExecutionResult",
    "MPCAlgorithm",
    "OneRoundAlgorithm",
    "RoundSpec",
    "RoutingPlan",
    "run_one_round",
    "HashFamily",
]

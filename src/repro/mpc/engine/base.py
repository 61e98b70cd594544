"""The :class:`ExecutionEngine` interface and engine registry.

An execution engine simulates one communication round: it builds the
algorithm's routing plan, delivers every input tuple to its destination
servers, accounts per-server loads, and (optionally) runs the local joins.
The contract is strict: **every engine must return the same answers (one
:class:`~repro.seq.join.Answers` array), the same per-server tuple counts,
and bit-identical per-server bit loads** as
:class:`repro.mpc.engine.ReferenceEngine` for any algorithm and database,
and the same ``IndexError`` for a server outside ``[0, p)``.
``tests/test_engine_parity.py`` enforces the contract for every registered
engine; new engines should be added to :data:`ENGINES` and that test suite.

Bit-identity is achievable because all load accounting computes per-server
bits as ``received_count * tuple_bits`` per relation, folded in the query's
atom order — never as an order-dependent running float sum.

:meth:`ExecutionEngine.run` is a template method — it opens the
``engine.run`` span, delegates to the engine-specific
:meth:`ExecutionEngine._run`, evaluates the sequential oracle when asked to
verify (``engine.verify``; an engine cannot forget it or do it differently),
then records the standard result metrics (tuples routed, bits shipped,
per-server load histogram, skew ratio) every engine must agree on.  With
``obs=None`` (the default) no instrument is touched, so disabled
observability is free.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import replace
from typing import TYPE_CHECKING

from ...obs import maybe_timed
from ...seq.join import evaluate
from ...seq.relation import Database
from ..execution import ExecutionResult, OneRoundAlgorithm

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...obs import Observation


class EngineError(ValueError):
    """Raised for unknown engine names, malformed engine configuration, and
    a round the ``mp`` engine could not finish (a shard worker raised or
    died)."""


class ExecutionEngine(ABC):
    """Simulates one MPC communication round for any one-round algorithm."""

    #: Registry key and CLI spelling of the engine.
    name: str = "abstract"

    def run(
        self,
        algorithm: OneRoundAlgorithm,
        db: Database,
        p: int,
        seed: int = 0,
        compute_answers: bool = True,
        verify: bool = False,
        obs: "Observation | None" = None,
    ) -> ExecutionResult:
        """Simulate one round; see :func:`repro.mpc.run_one_round`.

        ``obs`` (an :class:`repro.obs.Observation`) enables tracing and
        metrics for the round; the engine-independent result metrics are
        recorded here so every engine reports them identically.
        """
        with maybe_timed(
            obs, "engine.run",
            engine=self.name, algorithm=algorithm.name, p=p, seed=seed,
        ):
            result = self._run(algorithm, db, p, seed, compute_answers, obs)
            if verify:
                with maybe_timed(obs, "engine.verify"):
                    result = replace(
                        result,
                        expected_answers=evaluate(algorithm.query, db),
                    )
        if obs is not None:
            self._record_result_metrics(obs, result)
        return result

    @abstractmethod
    def _run(
        self,
        algorithm: OneRoundAlgorithm,
        db: Database,
        p: int,
        seed: int,
        compute_answers: bool,
        obs: "Observation | None",
    ) -> ExecutionResult:
        """Engine-specific round simulation (``obs`` may be None); leaves
        ``expected_answers`` unset — verification is :meth:`run`'s."""

    @staticmethod
    def _record_result_metrics(
        obs: "Observation", result: ExecutionResult
    ) -> None:
        """The engine-independent metrics of a finished round.

        Everything here is a pure function of the (engine-independent)
        :class:`~repro.mpc.cluster.LoadReport`, so
        ``tests/test_obs_integration.py`` can require exact agreement
        across engines on a fixed seed.
        """
        report = result.report
        metrics = obs.metrics
        metrics.counter("engine.input_tuples").inc(report.input_tuples)
        metrics.counter("engine.input_bits").inc(report.input_bits)
        metrics.counter("engine.routed_tuples").inc(report.total_tuples)
        metrics.counter("engine.shipped_bits").inc(report.total_bits)
        load = metrics.histogram("engine.server_load_bits")
        load.extend(report.per_server_bits)
        metrics.gauge("engine.max_load_bits").set(report.max_load_bits)
        metrics.gauge("engine.max_load_tuples").set(report.max_load_tuples)
        metrics.gauge("engine.skew_ratio").set(report.balance)
        metrics.gauge("engine.replication_rate").set(report.replication_rate)
        if result.answers is not None:
            metrics.counter("engine.answers").inc(len(result.answers))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


def _registry() -> dict[str, type[ExecutionEngine]]:
    from .batched import BatchedEngine
    from .multiprocess import MultiprocessEngine
    from .reference import ReferenceEngine

    return {
        ReferenceEngine.name: ReferenceEngine,
        BatchedEngine.name: BatchedEngine,
        MultiprocessEngine.name: MultiprocessEngine,
    }


def available_engines() -> tuple[str, ...]:
    """The registered engine names, in registration order."""
    return tuple(_registry())


def resolve_engine(engine: "str | ExecutionEngine") -> ExecutionEngine:
    """An engine instance from a registry name or a ready-made instance."""
    if isinstance(engine, ExecutionEngine):
        return engine
    registry = _registry()
    try:
        factory = registry[engine]
    except (KeyError, TypeError):
        raise EngineError(
            f"unknown execution engine {engine!r}; "
            f"available: {', '.join(registry)}"
        ) from None
    return factory()

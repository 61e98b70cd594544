"""The algorithm registry: every algorithm, declaratively.

Each registered :class:`AlgorithmSpec` bundles what the planner needs to
reason about an algorithm *without* constructing it:

* a stable ``key`` (the CLI/CSV spelling),
* the algorithm class, whose class-level
  :meth:`~repro.mpc.execution.MPCAlgorithm.applicability` predicate
  declares the queries it handles,
* a ``factory`` building a ready-to-run instance from
  ``(query, stats, p)``, and
* the per-instance
  :meth:`~repro.mpc.execution.MPCAlgorithm.predicted_load_bits` cost
  hook, reachable through :meth:`AlgorithmSpec.predicted_load_bits` (for
  each one-round algorithm here, :func:`~.hypercube.layout_load_bits`).

This module registers every one-round algorithm the paper develops
(HyperCube with LP-optimal/equal shares, the broadcast rule, the
hash-join baseline, the Section 4.1 skew-aware join, the Section 4.2 bin
algorithm, and the cartesian grid).  It sits below :mod:`repro.rounds`,
whose per-round selection reads it and which registers its own
multi-round algorithms on import (the planner only considers those when
its ``max_rounds`` budget admits them).  Downstream code can
:func:`register` additional algorithms; the planner, sweep runner and CLI
pick them up automatically.  :mod:`repro.api` re-exports all of this once
both layers are registered.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from ..mpc.execution import MPCAlgorithm
from ..query.atoms import ConjunctiveQuery
from ..stats.provider import Statistics, heavy_of, simple_of
from .broadcast import BroadcastHyperCube
from .cartesian import CartesianProductAlgorithm
from .hashjoin import HashJoinAlgorithm
from .hypercube import HyperCubeAlgorithm
from .skew_general import BinHyperCubeAlgorithm
from .skew_join import SkewAwareJoin

Factory = Callable[[ConjunctiveQuery, Statistics, int], MPCAlgorithm]


class RegistryError(ValueError):
    """Raised for unknown algorithm keys or duplicate registrations."""


@dataclass(frozen=True)
class AlgorithmSpec:
    """A registered algorithm, ready for planning.

    Attributes
    ----------
    key:
        Stable identifier (``repro sweep --algorithms`` spelling).
    algorithm_class:
        The :class:`~repro.mpc.execution.MPCAlgorithm` subclass; its
        class-level ``applicability`` declares which queries it handles
        and its ``round_count`` how many rounds it uses.
    factory:
        ``(query, stats, p) -> algorithm`` building a runnable
        instance.  ``stats`` may be simple or heavy-hitter statistics.
    summary:
        One line for tables and ``repro plan`` output.
    """

    key: str
    algorithm_class: type[MPCAlgorithm]
    factory: Factory
    summary: str

    def applicability(self, query: ConjunctiveQuery) -> str | None:
        """None if applicable to ``query``, else the declared reason."""
        return self.algorithm_class.applicability(query)

    def is_applicable(self, query: ConjunctiveQuery) -> bool:
        return self.applicability(query) is None

    def rounds(self, query: ConjunctiveQuery) -> int:
        """Communication rounds the algorithm uses on ``query`` (1 for
        every one-round algorithm).  Only meaningful when applicable."""
        return int(self.algorithm_class.round_count(query))

    def build(
        self, query: ConjunctiveQuery, stats: Statistics, p: int
    ) -> MPCAlgorithm:
        """Instantiate the algorithm (the query must be applicable)."""
        reason = self.applicability(query)
        if reason is not None:
            raise RegistryError(
                f"algorithm {self.key!r} is not applicable to "
                f"{query.name!r}: {reason}"
            )
        return self.factory(query, stats, p)

    def predicted_load_bits(
        self, query: ConjunctiveQuery, stats: Statistics, p: int
    ) -> float:
        """The instance-level cost hook, from statistics alone."""
        return self.build(query, stats, p).predicted_load_bits(stats, p)


_REGISTRY: dict[str, AlgorithmSpec] = {}


def register(spec: AlgorithmSpec, replace: bool = False) -> AlgorithmSpec:
    """Add ``spec`` to the registry (``replace=True`` to overwrite)."""
    if not replace and spec.key in _REGISTRY:
        raise RegistryError(f"algorithm key {spec.key!r} already registered")
    _REGISTRY[spec.key] = spec
    return spec


def unregister(key: str) -> None:
    """Remove a registered algorithm (unknown keys are a no-op)."""
    _REGISTRY.pop(key, None)


def algorithm_keys() -> tuple[str, ...]:
    """All registered keys, in registration order."""
    return tuple(_REGISTRY)


def algorithm_specs(keys: Iterable[str] | None = None) -> tuple[AlgorithmSpec, ...]:
    """Specs for ``keys`` (default: every registered spec, in order)."""
    if keys is None:
        return tuple(_REGISTRY.values())
    return tuple(get_spec(key) for key in keys)


def get_spec(key: str) -> AlgorithmSpec:
    try:
        return _REGISTRY[key]
    except KeyError:
        raise RegistryError(
            f"unknown algorithm {key!r}; registered: {', '.join(_REGISTRY)}"
        ) from None


def applicable_specs(
    query: ConjunctiveQuery,
    keys: Iterable[str] | None = None,
    max_rounds: int | None = 1,
) -> tuple[AlgorithmSpec, ...]:
    """The subset of specs whose declared applicability accepts ``query``.

    ``max_rounds`` is the round budget: the default of 1 returns only
    one-round algorithms; raise it to admit multi-round ones, or pass
    ``None`` for no filter at all.  Whatever the budget, every returned
    spec's instances run through :func:`repro.rounds.run_rounds`.
    """
    return tuple(
        spec for spec in algorithm_specs(keys)
        if spec.is_applicable(query)
        and (max_rounds is None or spec.rounds(query) <= max_rounds)
    )


# ----------------------------------------------------------------------
# The paper's one-round algorithms.
# ----------------------------------------------------------------------

register(AlgorithmSpec(
    key="hypercube-lp",
    algorithm_class=HyperCubeAlgorithm,
    factory=lambda query, stats, p: HyperCubeAlgorithm.with_optimal_shares(
        query, simple_of(stats), p
    ),
    summary="HyperCube, LP-optimal integer shares (Theorem 3.4)",
))

register(AlgorithmSpec(
    key="hypercube-equal",
    algorithm_class=HyperCubeAlgorithm,
    factory=lambda query, stats, p: HyperCubeAlgorithm.with_equal_shares(
        query, p
    ),
    summary="HyperCube, equal shares p^(1/k) (Corollary 3.2(ii))",
))

register(AlgorithmSpec(
    key="hypercube-broadcast",
    algorithm_class=BroadcastHyperCube,
    factory=lambda query, stats, p: BroadcastHyperCube(query),
    summary="HyperCube plus the small-relation broadcast rule (Section 3.3)",
))

register(AlgorithmSpec(
    key="hashjoin",
    algorithm_class=HashJoinAlgorithm,
    factory=lambda query, stats, p: HashJoinAlgorithm(query, p),
    summary="classic parallel hash join on the common variables",
))

register(AlgorithmSpec(
    key="skew-join",
    algorithm_class=SkewAwareJoin,
    factory=lambda query, stats, p: SkewAwareJoin(
        query, stats=heavy_of(stats, p)
    ),
    summary="skew-aware two-relation join (Section 4.1)",
))

register(AlgorithmSpec(
    key="bin-hypercube",
    algorithm_class=BinHyperCubeAlgorithm,
    factory=lambda query, stats, p: BinHyperCubeAlgorithm(
        query, stats=heavy_of(stats, p)
    ),
    summary="per-bin-combination HyperCube (Theorem 4.6)",
))

register(AlgorithmSpec(
    key="cartesian-grid",
    algorithm_class=CartesianProductAlgorithm,
    factory=lambda query, stats, p: CartesianProductAlgorithm(query),
    summary="optimal grid for cartesian products (Section 1)",
))

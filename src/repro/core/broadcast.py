"""The broadcast rule (Section 3.3 and footnote 1).

A relation with ``M_j <= M/p`` can be shipped whole to every server at a
load increase of at most ``M/p`` — no more than doubling the cost of any
algorithm — after which it disappears from the share optimization.  This
wrapper applies the rule, optimizes HyperCube shares for the *reduced*
query, and broadcasts the small relations across the reduced grid.
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from ..mpc.execution import Claim, OneRoundAlgorithm, RoutingPlan
from ..mpc.hashing import HashFamily
from ..query.atoms import Atom, ConjunctiveQuery
from ..seq.relation import Batch, Database, Tuple
from ..stats.cardinality import SimpleStatistics
from .bounds import broadcast_reduction
from .hypercube import HyperCubeAlgorithm, HyperCubePlan, grid_claim
from .shares import shares_product


def reduced_query(query: ConjunctiveQuery, dropped: Iterable[str]) -> ConjunctiveQuery:
    """The query restricted to the atoms not broadcast.

    Its head is recomputed from the surviving atoms (it stays full).
    """
    dropped_set = set(dropped)
    atoms = [atom for atom in query.atoms if atom.name not in dropped_set]
    if not atoms:
        # Degenerate: everything was tiny.  Keep the largest atom so the
        # grid is well-defined; callers never hit this on sensible inputs.
        atoms = [max(query.atoms, key=lambda a: a.arity)]
        dropped_set.discard(atoms[0].name)
    kept_vars = []
    seen: set[str] = set()
    for atom in atoms:
        for var in atom.variables:
            if var not in seen:
                seen.add(var)
                kept_vars.append(var)
    return ConjunctiveQuery(atoms, head=tuple(kept_vars), name=f"{query.name}_bc")


class _BroadcastPlan(RoutingPlan):
    def __init__(
        self,
        inner: HyperCubePlan,
        dropped: frozenset[str],
        grid_size: int,
    ) -> None:
        self.inner = inner
        self.dropped = dropped
        self.grid_size = grid_size

    def destinations(self, relation_name: str, tup: Tuple) -> Iterable[int]:
        if relation_name in self.dropped:
            return range(self.grid_size)
        return self.inner.destinations(relation_name, tup)

    def claims(self, relation_name: str, batch: Batch) -> list[Claim]:
        """A broadcast atom is one claim with one key, the whole grid; the
        rest delegate to the inner HyperCube."""
        if relation_name in self.dropped:
            return [grid_claim(
                np.zeros(len(batch), dtype=np.int64), range(self.grid_size)
            )]
        return self.inner.claims(relation_name, batch)

    def describe(self) -> Mapping[str, object]:
        description = dict(self.inner.describe())
        description["broadcast"] = sorted(self.dropped)
        return description


class BroadcastHyperCube(OneRoundAlgorithm):
    """HyperCube plus the small-relation broadcast rule."""

    def __init__(self, query: ConjunctiveQuery) -> None:
        super().__init__(query, name="hypercube-broadcast")

    def predicted_load_bits(self, stats: object, p: int) -> float:
        """Broadcast relations cost their full ``M_j`` per server; the
        survivors cost whatever the reduced-query HyperCube predicts."""
        simple = self._simple_stats(stats)
        bits = simple.bits_vector(self.query)
        if p < 2 or all(value <= 0 for value in bits.values()):
            return sum(bits.values())
        dropped, _remaining = broadcast_reduction(self.query, bits, p)
        reduced = reduced_query(self.query, dropped)
        dropped_names = [
            atom.name
            for atom in self.query.atoms
            if not reduced.has_atom(atom.name)
        ]
        inner = HyperCubeAlgorithm.with_optimal_shares(reduced, simple, p)
        return sum(bits[name] for name in dropped_names) + inner.predicted_load_bits(
            stats, p
        )

    def routing_plan(self, db: Database, p: int, hashes: HashFamily) -> RoutingPlan:
        stats = SimpleStatistics.of(db)
        bits = stats.bits_vector(self.query)
        if p < 2 or all(value <= 0 for value in bits.values()):
            # One server or an empty database: a trivial all-ones grid.
            trivial = HyperCubePlan(
                self.query, {var: 1 for var in self.query.variables}, hashes
            )
            return _BroadcastPlan(inner=trivial, dropped=frozenset(), grid_size=1)
        dropped, _remaining = broadcast_reduction(self.query, bits, p)
        reduced = reduced_query(self.query, dropped)
        dropped_set = frozenset(
            atom.name for atom in self.query.atoms if not reduced.has_atom(atom.name)
        )
        inner_algorithm = HyperCubeAlgorithm.with_optimal_shares(reduced, stats, p)
        inner_plan = inner_algorithm.routing_plan(db, p, hashes)
        return _BroadcastPlan(
            inner=inner_plan,
            dropped=dropped_set,
            grid_size=shares_product(inner_algorithm.shares),
        )

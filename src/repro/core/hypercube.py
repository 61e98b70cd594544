"""The HyperCube (HC) algorithm (Section 3.1).

Servers are arranged in a ``k``-dimensional grid with ``p_i`` *shares* per
variable, ``prod_i p_i <= p``.  Each tuple of ``S_j`` knows its coordinates
on the dimensions of its own variables (by hashing) and is replicated along
every other dimension.  Every potential answer ``(a_1, ..., a_k)`` is then
seen in full by the unique server ``(h_1(a_1), ..., h_k(a_k))``, so HC is
always *correct*; the choice of shares only affects the load:

* LP-optimal shares: load ``O(L_upper polylog p)`` on skew-free data
  (Theorem 3.4) — :meth:`HyperCubeAlgorithm.with_optimal_shares`.
* equal shares ``p^{1/k}``: load ``O(max_j M_j / p^{1/k})`` on *any* data —
  the skew-resilience of Corollary 3.2(ii) —
  :meth:`HyperCubeAlgorithm.with_equal_shares`.
"""

from __future__ import annotations

import math
from itertools import product
from typing import Iterable, Mapping, Sequence

import numpy as np

from ..mpc.execution import Claim, OneRoundAlgorithm, RoutingPlan
from ..mpc.hashing import HashFamily
from ..query.atoms import ConjunctiveQuery
from ..seq.relation import Batch, Database, Tuple
from ..stats.cardinality import SimpleStatistics
from .shares import (
    RoundingStrategy,
    ShareError,
    equal_integer_shares,
    integer_shares,
    optimal_share_exponents,
    shares_product,
)


def grid_claim(bases: np.ndarray, offsets: Sequence[int]) -> Claim:
    """The claim of a grid-shaped plan on a batch with these grid bases: a
    tuple at base ``b`` goes to ``b + o`` for every replication offset ``o``
    (duplicate-free: the offsets are distinct points of a mixed-radix grid).
    The table has a row per *distinct* base — at most ``p``, so they are
    found by counting, not sorting — however large the batch."""
    table = {
        base: tuple(base + offset for offset in offsets)
        for base in np.flatnonzero(np.bincount(bases)).tolist()
    }
    return np.arange(len(bases)), bases, table


class HyperCubePlan(RoutingPlan):
    """Routing for a fixed share vector.

    The server grid is linearized in mixed radix over the query's variable
    order; dimension ``i`` has stride ``prod_{i' > i} p_{i'}``.
    """

    def __init__(
        self,
        query: ConjunctiveQuery,
        shares: Mapping[str, int],
        hashes: HashFamily,
        salt_prefix: str = "hc",
    ) -> None:
        self.query = query
        self.shares = dict(shares)
        self.hashes = hashes
        self.salt_prefix = salt_prefix

        variables = list(query.variables)
        strides: dict[str, int] = {}
        stride = 1
        for var in reversed(variables):
            strides[var] = stride
            stride *= self.shares[var]

        # Per-atom routing recipe: positions fixing coordinates, and the
        # (stride, share) pairs of the free dimensions to replicate along.
        self._recipes: dict[str, tuple[list[tuple[str, int, int]], list[tuple[int, int]]]] = {}
        for atom in query.atoms:
            fixed = [
                (var, atom.positions_of(var)[0], strides[var])
                for var in variables
                if var in atom.variable_set
            ]
            free = [
                (strides[var], self.shares[var])
                for var in variables
                if var not in atom.variable_set
            ]
            self._recipes[atom.name] = (fixed, free)

        # Batch-path tables: the replication offsets of each atom's free
        # dimensions, enumerated once (the scalar path re-derives them per
        # tuple via itertools.product).
        self._free_offsets: dict[str, tuple[int, ...]] = {}
        for atom in query.atoms:
            _fixed, free = self._recipes[atom.name]
            if free:
                self._free_offsets[atom.name] = tuple(
                    sum(
                        stride * coord
                        for (stride, _), coord in zip(free, coords)
                    )
                    for coords in product(*(range(share) for _, share in free))
                )
            else:
                self._free_offsets[atom.name] = (0,)

    def destinations(self, relation_name: str, tup: Tuple) -> Iterable[int]:
        fixed, free = self._recipes[relation_name]
        base = 0
        for var, position, stride in fixed:
            share = self.shares[var]
            base += stride * self.hashes.bucket(
                f"{self.salt_prefix}:{var}", tup[position], share
            )
        if not free:
            return (base,)
        return (
            base + sum(stride * coord for stride, coord in zip(
                (s for s, _ in free), coords
            ))
            for coords in product(*(range(share) for _, share in free))
        )

    def claims(self, relation_name: str, batch: Batch) -> list[Claim]:
        """One claim over the whole batch, in batch order, keyed by grid
        base (:func:`grid_claim`): at most ``prod_{i in S_j} p_i`` distinct
        bases, each replicated along the offsets enumerated at plan
        construction.

        Each fixed dimension is resolved for the whole batch at once — its
        column hashed by :meth:`HashFamily.bucket_column` and folded into
        the bases as ``stride * bucket``.  A dimension of share 1 adds
        nothing and its column is never read; an atom with no other sits
        at base 0.
        """
        fixed, _free = self._recipes[relation_name]
        bases = np.zeros(len(batch), dtype=np.int64)
        for var, position, stride in fixed:
            if self.shares[var] > 1:
                bases += stride * self.hashes.bucket_column(
                    f"{self.salt_prefix}:{var}",
                    batch.columns[position],
                    self.shares[var],
                )
        return [grid_claim(bases, self._free_offsets[relation_name])]

    def describe(self) -> Mapping[str, object]:
        return {
            "shares": dict(self.shares),
            "grid_size": shares_product(self.shares),
        }


class HyperCubeAlgorithm(OneRoundAlgorithm):
    """HC with an explicit integer share vector."""

    def __init__(
        self,
        query: ConjunctiveQuery,
        shares: Mapping[str, int],
        name: str = "hypercube",
    ) -> None:
        super().__init__(query, name)
        missing = [v for v in query.variables if v not in shares]
        if missing:
            raise ShareError(f"missing shares for variables {missing}")
        bad = [v for v, s in shares.items() if s < 1]
        if bad:
            raise ShareError(f"shares must be >= 1, got {bad}")
        self.shares = {var: int(shares[var]) for var in query.variables}

    @classmethod
    def with_optimal_shares(
        cls,
        query: ConjunctiveQuery,
        stats: SimpleStatistics,
        p: int,
        strategy: RoundingStrategy = "greedy",
    ) -> "HyperCubeAlgorithm":
        """Shares from the exact LP (5), rounded to integers (Theorem 3.4)."""
        bits = stats.bits_vector(query)
        if p < 2 or all(value <= 0 for value in bits.values()):
            # Degenerate: one server, or an empty database — shares of 1
            # everywhere are trivially optimal.
            return cls(
                query, {var: 1 for var in query.variables}, name="hypercube-lp"
            )
        exponents = optimal_share_exponents(query, bits, p)
        shares = integer_shares(
            query, exponents.exponents, p, strategy=strategy, bits=bits
        )
        return cls(query, shares, name="hypercube-lp")

    @classmethod
    def with_equal_shares(cls, query: ConjunctiveQuery, p: int) -> "HyperCubeAlgorithm":
        """The skew-resilient ``p_i = p^{1/k}`` allocation."""
        return cls(query, equal_integer_shares(query, p), name="hypercube-equal")

    def routing_plan(
        self, db: Database, p: int, hashes: HashFamily
    ) -> HyperCubePlan:
        grid = shares_product(self.shares)
        if grid > p:
            raise ShareError(
                f"share product {grid} exceeds the {p} available servers"
            )
        return HyperCubePlan(self.query, self.shares, hashes)

    def predicted_load_bits(self, stats: object, p: int) -> float:
        """Expected busiest-server load for this share vector, in bits.

        Per atom the skew-free expectation is ``M_j / prod_{i in S_j} p_i``
        (each tuple lands on ``prod_{i not in S_j} p_i`` of the
        ``prod_i p_i`` grid cells).  With heavy-hitter statistics the
        per-atom estimate is raised to the hash-forced mass of the worst
        single-variable hitter: all ``m_j(h)`` tuples sharing value ``h``
        at variable ``v`` collide on one coordinate of dimension ``v``, so
        some server receives at least ``m_j(h) / prod_{i in S_j - v} p_i``
        of them (Example 3.3's collapse, quantified).  Per-server loads
        sum over atoms, matching ``ExecutionResult.max_load_bits``.
        """
        simple = self._simple_stats(stats)
        heavy = self._heavy_stats(stats, p)
        heavy_of = None if heavy is None else heavy.heavy_hitters
        total = 0.0
        for atom in self.query.atoms:
            bits = simple.bits(atom.name)
            if bits <= 0:
                continue
            grid = math.prod(self.shares[var] for var in atom.variable_set)
            per_atom = bits / grid
            cardinality = simple.cardinality(atom.name)
            if heavy_of is not None and cardinality:
                tuple_bits = bits / cardinality
                for var in atom.variable_set:
                    hitters = heavy_of(atom.name, (var,))
                    if not hitters:
                        continue
                    forced = (
                        max(hitters.values()) * tuple_bits
                        * self.shares[var] / grid
                    )
                    per_atom = max(per_atom, forced)
            total += per_atom
        return total

    def expected_max_load_bits(self, stats: SimpleStatistics) -> float:
        """``max_j M_j / prod_{i in S_j} p_i`` — the skew-free expectation."""
        bits = stats.bits_vector(self.query)
        worst = 0.0
        for atom in self.query.atoms:
            denominator = math.prod(
                self.shares[var] for var in atom.variable_set
            )
            worst = max(worst, bits[atom.name] / denominator)
        return worst

    def worst_case_load_bits(self, stats: SimpleStatistics) -> float:
        """Corollary 3.2(ii): ``max_j M_j / min_{i in S_j} p_i`` on any data."""
        bits = stats.bits_vector(self.query)
        worst = 0.0
        for atom in self.query.atoms:
            denominator = min(
                (self.shares[var] for var in atom.variable_set), default=1
            )
            worst = max(worst, bits[atom.name] / denominator)
        return worst

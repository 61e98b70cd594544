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

The grid is every one-round skew-free plan here: the hash join spends all
shares on its keys, the broadcast rule (:mod:`.broadcast`) is the reduced
query's grid with the small atoms fixing no dimension, and the cartesian
grid (:mod:`.cartesian`) has one dimension per atom, fixed by the whole
tuple.  :class:`HyperCubePlan` routes them all and
:meth:`HyperCubeAlgorithm.predicted_load_bits` prices them all.
"""

from __future__ import annotations

import math
from itertools import product
from typing import Iterable, Mapping

import numpy as np

from ..mpc.execution import Claim, OneRoundAlgorithm, RoutingPlan
from ..mpc.hashing import HashFamily
from ..query.atoms import ConjunctiveQuery
from ..seq.relation import Batch, Database, Tuple
from ..stats.cardinality import SimpleStatistics
from ..stats.provider import heavy_of, simple_of
from .shares import (
    RoundingStrategy,
    ShareError,
    equal_integer_shares,
    integer_shares,
    max_atom_load,
    optimal_share_exponents,
    shares_product,
)


#: A key: a column position, or ``WHOLE_TUPLE`` for the tuple's hash.
Key = int | None
WHOLE_TUPLE: Key = None


def variable_keys(query: ConjunctiveQuery) -> dict[str, dict[str, Key]]:
    """HyperCube's own keys: every atom fixes the dimension of each of its
    variables, by the variable's first column."""
    return {
        atom.name: {
            var: atom.positions_of(var)[0]
            for var in query.variables
            if var in atom.variable_set
        }
        for atom in query.atoms
    }


class HyperCubePlan(RoutingPlan):
    """Routing over a grid of shares.

    The grid is linearized in mixed radix over the order of ``shares``;
    dimension ``i`` has stride ``prod_{i' > i} p_{i'}``.  ``keys`` maps
    each atom to the ``{dimension: key}`` pairs it fixes (default
    :func:`variable_keys`): a key is a column position, or
    :data:`WHOLE_TUPLE` (Python's tuple hash, the one key that reads
    ``batch.rows``), hashed under the salt ``f"{salt_prefix}:{dimension}"``.
    An atom is replicated along every dimension it does not fix; one that
    fixes none is broadcast to the whole grid.
    """

    def __init__(
        self,
        query: ConjunctiveQuery,
        shares: Mapping[str, int],
        hashes: HashFamily,
        salt_prefix: str = "hc",
        keys: Mapping[str, Mapping[str, Key]] | None = None,
    ) -> None:
        self.query = query
        self.shares = dict(shares)
        self.hashes = hashes
        self.salt_prefix = salt_prefix
        self.keys = variable_keys(query) if keys is None else keys

        dims = list(self.shares)
        strides: dict[str, int] = {}
        stride = 1
        for dim in reversed(dims):
            strides[dim] = stride
            stride *= self.shares[dim]

        # Per atom: the (dimension, key, stride) triples fixing its grid
        # base, and the replication offsets along its free dimensions,
        # enumerated once.
        self._fixed: dict[str, list[tuple[str, Key, int]]] = {}
        self._free_offsets: dict[str, tuple[int, ...]] = {}
        for name, fixed in self.keys.items():
            self._fixed[name] = [
                (dim, fixed[dim], strides[dim]) for dim in dims if dim in fixed
            ]
            free = [
                (strides[dim], self.shares[dim])
                for dim in dims
                if dim not in fixed
            ]
            self._free_offsets[name] = tuple(
                sum(stride * coord for (stride, _), coord in zip(free, coords))
                for coords in product(*(range(share) for _, share in free))
            )

    def destinations(self, relation_name: str, tup: Tuple) -> Iterable[int]:
        base = 0
        for dim, key, stride in self._fixed[relation_name]:
            value = hash(tup) & 0x7FFFFFFF if key is WHOLE_TUPLE else tup[key]
            base += stride * self.hashes.bucket(
                f"{self.salt_prefix}:{dim}", value, self.shares[dim]
            )
        return tuple(base + offset for offset in self._free_offsets[relation_name])

    def claims(self, relation_name: str, batch: Batch) -> list[Claim]:
        """One claim over the whole batch, in batch order, keyed by grid
        base: a tuple at base ``b`` goes to ``b + o`` for every replication
        offset ``o`` enumerated at plan construction (duplicate-free: the
        offsets are distinct points of a mixed-radix grid).  The table has
        a row per distinct base — at most ``prod_{i in S_j} p_i``, so they
        are found by counting, not sorting — however large the batch.

        Each fixed dimension is resolved for the whole batch at once — its
        key column hashed by :meth:`HashFamily.bucket_column` and folded
        into the bases as ``stride * bucket``.  A dimension of share 1 adds
        nothing and its column is never read; an atom with no other sits
        at base 0.
        """
        bases = np.zeros(len(batch), dtype=np.int64)
        for dim, key, stride in self._fixed[relation_name]:
            if self.shares[dim] == 1:
                continue
            if key is WHOLE_TUPLE:
                column = np.fromiter(
                    map(hash, batch.rows), dtype=np.int64, count=len(batch)
                ) & 0x7FFFFFFF
            else:
                column = batch.columns[key]
            bases += stride * self.hashes.bucket_column(
                f"{self.salt_prefix}:{dim}", column, self.shares[dim]
            )
        offsets = self._free_offsets[relation_name]
        table = {
            base: tuple(base + offset for offset in offsets)
            for base in np.flatnonzero(np.bincount(bases)).tolist()
        }
        return [(np.arange(len(bases)), bases, table)]

    def describe(self) -> Mapping[str, object]:
        return {
            "shares": dict(self.shares),
            "grid_size": shares_product(self.shares),
            "broadcast": sorted(
                name for name, fixed in self.keys.items() if not fixed
            ),
        }


class HyperCubeAlgorithm(OneRoundAlgorithm):
    """HC with an explicit integer share vector.

    By default the grid has one dimension per variable, in the query's
    variable order, and every atom fixes its own variables.  ``keys``
    (with ``salt_prefix``) gives any other grid over the dimensions of
    ``shares``, in their order — see :class:`HyperCubePlan`.
    """

    def __init__(
        self,
        query: ConjunctiveQuery,
        shares: Mapping[str, int],
        name: str = "hypercube",
        keys: Mapping[str, Mapping[str, Key]] | None = None,
        salt_prefix: str = "hc",
    ) -> None:
        super().__init__(query, name)
        if keys is None:
            keys = variable_keys(query)
            shares = {v: shares[v] for v in query.variables if v in shares}
        missing = sorted(
            {dim for fixed in keys.values() for dim in fixed} - set(shares)
        )
        if missing:
            raise ShareError(f"missing shares for dimensions {missing}")
        bad = [dim for dim, s in shares.items() if s < 1]
        if bad:
            raise ShareError(f"shares must be >= 1, got {bad}")
        self.shares = {dim: int(share) for dim, share in shares.items()}
        self.keys = {atom.name: dict(keys[atom.name]) for atom in query.atoms}
        self.salt_prefix = salt_prefix

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
        return HyperCubePlan(
            self.query, self.shares, hashes, self.salt_prefix, self.keys
        )

    def predicted_load_bits(self, stats: object, p: int) -> float:
        """Expected busiest-server load for this grid, in bits.

        Per atom the skew-free expectation is ``M_j / prod_{i in S_j} p_i``
        over the dimensions ``S_j`` it fixes (each tuple lands on
        ``prod_{i not in S_j} p_i`` of the ``prod_i p_i`` grid cells); an
        atom that fixes none is broadcast and costs its whole ``M_j``.
        With heavy-hitter statistics the estimate is raised to the
        hash-forced mass of the worst single-variable hitter of a
        dimension keyed by a variable: all ``m_j(h)`` tuples sharing value
        ``h`` at variable ``v`` collide on one coordinate of dimension
        ``v``, so some server receives at least
        ``m_j(h) / prod_{i in S_j - v} p_i`` of them (Example 3.3's
        collapse, quantified).  Per-server loads sum over atoms, matching
        ``ExecutionResult.max_load_bits``.
        """
        simple = simple_of(stats)
        heavy = heavy_of(stats, p)
        hitters_of = None if heavy is None else heavy.heavy_hitters
        broadcast = sum(
            simple.bits(name) for name, fixed in self.keys.items() if not fixed
        )
        total = 0.0
        for atom in self.query.atoms:
            fixed = self.keys[atom.name]
            bits = simple.bits(atom.name)
            if not fixed or bits <= 0:
                continue
            grid = math.prod(self.shares[dim] for dim in fixed)
            per_atom = bits / grid
            cardinality = simple.cardinality(atom.name)
            if hitters_of is not None and cardinality:
                tuple_bits = bits / cardinality
                for dim, key in fixed.items():
                    if key is WHOLE_TUPLE:
                        continue
                    hitters = hitters_of(atom.name, (atom.variables[key],))
                    if not hitters:
                        continue
                    forced = (
                        max(hitters.values()) * tuple_bits
                        * self.shares[dim] / grid
                    )
                    per_atom = max(per_atom, forced)
            total += per_atom
        return broadcast + total

    def expected_max_load_bits(self, stats: SimpleStatistics) -> float:
        """``max_j M_j / prod_{i in S_j} p_i`` — the skew-free expectation."""
        return max_atom_load(
            self.keys, self.shares, stats.bits_vector(self.query)
        )

    def worst_case_load_bits(self, stats: SimpleStatistics) -> float:
        """Corollary 3.2(ii): ``max_j M_j / min_{i in S_j} p_i`` on any data."""
        bits = stats.bits_vector(self.query)
        worst = 0.0
        for atom in self.query.atoms:
            denominator = min(
                (self.shares[dim] for dim in self.keys[atom.name]), default=1
            )
            worst = max(worst, bits[atom.name] / denominator)
        return worst

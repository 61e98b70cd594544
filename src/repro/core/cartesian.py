"""The grid algorithm for cartesian products (Section 1).

For ``q = S_1 x ... x S_u`` (no shared variables) the servers form a
``p_1 x ... x p_u`` grid with ``prod_j p_j <= p``; each ``S_j``-tuple is
hashed to one coordinate of dimension ``j`` and replicated across the rest.
The optimal dimensions are ``p_j ~ m_j (p / prod_i m_i)^{1/u}``, giving load
``Theta(u (m_1 ... m_u / p)^{1/u})`` — e.g. ``2 sqrt(m_1 m_2 / p)`` for two
relations, which footnote 2 proves optimal.  When some ``m_j`` is tiny
(``m_j < max_i m_i / p``) the rounding naturally degrades to broadcasting it
(``p_j = 1``), mirroring footnote 1.
"""

from __future__ import annotations

import math
from itertools import product
from typing import Iterable, Mapping

import numpy as np

from ..mpc.execution import Claim, OneRoundAlgorithm, RoutingPlan
from ..mpc.hashing import HashFamily
from ..query.atoms import ConjunctiveQuery, QueryError
from ..seq.relation import Batch, Database, Tuple
from ..stats.cardinality import SimpleStatistics
from .hypercube import grid_claim


def optimal_grid(cardinalities: Mapping[str, int], p: int) -> dict[str, int]:
    """Integer grid dimensions ``p_j`` with ``prod_j p_j <= p``.

    Greedy: starting from the all-ones grid, repeatedly grow the dimension
    whose per-server slice ``m_j / p_j`` is currently largest, while the
    product still fits.  This tracks the real optimum
    ``p_j ~ m_j (p / prod m_i)^{1/u}`` and degrades to ``p_j = 1``
    (broadcast) for relations with ``m_j < max_i m_i / p``, as footnote 1
    prescribes.
    """
    names = list(cardinalities)
    if not names:
        raise QueryError("cartesian grid needs at least one relation")
    dims = {name: 1 for name in names}
    while True:
        prod_dims = math.prod(dims.values())
        candidates = sorted(
            names, key=lambda n: cardinalities[n] / dims[n], reverse=True
        )
        for name in candidates:
            if prod_dims // dims[name] * (dims[name] + 1) <= p:
                dims[name] += 1
                break
        else:
            return dims


class CartesianGridPlan(RoutingPlan):
    """One grid dimension per atom; tuples hash on their full content."""

    def __init__(
        self,
        query: ConjunctiveQuery,
        dims: Mapping[str, int],
        hashes: HashFamily,
    ) -> None:
        self.query = query
        self.dims = dict(dims)
        self.hashes = hashes
        names = [atom.name for atom in query.atoms]
        strides: dict[str, int] = {}
        stride = 1
        for name in reversed(names):
            strides[name] = stride
            stride *= self.dims[name]
        self._strides = strides
        self._names = names
        # Batch-path tables: the replication offsets across the *other*
        # relations' dimensions, enumerated once per relation.
        self._free_offsets: dict[str, tuple[int, ...]] = {}
        for name in names:
            free = [
                (strides[other], self.dims[other])
                for other in names
                if other != name
            ]
            if free:
                self._free_offsets[name] = tuple(
                    sum(stride * coord for (stride, _), coord in zip(free, coords))
                    for coords in product(*(range(size) for _, size in free))
                )
            else:
                self._free_offsets[name] = (0,)

    def destinations(self, relation_name: str, tup: Tuple) -> Iterable[int]:
        # Hash the whole tuple into this atom's dimension.
        mixed = hash(tup) & 0x7FFFFFFF
        base = self._strides[relation_name] * self.hashes.bucket(
            f"grid:{relation_name}", mixed, self.dims[relation_name]
        )
        free = [
            (self._strides[name], self.dims[name])
            for name in self._names
            if name != relation_name
        ]
        if not free:
            return (base,)
        return (
            base + sum(stride * coord for (stride, _), coord in zip(free, coords))
            for coords in product(*(range(size) for _, size in free))
        )

    def claims(self, relation_name: str, batch: Batch) -> list[Claim]:
        """One claim over the whole batch, keyed by grid base: the whole
        tuple's Python hash (the one plan that reads ``batch.rows``)
        bucketed into this atom's dimension, the precomputed offsets for
        each distinct base."""
        mixed = np.fromiter(
            map(hash, batch.rows), dtype=np.int64, count=len(batch)
        ) & 0x7FFFFFFF
        bases = self._strides[relation_name] * self.hashes.bucket_column(
            f"grid:{relation_name}", mixed, self.dims[relation_name]
        )
        return [grid_claim(bases, self._free_offsets[relation_name])]

    def describe(self) -> Mapping[str, object]:
        return {"grid": dict(self.dims)}


class CartesianProductAlgorithm(OneRoundAlgorithm):
    """The optimal one-round algorithm for cartesian products."""

    def __init__(self, query: ConjunctiveQuery) -> None:
        super().__init__(query, name="cartesian-grid")
        reason = self.applicability(query)
        if reason is not None:
            raise QueryError(f"{query.name!r} is {reason}")

    @classmethod
    def applicability(cls, query: ConjunctiveQuery) -> str | None:
        seen: dict[str, str] = {}
        for atom in query.atoms:
            for var in atom.variable_set:
                if var in seen:
                    return (
                        f"not a cartesian product: variable {var!r} is "
                        f"shared by {seen[var]} and {atom.name}"
                    )
                seen[var] = atom.name
        return None

    def predicted_load_bits(self, stats: object, p: int) -> float:
        """``sum_j M_j / p_j`` for the optimal integer grid: each
        ``S_j``-tuple reaches a ``1/p_j`` fraction of the grid."""
        simple = self._simple_stats(stats)
        cardinalities = {
            atom.name: max(1, simple.cardinality(atom.name))
            for atom in self.query.atoms
        }
        dims = optimal_grid(cardinalities, p)
        return sum(
            simple.bits(atom.name) / dims[atom.name]
            for atom in self.query.atoms
        )

    def routing_plan(self, db: Database, p: int, hashes: HashFamily) -> RoutingPlan:
        stats = SimpleStatistics.of(db)
        cardinalities = {
            atom.name: max(1, stats.cardinality(atom.name))
            for atom in self.query.atoms
        }
        dims = optimal_grid(cardinalities, p)
        return CartesianGridPlan(self.query, dims, hashes)


def cartesian_lower_bound_bits(
    bits: Mapping[str, float], p: int
) -> float:
    """``(M_1 ... M_u / p)^{1/u}`` — the introduction's lower bound."""
    u = len(bits)
    if u == 0:
        raise QueryError("need at least one relation")
    log_product = sum(math.log2(max(v, 1e-300)) for v in bits.values())
    return 2.0 ** ((log_product - math.log2(p)) / u)

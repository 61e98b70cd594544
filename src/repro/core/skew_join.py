"""The skew-aware join algorithm of Section 4.1.

For ``q(x, y, z) = S1(x, z), S2(y, z)`` (generalized here to any two-atom
query with a nonempty set of shared variables ``J``), the algorithm knows
the heavy hitters of each relation on ``J`` and routes, in a single round:

1. *light* tuples (``J``-value heavy in neither relation) through a plain
   hash join on ``J`` over all ``p`` servers;
2. each ``h in H12`` (heavy in both) through a ``p_1(h) x p_2(h)`` cartesian
   grid with ``p_h ~ p * m_1(h) m_2(h) / sum K12``, the grid split as
   ``p_1 = ceil(sqrt(p_h m_1(h)/m_2(h)))`` (Section 4.1);
3. each ``h in H1`` (heavy only in ``S1``) by hash-partitioning
   ``S1(.., h)`` on its private variables over ``p_h ~ p m_1(h)/sum K1``
   servers while broadcasting the (light) ``S2(.., h)`` tuples to them;
4. symmetrically for ``H2``.

The per-step blocks are carved out of the same ``p`` physical servers
(`repro.mpc.allocation`), which matches the paper's observation that the
total allocation stays ``Theta(p)``.  The achieved load is
``O(L log p)`` for ``L = max(m1/p, m2/p, L1, L2, L12)`` — formula (10) —
exposed by :func:`skew_join_load_bound`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from ..mpc.allocation import ServerAllocator
from ..mpc.execution import Claim, OneRoundAlgorithm, RoutingPlan
from ..mpc.hashing import HashFamily
from ..query.atoms import Atom, ConjunctiveQuery, QueryError
from ..seq.relation import Batch, Database, Tuple
from ..stats.provider import StatisticsProvider
from ..stats.heavy_hitters import HeavyHitterStatistics, canonical_subset


def _split_variables(query: ConjunctiveQuery) -> tuple[Atom, Atom, tuple[str, ...]]:
    if query.num_atoms != 2:
        raise QueryError(
            f"the skew-aware join handles exactly two atoms, got {query.num_atoms}"
        )
    first, second = query.atoms
    shared = canonical_subset(first.variable_set & second.variable_set)
    if not shared:
        raise QueryError(
            f"{query.name!r} is a cartesian product; use CartesianProductAlgorithm"
        )
    return first, second, shared


def _mix(values: Iterable[int]) -> int:
    """Fold several attribute values into one hashable integer."""
    mixed = 0
    for value in values:
        mixed = (mixed * 1_000_003 + value + 1) & 0x7FFFFFFFFFFF
    return mixed


def _mix_columns(batch: Batch, positions: Sequence[int]) -> np.ndarray:
    """:func:`_mix` of every tuple's values at ``positions``.  The fold
    runs in uint64, where the product wraps; the 47-bit mask keeps only
    bits the wrap leaves exact."""
    mixed = np.zeros(len(batch), dtype=np.uint64)
    for position in positions:
        mixed *= np.uint64(1_000_003)
        mixed += batch.columns[position].astype(np.uint64) + np.uint64(1)
        mixed &= np.uint64(0x7FFFFFFFFFFF)
    return mixed.astype(np.int64)


@dataclass(frozen=True)
class _GridBlock:
    """Servers of one doubly-heavy hitter, laid out as a p1 x p2 grid."""

    servers: tuple[int, ...]
    p1: int
    p2: int


@dataclass(frozen=True)
class _PartitionBlock:
    """Servers of a singly-heavy hitter: partition one side, broadcast the
    other."""

    servers: tuple[int, ...]
    partitioned_atom: str


class SkewAwareJoinPlan(RoutingPlan):
    def __init__(
        self,
        query: ConjunctiveQuery,
        stats: StatisticsProvider,
        p: int,
        hashes: HashFamily,
    ) -> None:
        self.query = query
        self.p = p
        self.hashes = hashes
        self.first, self.second, self.join_vars = _split_variables(query)

        h1_map = dict(stats.heavy_hitters(self.first.name, self.join_vars))
        h2_map = dict(stats.heavy_hitters(self.second.name, self.join_vars))
        both = sorted(set(h1_map) & set(h2_map))
        only1 = sorted(set(h1_map) - set(h2_map))
        only2 = sorted(set(h2_map) - set(h1_map))

        allocator = ServerAllocator(p)
        self.grid_blocks: dict[Tuple, _GridBlock] = {}
        if both:
            total = sum(h1_map[h] * h2_map[h] for h in both)
            for h in both:
                weight = h1_map[h] * h2_map[h]
                p_h = max(1, math.ceil(p * weight / total))
                p1 = max(1, math.ceil(math.sqrt(p_h * h1_map[h] / h2_map[h])))
                p2 = max(1, math.ceil(math.sqrt(p_h * h2_map[h] / h1_map[h])))
                servers = allocator.allocate(min(p, p1 * p2))
                # The allocation may clamp; shrink the grid to what we got.
                if p1 * p2 > len(servers):
                    p1 = max(1, min(p1, len(servers)))
                    p2 = max(1, len(servers) // p1)
                    servers = servers[: p1 * p2]
                self.grid_blocks[h] = _GridBlock(servers=servers, p1=p1, p2=p2)

        self.partition_blocks: dict[Tuple, _PartitionBlock] = {}
        for heavy, atom in ((only1, self.first), (only2, self.second)):
            if not heavy:
                continue
            freq = h1_map if atom is self.first else h2_map
            total = sum(freq[h] for h in heavy)
            for h in heavy:
                p_h = max(1, math.ceil(p * freq[h] / total))
                servers = allocator.allocate(p_h)
                self.partition_blocks[h] = _PartitionBlock(
                    servers=servers, partitioned_atom=atom.name
                )

        self.allocator = allocator
        self._join_positions = {
            atom.name: tuple(atom.positions_of(v)[0] for v in self.join_vars)
            for atom in query.atoms
        }
        self._private_positions = {
            atom.name: tuple(
                i
                for i, var in enumerate(atom.variables)
                if var not in set(self.join_vars)
            )
            for atom in query.atoms
        }

        # Batch path: the heavy join values in one order, and per relation
        # the routing keys — a light tuple's is its hash-join server, the
        # bucket ``b`` of heavy value number ``c`` has ``offsets[c] + b``
        # (from ``p`` up, ``sizes[c]`` buckets each) — with their table.
        self._heavy = sorted(
            self.grid_blocks.keys() | self.partition_blocks.keys()
        )
        self._keys: dict[str, tuple[np.ndarray, np.ndarray, dict]] = {}
        for atom in query.atoms:
            fans = [self._fan_out(atom.name, h) for h in self._heavy]
            sizes = np.array([len(fan) for fan in fans], dtype=np.int64)
            offsets = p + np.cumsum(sizes) - sizes
            table = {server: (server,) for server in range(p)}
            for offset, fan in zip(offsets.tolist(), fans):
                table.update(enumerate(fan, offset))
            self._keys[atom.name] = offsets, sizes, table

    def _join_value(self, relation_name: str, tup: Tuple) -> Tuple:
        return tuple(tup[i] for i in self._join_positions[relation_name])

    def _private_hash(self, relation_name: str, tup: Tuple, buckets: int) -> int:
        if buckets == 1:
            return 0
        mixed = _mix(tup[i] for i in self._private_positions[relation_name])
        return self.hashes.bucket(f"skewjoin:{relation_name}", mixed, buckets)

    def destinations(self, relation_name: str, tup: Tuple) -> Iterable[int]:
        h = self._join_value(relation_name, tup)
        grid = self.grid_blocks.get(h)
        if grid is not None:
            row = self._private_hash(relation_name, tup, grid.p1)
            col = self._private_hash(relation_name, tup, grid.p2)
            if relation_name == self.first.name:
                # Fix the row, replicate across columns.
                return tuple(
                    grid.servers[row * grid.p2 + c] for c in range(grid.p2)
                )
            return tuple(grid.servers[r * grid.p2 + col] for r in range(grid.p1))
        block = self.partition_blocks.get(h)
        if block is not None:
            if relation_name == block.partitioned_atom:
                index = self._private_hash(relation_name, tup, len(block.servers))
                return (block.servers[index],)
            return block.servers
        # Light hitter: plain hash join on the shared variables.
        return (self.hashes.bucket("skewjoin:light", _mix(h), self.p),)

    # ------------------------------------------------------------------
    # batch contract
    # ------------------------------------------------------------------
    def _fan_out(
        self, relation_name: str, h: Tuple
    ) -> tuple[tuple[int, ...], ...]:
        """The block of heavy join value ``h`` as seen by one relation: one
        server tuple per private-hash bucket.

        A grid fixes the relation's own coordinate and replicates along the
        other; a partition block is one server per bucket for the
        partitioned side and a single all-servers bucket for the broadcast
        side.
        """
        grid = self.grid_blocks.get(h)
        if grid is not None:
            servers, p1, p2 = grid.servers, grid.p1, grid.p2
            if relation_name == self.first.name:
                return tuple(
                    servers[row * p2:(row + 1) * p2] for row in range(p1)
                )
            return tuple(servers[col:p1 * p2:p2] for col in range(p2))
        block = self.partition_blocks[h]
        if relation_name == block.partitioned_atom:
            return tuple((server,) for server in block.servers)
        return (block.servers,)

    def claims(self, relation_name: str, batch: Batch) -> list[Claim]:
        """One claim over the whole batch: a light tuple is keyed by its
        hash-join server, a heavy one by its block's bucket.

        Heavy hitters are few, so almost every tuple takes the light path,
        whose destination depends only on the tuple's join value: one hash
        per distinct value.  Tuples of a heavy value hash their private
        variables into that block's buckets (:meth:`_fan_out`) — only the
        one coordinate their side uses, where the scalar path computes both
        row and column.
        """
        offsets, sizes, table = self._keys[relation_name]
        join_positions = self._join_positions[relation_name]
        which = batch.codes(join_positions, self._heavy)
        heavy, light = which >= 0, which < 0
        which = which[heavy]
        keys = np.empty(len(batch), dtype=np.int64)
        keys[light] = self.hashes.bucket_column(
            "skewjoin:light", _mix_columns(batch, join_positions)[light], self.p
        )
        private = _mix_columns(batch, self._private_positions[relation_name])
        keys[heavy] = offsets[which] + self.hashes.bucket_column(
            f"skewjoin:{relation_name}", private[heavy], sizes[which]
        )
        return [(np.arange(len(batch)), keys, table)]

    def describe(self) -> Mapping[str, object]:
        return {
            "join_vars": self.join_vars,
            "h12": len(self.grid_blocks),
            "h1_h2": len(self.partition_blocks),
            "overcommit": self.allocator.overcommit,
        }

    def explain(self) -> str:
        """A human-readable plan summary (one line per heavy hitter)."""
        lines = [
            f"skew-aware join on {', '.join(self.join_vars)} over p={self.p}",
            f"  light hitters: hash join across all {self.p} servers",
        ]
        for h, grid in sorted(self.grid_blocks.items()):
            lines.append(
                f"  H12 {h}: {grid.p1}x{grid.p2} cartesian grid "
                f"on {len(grid.servers)} servers"
            )
        for h, block in sorted(self.partition_blocks.items()):
            lines.append(
                f"  H1/H2 {h}: partition {block.partitioned_atom} over "
                f"{len(block.servers)} servers, broadcast the other side"
            )
        lines.append(
            f"  total allocation: {self.allocator.total_allocated} servers "
            f"({self.allocator.overcommit:.2f}x the pool)"
        )
        return "\n".join(lines)


class SkewAwareJoin(OneRoundAlgorithm):
    """The Section 4.1 algorithm.  Statistics are extracted from the data
    (modeling the statistics pass) unless supplied explicitly."""

    def __init__(
        self,
        query: ConjunctiveQuery,
        stats: StatisticsProvider | None = None,
    ) -> None:
        super().__init__(query, name="skew-join")
        _split_variables(query)  # validate shape early
        self._stats = stats

    @classmethod
    def applicability(cls, query: ConjunctiveQuery) -> str | None:
        try:
            _split_variables(query)
        except QueryError as exc:
            return str(exc)
        return None

    def predicted_load_bits(self, stats: object, p: int) -> float:
        """Formula (10) as a per-server expectation.

        The light path is a hash join over all ``p`` servers, receiving the
        light mass of both relations: ``(M_1 + M_2) / p`` on skew-free data.
        With heavy-hitter statistics the dedicated blocks add the paper's
        ``L_1``, ``L_2`` and ``L_12`` terms (the blocks live on disjoint
        servers, but a prediction must cover whichever block is busiest,
        so the terms are summed for a safe-side estimate).
        """
        simple = self._simple_stats(stats)
        first, second, _ = _split_variables(self.query)
        light = (simple.bits(first.name) + simple.bits(second.name)) / p
        hh = self._heavy_stats(stats, p) or self._heavy_stats(self._stats, p)
        if hh is None:
            return light
        components = skew_join_load_bound(hh, self.query, in_bits=True)
        return light + components["L1"] + components["L2"] + components["L12"]

    def routing_plan(
        self, db: Database, p: int, hashes: HashFamily
    ) -> SkewAwareJoinPlan:
        stats = self._stats
        if stats is None or stats.p != p:
            stats = HeavyHitterStatistics.of(self.query, db, p)
        return SkewAwareJoinPlan(self.query, stats, p, hashes)


def skew_join_load_bound(
    stats: StatisticsProvider,
    query: ConjunctiveQuery,
    in_bits: bool = True,
) -> dict[str, float]:
    """Formula (10): ``L = max(m1/p, m2/p, L1, L2, L12)``.

    Returns every component so experiments can show which regime dominates.
    ``L1``/``L2`` (``sqrt(sum_{h in Hj} m_j(h) / p)``) are dominated by
    ``m_j/p`` whenever ``m_j >= p``; they matter only for tiny relations.
    When ``in_bits``, tuple counts are scaled by each relation's tuple size.
    """
    first, second, join_vars = _split_variables(query)
    p = stats.p
    m1 = stats.simple.cardinality(first.name)
    m2 = stats.simple.cardinality(second.name)

    h1_map = dict(stats.heavy_hitters(first.name, join_vars))
    h2_map = dict(stats.heavy_hitters(second.name, join_vars))
    both = set(h1_map) & set(h2_map)
    only1 = set(h1_map) - both
    only2 = set(h2_map) - both

    l12 = math.sqrt(sum(h1_map[h] * h2_map[h] for h in both) / p) if both else 0.0
    l1 = math.sqrt(sum(h1_map[h] for h in only1) / p) if only1 else 0.0
    l2 = math.sqrt(sum(h2_map[h] for h in only2) / p) if only2 else 0.0

    def scale(atom_name: str) -> float:
        if not in_bits:
            return 1.0
        from ..seq.relation import bits_per_value

        arity = stats.simple.arity(atom_name)
        return arity * bits_per_value(stats.simple.domain_size)

    s1, s2 = scale(first.name), scale(second.name)
    cross = math.sqrt(s1 * s2)
    components = {
        "m1_over_p": m1 / p * s1,
        "m2_over_p": m2 / p * s2,
        "L1": l1 * s1,
        "L2": l2 * s2,
        "L12": l12 * cross,
    }
    components["bound"] = max(components.values())
    return components

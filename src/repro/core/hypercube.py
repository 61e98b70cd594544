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
grid (:mod:`.cartesian`) has one dimension per atom, fixed by all its
columns; a :data:`Key` is the column positions whose values :func:`_mix`
folds into the one value hashed.

Every one-round algorithm is a :class:`BlockAlgorithm`, stated once from
statistics alone as a :class:`Layout`: :class:`Family` s of :class:`Block`
s — share vectors placed from a first server on — each family filtering
which blocks a tuple reaches by its heavy values.  A HyperCube grid is one
unfiltered family with one block at server 0; the skew-aware join
(:mod:`.skew_join`) is one family with a block per heavy hitter, the bin
algorithm (:mod:`.skew_general`) a family per bin combination with a block
per assignment.  :class:`HyperCubePlan` routes every layout, and
:func:`layout_load_bits` prices every layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product
from typing import Iterable, Mapping, Sequence

import numpy as np

from ..mpc.execution import Claim, OneRoundAlgorithm, RoutingPlan
from ..mpc.hashing import HashFamily
from ..query.atoms import Atom, ConjunctiveQuery
from ..seq.relation import Batch, Database, Tuple
from ..stats.cardinality import SimpleStatistics
from ..stats.heavy_hitters import HeavyHitterStatistics
from ..stats.provider import (
    Statistics, StatisticsProvider, heavy_of, simple_of,
)
from .shares import (
    RoundingStrategy,
    ShareError,
    equal_integer_shares,
    integer_shares,
    max_atom_load,
    optimal_share_exponents,
    shares_product,
)


#: A key: the column positions whose values :func:`_mix` folds into the
#: one value a dimension hashes — a single position is its column.
Key = tuple[int, ...]


def variable_keys(query: ConjunctiveQuery) -> dict[str, dict[str, Key]]:
    """HyperCube's own keys: every atom fixes the dimension of each of its
    variables, by the variable's first column."""
    return {
        atom.name: {
            var: (atom.positions_of(var)[0],)
            for var in query.variables
            if var in atom.variable_set
        }
        for atom in query.atoms
    }


def _mix(values: Iterable[int]) -> int:
    """Fold attribute values into one integer: the first as it is, each
    later one into the 47 bits of ``mixed * 1_000_003 + value + 1``, and 0
    for none."""
    values = iter(values)
    mixed = next(values, 0)
    for value in values:
        mixed = (mixed * 1_000_003 + value + 1) & 0x7FFFFFFFFFFF
    return mixed


def _mix_columns(batch: Batch, key: Key) -> np.ndarray:
    """:func:`_mix` of every tuple's values at ``key``.  One position is
    the batch's own column, so its raw hashes may come from
    :class:`~repro.mpc.hashing.ColumnHashes`.  The fold runs in uint64,
    where the product wraps; the 47-bit mask keeps only bits the wrap
    leaves exact."""
    if not key:
        return np.zeros(len(batch), dtype=np.int64)
    if len(key) == 1:
        return batch.columns[key[0]]
    mixed = batch.columns[key[0]].astype(np.uint64)
    for position in key[1:]:
        mixed *= np.uint64(1_000_003)
        mixed += batch.columns[position].astype(np.uint64) + np.uint64(1)
        mixed &= np.uint64(0x7FFFFFFFFFFF)
    return mixed.view(np.int64)


@dataclass(frozen=True)
class Block:
    """One grid placed on the servers: cell ``d`` of the grid over
    ``shares`` (mixed radix, the last dimension fastest) is server
    ``start + d``, so the block is the server range ``[start, start +
    prod(shares))``, inside ``[0, p)`` (:func:`check_layout`)."""

    label: str
    shares: tuple[int, ...]
    start: int = 0


@dataclass(frozen=True)
class Filter:
    """The blocks of a family that an atom's tuple reaches.

    A tuple whose values at some ``excluded`` positions are among that
    row's values reaches none.  Otherwise its values at ``positions`` pick
    the blocks ``accepted`` maps them to (at least one), and any other
    tuple reaches the ``default`` blocks.  The blocks one value reaches
    share a share vector.
    """

    positions: tuple[int, ...] = ()
    accepted: Mapping[Tuple, tuple[int, ...]] = field(default_factory=dict)
    default: tuple[int, ...] = ()
    excluded: tuple[tuple[tuple[int, ...], frozenset[Tuple]], ...] = ()


@dataclass
class Family:
    """Blocks over one set of dimensions and keys.

    Dimension ``i`` is hashed under the salt ``f"{salt_prefix}:{dims[i]}"``;
    two dimensions may share a name, and so a salt, and are told apart by
    position.  ``keys`` maps every atom to the ``{dimension index: key}``
    pairs it fixes; an atom is replicated along every dimension it does not
    fix.  An atom without a filter reaches every block.
    """

    dims: tuple[str, ...]
    keys: Mapping[str, Mapping[int, Key]]
    blocks: tuple[Block, ...]
    salt_prefix: str = "hc"
    filters: Mapping[str, Filter] = field(default_factory=dict)

    def __post_init__(self) -> None:
        every = Filter(default=tuple(range(len(self.blocks))))
        self.filters = {
            name: self.filters.get(name, every) for name in self.keys
        }

    def reach(self, relation_name: str, tup: Tuple) -> tuple[int, ...]:
        """The blocks ``tup`` reaches, in block order."""
        rule = self.filters[relation_name]
        for positions, values in rule.excluded:
            if tuple(tup[i] for i in positions) in values:
                return ()
        return rule.accepted.get(
            tuple(tup[i] for i in rule.positions), rule.default
        )


@dataclass(frozen=True)
class Layout:
    """A one-round plan as statistics alone state it: its families of
    placed blocks, the ``summary`` :meth:`HyperCubePlan.describe` reports
    beside them, and the ``title`` and ``notes`` of its explanation."""

    families: tuple[Family, ...]
    summary: Mapping[str, object] = field(default_factory=dict)
    title: str = ""
    notes: tuple[str, ...] = ()


def check_layout(layout: Layout, p: int) -> None:
    """Every block of ``layout`` lies inside ``[0, p)``: a
    :class:`ValueError` names the first that does not."""
    for family in layout.families:
        for block in family.blocks:
            if not 0 <= block.start <= p - math.prod(block.shares):
                raise ValueError(
                    f"block {block.label!r} at server {block.start} with "
                    f"{math.prod(block.shares)} cells leaves the {p} servers"
                )


class HyperCubePlan(RoutingPlan):
    """Routing over a :class:`Layout` — every one-round plan.

    In every family a tuple reaches the blocks its filter gives it; in a
    block, the cells whose coordinate on each dimension it fixes is the
    hash of its key there (``% share``), along every other dimension.  A
    tuple several blocks or families reach goes to the union of their
    servers.
    """

    def __init__(self, layout: Layout, hashes: HashFamily, p: int) -> None:
        check_layout(layout, p)
        self.layout = layout
        self.families = layout.families
        self.hashes = hashes
        self._spreads: dict[tuple, tuple] = {}
        self._groups: dict[tuple, tuple] = {}

    def _spread(
        self, number: int, relation_name: str, shares: tuple[int, ...]
    ) -> tuple[tuple[tuple[str, Key, int, int], ...], tuple[int, ...]]:
        """An atom of family ``number`` on ``shares``, derived once: the
        ``(salt, key, stride, share)`` of each dimension it fixes with a
        share above 1, and its offsets along the ones it does not fix."""
        grid = self._spreads.get((number, relation_name, shares))
        if grid is None:
            family = self.families[number]
            fixed = family.keys[relation_name]
            strides = [math.prod(shares[i + 1:]) for i in range(len(shares))]
            free = [(strides[i], share) for i, share in enumerate(shares)
                    if i not in fixed]
            grid = self._spreads[number, relation_name, shares] = (
                tuple((f"{family.salt_prefix}:{family.dims[i]}", fixed[i],
                       strides[i], shares[i])
                      for i in sorted(fixed) if shares[i] > 1),
                tuple(sum(stride * coord
                          for (stride, _), coord in zip(free, coords))
                      for coords in product(*(range(s) for _, s in free))),
            )
        return grid

    @staticmethod
    def _place(
        cells: Sequence[int], base: int, several: bool
    ) -> tuple[int, ...]:
        """The servers of grid base ``base`` over ``cells`` (each reached
        block's first server plus the offsets), each once: only
        ``several`` blocks can repeat one."""
        servers = [cell + base for cell in cells]
        return tuple(dict.fromkeys(servers) if several else servers)

    def destinations(self, relation_name: str, tup: Tuple) -> Iterable[int]:
        servers: dict[int, None] = {}
        for number, family in enumerate(self.families):
            blocks = family.reach(relation_name, tup)
            if blocks:
                fixed, offsets = self._spread(
                    number, relation_name, family.blocks[blocks[0]].shares
                )
                base = sum(
                    stride * self.hashes.bucket(
                        salt, _mix(tup[i] for i in key), share
                    )
                    for salt, key, stride, share in fixed
                )
                cells = [family.blocks[block].start + offset
                         for block in blocks for offset in offsets]
                servers.update(dict.fromkeys(
                    self._place(cells, base, len(blocks) > 1)
                ))
        return tuple(servers)

    def claims(self, relation_name: str, batch: Batch) -> list[Claim]:
        """One claim per family that reaches a tuple of the batch."""
        claims = (
            self._claim(number, relation_name, batch)
            for number in range(len(self.families))
        )
        return [claim for claim in claims if claim is not None]

    def _claim(
        self, number: int, relation_name: str, batch: Batch
    ) -> Claim | None:
        """Column-at-a-time :meth:`destinations` of one family.

        A tuple's *group* (:meth:`Batch.codes` over the filter) is its
        accepted value's or the default's, and its routing key the
        group's first key plus its grid base.  Each fixed dimension is one
        :meth:`HashFamily.bucket_column` call over its key's
        :func:`_mix_columns`, every tuple under its group's share (1, so
        bucket 0, in a group that does not spread it) — one share for all
        where the groups agree, as in a HyperCube grid.  No row is read.
        A key's servers are placed once, not per tuple.
        """
        rule = self.families[number].filters[relation_name]
        kept, rows = None, batch  # kept: the rows' places, if not all
        for positions, values in rule.excluded:
            keep = rows.codes(positions, list(values)) < 0
            if not keep.all():
                kept = np.flatnonzero(keep) if kept is None else kept[keep]
                rows = rows.take(keep)
        firsts, dims, placements = self._grid(number, relation_name)
        which = None  # every tuple is in group 0
        if rule.positions:
            which = rows.codes(rule.positions, list(rule.accepted))
            if rule.default:
                which[which < 0] = len(rule.accepted)
            else:
                keep = which >= 0
                if not keep.all():
                    kept = np.flatnonzero(keep) if kept is None else kept[keep]
                    rows, which = rows.take(keep), which[keep]
        if not placements or not len(rows):
            return None

        keys = (np.zeros(len(rows), dtype=np.int64) if which is None
                else firsts[which])
        for salt, key, share, stride in dims:
            if isinstance(share, np.ndarray):  # per group
                share, stride = share[which], stride[which]
            keys += stride * self.hashes.bucket_column(
                salt, _mix_columns(rows, key), share
            )

        used = np.flatnonzero(np.bincount(keys))
        group_of = np.searchsorted(firsts, used, side="right") - 1
        table = {}
        for key, group, base in zip(used.tolist(), group_of.tolist(),
                                    (used - firsts[group_of]).tolist()):
            cells, several = placements[group]
            table[key] = self._place(cells, base, several)
        return (np.arange(len(batch)) if kept is None else kept), keys, table

    def _grid(
        self, number: int, relation_name: str
    ) -> tuple[np.ndarray, list[tuple], list[tuple]]:
        """The batch path of an atom in family ``number``, derived once.

        Its groups are the blocks of each accepted value, then the
        default's (of ``()`` alone when the filter reads no position).
        Returned: each group's first routing key; per dimension some group
        spreads, its salt, key, and the groups' shares and strides (one
        ``int`` each where the groups agree); per group its cells and
        whether it has several blocks (:meth:`_place`).
        """
        grid = self._groups.get((number, relation_name))
        if grid is None:
            family = self.families[number]
            rule = family.filters[relation_name]
            if rule.positions:
                groups = [*rule.accepted.values(), rule.default]
            else:  # every tuple projects to ()
                groups = [rule.accepted.get((), rule.default)]
            if not groups[-1]:
                groups.pop()
            shares = [family.blocks[blocks[0]].shares for blocks in groups]
            dims = []
            for dim, key in sorted(family.keys[relation_name].items()):
                share = [s[dim] for s in shares]
                if max(share) == 1:
                    continue
                stride = [math.prod(s[dim + 1:]) for s in shares]
                if len(set(zip(share, stride))) == 1:
                    share, stride = share[0], stride[0]
                else:
                    share, stride = np.array(share), np.array(stride)
                dims.append((f"{family.salt_prefix}:{family.dims[dim]}",
                             key, share, stride))
            placements = []
            for blocks, share_vector in zip(groups, shares):
                _, offsets = self._spread(number, relation_name, share_vector)
                placements.append((
                    tuple(family.blocks[block].start + offset
                          for block in blocks for offset in offsets),
                    len(blocks) > 1,
                ))
            sizes = [math.prod(share_vector) for share_vector in shares]
            grid = self._groups[number, relation_name] = (
                np.cumsum([0, *sizes[:-1]], dtype=np.int64), dims, placements
            )
        return grid

    def describe(self) -> Mapping[str, object]:
        return {**self.layout.summary, "blocks": [
            {"label": block.label, "shares": block.shares,
             "start": block.start, "cells": math.prod(block.shares)}
            for family in self.families for block in family.blocks
        ]}

    def explain(self) -> str:
        """The title, each distinct block label once, and the notes."""
        labels = dict.fromkeys(
            block.label for family in self.families for block in family.blocks
        )
        return "\n".join(
            [self.layout.title]
            + [f"  {line}" for line in (*labels, *self.layout.notes)]
        )


def layout_load_bits(
    query: ConjunctiveQuery, layout: Layout, stats: Statistics, p: int
) -> float:
    """The busiest server's expected bits under ``layout``, as
    ``ExecutionResult.max_load_bits`` counts them: every one-round
    prediction.  Each cell of a group's blocks (:func:`_groups`) expects
    the group's mass over the shares the atom fixes there, ``M_j /
    prod_{i in S_j} p_i`` for a whole relation — all of it for a
    broadcast atom.  An unfiltered atom is raised to the hash-forced mass
    of its worst hitter on a column-keyed dimension ``v``: its ``m_j(h)``
    tuples collide on one coordinate of ``v`` (Example 3.3's collapse).
    Cell ``d`` of a block is server ``start + d``, so blocks that share a
    server add up there.
    """
    check_layout(layout, p)
    simple, heavy = simple_of(stats), heavy_of(stats, p)
    loads = np.zeros(p)
    for family in layout.families:
        cells = [[0, 0] for _ in family.blocks]  # broadcast atoms, the rest
        for atom in query.atoms:
            bits = simple.bits(atom.name)
            if bits <= 0:
                continue
            fixed = family.keys[atom.name]
            tuple_bits = bits / simple.cardinality(atom.name)
            rule = family.filters[atom.name]
            forcing = []  # an unfiltered atom's worst hitter per column key
            if heavy is not None and not (rule.positions or rule.excluded):
                for dim, key in fixed.items():
                    hitters = len(key) == 1 and heavy.heavy_hitters(
                        atom.name, (atom.variables[key[0]],)
                    )
                    if hitters:
                        forcing.append((dim, max(hitters.values())))
            for blocks, mass in _groups(atom, rule, heavy, bits, tuple_bits):
                shares = family.blocks[blocks[0]].shares
                grid = math.prod(shares[dim] for dim in fixed)
                per_cell = mass / grid
                for dim, top in forcing:
                    per_cell = max(per_cell,
                                   top * tuple_bits * shares[dim] / grid)
                for number in blocks:
                    cells[number][bool(fixed)] += per_cell
        for block, (broadcast, spread) in zip(family.blocks, cells):
            loads[block.start:block.start + math.prod(block.shares)] += (
                broadcast + spread
            )
    return float(loads.max())


def _groups(
    atom: Atom,
    rule: Filter,
    heavy: StatisticsProvider | None,
    bits: float,
    tuple_bits: float,
) -> list[tuple[tuple[int, ...], float]]:
    """The blocks and the mass, in bits, of each group of ``atom``'s
    tuples under ``rule``: one per accepted value, of its heavy-hitter
    count, and the default's, of the rest of ``bits``; each excluded value
    is taken from the group it would otherwise join."""

    def counts(positions: tuple[int, ...]):  # values there -> bits
        names = [atom.variables[i] for i in positions]
        order = sorted(range(len(names)), key=names.__getitem__)
        found = {} if heavy is None else heavy.heavy_hitters(atom.name, names)
        return lambda value: tuple_bits * found.get(
            tuple(value[i] for i in order), 0)

    if rule.positions:  # None: the default
        count = counts(rule.positions)
        mass = {value: count(value) for value in rule.accepted}
        mass[None] = bits - sum(mass.values())
    else:  # every tuple projects to ()
        mass = {() if () in rule.accepted else None: bits}
    for positions, values in rule.excluded:
        count = counts(positions)
        kept = [positions.index(i) for i in rule.positions]
        for value in sorted(values):
            key = tuple(value[i] for i in kept)
            key = key if key in rule.accepted else None
            if key in mass:
                mass[key] -= count(value)
    return [(rule.accepted.get(key, rule.default), max(0.0, m))
            for key, m in mass.items() if rule.default or key is not None]


class BlockAlgorithm(OneRoundAlgorithm):
    """A one-round algorithm stated once, as the :class:`Layout` it places
    from statistics alone: :meth:`routing_plan` routes by the layout of
    ``db``'s own statistics, and :meth:`predicted_load_bits` reads the
    prediction off the layout of the planner's (:func:`layout_load_bits`).
    """

    def layout(self, stats: Statistics, p: int) -> Layout:
        """The families of placed blocks for ``p`` servers."""
        raise NotImplementedError

    def statistics(self, stats: Statistics, p: int) -> Statistics:
        """What the layout reads when the planner holds ``stats``."""
        return stats

    def routing_statistics(self, db: Database, p: int) -> Statistics:
        """What the layout reads when routing ``db``: its cardinalities."""
        return SimpleStatistics.of(db)

    def routing_plan(
        self, db: Database, p: int, hashes: HashFamily
    ) -> HyperCubePlan:
        stats = self.routing_statistics(db, p)
        return HyperCubePlan(self.layout(stats, p), hashes, p)

    def predicted_load_bits(self, stats: object, p: int) -> float:
        stats = self.statistics(stats, p)
        return layout_load_bits(self.query, self.layout(stats, p), stats, p)


class HeavyBlockAlgorithm(BlockAlgorithm):
    """A block algorithm laid out by heavy hitters thresholded for ``p``:
    to predict, the planner's, else those it was built with (``_stats``);
    to route, those it was built with, else ``db``'s own.  Cardinalities
    alone lay out no heavy block."""

    _stats: StatisticsProvider | None = None

    def statistics(self, stats: Statistics, p: int) -> StatisticsProvider:
        return (heavy_of(stats, p) or heavy_of(self._stats, p)
                or StatisticsProvider(simple_of(stats), p, 1.0, {}))

    def routing_statistics(self, db: Database, p: int) -> StatisticsProvider:
        return (heavy_of(self._stats, p)
                or HeavyHitterStatistics.of(self.query, db, p))


class HyperCubeAlgorithm(BlockAlgorithm):
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

    def layout(self, stats: Statistics, p: int) -> Layout:
        """The grid as one family of one block at server 0."""
        grid = shares_product(self.shares)
        if grid > p:
            raise ShareError(
                f"share product {grid} exceeds the {p} available servers"
            )
        dims = tuple(self.shares)
        keys = {name: {dims.index(dim): key for dim, key in fixed.items()}
                for name, fixed in self.keys.items()}
        block = Block(f"grid {self.shares}", tuple(self.shares.values()))
        summary = {
            "shares": dict(self.shares),
            "grid_size": grid,
            "broadcast": sorted(
                name for name, fixed in self.keys.items() if not fixed
            ),
        }
        return Layout((Family(dims, keys, (block,), self.salt_prefix),),
                      summary, f"{self.name} over p={p}")

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

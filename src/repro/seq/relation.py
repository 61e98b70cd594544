"""Relation and database containers.

A :class:`Relation` is a named set of tuples over the integer domain
``[0, n)``.  The paper measures communication in *bits*: a relation ``S_j``
with ``m_j`` tuples of arity ``a_j`` over a domain of size ``n`` occupies
``M_j = a_j * m_j * log n`` bits (Section 3).  We mirror that accounting:
:attr:`Relation.tuple_bits` is ``a_j * log2(n)`` and :attr:`Relation.bits`
is ``m_j`` times that.  ``log2`` is used as a real number so the simulator's
load accounting agrees exactly with the bound formulas; the degenerate
``n = 1`` domain is clamped to one bit per value.

The routing and statistics layers do not read the tuples: they read
:attr:`Relation.batch`, a :class:`Batch` — the same tuples in one fixed
order, as rows and as one contiguous int64 array with a row per column.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from operator import itemgetter
from typing import Collection, Iterable, Iterator, Mapping, Sequence

import numpy as np

Tuple = tuple[int, ...]

#: Values are stored as int64 columns, so a domain ends here at the latest.
MAX_DOMAIN_SIZE = 2**63


class RelationError(ValueError):
    """Raised for malformed relations or databases."""


def bits_per_value(domain_size: int) -> float:
    """Bits to represent one value from a domain of size ``domain_size``."""
    if domain_size < 1:
        raise RelationError("domain size must be >= 1")
    return max(1.0, math.log2(domain_size))


def project_columns(
    tuples: Collection[Tuple], positions: Sequence[int]
) -> list[Tuple]:
    """Column-at-a-time projection: the values at ``positions`` of every
    tuple, one key tuple per input tuple, in input order.

    The shared primitive under :meth:`Relation.frequencies` and the join
    kernel — one C-level pass per call instead of a generator per tuple.
    """
    if not positions:
        return [()] * len(tuples)
    if len(positions) == 1:
        (position,) = positions
        return [(tup[position],) for tup in tuples]
    return list(map(itemgetter(*positions), tuples))


def _flat_values(what: str, arity: int, tuples: Collection[Tuple]) -> list[int]:
    """The values of ``tuples``, row after row, once every row is known to
    have ``arity`` entries and every entry to be a plain ``int``.

    Both checks are exact because an int64 column would hide what they
    catch: it takes ``1.5`` as ``1`` (``bool`` and numpy scalars are
    refused with it), and two ragged rows whose lengths add up re-align.
    """
    if set(map(len, tuples)) - {arity}:
        ragged = next(t for t in tuples if len(t) != arity)
        raise RelationError(
            f"{what}: tuple {ragged} has length {len(ragged)}, "
            f"expected arity {arity}"
        )
    flat = list(chain.from_iterable(tuples))
    if set(map(type, flat)) - {int}:
        value = next(v for v in flat if type(v) is not int)
        raise RelationError(
            f"{what}: value {value!r} is a {type(value).__name__}, not an int"
        )
    return flat


def starts_run(columns: np.ndarray) -> np.ndarray:
    """For ``(k, n)`` columns whose equal rows are adjacent (sorted, say),
    a mask of the rows that differ from the one before them."""
    new = np.ones(columns.shape[1], dtype=bool)
    new[1:] = (columns[:, 1:] != columns[:, :-1]).any(axis=0)
    return new


def expand_runs(start: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The positions ``start[i], ..., start[i] + count[i] - 1`` of every run
    ``i``, run after run — with ``np.repeat(..., count)`` on the other
    side, how a group-by emits each group's members."""
    positions = np.repeat(start - (np.cumsum(count) - count), count)
    positions += np.arange(len(positions))
    return positions


def distinct_values(
    values: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(distinct, first, inverse, counts)`` of a 1-d array: its distinct
    values in ascending order, where each first occurs, for every entry the
    index of its value in ``distinct``, and how often each occurs.

    ``np.unique`` with every ``return_`` flag, from one ``argsort`` and a
    diff: ``np.unique`` imports ``numpy.ma`` on its first call, which
    every command would pay at start-up.
    """
    order = np.argsort(values)
    ranked = values[order]
    new = np.ones(len(ranked), dtype=bool)
    new[1:] = ranked[1:] != ranked[:-1]
    starts = np.flatnonzero(new)
    inverse = np.empty(len(ranked), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    # The sort is not stable, so a run's first occurrence is its smallest
    # index, not its leading one.
    first = np.minimum.reduceat(order, starts) if len(starts) else starts
    return ranked[starts], first, inverse, np.diff(starts, append=len(ranked))


def sorted_lookup(
    sorted_values: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(slot, hit)``: where each entry of ``values`` sits in the
    ascending, duplicate-free ``sorted_values``, and whether it is there
    at all (``slot`` is only meaningful where ``hit``)."""
    if not len(sorted_values):
        return (np.zeros(len(values), dtype=np.intp),
                np.zeros(len(values), dtype=bool))
    slot = np.searchsorted(sorted_values, values)
    slot[slot == len(sorted_values)] = 0
    return slot, sorted_values[slot] == values


class Batch:
    """Tuples of one arity in one fixed order, as rows and as columns.

    :attr:`rows` is the list of tuples; :attr:`columns` the same values as
    one contiguous ``(arity, m)`` int64 array, a row per column position.
    A batch is made from either and builds the other on first use, so both
    list the tuples in the same order.  What the routing layer takes in
    (:meth:`repro.mpc.execution.RoutingPlan.claims`) and the ``mp`` engine
    ships to its workers — always as columns.  Treat it as read-only: a
    relation hands the same batch to every caller.
    """

    __slots__ = ("arity", "_rows", "_columns")

    def __init__(
        self,
        arity: int,
        rows: list[Tuple] | None = None,
        columns: np.ndarray | None = None,
    ) -> None:
        self.arity = arity
        self._rows = rows
        self._columns = columns

    @classmethod
    def of(cls, tuples: "Batch | Iterable[Tuple]") -> "Batch":
        """``tuples`` as a batch: itself if it is one, else its rows,
        checked like a relation's (the arity is the first row's)."""
        if isinstance(tuples, Batch):
            return tuples
        rows = list(tuples)
        arity = len(rows[0]) if rows else 0
        _flat_values("batch", arity, rows)
        return cls(arity, rows=rows)

    @property
    def rows(self) -> list[Tuple]:
        if self._rows is None:
            columns = self._columns
            self._rows = (
                list(zip(*columns.tolist())) if self.arity
                else [()] * columns.shape[1]
            )
        return self._rows

    @property
    def columns(self) -> np.ndarray:
        if self._columns is None:
            rows = self._rows
            flat = np.fromiter(
                chain.from_iterable(rows), dtype=np.int64,
                count=self.arity * len(rows),
            )
            self._columns = np.ascontiguousarray(
                flat.reshape(len(rows), self.arity).T
            )
        return self._columns

    def __len__(self) -> int:
        if self._rows is not None:
            return len(self._rows)
        return self._columns.shape[1]

    def __getitem__(self, piece: slice) -> "Batch":
        """A contiguous run of the batch (an ``mp`` shard)."""
        return Batch(self.arity, columns=self.columns[:, piece])

    def __reduce__(self):
        return Batch, (self.arity, None, self.columns)

    def take(self, selector: np.ndarray) -> "Batch":
        """The tuples a boolean mask or an index array selects."""
        if selector.dtype == bool:
            selector = np.flatnonzero(selector)
        return Batch(self.arity, columns=np.take(self.columns, selector, axis=1))

    def project(self, positions: Sequence[int]) -> "Batch":
        """Every tuple's values at ``positions`` (duplicates kept)."""
        return Batch(
            len(positions), columns=np.take(self.columns, positions, axis=0)
        )

    def codes(
        self, positions: Sequence[int], wanted: Sequence[Tuple]
    ) -> np.ndarray:
        """For every tuple the index in ``wanted`` (distinct assignments to
        ``positions``, typically a handful of heavy hitters) of its
        projection onto ``positions``, or -1.

        Column by column the tuples are narrowed to those whose value some
        wanted assignment has there; with one position that settles it (the
        sorted search is the code), with several the few candidates left
        are looked up exactly.
        """
        codes = np.full(len(self), -1, dtype=np.int64)
        candidates = np.arange(len(self))
        for slot, position in enumerate(positions):
            values = np.array(
                sorted({assignment[slot] for assignment in wanted}),
                dtype=np.int64,
            )
            rank, hit = sorted_lookup(values, self.columns[position][candidates])
            candidates = candidates[hit]
        if len(positions) == 1:
            order = sorted(range(len(wanted)), key=wanted.__getitem__)
            codes[candidates] = np.array(order, dtype=np.int64)[rank[hit]]
        elif len(candidates):
            code_of = {assignment: code for code, assignment in enumerate(wanted)}
            projected = zip(*(
                self.columns[position][candidates].tolist()
                for position in positions
            ))
            codes[candidates] = [code_of.get(row, -1) for row in projected]
        return codes


@dataclass(frozen=True)
class Relation:
    """An instance of one relation symbol.

    Parameters
    ----------
    name:
        Relation symbol, e.g. ``"S1"``.
    arity:
        Number of columns; every tuple must have this length.
    tuples:
        The tuples, deduplicated on construction (set semantics).  Values
        are plain ``int`` s.
    domain_size:
        The size ``n`` of the per-attribute domain ``[0, n)``, at most
        ``2**63`` (:data:`MAX_DOMAIN_SIZE`: values are stored as int64
        columns).  Values must lie in range.
    """

    name: str
    arity: int
    tuples: frozenset[Tuple]
    domain_size: int

    def __post_init__(self) -> None:
        what = f"relation {self.name!r}"
        if self.arity < 0:
            raise RelationError(f"{what}: negative arity")
        if self.domain_size < 1:
            raise RelationError(f"{what}: domain size must be >= 1")
        if self.domain_size > MAX_DOMAIN_SIZE:
            raise RelationError(
                f"{what}: domain size {self.domain_size} exceeds 2**63"
            )
        flat = _flat_values(what, self.arity, self.tuples)
        if flat and not 0 <= min(flat) <= max(flat) < self.domain_size:
            value = next(v for v in flat if not 0 <= v < self.domain_size)
            raise RelationError(
                f"{what}: value {value} outside domain [0, {self.domain_size})"
            )

    @cached_property
    def batch(self) -> Batch:
        """The tuples in one fixed order (one iteration of the set), as
        rows and as int64 columns — what routing and statistics read.

        Built on first use and kept as long as the relation is, at
        ``8 * arity`` bytes a tuple (plus a pointer per row); not part of
        equality, hashing or the constructor.
        """
        return Batch(self.arity, rows=list(self.tuples))

    @classmethod
    def build(
        cls,
        name: str,
        tuples: Iterable[Sequence[int]],
        arity: int | None = None,
        domain_size: int | None = None,
    ) -> "Relation":
        """Build a relation, inferring arity and domain size if omitted."""
        frozen = frozenset(tuple(t) for t in tuples)
        if arity is None:
            if not frozen:
                raise RelationError(
                    f"relation {name!r}: arity required for an empty relation"
                )
            arity = len(next(iter(frozen)))
        if domain_size is None:
            # Checked before they are compared: max() of a str is not a size.
            flat = _flat_values(f"relation {name!r}", arity, frozen)
            domain_size = max(flat, default=0) + 1
        return cls(name=name, arity=arity, tuples=frozen, domain_size=domain_size)

    # ------------------------------------------------------------------
    # sizes
    # ------------------------------------------------------------------
    @property
    def cardinality(self) -> int:
        """Number of tuples (``m_j``)."""
        return len(self.tuples)

    @property
    def tuple_bits(self) -> float:
        """Bits per tuple: ``a_j * log2(n)``."""
        return self.arity * bits_per_value(self.domain_size)

    @property
    def bits(self) -> float:
        """Total size in bits (``M_j = a_j * m_j * log2 n``)."""
        return self.cardinality * self.tuple_bits

    # ------------------------------------------------------------------
    # relational operations
    # ------------------------------------------------------------------
    def project(self, positions: Sequence[int], name: str | None = None) -> "Relation":
        """Projection onto the given column positions (duplicates removed)."""
        for pos in positions:
            if not 0 <= pos < self.arity:
                raise RelationError(
                    f"relation {self.name!r}: projection position {pos} out of "
                    f"range for arity {self.arity}"
                )
        projected = frozenset(project_columns(self.tuples, positions))
        return Relation(
            name=name or self.name,
            arity=len(positions),
            tuples=projected,
            domain_size=self.domain_size,
        )

    def select(
        self, assignment: Mapping[int, int], name: str | None = None
    ) -> "Relation":
        """Selection ``sigma_{pos=value}`` for every ``pos: value`` given."""
        for pos in assignment:
            if not 0 <= pos < self.arity:
                raise RelationError(
                    f"relation {self.name!r}: selection position {pos} out of "
                    f"range for arity {self.arity}"
                )
        kept = frozenset(
            t for t in self.tuples
            if all(t[pos] == value for pos, value in assignment.items())
        )
        return Relation(
            name=name or self.name,
            arity=self.arity,
            tuples=kept,
            domain_size=self.domain_size,
        )

    def frequencies(self, positions: Sequence[int]) -> Counter:
        """Frequency of each value combination at the given positions.

        ``frequencies([i])[v]`` is the degree ``d_i(v)`` of Appendix B;
        ``frequencies(positions)[h]`` is ``m_j(h) = |sigma_{x=h}(S_j)|``.
        """
        if sorted(positions) == list(range(self.arity)):
            # Set semantics: a key covering every column is the tuple
            # itself (reordered), so every count is 1.
            return Counter(
                dict.fromkeys(project_columns(self.tuples, positions), 1)
            )
        return Counter(project_columns(self.tuples, positions))

    def rename(self, name: str) -> "Relation":
        return Relation(
            name=name,
            arity=self.arity,
            tuples=self.tuples,
            domain_size=self.domain_size,
        )

    def with_domain(self, domain_size: int) -> "Relation":
        """Re-declare the domain size (must still contain all values)."""
        return Relation(
            name=self.name,
            arity=self.arity,
            tuples=self.tuples,
            domain_size=domain_size,
        )

    def __iter__(self) -> Iterator[Tuple]:
        return iter(self.tuples)

    def __len__(self) -> int:
        return len(self.tuples)

    def __contains__(self, item: object) -> bool:
        return item in self.tuples

    def __str__(self) -> str:
        return (
            f"{self.name}[arity={self.arity}, m={self.cardinality}, "
            f"n={self.domain_size}]"
        )


@dataclass(frozen=True)
class Database:
    """A database instance: one relation per symbol, over a common domain."""

    relations: Mapping[str, Relation] = field(default_factory=dict)

    @classmethod
    def from_relations(cls, relations: Iterable[Relation]) -> "Database":
        by_name: dict[str, Relation] = {}
        for rel in relations:
            if rel.name in by_name:
                raise RelationError(f"duplicate relation name {rel.name!r}")
            by_name[rel.name] = rel
        return cls(relations=by_name)

    def relation(self, name: str) -> Relation:
        try:
            return self.relations[name]
        except KeyError:
            raise RelationError(f"database has no relation named {name!r}") from None

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self.relations)

    @property
    def domain_size(self) -> int:
        """The common domain size ``n`` (maximum over the relations)."""
        if not self.relations:
            return 1
        return max(rel.domain_size for rel in self.relations.values())

    @property
    def total_bits(self) -> float:
        return sum(rel.bits for rel in self.relations.values())

    @property
    def total_tuples(self) -> int:
        return sum(rel.cardinality for rel in self.relations.values())

    def validate_against(self, query) -> None:
        """Check that every query atom has a relation of matching arity."""
        for atom in query.atoms:
            rel = self.relation(atom.name)
            if rel.arity != atom.arity:
                raise RelationError(
                    f"atom {atom} has arity {atom.arity} but relation "
                    f"{rel.name!r} has arity {rel.arity}"
                )

    def __iter__(self) -> Iterator[Relation]:
        return iter(self.relations.values())

    def __len__(self) -> int:
        return len(self.relations)

"""Relation and database containers.

A :class:`Relation` is a named set of tuples over the integer domain
``[0, n)``.  The paper measures communication in *bits*: a relation ``S_j``
with ``m_j`` tuples of arity ``a_j`` over a domain of size ``n`` occupies
``M_j = a_j * m_j * log n`` bits (Section 3).  We mirror that accounting:
:attr:`Relation.tuple_bits` is ``a_j * log2(n)`` and :attr:`Relation.bits`
is ``m_j`` times that.  ``log2`` is used as a real number so the simulator's
load accounting agrees exactly with the bound formulas; the degenerate
``n = 1`` domain is clamped to one bit per value.

A relation stores exactly that: ``a_j`` int64 columns of ``m_j`` values,
one contiguous ``(arity, m)`` array (:attr:`Relation.batch`, a
:class:`Batch`) and nothing else — 8 bytes a value, where a ``frozenset``
of tuples costs about 130 bytes a binary tuple.  Routing, statistics and
the array join kernel read the columns; :attr:`Relation.tuples` is a
read-only set view over them (:class:`TupleView`) for the tuple oracle
and for anyone who wants set semantics.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Set as AbstractSet
from dataclasses import dataclass, field
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


def _column_values(
    what: str, arity: int, tuples: Collection[Tuple]
) -> Iterator[list[int]]:
    """The values of ``tuples`` position by position, one list a position,
    once every row is known to have ``arity`` entries and each list to
    hold plain ``int`` s only.

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
    for position in range(arity):
        values = list(map(itemgetter(position), tuples))
        if set(map(type, values)) - {int}:
            value = next(v for v in values if type(v) is not int)
            raise RelationError(
                f"{what}: value {value!r} is a {type(value).__name__}, "
                "not an int"
            )
        yield values


def _check_domain(what: str, values: Iterable[int], low: int, high: int,
                  domain_size: int) -> None:
    """Raise unless every one of ``values`` (whose least and greatest are
    ``low`` and ``high``) lies in ``[0, domain_size)``."""
    if not 0 <= low <= high < domain_size:
        value = next(v for v in values if not 0 <= v < domain_size)
        raise RelationError(
            f"{what}: value {value} outside domain [0, {domain_size})"
        )


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


def distinct_rows(columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(first, counts)`` of the distinct rows of ``(k, m)`` columns (a
    row per position, a column per tuple): where each distinct tuple first
    occurs, ascending, and how often it occurs.  What a ``Counter`` of the
    tuples holds, in its order, without making a tuple.

    Rows are counted as one mixed-radix int64 key (a digit a position, each
    digit's base the span of its column) whenever those spans multiply to
    at most ``2**63``, and sorted lexicographically otherwise."""
    k, m = columns.shape
    if k == 0:
        return (np.zeros(min(m, 1), dtype=np.intp),
                np.array([m] if m else [], dtype=np.intp))
    if not m:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
    if k == 1:
        _, first, _, counts = distinct_values(columns[0])
    elif (key := _row_key(columns)) is not None:
        _, first, _, counts = distinct_values(key)
    else:
        first, counts = _distinct_rows_sorted(columns)
    by_first = np.argsort(first)
    return first[by_first], counts[by_first]


def _row_key(columns: np.ndarray) -> np.ndarray | None:
    """Every row of nonempty ``(k, m)`` columns as one int64, equal for
    equal rows only — or None when the columns' spans multiply past
    ``2**63``."""
    low, high = columns.min(axis=1).tolist(), columns.max(axis=1).tolist()
    spans = [top - bottom + 1 for bottom, top in zip(low, high)]
    if math.prod(spans) > 2**63:
        return None
    key = columns[0] - low[0]
    for column, bottom, span in zip(columns[1:], low[1:], spans[1:]):
        # ``+= column`` may wrap; int64 arithmetic is modular and the
        # digit's sum is in range, so ``-= bottom`` lands on it exactly.
        key *= span
        key += column
        key -= bottom
    return key


def _distinct_rows_sorted(columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`distinct_rows`'s ``(first, counts)`` by one ``lexsort``, in
    the rows' lexicographic order: for rows no int64 key can hold."""
    order = np.lexsort(columns[::-1])
    starts = np.flatnonzero(starts_run(columns[:, order]))
    # ``lexsort`` is stable: a run's leading index is its first.
    return order[starts], np.diff(starts, append=columns.shape[1])


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
    A batch made from rows builds its columns on first use and keeps them;
    one made from columns (a relation's, a slice, a pickle) lists its rows
    afresh on every call and never holds a tuple.  What the routing layer
    takes in
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
        for _ in _column_values("batch", arity, rows):
            pass
        return cls(arity, rows=rows)

    @property
    def rows(self) -> list[Tuple]:
        if self._rows is not None:
            return self._rows
        columns = self._columns
        if not self.arity:
            return [()] * columns.shape[1]
        return list(zip(*columns.tolist()))

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


def _canonical(columns: np.ndarray) -> np.ndarray:
    """``(arity, m)`` columns with the tuples in lexicographic order."""
    if not len(columns):
        return columns
    return columns[:, np.lexsort(columns[::-1])]


class TupleView(AbstractSet):
    """A relation's tuples as a read-only set over its int64 columns.

    A :class:`collections.abc.Set`: ``len``, ``in``, iteration (tuples of
    Python ``int`` s, in column order, made afresh on every pass), set
    comparisons and a hash equal to the ``frozenset`` of the same tuples,
    so a view and a ``frozenset`` compare and hash alike both ways.
    Pickles as its columns.  Made by :class:`Relation` only, which
    guarantees the columns hold no tuple twice.
    """

    __slots__ = ("batch", "_hash")

    def __init__(self, batch: Batch) -> None:
        self.batch = batch
        self._hash: int | None = None

    @classmethod
    def _from_iterable(cls, iterable: Iterable[Tuple]) -> frozenset[Tuple]:
        # What ``&``, ``|`` and ``-`` return: a plain frozenset.
        return frozenset(iterable)

    def __len__(self) -> int:
        return len(self.batch)

    def __iter__(self) -> Iterator[Tuple]:
        return iter(self.batch.rows)

    def __contains__(self, item: object) -> bool:
        if not isinstance(item, tuple) or len(item) != self.batch.arity:
            return False
        try:
            wanted = np.array(item, dtype=np.int64)
        except (OverflowError, TypeError, ValueError):
            return False
        if wanted.tolist() != list(item):  # 1.5 or "1" is no value here
            return False
        columns = self.batch.columns
        return bool(
            np.logical_and.reduce(columns == wanted[:, None], axis=0).any()
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TupleView):
            return super().__eq__(other)
        if len(self) != len(other):
            return False
        mine, theirs = self.batch.columns, other.batch.columns
        if mine is theirs or not len(self):
            return True
        return len(mine) == len(theirs) and np.array_equal(
            _canonical(mine), _canonical(theirs)
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self))
        return self._hash

    def __reduce__(self):
        return TupleView, (self.batch,)

    def __repr__(self) -> str:
        return f"TupleView({len(self)} tuples of arity {self.batch.arity})"


@dataclass(frozen=True)
class Relation:
    """An instance of one relation symbol, stored as its int64 columns.

    Parameters
    ----------
    name:
        Relation symbol, e.g. ``"S1"``.
    arity:
        Number of columns; every tuple must have this length.
    tuples:
        The tuples: any collection of ``arity``-tuples of plain ``int`` s,
        deduplicated on construction (set semantics) and laid out as
        columns in the iteration order of ``frozenset(tuples)`` (for a
        frozenset, its own), after which no tuple object is kept.  Read
        back, the field is a :class:`TupleView` over those columns; a
        view handed in (``dataclasses.replace``, :meth:`rename`) is taken
        as it is, columns shared.  A relation made by
        :meth:`from_columns` keeps the order it is given: the generators
        of :mod:`repro.data` give first-draw order.
    domain_size:
        The size ``n`` of the per-attribute domain ``[0, n)``, at most
        ``2**63`` (:data:`MAX_DOMAIN_SIZE`: values are stored as int64
        columns).  Values must lie in range.
    """

    name: str
    arity: int
    tuples: TupleView
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
        view = self.tuples
        if isinstance(view, TupleView) and view.batch.arity == self.arity:
            columns = view.batch.columns
            if columns.size:
                _check_domain(what, columns.ravel(),
                              int(columns.min()), int(columns.max()),
                              self.domain_size)
            return
        rows = view if isinstance(view, frozenset) else frozenset(view)
        # Straight into the columns, one position at a time: no row-major
        # copy of the values is made.
        columns = np.empty((self.arity, len(rows)), dtype=np.int64)
        for position, values in enumerate(_column_values(what, self.arity, rows)):
            if values:
                _check_domain(what, values, min(values), max(values),
                              self.domain_size)
            columns[position] = values
        object.__setattr__(
            self, "tuples", TupleView(Batch(self.arity, columns=columns))
        )

    @property
    def batch(self) -> Batch:
        """The tuples as one contiguous ``(arity, m)`` int64 array — the
        relation's storage, what routing and statistics read.  Shared by
        every caller (treat it as read-only) and by every relation made
        from this one's view; not part of equality, hashing or the
        constructor."""
        return self.tuples.batch

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
            domain_size = max((
                max(values) for values
                in _column_values(f"relation {name!r}", arity, frozen)
                if values
            ), default=0) + 1
        return cls(name=name, arity=arity, tuples=frozen, domain_size=domain_size)

    @classmethod
    def from_columns(
        cls, name: str, columns: np.ndarray, domain_size: int
    ) -> "Relation":
        """A relation over ``(arity, m)`` int64 ``columns`` (a row per
        position, a column per tuple), kept as they are — no tuple is made.
        The tuples must be distinct: set semantics are checked, not
        imposed."""
        what = f"relation {name!r}"
        if columns.ndim != 2 or columns.dtype != np.int64:
            raise RelationError(
                f"{what}: columns must be a 2-d int64 array, got "
                f"{columns.ndim}-d {columns.dtype}"
            )
        if len(distinct_rows(columns)[0]) != columns.shape[1]:
            raise RelationError(f"{what}: columns repeat a tuple")
        batch = Batch(len(columns), columns=np.ascontiguousarray(columns))
        return cls(name, len(columns), TupleView(batch), domain_size)

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
    # relational operations, on the columns
    # ------------------------------------------------------------------
    def _check_positions(self, positions: Iterable[int], operation: str) -> None:
        for pos in positions:
            if not 0 <= pos < self.arity:
                raise RelationError(
                    f"relation {self.name!r}: {operation} position {pos} out "
                    f"of range for arity {self.arity}"
                )

    def project(self, positions: Sequence[int], name: str | None = None) -> "Relation":
        """Projection onto the given column positions (duplicates removed)."""
        self._check_positions(positions, "projection")
        projected = self.batch.columns[list(positions)]
        first, _ = distinct_rows(projected)
        return Relation.from_columns(
            name or self.name, projected[:, first], self.domain_size
        )

    def select(
        self, assignment: Mapping[int, int], name: str | None = None
    ) -> "Relation":
        """Selection ``sigma_{pos=value}`` for every ``pos: value`` given."""
        self._check_positions(assignment, "selection")
        columns = self.batch.columns
        kept = np.ones(columns.shape[1], dtype=bool)
        for pos, value in assignment.items():
            kept &= columns[pos] == value
        return Relation.from_columns(
            name or self.name, columns[:, kept], self.domain_size
        )

    def frequencies(self, positions: Sequence[int]) -> Counter:
        """Frequency of each value combination at the given positions, in
        order of first occurrence (counted on the columns).

        ``frequencies([i])[v]`` is the degree ``d_i(v)`` of Appendix B;
        ``frequencies(positions)[h]`` is ``m_j(h) = |sigma_{x=h}(S_j)|``.
        """
        keys = self.batch.columns[list(positions)]
        first, counts = distinct_rows(keys)
        rows = Batch(len(keys), columns=keys[:, first]).rows
        return Counter(dict(zip(rows, counts.tolist())))

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

"""Relation and database containers.

A :class:`Relation` is a named set of tuples over the integer domain
``[0, n)``.  The paper measures communication in *bits*: a relation ``S_j``
with ``m_j`` tuples of arity ``a_j`` over a domain of size ``n`` occupies
``M_j = a_j * m_j * log n`` bits (Section 3).  We mirror that accounting:
:attr:`Relation.tuple_bits` is ``a_j * log2(n)`` and :attr:`Relation.bits`
is ``m_j`` times that.  ``log2`` is used as a real number so the simulator's
load accounting agrees exactly with the bound formulas; the degenerate
``n = 1`` domain is clamped to one bit per value.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Collection, Iterable, Iterator, Mapping, Sequence

Tuple = tuple[int, ...]


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

    The shared primitive under :meth:`Relation.frequencies` and the batch
    routing paths — one C-level pass per call instead of a generator per
    tuple.
    """
    if not positions:
        return [()] * len(tuples)
    if len(positions) == 1:
        (position,) = positions
        return [(tup[position],) for tup in tuples]
    return list(map(itemgetter(*positions), tuples))


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
        The tuples, deduplicated on construction (set semantics).
    domain_size:
        The size ``n`` of the per-attribute domain ``[0, n)``.  Values must
        lie in range.
    """

    name: str
    arity: int
    tuples: frozenset[Tuple]
    domain_size: int

    def __post_init__(self) -> None:
        if self.arity < 0:
            raise RelationError(f"relation {self.name!r}: negative arity")
        if self.domain_size < 1:
            raise RelationError(f"relation {self.name!r}: domain size must be >= 1")
        for t in self.tuples:
            if len(t) != self.arity:
                raise RelationError(
                    f"relation {self.name!r}: tuple {t} has length {len(t)}, "
                    f"expected arity {self.arity}"
                )
            for value in t:
                if not 0 <= value < self.domain_size:
                    raise RelationError(
                        f"relation {self.name!r}: value {value} outside domain "
                        f"[0, {self.domain_size})"
                    )

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
            largest = max((max(t) for t in frozen if t), default=0)
            domain_size = largest + 1
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

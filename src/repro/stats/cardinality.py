"""Simple database statistics: relation cardinalities (Section 3).

All input servers know the cardinality vector ``m = (m_1, ..., m_l)`` and the
bit-size vector ``M = (M_1, ..., M_l)`` with ``M_j = a_j * m_j * log n``.
Both the HyperCube share optimization and the lower bounds consume these.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ..query.atoms import ConjunctiveQuery
from ..seq.relation import Database, bits_per_value


class StatisticsError(ValueError):
    """Raised when statistics are missing or inconsistent."""


@dataclass(frozen=True)
class SimpleStatistics:
    """Cardinalities and bit sizes of every relation, plus the domain size."""

    cardinalities: Mapping[str, int]
    arities: Mapping[str, int]
    domain_size: int

    @classmethod
    def of(cls, db: Database) -> "SimpleStatistics":
        return cls(
            cardinalities={rel.name: rel.cardinality for rel in db},
            arities={rel.name: rel.arity for rel in db},
            domain_size=db.domain_size,
        )

    @classmethod
    def from_cardinalities(
        cls,
        query: ConjunctiveQuery,
        cardinalities: Mapping[str, int],
        domain_size: int,
    ) -> "SimpleStatistics":
        """Statistics for a hypothetical database matching ``query``."""
        missing = [a.name for a in query.atoms if a.name not in cardinalities]
        if missing:
            raise StatisticsError(f"missing cardinalities for {missing}")
        return cls(
            cardinalities=dict(cardinalities),
            arities={a.name: a.arity for a in query.atoms},
            domain_size=domain_size,
        )

    def cardinality(self, name: str) -> int:
        """``m_j`` for relation ``name``."""
        try:
            return self.cardinalities[name]
        except KeyError:
            raise StatisticsError(f"no cardinality recorded for {name!r}") from None

    def arity(self, name: str) -> int:
        try:
            return self.arities[name]
        except KeyError:
            raise StatisticsError(f"no arity recorded for {name!r}") from None

    def bits(self, name: str) -> float:
        """``M_j = a_j * m_j * log2(n)``."""
        return (
            self.arity(name)
            * self.cardinality(name)
            * bits_per_value(self.domain_size)
        )

    def bits_vector(self, query: ConjunctiveQuery) -> dict[str, float]:
        """``M`` restricted (and validated) against the atoms of ``query``."""
        return {atom.name: self.bits(atom.name) for atom in query.atoms}

    @property
    def total_bits(self) -> float:
        return sum(self.bits(name) for name in self.cardinalities)

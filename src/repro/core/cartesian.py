"""The grid algorithm for cartesian products (Section 1).

For ``q = S_1 x ... x S_u`` (no shared variables) the servers form a
``p_1 x ... x p_u`` grid with ``prod_j p_j <= p``; each ``S_j``-tuple is
hashed to one coordinate of dimension ``j`` and replicated across the rest.
The optimal dimensions are ``p_j ~ m_j (p / prod_i m_i)^{1/u}``, giving load
``Theta(u (m_1 ... m_u / p)^{1/u})`` — e.g. ``2 sqrt(m_1 m_2 / p)`` for two
relations, which footnote 2 proves optimal.  When some ``m_j`` is tiny
(``m_j < max_i m_i / p``) the rounding naturally degrades to broadcasting it
(``p_j = 1``), mirroring footnote 1.

The grid is a HyperCube grid with one dimension per relation, which a
tuple fixes by the key of all its column positions: its values folded into
one integer column, hashed like any other.
"""

from __future__ import annotations

import math
from typing import Mapping

from ..query.atoms import ConjunctiveQuery, QueryError
from ..stats.provider import Statistics, simple_of
from .hypercube import BlockAlgorithm, HyperCubeAlgorithm, Layout


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


class CartesianProductAlgorithm(BlockAlgorithm):
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
            for var in atom.variables:
                if seen.setdefault(var, atom.name) != atom.name:
                    return (
                        f"not a cartesian product: variable {var!r} is "
                        f"shared by {seen[var]} and {atom.name}"
                    )
        return None

    def layout(self, stats: Statistics, p: int) -> Layout:
        """The :func:`optimal_grid` as a HyperCube grid: one dimension per
        atom, which it fixes by the key of all its positions."""
        simple = simple_of(stats)
        dims = optimal_grid(
            {
                atom.name: max(1, simple.cardinality(atom.name))
                for atom in self.query.atoms
            },
            p,
        )
        return HyperCubeAlgorithm(
            self.query,
            dims,
            name=self.name,
            keys={atom.name: {atom.name: tuple(range(atom.arity))}
                  for atom in self.query.atoms},
            salt_prefix="grid",
        ).layout(stats, p)


def cartesian_lower_bound_bits(
    bits: Mapping[str, float], p: int
) -> float:
    """``(M_1 ... M_u / p)^{1/u}`` — the introduction's lower bound."""
    u = len(bits)
    if u == 0:
        raise QueryError("need at least one relation")
    log_product = sum(math.log2(max(v, 1e-300)) for v in bits.values())
    return 2.0 ** ((log_product - math.log2(p)) / u)

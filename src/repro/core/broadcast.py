"""The broadcast rule (Section 3.3 and footnote 1).

A relation with ``M_j <= M/p`` can be shipped whole to every server at a
load increase of at most ``M/p`` — no more than doubling the cost of any
algorithm — after which it disappears from the share optimization.  This
is HyperCube on the *reduced* query: its LP-optimal shares make the grid,
the surviving atoms fix their variables' dimensions, and a broadcast atom
fixes none, so it reaches every server.  Its layout is that grid's.
"""

from __future__ import annotations

from typing import Iterable

from ..query.atoms import ConjunctiveQuery
from ..stats.provider import Statistics, simple_of
from .bounds import broadcast_reduction
from .hypercube import (
    BlockAlgorithm, HyperCubeAlgorithm, Key, Layout, variable_keys,
)


def reduced_query(query: ConjunctiveQuery, dropped: Iterable[str]) -> ConjunctiveQuery:
    """The query restricted to the atoms not broadcast.

    Its head is recomputed from the surviving atoms (it stays full).
    """
    dropped_set = set(dropped)
    atoms = [atom for atom in query.atoms if atom.name not in dropped_set]
    if not atoms:
        # Degenerate: everything was tiny.  Keep the largest atom so the
        # grid is well-defined; callers never hit this on sensible inputs.
        atoms = [max(query.atoms, key=lambda a: a.arity)]
        dropped_set.discard(atoms[0].name)
    head = tuple(dict.fromkeys(var for atom in atoms for var in atom.variables))
    return ConjunctiveQuery(atoms, head=head, name=f"{query.name}_bc")


class BroadcastHyperCube(BlockAlgorithm):
    """HyperCube plus the small-relation broadcast rule."""

    def __init__(self, query: ConjunctiveQuery) -> None:
        super().__init__(query, name="hypercube-broadcast")

    def layout(self, stats: Statistics, p: int) -> Layout:
        """The reduced query's LP HyperCube grid, in its variable order,
        over which every broadcast atom fixes no dimension.  On one server
        or an empty database the grid is a single cell and every atom is
        broadcast to it."""
        simple = simple_of(stats)
        bits = simple.bits_vector(self.query)
        shares: dict[str, int] = {}
        kept: dict[str, dict[str, Key]] = {}
        if p >= 2 and any(value > 0 for value in bits.values()):
            dropped, _remaining = broadcast_reduction(self.query, bits, p)
            reduced = reduced_query(self.query, dropped)
            shares = HyperCubeAlgorithm.with_optimal_shares(reduced, simple, p).shares
            kept = variable_keys(reduced)
        return HyperCubeAlgorithm(
            self.query,
            shares,
            name=self.name,
            keys={atom.name: kept.get(atom.name, {}) for atom in self.query.atoms},
        ).layout(stats, p)

"""One sum-product kernel: :func:`fold` sums a weight over the answers of
any query.

An answer ``a`` weighs ``Π_j t_j(a_j) Π_v w_v(a_v)``: every atom's tuples
start at a weight (1 unless the arithmetic gives one) and every variable
weighs ``w_v``.  A query is acyclic when the GYO reduction empties it: an
atom is an *ear* when the variables it shares with the other atoms all lie
in one of them, its *parent*; remove ears until one atom, the root, is
left (:func:`join_tree`; None for a cyclic query, the triangle).  Over that
tree an ear, its tuples weighed by the variables no other atom has, is
grouped by the variables it shares with its parent, and each group's sum
is multiplied into the parent's tuples that agree with it: the root's
total is the sum over the join, in time linear in the input plus one sort
per ear, whatever the number of answers.  A cyclic query has a tree
once :func:`repro.seq.join.join_columns`' listing of its answers is one
more atom, holding every variable: every other atom is its ear.  With
``tagged`` every relation has the receiving server as one more row, a
variable of every atom that weighs 1: the sum is over the union of the
servers' local answers, an answer once per server that finds it.  The
arithmetic is a :class:`Count`: this module's own counts the answers,
exactly; :mod:`repro.mpc.fingerprint` weighs them by hashes mod
``2^61 - 1``; :mod:`repro.core.friedgut` sums floats from tuple weights.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from ..query.atoms import Atom, ConjunctiveQuery
from .join import SERVER, _joint_keys, consistent_rows, join_columns
from .relation import sorted_lookup, starts_run

#: Past this an int64 product or sum may wrap.
_INT64_LIMIT = 2**63

#: The relation of a cyclic query's listed answers.
_ANSWERS = object()


def join_tree(
    query: ConjunctiveQuery,
) -> list[tuple[Atom, Atom | None]] | None:
    """The GYO reduction of ``query``: ``(ear, parent)`` in the order the
    ears are removed, the root last with parent None — or None when the
    query is cyclic.  A disconnected ear's parent is any other atom."""
    remaining = list(query.atoms)
    tree: list[tuple[Atom, Atom | None]] = []
    while len(remaining) > 1:
        for ear in remaining:
            others = [atom for atom in remaining if atom is not ear]
            shared = ear.variable_set & frozenset().union(
                *(atom.variable_set for atom in others)
            )
            parent = next(
                (atom for atom in others if shared <= atom.variable_set), None
            )
            if parent is not None:
                break
        else:
            return None
        tree.append((ear, parent))
        remaining.remove(ear)
    tree.append((remaining[0], None))
    return tree


def _may_wrap(values: np.ndarray, factor: int) -> bool:
    return (values.dtype == np.int64 and len(values) > 0
            and int(values.max()) * factor >= _INT64_LIMIT)


class Count:
    """:func:`fold`'s arithmetic when every answer weighs 1: the pass
    counts the answers.  Exact — an array turns to Python ints before an
    int64 product or sum could wrap.  A subclass changes the weights and
    the ring they live in."""

    def ones(self, n: int) -> np.ndarray:
        return np.ones(n, dtype=np.int64)

    def start(self, name: str, n: int) -> np.ndarray:
        """The weights the ``n`` tuples of atom ``name`` start at: 1."""
        return self.ones(n)

    def weight(self, variable: str, values: np.ndarray) -> np.ndarray | None:
        """The weights of ``variable`` taking ``values``; None for all 1."""
        return None

    def times(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if len(b) and _may_wrap(a, int(b.max())):
            a = a.astype(object)
        return a * b

    def sums(self, values: np.ndarray, starts: np.ndarray) -> np.ndarray:
        """The sum of every run ``values[starts[i]:starts[i + 1]]``."""
        if _may_wrap(values, len(values)):
            values = values.astype(object)
        return np.add.reduceat(values, starts)

    def total(self, values: np.ndarray) -> int:
        if not len(values):
            return 0
        return self.sums(values, np.zeros(1, dtype=np.intp)).tolist()[0]


def fold(
    query: ConjunctiveQuery,
    relations: Mapping[str, np.ndarray],
    counts: Sequence[Count],
    tagged: bool = False,
) -> tuple:
    """Per :class:`Count` of ``counts``, the sum over the answers of
    ``query`` of their weights, all in one pass.

    ``relations[name]`` holds that atom's tuples as ``(arity, m)``
    duplicate-free columns; with ``tagged`` one more row at the bottom
    holds the server that received each (a tuple may come once per
    server), and the sum is over every server's local answers."""
    tree = join_tree(query)
    if tree is None:
        # The listed answers (per server, with ``tagged``) are one more
        # atom, holding every variable: every other atom is its ear.
        head = (*query.variables, SERVER) if tagged else query.variables
        listed = join_columns(query, relations, tagged, head)
        return fold(
            ConjunctiveQuery([*query.atoms, Atom(_ANSWERS, query.variables)]),
            {**relations, _ANSWERS: listed}, counts, tagged,
        )
    columns: dict[str, dict[object, np.ndarray]] = {}
    weights: dict[str, list[np.ndarray]] = {}
    for atom in query.atoms:
        first, kept = consistent_rows(atom, relations[atom.name], tagged)
        store = relations[atom.name][:, kept]
        if not store.shape[1]:
            return tuple(0 for _ in counts)
        columns[atom.name] = {v: store[p] for v, p in first.items()}
        n = relations[atom.name].shape[1]
        weights[atom.name] = [c.start(atom.name, n)[kept] for c in counts]

    def weigh(atom: Atom, kept: Sequence[str]) -> None:
        """Multiply in the weights of ``atom``'s variables not in ``kept``
        (the server's are 1)."""
        mine = weights[atom.name]
        for variable, values in columns[atom.name].items():
            if variable is SERVER or variable in kept:
                continue
            for slot, count in enumerate(counts):
                weight = count.weight(variable, values)
                if weight is not None:
                    mine[slot] = count.times(mine[slot], weight)

    *ears, (root, _) = tree
    for ear, parent in ears:
        own, theirs = columns[ear.name], columns[parent.name]
        shared = [v for v in own if v in theirs]
        weigh(ear, shared)
        mine, parents = weights[ear.name], weights[parent.name]
        ear_key, parent_key = _joint_keys(
            _stacked([own[v] for v in shared], len(mine[0])),
            _stacked([theirs[v] for v in shared], len(parents[0])),
        )
        order = np.argsort(ear_key, kind="stable")
        ranked = ear_key[order]
        starts = np.flatnonzero(starts_run(ranked[None]))
        slot_of, hit = sorted_lookup(ranked[starts], parent_key)
        for slot, count in enumerate(counts):
            group = count.sums(mine[slot][order], starts)[slot_of]
            group[~hit] = 0
            parents[slot] = count.times(parents[slot], group)
    weigh(root, ())
    return tuple(
        count.total(w) for count, w in zip(counts, weights[root.name])
    )


def _stacked(rows: list[np.ndarray], n: int) -> np.ndarray:
    """``rows`` as ``(len(rows), n)`` columns, none making ``(0, n)``."""
    return np.stack(rows) if rows else np.empty((0, n), dtype=np.int64)

"""The round-composed join: one binary join per round.

A connected query of ``l`` atoms runs in ``l - 1`` rounds: round 1 joins
two atoms into an intermediate, every later round joins the accumulated
intermediate with one more atom, and the final round produces the
answers.  Each round is an ordinary one-round binary join, so the whole
machinery of Section 4 (hash join, skew-aware join) is reused per round
— this is the multi-round algorithm that makes cyclic queries like the
triangle cheap: the triangle's one-round load is ``Omega(M / p^{2/3})``
(Example 3.7) while two rounds achieve ``O(M / p)`` whenever the partial
join stays bounded.

The atom order is chosen greedily to keep intermediates small: the
starting pair minimizes the estimated join size
(:func:`~repro.rounds.base.estimate_join_size`, heavy-hitter aware), and
each extension step appends the atom whose join with the accumulated
intermediate is estimated smallest.  With no statistics the order falls
back to the query's atom order (connectivity-respecting).
"""

from __future__ import annotations

from functools import partial

from ..mpc.execution import RoundSpec
from ..query.atoms import Atom, ConjunctiveQuery
from ..stats.cardinality import SimpleStatistics
from ..stats.provider import heavy_of, simple_of
from .base import (
    MultiRoundAlgorithm,
    RoundsError,
    estimate_join_size,
    intermediate_name,
    predict_one_round,
)


def _first_appearance_order(atoms: tuple[Atom, ...]) -> tuple[str, ...]:
    seen: list[str] = []
    for atom in atoms:
        for var in atom.variables:
            if var not in seen:
                seen.append(var)
    return tuple(seen)


class RoundComposedJoin(MultiRoundAlgorithm):
    """Generic ``l - 1``-round join composition for connected queries.

    Parameters
    ----------
    query:
        A connected full conjunctive query with at least three atoms
        (two-atom queries are already covered by the one-round joins).
    stats:
        Optional statistics (simple or heavy-hitter) used only to pick
        the atom order; execution re-derives per-round statistics from
        the live round databases.
    """

    def __init__(
        self,
        query: ConjunctiveQuery,
        stats: object | None = None,
        name: str = "round-join",
    ) -> None:
        reason = self.applicability(query)
        if reason is not None:
            raise RoundsError(
                f"{name} is not applicable to {query.name!r}: {reason}"
            )
        super().__init__(query, name=name)
        self._order = self._order_atoms(query, stats)
        self._plan = self._build_plan()

    @classmethod
    def applicability(cls, query: ConjunctiveQuery) -> str | None:
        if query.num_atoms < 3:
            return (
                "fewer than three atoms; the one-round joins already "
                "cover this query"
            )
        if not query.is_connected():
            return (
                "query hypergraph is disconnected; compose the components "
                "with cartesian-grid instead"
            )
        return None

    @classmethod
    def round_count(cls, query: ConjunctiveQuery) -> int:
        return query.num_atoms - 1

    # ------------------------------------------------------------------
    # atom ordering
    # ------------------------------------------------------------------
    @staticmethod
    def _order_atoms(
        query: ConjunctiveQuery, stats: object | None
    ) -> tuple[Atom, ...]:
        atoms = list(query.atoms)
        if stats is None:
            order = [atoms.pop(0)]
            reached = set(order[0].variable_set)
            while atoms:
                for i, atom in enumerate(atoms):
                    if atom.variable_set & reached:
                        reached |= atom.variable_set
                        order.append(atoms.pop(i))
                        break
                else:  # pragma: no cover - applicability requires connected
                    raise RoundsError("query hypergraph is disconnected")
            return tuple(order)

        simple = simple_of(stats)
        estimate = partial(
            estimate_join_size,
            stats=simple,
            domain_size=simple.domain_size,
            hh=heavy_of(stats),
        )

        best_pair: tuple[float, int, int] | None = None
        for i, left in enumerate(atoms):
            for j in range(i + 1, len(atoms)):
                right = atoms[j]
                if not (left.variable_set & right.variable_set):
                    continue
                rank = (
                    estimate(left.name, left.variables,
                             simple.cardinality(left.name), right),
                    i, j,
                )
                if best_pair is None or rank < best_pair:
                    best_pair = rank
        if best_pair is None:  # pragma: no cover - connected => a pair shares
            raise RoundsError("no two atoms share a variable")

        acc_size, i, j = best_pair
        order = [atoms[i], atoms[j]]
        remaining = [a for k, a in enumerate(atoms) if k not in (i, j)]
        acc_vars = _first_appearance_order((order[0], order[1]))
        acc_name = order[0].name
        while remaining:
            best_next: tuple[float, int] | None = None
            for k, atom in enumerate(remaining):
                if not (atom.variable_set & set(acc_vars)):
                    continue
                rank = (estimate(acc_name, acc_vars, acc_size, atom), k)
                if best_next is None or rank < best_next:
                    best_next = rank
            if best_next is None:  # pragma: no cover - connected query
                raise RoundsError("query hypergraph is disconnected")
            # The winning estimate is the accumulated size going forward.
            acc_size, k = best_next
            nxt = remaining.pop(k)
            acc_vars = _first_appearance_order(
                (Atom("_acc", acc_vars), nxt)
            )
            acc_name = "_acc"
            order.append(nxt)
        return tuple(order)

    # ------------------------------------------------------------------
    # the round plan
    # ------------------------------------------------------------------
    def _build_plan(self) -> tuple[RoundSpec, ...]:
        rounds = self.round_count(self.query)
        specs: list[RoundSpec] = []
        left: Atom = self._order[0]
        for index in range(rounds):
            right = self._order[index + 1]
            final = index == rounds - 1
            head = (
                self.query.variables
                if final
                else _first_appearance_order((left, right))
            )
            round_query = ConjunctiveQuery(
                atoms=(left, right),
                head=head,
                name=f"{self.query.name}.r{index + 1}",
            )
            output = None if final else intermediate_name(self.query, index)
            specs.append(RoundSpec(index=index, query=round_query, output=output))
            if not final:
                left = Atom(name=output, variables=head)
        return tuple(specs)

    def round_plan(self) -> tuple[RoundSpec, ...]:
        return self._plan

    # ------------------------------------------------------------------
    # cost prediction
    # ------------------------------------------------------------------
    def predicted_round_loads(
        self, stats: object, p: int
    ) -> tuple[float, ...]:
        """Per-round predicted loads from statistics alone.

        Round 1 is costed with the full statistics (heavy-hitter aware
        when available); later rounds synthesize
        :class:`SimpleStatistics` whose intermediate cardinality is the
        (skew-refined) join-size estimate of the rounds before it.
        """
        simple = simple_of(stats)
        domain = simple.domain_size
        estimate = partial(
            estimate_join_size, stats=simple, domain_size=domain,
            hh=heavy_of(stats, p),
        )
        loads: list[float] = []
        acc_size: float | None = None
        for spec in self._plan:
            left, right = spec.query.atoms
            if spec.index == 0:
                loads.append(predict_one_round(spec.query, stats, p))
                acc_size = estimate(
                    left.name, left.variables,
                    simple.cardinality(left.name), right,
                )
                continue
            assert acc_size is not None
            round_simple = SimpleStatistics.from_cardinalities(
                spec.query,
                {
                    left.name: max(0, round(acc_size)),
                    right.name: simple.cardinality(right.name),
                },
                domain,
            )
            loads.append(predict_one_round(spec.query, round_simple, p))
            acc_size = estimate(left.name, left.variables, acc_size, right)
        return tuple(loads)

"""Sequential multiway join — the ground truth every parallel algorithm is
checked against.

``evaluate(query, db)`` returns the full answer set ``q(I)`` as tuples in
head-variable order.  The implementation is a classic left-deep multiway hash
join: atoms are ordered greedily (smallest relation first, then atoms sharing
the most already-bound variables), and each step probes a hash index built on
the shared variables.  This is not worst-case optimal, but at the scales of
the experiments (``m <= 10^5``) it is comfortably fast and — more importantly
— simple enough to trust as an oracle.

There is one join loop, :func:`_answer_rows`, under :func:`evaluate`,
:func:`iterate_answers`, :func:`count_answers` and :func:`local_join` (so
under the oracle and every simulated server alike).  It is set-at-a-time:
a step extends the whole list of partial bindings in one comprehension —
the probe key an ``itemgetter`` over the bound slots, a constant for a
cartesian step — the last step emits its rows in head order (one
``itemgetter`` call inside its comprehension, none when head order is
bound order), and the ``frozenset`` is built once from the finished list.
When the output is the cost (a single join value: ``m`` tuples a side,
``m^2`` answers) an answer costs one tuple concatenation, one C-level
projection and one hash — no generator resumption, no list of unprojected
answers, and a set that is never copied.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Collection, Iterator, Sequence

from ..query.atoms import Atom, ConjunctiveQuery
from .relation import (
    Database,
    Relation,
    RelationError,
    Tuple,
    project_columns,
)


def _atom_order(query: ConjunctiveQuery, db: Database) -> list[Atom]:
    """Greedy join order: smallest first, then maximize shared variables."""
    remaining = list(query.atoms)
    remaining.sort(key=lambda a: db.relation(a.name).cardinality)
    ordered: list[Atom] = []
    bound: set[str] = set()
    while remaining:
        def rank(atom: Atom) -> tuple[int, int]:
            shared = len(atom.variable_set & bound)
            return (-shared, db.relation(atom.name).cardinality)

        best = min(remaining, key=rank)
        remaining.remove(best)
        ordered.append(best)
        bound |= best.variable_set
    return ordered


def _distinct_in_order(variables: Sequence[str]) -> list[str]:
    seen: set[str] = set()
    out: list[str] = []
    for var in variables:
        if var not in seen:
            seen.add(var)
            out.append(var)
    return out


def _index_atom(
    atom: Atom,
    relation: Relation,
    shared_vars: Sequence[str],
    new_vars: Sequence[str],
) -> dict[object, list[Tuple]]:
    """Hash the relation's tuples by their values on ``shared_vars``.

    The key is what ``itemgetter(*positions)`` gives — the bare value for
    one shared variable, a tuple for several, ``()`` for none — so the
    probe side builds it the same way.  Tuples that are internally
    inconsistent with repeated variables (e.g. ``S(x, x)`` requires both
    positions equal) are dropped here.
    """
    shared_positions = [atom.positions_of(v)[0] for v in shared_vars]
    new_positions = [atom.positions_of(v)[0] for v in new_vars]
    repeated = [
        positions
        for positions in (atom.positions_of(v) for v in atom.variable_set)
        if len(positions) > 1
    ]
    tuples: Collection[Tuple] = relation.tuples
    if repeated:
        tuples = [
            t for t in tuples
            if all(len({t[p] for p in positions}) == 1
                   for positions in repeated)
        ]
    extensions = project_columns(tuples, new_positions)
    if not shared_positions:
        return {(): extensions} if extensions else {}
    index: dict[object, list[Tuple]] = {}
    for key, extension in zip(
        map(itemgetter(*shared_positions), tuples), extensions
    ):
        index.setdefault(key, []).append(extension)
    return index


def _row_getter(slots: Sequence[int]) -> Callable[[Tuple], Tuple]:
    """``row -> tuple(row[s] for s in slots)``, a C-level call from two
    slots up (``itemgetter`` gives a bare value for one and takes no
    fewer)."""
    if len(slots) > 1:
        return itemgetter(*slots)
    return lambda row: tuple(row[s] for s in slots)


def _answer_rows(query: ConjunctiveQuery, db: Database) -> list[Tuple]:
    """The join kernel: the answers as a list of rows in head order.

    Set-at-a-time: every step extends the whole list of partial bindings
    in one comprehension, and the last one emits its rows in head order.
    A head that keeps every variable leaves the rows distinct (relations
    are sets); one that projects may repeat a row.
    """
    db.validate_against(query)
    order = _atom_order(query, db)
    bound_vars: list[str] = []
    partials: list[Tuple] = [()]
    for atom in order:
        atom_vars = _distinct_in_order(atom.variables)
        shared_vars = [v for v in atom_vars if v in bound_vars]
        new_vars = [v for v in atom_vars if v not in bound_vars]
        matches = _index_atom(
            atom, db.relation(atom.name), shared_vars, new_vars
        ).get
        # The probe key, built the way the index built its own; a
        # cartesian step has the one key ``()``.
        key = (itemgetter(*(bound_vars.index(v) for v in shared_vars))
               if shared_vars else lambda partial: ())
        bound_vars.extend(new_vars)
        head = None
        if atom is order[-1]:
            head_slots = [bound_vars.index(v) for v in query.head]
            if head_slots != list(range(len(bound_vars))):
                head = _row_getter(head_slots)
        if head is None:
            partials = [
                partial + extension
                for partial in partials
                for extension in matches(key(partial), ())
            ]
        else:  # the last step, and head order is not bound order
            partials = [
                head(partial + extension)
                for partial in partials
                for extension in matches(key(partial), ())
            ]
        if not partials:
            return []
    return partials


def iterate_answers(
    query: ConjunctiveQuery, db: Database
) -> Iterator[Tuple]:
    """The answers of ``query`` on ``db`` in head-variable order, one by
    one (a projecting head may repeat one)."""
    return iter(_answer_rows(query, db))


def evaluate(query: ConjunctiveQuery, db: Database) -> frozenset[Tuple]:
    """The answer set ``q(I)`` in head-variable order."""
    return frozenset(_answer_rows(query, db))


def count_answers(query: ConjunctiveQuery, db: Database) -> int:
    """``|q(I)|`` — without building the answer set when the head keeps
    every variable: the kernel's rows are distinct then."""
    rows = _answer_rows(query, db)
    if {v for atom in query.atoms for v in atom.variables} <= set(query.head):
        return len(rows)
    return len(set(rows))


def local_join_rows(
    query: ConjunctiveQuery, fragments: dict[str, set[Tuple]],
    domain_size: int,
) -> list[Tuple]:
    """:func:`local_join`'s answers before they become a set — for a
    caller that unions many servers and builds one set from all their
    rows."""
    relations = []
    for atom in query.atoms:
        tuples = fragments.get(atom.name, set())
        relations.append(
            Relation(
                name=atom.name,
                arity=atom.arity,
                tuples=frozenset(tuples),
                domain_size=domain_size,
            )
        )
    return _answer_rows(query, Database.from_relations(relations))


def local_join(query: ConjunctiveQuery, fragments: dict[str, set[Tuple]],
               domain_size: int) -> frozenset[Tuple]:
    """Join the *fragments* a single MPC server received.

    Missing relations are treated as empty: a server that received no tuple
    of some atom contributes no answers.
    """
    return frozenset(local_join_rows(query, fragments, domain_size))


def expected_answer_count(query: ConjunctiveQuery, cardinalities: dict[str, int],
                          domain_size: int) -> float:
    """``E[|q(I)|] = n^(k-a) * prod_j m_j`` (Lemma A.1).

    The expectation is over instances where each ``S_j`` is a uniformly
    random subset of ``[n]^{a_j}`` with exactly ``m_j`` tuples.
    """
    n = domain_size
    k = query.num_variables
    a = query.total_arity
    value = float(n) ** (k - a)
    for atom in query.atoms:
        try:
            value *= cardinalities[atom.name]
        except KeyError:
            raise RelationError(
                f"missing cardinality for relation {atom.name!r}"
            ) from None
    return value

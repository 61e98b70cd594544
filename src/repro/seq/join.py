"""Sequential multiway join — the ground truth every parallel algorithm is
checked against — and the answer value it returns.

``evaluate(query, db)`` returns the answer set ``q(I)`` as :class:`Answers`:
one canonical int64 array (answers in lexicographic order, duplicate-free)
that iterates as tuples in head-variable order and equals a ``set`` of them.

Two kernels share one greedy atom order (:func:`_atom_order`: smallest
relation first, then atoms sharing the most bound variables):

* :func:`join_columns`, the array kernel under :func:`evaluate`,
  :func:`count_answers` and the ``batched``/``mp`` engines.  Relations come
  in as ``(arity, m)`` int64 columns; a step masks the rows that break a
  repeated variable, keys both sides on the shared columns, sorts the
  atom's keys once and emits every group's product (``searchsorted`` +
  ``np.repeat``); the last step writes its columns in head order.  With
  ``tagged=True`` each relation carries one more row, the server that
  received the tuple, which joins like one more shared variable and is
  dropped from the head: the ``p`` local joins of a round are this one
  join, ``q+(u, x) :- D_1(u, x_1), ..., D_l(u, x_l)`` over the deliveries
  ``D_j``.  Where the output is the cost (a single join value: ``m^2``
  answers) an answer costs a few array writes and a share of one sort.
* :func:`_answer_rows`, the set-at-a-time tuple kernel under
  :func:`iterate_answers` and :func:`local_join` only — what the reference
  engine, :mod:`repro.mr` and the tests hold the array kernel against.
  Not worst-case optimal, but simple enough to trust as an oracle.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Collection, Iterator, Mapping, Sequence

import numpy as np

from ..query.atoms import Atom, ConjunctiveQuery
from .relation import (
    Database,
    Relation,
    RelationError,
    Tuple,
    distinct_values,
    expand_runs,
    starts_run,
)

#: Packed keys and row codes are int64: a mixed-radix product stops here.
_CODE_LIMIT = 2**63


def project_columns(
    tuples: Collection[Tuple], positions: Sequence[int]
) -> list[Tuple]:
    """Column-at-a-time projection: the values at ``positions`` of every
    tuple, one key tuple per input tuple, in input order.

    The tuple kernel's projection — one C-level pass per call instead of
    a generator per tuple.
    """
    if not positions:
        return [()] * len(tuples)
    if len(positions) == 1:
        (position,) = positions
        return [(tup[position],) for tup in tuples]
    return list(map(itemgetter(*positions), tuples))


def _atom_order(
    query: ConjunctiveQuery, sizes: Mapping[str, int]
) -> list[Atom]:
    """Greedy join order: smallest first, then maximize shared variables."""
    remaining = list(query.atoms)
    remaining.sort(key=lambda a: sizes[a.name])
    ordered: list[Atom] = []
    bound: set[str] = set()
    while remaining:
        def rank(atom: Atom) -> tuple[int, int]:
            shared = len(atom.variable_set & bound)
            return (-shared, sizes[atom.name])

        best = min(remaining, key=rank)
        remaining.remove(best)
        ordered.append(best)
        bound |= best.variable_set
    return ordered


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
    tuples: Collection[Tuple] = list(relation.tuples)
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


def _answer_rows(query: ConjunctiveQuery, db: Database) -> list[Tuple]:
    """The tuple kernel: the answers as a list of rows in head order.

    Set-at-a-time: every step extends the whole list of partial bindings
    in one comprehension.  A head that keeps every variable leaves the
    rows distinct (relations are sets); one that projects may repeat a row.
    """
    db.validate_against(query)
    order = _atom_order(query, {rel.name: rel.cardinality for rel in db})
    bound_vars: list[str] = []
    partials: list[Tuple] = [()]
    for atom in order:
        atom_vars = list(dict.fromkeys(atom.variables))
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
        partials = [
            partial + extension
            for partial in partials
            for extension in matches(key(partial), ())
        ]
        if not partials:
            return []
    head_slots = [bound_vars.index(v) for v in query.head]
    if head_slots == list(range(len(bound_vars))):
        return partials
    return project_columns(partials, head_slots)


def iterate_answers(
    query: ConjunctiveQuery, db: Database
) -> Iterator[Tuple]:
    """The answers of ``query`` on ``db`` in head-variable order, one by
    one (a projecting head may repeat one)."""
    return iter(_answer_rows(query, db))


class Answers:
    """An answer set as one read-only int64 array.

    :attr:`columns` is ``(arity, n)`` — a row per head position, a column
    per answer, like :attr:`Batch.columns` — with the answers in
    lexicographic order and duplicate-free: canonical, so two answer sets
    are equal iff their arrays are.  Behaves as the set of its rows:
    ``len``, ``in``, iteration as tuples of Python ``int`` s (in that
    order), ``==`` with another :class:`Answers` or a ``set`` of tuples.
    """

    __slots__ = ("columns",)

    def __init__(self, columns: np.ndarray) -> None:
        """``columns`` must be canonical already; :meth:`of` makes it so."""
        columns.setflags(write=False)
        self.columns = columns

    @classmethod
    def of(cls, columns: np.ndarray, domain_size: int) -> "Answers":
        """The rows of ``(arity, n)`` ``columns`` over ``[0, domain_size)``,
        sorted and repeats dropped: one sort of a mixed-radix row code
        where that fits int64, ``np.lexsort`` where it does not (a domain
        may be as large as ``2**63``).  Both give the same array."""
        arity, n = columns.shape
        if arity == 0:
            return cls(columns[:, :1])
        if domain_size ** arity <= _CODE_LIMIT:
            code = columns[0].copy()
            for position in range(1, arity):
                code *= domain_size
                code += columns[position]
            # Frees a caller's temporary before ``out`` is made: both alive
            # outgrow glibc's trim threshold and each cell re-faults its heap.
            del columns
            code.sort()
            new = starts_run(code[None])
            if not new.all():
                code = code[new]
            out = np.empty((arity, len(code)), dtype=np.int64)
            for position in range(arity - 1, 0, -1):
                np.divmod(code, domain_size, out=(code, out[position]))
            out[0] = code
        else:
            out = columns[:, np.lexsort(columns[::-1])]
            out = out[:, starts_run(out)]
        return cls(out)

    def __reduce__(self):
        return Answers, (self.columns,)

    def __len__(self) -> int:
        return self.columns.shape[1]

    def __iter__(self) -> Iterator[Tuple]:
        if not len(self.columns):
            return iter([()] * len(self))
        return zip(*self.columns.tolist())

    def __contains__(self, row: object) -> bool:
        if not (isinstance(row, tuple) and len(row) == len(self.columns)
                and all(type(v) is int and abs(v) < 2**63 for v in row)):
            return False
        low, high = 0, len(self)
        for column, value in zip(self.columns, row):
            # Rows that agree on the columns so far are one sorted run.
            low, high = (
                low + int(np.searchsorted(column[low:high], value, side))
                for side in ("left", "right")
            )
        return low < high

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Answers):
            return np.array_equal(self.columns, other.columns)
        if isinstance(other, (set, frozenset)):
            return len(other) == len(self) and all(r in other for r in self)
        return NotImplemented

    def __repr__(self) -> str:
        return f"Answers({list(self)})"


def _joint_keys(
    left: np.ndarray, right: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One int64 key per row of ``(s, n)`` ``left`` and of ``(s, m)``
    ``right``, equal exactly where the rows are.  A single column is its
    own key; several are folded from the dense ranks of each column over
    both sides — never from the values, which may be near ``2**63`` — and
    the running key is ranked again before a product could leave int64."""
    n = left.shape[1]
    if len(left) == 1:
        return left[0], right[0]
    key, size = np.zeros(n + right.shape[1], dtype=np.int64), 1
    for values in np.concatenate((left, right), axis=1):
        distinct, _, rank, _ = distinct_values(values)
        if size * len(distinct) > _CODE_LIMIT:
            folded, _, key, _ = distinct_values(key)
            size = len(folded)
        key = key * len(distinct) + rank
        size *= len(distinct)
    return key[:n], key[n:]


def _matching_rows(
    left: np.ndarray, right: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(count, matches)``: row ``i`` of ``left`` equals the rows of
    ``right`` listed in the next ``count[i]`` entries of ``matches``
    (every row, when there is no column to compare: a cartesian step)."""
    left_key, right_key = _joint_keys(left, right)
    order = np.argsort(right_key)
    ranked = right_key[order]
    start = np.searchsorted(ranked, left_key, "left")
    count = np.searchsorted(ranked, left_key, "right") - start
    return count, order[expand_runs(start, count)]


#: The variable the server column of a tagged join is bound to.
_SERVER = object()


def join_columns(
    query: ConjunctiveQuery,
    relations: Mapping[str, np.ndarray],
    tagged: bool = False,
) -> np.ndarray:
    """The array kernel: the answers as ``(len(head), n)`` int64 columns,
    unsorted — and with repeats when the head projects or the join is
    ``tagged``; :meth:`Answers.of` sorts and drops them.

    ``relations[name]`` holds that atom's tuples as ``(arity, m)``
    columns.  With ``tagged`` each has one more row at the bottom, the
    server holding that copy of the tuple, and tuples join only where
    their servers agree: the union of every server's local join.
    """
    order = _atom_order(
        query, {name: columns.shape[1] for name, columns in relations.items()}
    )
    bound: list[object] = []
    partial = np.empty((0, 1), dtype=np.int64)  # the one empty binding
    for atom in order:
        columns = relations[atom.name]
        first: dict[object, int] = {}
        consistent = None
        for position, variable in enumerate(
            (*atom.variables, _SERVER) if tagged else atom.variables
        ):
            if variable in first:  # repeated: both positions must agree
                same = columns[first[variable]] == columns[position]
                consistent = same if consistent is None else consistent & same
            else:
                first[variable] = position
        if consistent is not None:
            columns = columns[:, consistent]
        shared = [v for v in first if v in bound]
        count, matches = _matching_rows(
            partial[[bound.index(v) for v in shared]],
            columns[[first[v] for v in shared]],
        )
        wanted = (query.head if atom is order[-1]
                  else bound + [v for v in first if v not in bound])
        extended = np.empty((len(wanted), len(matches)), dtype=np.int64)
        for slot, variable in enumerate(wanted):
            if variable in bound:
                extended[slot] = np.repeat(
                    partial[bound.index(variable)], count
                )
            else:
                # (In range by construction; "clip" writes unbuffered.)
                np.take(columns[first[variable]], matches,
                        out=extended[slot], mode="clip")
        partial, bound = extended, list(wanted)
    return partial


def _joined(query: ConjunctiveQuery, db: Database) -> np.ndarray:
    db.validate_against(query)
    return join_columns(query, {
        atom.name: db.relation(atom.name).batch.columns
        for atom in query.atoms
    })


def evaluate(query: ConjunctiveQuery, db: Database) -> Answers:
    """The answer set ``q(I)`` in head-variable order."""
    return Answers.of(_joined(query, db), db.domain_size)


def count_answers(query: ConjunctiveQuery, db: Database) -> int:
    """``|q(I)|`` — without sorting the answers when the head keeps every
    variable: the kernel's rows are distinct then."""
    columns = _joined(query, db)
    if {v for atom in query.atoms for v in atom.variables} <= set(query.head):
        return columns.shape[1]
    return len(Answers.of(columns, db.domain_size))


def local_join(query: ConjunctiveQuery, fragments: dict[str, set[Tuple]],
               domain_size: int) -> frozenset[Tuple]:
    """Join the *fragments* a single MPC server received, tuple kernel.

    Missing relations are treated as empty: a server that received no tuple
    of some atom contributes no answers.
    """
    relations = [
        Relation(atom.name, atom.arity,
                 frozenset(fragments.get(atom.name, ())), domain_size)
        for atom in query.atoms
    ]
    return frozenset(_answer_rows(query, Database.from_relations(relations)))


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

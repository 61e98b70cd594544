"""Unit tests for the sequential multiway join oracle."""

import itertools
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import uniform_relation
from repro.query import Atom, ConjunctiveQuery, parse_query, triangle_query
from repro.seq import (
    Answers,
    Database,
    Relation,
    count_answers,
    evaluate,
    expected_answer_count,
    iterate_answers,
    local_join,
)
from repro.seq import join as join_module
from repro.seq.join import join_columns
from repro.seq.relation import Batch


def brute_force(query, db):
    """Reference join: enumerate all assignments over the active domain."""
    values = sorted(
        {v for rel in db for t in rel.tuples for v in t}
    ) or [0]
    answers = set()
    for assignment in itertools.product(values, repeat=query.num_variables):
        binding = dict(zip(query.variables, assignment))
        ok = True
        for atom in query.atoms:
            tup = tuple(binding[v] for v in atom.variables)
            if tup not in db.relation(atom.name).tuples:
                ok = False
                break
        if ok:
            answers.add(tuple(binding[v] for v in query.head))
    return frozenset(answers)


class TestEvaluate:
    def test_simple_join(self):
        q = parse_query("q(x, y, z) :- S1(x, z), S2(y, z)")
        db = Database.from_relations(
            [
                Relation.build("S1", [(0, 1), (1, 1), (2, 3)]),
                Relation.build("S2", [(5, 1), (6, 3)], domain_size=7),
            ]
        )
        assert evaluate(q, db) == frozenset(
            {(0, 5, 1), (1, 5, 1), (2, 6, 3)}
        )

    def test_matches_brute_force_on_random_instances(self):
        q = triangle_query()
        db = Database.from_relations(
            [
                uniform_relation("S1", 40, 12, seed=1),
                uniform_relation("S2", 40, 12, seed=2),
                uniform_relation("S3", 40, 12, seed=3),
            ]
        )
        assert evaluate(q, db) == brute_force(q, db)

    def test_chain_matches_brute_force(self):
        q = parse_query("q(a,b,c,d) :- R(a,b), S(b,c), T(c,d)")
        db = Database.from_relations(
            [
                uniform_relation("R", 30, 8, seed=4),
                uniform_relation("S", 30, 8, seed=5),
                uniform_relation("T", 30, 8, seed=6),
            ]
        )
        assert evaluate(q, db) == brute_force(q, db)

    def test_head_order_respected(self):
        q = parse_query("q(z, x) :- S(x, z)")
        db = Database.from_relations([Relation.build("S", [(1, 2)])])
        assert evaluate(q, db) == frozenset({(2, 1)})

    def test_empty_relation_gives_empty_join(self):
        q = parse_query("q(x, y) :- S(x), T(x, y)")
        db = Database.from_relations(
            [
                Relation.build("S", [], arity=1, domain_size=4),
                Relation.build("T", [(0, 1)]),
            ]
        )
        assert evaluate(q, db) == frozenset()

    def test_repeated_variable_in_atom(self):
        q = parse_query("q(x, y) :- S(x, x), T(x, y)")
        db = Database.from_relations(
            [
                Relation.build("S", [(0, 0), (1, 2)], domain_size=3),
                Relation.build("T", [(0, 2), (1, 2)], domain_size=3),
            ]
        )
        # Only (0,0) survives the S(x,x) constraint.
        assert evaluate(q, db) == frozenset({(0, 2)})

    def test_cartesian_product(self):
        q = parse_query("q(x, y) :- S(x), T(y)")
        db = Database.from_relations(
            [
                Relation.build("S", [(0,), (1,)], domain_size=3),
                Relation.build("T", [(2,)], domain_size=3),
            ]
        )
        assert evaluate(q, db) == frozenset({(0, 2), (1, 2)})

    def test_count_answers(self):
        q = parse_query("q(x, y) :- S(x), T(y)")
        db = Database.from_relations(
            [
                Relation.build("S", [(0,), (1,)], domain_size=3),
                Relation.build("T", [(0,), (2,)], domain_size=3),
            ]
        )
        assert count_answers(q, db) == 4


class Projected:
    """A query-shaped value whose head keeps only some of the body's
    variables.  ``ConjunctiveQuery`` is always full; the kernel is not."""

    def __init__(self, body, head):
        full = parse_query(body)
        self.atoms, self.variables = full.atoms, full.variables
        self.num_variables = full.num_variables
        self.head = tuple(head)


#: One query per branch of the kernel.
KERNEL_QUERIES = {
    "cartesian step": parse_query("q(x, y) :- S(x), T(y)"),
    "one shared variable": parse_query("q(x, y, z) :- S1(x, z), S2(y, z)"),
    "two shared variables, head permuted":
        parse_query("q(z, x, y) :- R(x, y), S(y, z), T(z, x)"),
    "repeated variable, first atom": parse_query("q(x, y) :- S(x, x), T(x, y)"),
    "repeated variable, probed atom":
        parse_query("q(x, y) :- T(x, y), S(y, y, x)"),
    "filter step, no new variable": parse_query("q(x, y) :- T(x, y), S(y)"),
    "head reversed": parse_query("q(d, c, b, a) :- R(a, b), S(b, c), T(c, d)"),
    "one-variable head": parse_query("q(x) :- S(x), T(x)"),
    "projecting head": Projected("S1(x, z), S2(y, z)", ("y", "x")),
    "projecting one-variable head": Projected("S1(x, z), S2(y, z)", ("z",)),
    "boolean head": Projected("S1(x, z), S2(y, z)", ()),
    "boolean head over a cartesian step": Projected("S(x), T(y)", ()),
}


@st.composite
def small_databases(draw, query):
    """A database for ``query`` over a domain of at most 4 values; any
    relation may be empty, and small domains make joins die midway."""
    domain = draw(st.integers(1, 4))
    return Database.from_relations(
        Relation(
            name=atom.name,
            arity=atom.arity,
            tuples=draw(st.frozensets(
                st.tuples(*[st.integers(0, domain - 1)] * atom.arity),
                max_size=8,
            )),
            domain_size=domain,
        )
        for atom in query.atoms
    )


def deliver(db, servers_of):
    """``db`` delivered to servers: tuple ``t`` of a relation goes to
    ``servers_of(relation, t)``.  Returns what the array kernel takes — per
    relation the delivered tuples' columns over a row of servers — and what
    the tuple kernel takes, every server's fragments."""
    delivered, fragments = {}, {}
    for rel in db:
        rows, servers = [], []
        for tup in sorted(rel.tuples):
            for server in servers_of(rel, tup):
                rows.append(tup)
                servers.append(server)
                fragments.setdefault(server, {}).setdefault(
                    rel.name, set()).add(tup)
        delivered[rel.name] = np.concatenate((
            Batch(rel.arity, rows=rows).columns,
            np.array(servers, dtype=np.int64)[None],
        ))
    return delivered, fragments


def assert_tagged_join_is_the_union_of_local_joins(query, db, servers_of):
    delivered, fragments = deliver(db, servers_of)
    tagged = Answers.of(
        join_columns(query, delivered, tagged=True), db.domain_size
    )
    assert tagged == frozenset().union(*(
        local_join(query, received, db.domain_size)
        for received in fragments.values()
    ))


def assert_kernel_agrees(query, db):
    """Every entry point of both kernels against ``brute_force``: the array
    kernel (``evaluate``, ``count_answers``, the tagged join of a delivery
    that splits the join over three servers) and the tuple kernel
    (``iterate_answers``, ``local_join``)."""
    expected = brute_force(query, db)
    assert evaluate(query, db) == expected
    assert sorted(evaluate(query, db)) == sorted(expected)
    assert set(iterate_answers(query, db)) == expected
    assert count_answers(query, db) == len(expected)
    fragments = {rel.name: set(rel.tuples) for rel in db}
    assert local_join(query, fragments, db.domain_size) == expected
    assert_tagged_join_is_the_union_of_local_joins(
        query, db, lambda rel, tup: {sum(tup) % 3, (sum(tup) + rel.arity) % 3}
    )


class TestKernelAgainstBruteForce:
    @pytest.mark.parametrize("name", KERNEL_QUERIES)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_small_instances(self, name, data):
        query = KERNEL_QUERIES[name]
        assert_kernel_agrees(query, data.draw(small_databases(query)))

    @pytest.mark.parametrize("empty", ["R", "S", "T"])
    def test_an_empty_relation_anywhere_in_the_join(self, empty):
        query = KERNEL_QUERIES["head reversed"]
        tuples = {"R": [(0, 1), (1, 1)], "S": [(1, 2)], "T": [(2, 0), (2, 3)]}
        db = Database.from_relations(
            Relation.build(name, [] if name == empty else rows,
                           arity=2, domain_size=4)
            for name, rows in tuples.items()
        )
        assert_kernel_agrees(query, db)
        assert evaluate(query, db) == frozenset()

    def test_a_join_that_dies_midway(self):
        """No relation is empty; the second step finds no partner."""
        query = KERNEL_QUERIES["head reversed"]
        db = Database.from_relations([
            Relation.build("R", [(0, 1)], domain_size=4),
            Relation.build("S", [(2, 3), (3, 3)], domain_size=4),
            Relation.build("T", [(3, 0), (3, 1), (1, 2)], domain_size=4),
        ])
        assert_kernel_agrees(query, db)
        assert count_answers(query, db) == 0

    def test_projection_collapses_duplicates(self):
        query = KERNEL_QUERIES["projecting one-variable head"]
        db = Database.from_relations([
            Relation.build("S1", [(0, 2), (1, 2)], domain_size=3),
            Relation.build("S2", [(0, 2), (1, 2), (2, 1)], domain_size=3),
        ])
        assert list(iterate_answers(query, db)) == [(2,)] * 4
        assert evaluate(query, db) == frozenset({(2,)})
        assert count_answers(query, db) == 1


VARIABLES = "wxyz"


@st.composite
def small_queries(draw):
    """A full CQ of 1-4 atoms of arity 0-3 over at most four variables:
    variables repeat inside an atom, atoms may share nothing (cartesian
    steps), and the head is the body's variables in any order."""
    atoms = [
        Atom(f"R{number}", tuple(draw(
            st.lists(st.sampled_from(VARIABLES), max_size=3)
        )))
        for number in range(draw(st.integers(1, 4)))
    ]
    body = dict.fromkeys(v for atom in atoms for v in atom.variables)
    return ConjunctiveQuery(atoms, head=draw(st.permutations(list(body))))


class TestArrayKernelAgainstTupleKernel:
    """The array kernel (``evaluate``, ``count_answers``, the engines'
    tagged join) against the tuple kernel it replaced there."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_random_queries_databases_and_deliveries(self, data):
        query = data.draw(small_queries())
        db = data.draw(small_databases(query))
        reference = list(iterate_answers(query, db))
        assert sorted(evaluate(query, db)) == sorted(set(reference))
        assert count_answers(query, db) == len(set(reference))
        # Every tuple to 1-3 of p servers: the one tagged join finds what
        # the servers' local joins find, no more and no less.
        p = data.draw(st.integers(1, 5))
        destinations = st.sets(st.integers(0, p - 1), min_size=1, max_size=3)
        assert_tagged_join_is_the_union_of_local_joins(
            query, db, lambda rel, tup: data.draw(destinations)
        )

    def test_nullary_atoms_and_a_nullary_head(self):
        query = ConjunctiveQuery([Atom("N", ()), Atom("M", ())])
        full = Database.from_relations(
            Relation(name, 0, frozenset({()}), 3) for name in "NM"
        )
        assert list(evaluate(query, full)) == [()]
        assert count_answers(query, full) == 1
        half = Database.from_relations([
            Relation("N", 0, frozenset({()}), 3),
            Relation("M", 0, frozenset(), 3),
        ])
        assert list(evaluate(query, half)) == []
        assert_kernel_agrees(query, full)
        assert_kernel_agrees(query, half)


class TestInt64Edges:
    """``Relation`` admits a domain of ``2**63``: nothing may be computed
    as ``value * domain_size``."""

    TOP = 2**63 - 1

    def _database(self):
        # y in {TOP, TOP - 2} and z in {TOP - 1, TOP - 3}: y * 2**63 + z
        # wraps to the same int64 for both y, so a raw mixed-radix key
        # would join R(.., TOP, z) with S(TOP - 2, z, ..).
        top = self.TOP
        return Database.from_relations([
            Relation.build("R", [(1, top, top - 1), (2, top - 2, top - 1),
                                 (3, top, top - 3)], domain_size=2**63),
            Relation.build("S", [(top, top - 1, 7), (top - 2, top - 3, 8),
                                 (top - 2, top - 1, 9)], domain_size=2**63),
            Relation.build("T", [(top - 1, top), (top - 1, top - 2),
                                 (top - 3, top)], domain_size=2**63),
        ])

    QUERY = parse_query("q(x, y, z, w) :- R(x, y, z), S(y, z, w), T(z, y)")

    def test_a_join_on_two_variables_next_to_the_top_of_int64(self):
        db = self._database()
        top = self.TOP
        expected = {(1, top, top - 1, 7), (2, top - 2, top - 1, 9)}
        assert set(iterate_answers(self.QUERY, db)) == expected
        assert evaluate(self.QUERY, db) == expected
        assert count_answers(self.QUERY, db) == 2
        assert_tagged_join_is_the_union_of_local_joins(
            self.QUERY, db, lambda rel, tup: {0, 1 + tup[0] % 2}
        )

    def test_keys_are_ranked_again_before_they_leave_int64(self, monkeypatch):
        """With the limit at 4 every second fold re-ranks the key (and the
        answers are canonicalised by ``lexsort``)."""
        monkeypatch.setattr(join_module, "_CODE_LIMIT", 4)
        self.test_a_join_on_two_variables_next_to_the_top_of_int64()
        query = KERNEL_QUERIES["two shared variables, head permuted"]
        db = Database.from_relations(
            uniform_relation(name, 30, 6, seed=seed)
            for seed, name in enumerate("RST")
        )
        assert_kernel_agrees(query, db)

    @pytest.mark.parametrize("arity, domain_size", [
        (1, 2**63), (3, 2**21), (7, 2**9), (9, 2**7), (2, 3037000499),
    ])
    def test_both_canonicalisations_return_the_same_array(
        self, arity, domain_size
    ):
        """``domain_size ** arity`` is ``2**63`` (or, for the last row,
        just under it): the last size whose rows pack into one int64, and
        one past it the first that ``lexsort`` has to order."""
        assert domain_size ** arity <= 2**63 < (domain_size + 1) ** arity
        edge = [0, 1, domain_size // 2, domain_size - 2, domain_size - 1]
        rows = [
            tuple(edge[(i * (position + 2) + position) % 5]
                  for position in range(arity))
            for i in range(25)
        ] + [(domain_size - 1,) * arity, (0,) * arity] * 2
        columns = Batch(arity, rows=rows).columns
        packed = Answers.of(columns, domain_size)
        sorted_by_column = Answers.of(columns, domain_size + 1)
        assert np.array_equal(packed.columns, sorted_by_column.columns)
        assert packed == sorted_by_column
        assert list(packed) == sorted(set(rows))


class TestAnswersValue:
    """The contract of the value ``evaluate`` and every engine return."""

    ROWS = [(2, 1), (0, 5), (0, 3), (2, 0), (0, 5)]

    def _answers(self, rows=ROWS):
        return Answers.of(Batch(2, rows=list(rows)).columns, domain_size=6)

    def test_is_the_sorted_set_of_its_rows(self):
        answers = self._answers()
        assert len(answers) == 4
        assert list(answers) == [(0, 3), (0, 5), (2, 0), (2, 1)]
        assert all(type(v) is int for row in answers for v in row)
        assert list(answers) == list(answers), "iterates more than once"
        assert answers and not self._answers([])

    def test_membership(self):
        answers = self._answers()
        assert all(row in answers for row in self.ROWS)
        for stranger in [(0, 4), (1, 0), (2, 2), (0,), (0, 3, 0), [0, 3],
                         (0, 3.0), (0, 2**70), (-1, 3), "03", None]:
            assert stranger not in answers
        assert () in Answers.of(np.empty((0, 5), dtype=np.int64), 6)
        assert () not in Answers.of(np.empty((0, 0), dtype=np.int64), 6)

    def test_equality_with_its_own_kind_and_with_sets_of_tuples(self):
        answers = self._answers()
        rows = frozenset(self.ROWS)
        assert answers == self._answers(sorted(rows))
        assert answers == rows and rows == answers
        assert answers == set(rows) and set(rows) == answers
        one_row_differs = rows - {(2, 0)} | {(2, 2)}
        assert answers != one_row_differs and one_row_differs != answers
        assert answers != self._answers(one_row_differs)
        assert answers != rows - {(2, 0)} and answers != rows | {(5, 5)}
        assert answers != list(rows) and answers != None  # noqa: E711
        # Same values, another arity: not the same answers.
        flat = Answers.of(np.arange(8, dtype=np.int64)[None], 8)
        assert flat != Answers.of(np.arange(8, dtype=np.int64).reshape(2, 4), 8)

    def test_the_array_is_read_only_and_survives_pickling(self):
        answers = self._answers()
        clone = pickle.loads(pickle.dumps(answers))
        assert clone == answers and list(clone) == list(answers)
        for value in (answers, clone):
            assert value.columns.dtype == np.int64
            assert not value.columns.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                value.columns[0, 0] = 9

    def test_nullary_answers(self):
        none = Answers.of(np.empty((0, 0), dtype=np.int64), 6)
        one = Answers.of(np.empty((0, 3), dtype=np.int64), 6)
        assert list(none) == [] and none == frozenset()
        assert list(one) == [()] and one == {()} and one != none


class TestLocalJoin:
    def test_missing_fragment_is_empty(self):
        q = parse_query("q(x, y, z) :- S1(x, z), S2(y, z)")
        assert local_join(q, {"S1": {(0, 1)}}, domain_size=4) == frozenset()

    def test_local_fragments_join(self):
        q = parse_query("q(x, y, z) :- S1(x, z), S2(y, z)")
        fragments = {"S1": {(0, 1)}, "S2": {(2, 1), (3, 0)}}
        assert local_join(q, fragments, domain_size=4) == frozenset({(0, 2, 1)})


class TestExpectedAnswerCount:
    def test_lemma_a1_formula(self):
        """E[|q(I)|] = n^(k-a) * prod m_j."""
        q = triangle_query()
        value = expected_answer_count(q, {"S1": 10, "S2": 20, "S3": 30}, 100)
        assert math.isclose(value, 100.0 ** (3 - 6) * 10 * 20 * 30)

    def test_missing_cardinality_rejected(self):
        q = triangle_query()
        with pytest.raises(Exception):
            expected_answer_count(q, {"S1": 10}, 100)

    def test_empirical_match_on_random_instances(self):
        """Average |q(I)| over random instances tracks Lemma A.1 within
        1.3 % (measured 0.9896 here, 1.0104 on E12's larger instances)."""
        q = parse_query("q(x, y, z) :- S1(x, z), S2(y, z)")
        for n, m, trials, first_seed in [(40, 120, 30, 1), (150, 400, 20, 1000)]:
            predicted = expected_answer_count(q, {"S1": m, "S2": m}, n)
            total = 0
            for seed in range(first_seed, first_seed + 2 * trials, 2):
                db = Database.from_relations(
                    [
                        uniform_relation("S1", m, n, seed=seed),
                        uniform_relation("S2", m, n, seed=seed + 1),
                    ]
                )
                total += count_answers(q, db)
            assert abs(total / trials / predicted - 1) <= 0.013, (n, m)

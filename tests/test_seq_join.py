"""Unit tests for the sequential multiway join oracle."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import uniform_relation
from repro.query import parse_query, triangle_query
from repro.seq import (
    Database,
    Relation,
    count_answers,
    evaluate,
    expected_answer_count,
    iterate_answers,
    local_join,
)


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


def assert_kernel_agrees(query, db):
    """All four entry points of the kernel against ``brute_force``."""
    expected = brute_force(query, db)
    assert evaluate(query, db) == expected
    assert set(iterate_answers(query, db)) == expected
    assert count_answers(query, db) == len(expected)
    fragments = {rel.name: set(rel.tuples) for rel in db}
    assert local_join(query, fragments, db.domain_size) == expected


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

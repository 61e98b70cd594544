"""Answer fingerprints and the sum-product kernel under them.

``repro.seq.acyclic.fold`` sums over the answers of any query — over a
join tree, without listing them, when it is acyclic;
``repro.mpc.fingerprint`` weighs them by hashes.  Held here against the
listed answers — untagged, and tagged with the server as the servers'
local joins emit them — from the array kernel and from the tuple kernel,
and, through the verifier above the engines, against the set comparison
it replaces.
"""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.api import Sweep
from repro.api.experiment import execute_cells
from repro.mpc.execution import ExecutionResult
from repro.mpc.fingerprint import SEED, fingerprint
from repro.mpc.hashing import LARGE_PRIME, HashFamily
from repro.query import Atom, ConjunctiveQuery, parse_query
from repro.rounds import Oracle
from repro.seq import (
    Answers,
    Database,
    Relation,
    count_answers,
    evaluate,
    iterate_answers,
)
from repro.seq.acyclic import join_tree
from repro.seq.join import join_columns
from repro.seq.relation import Batch

SHAPES = {
    "join": parse_query("q(x, y, z) :- S1(x, z), S2(y, z)"),
    "3-path": parse_query("q(w, x, y, z) :- R(w, x), S(x, y), T(y, z)"),
    "star": parse_query("q(z, x, y, w) :- A(z, x), B(z, y), C(z, w)"),
    "cartesian product": parse_query("q(x, y, z) :- S(x), T(y, z)"),
    "repeated variable": parse_query("q(x, y) :- S(x, x), T(x, y)"),
    "two shared variables": parse_query("q(x, y, z) :- R(x, y, z), S(y, z)"),
}


@st.composite
def databases(draw, query):
    """Relations of at most 8 tuples over at most 4 values; any may be
    empty."""
    domain = draw(st.integers(1, 4))
    return Database.from_relations(
        Relation(atom.name, atom.arity, draw(st.frozensets(
            st.tuples(*[st.integers(0, domain - 1)] * atom.arity),
            max_size=8)), domain)
        for atom in query.atoms
    )


@st.composite
def acyclic_queries(draw):
    """One of :data:`SHAPES`, or a random full CQ of 1-4 atoms over four
    variables that the GYO reduction empties."""
    if draw(st.booleans()):
        return SHAPES[draw(st.sampled_from(sorted(SHAPES)))]
    atoms = [
        Atom(f"R{number}", tuple(draw(
            st.lists(st.sampled_from("wxyz"), max_size=3))))
        for number in range(draw(st.integers(1, 4)))
    ]
    body = dict.fromkeys(v for atom in atoms for v in atom.variables)
    query = ConjunctiveQuery(atoms, head=draw(st.permutations(list(body))))
    assume(join_tree(query) is not None)
    return query


@st.composite
def deliveries(draw, db, p):
    """Every tuple to a set of 0-3 of ``p`` servers, as tagged columns."""
    delivered = {}
    for relation in db:
        rows = [(*tup, server) for tup in sorted(relation.tuples)
                for server in sorted(draw(st.sets(
                    st.integers(0, p - 1), max_size=3)))]
        delivered[relation.name] = Batch(relation.arity + 1, rows=rows).columns
    return delivered


def columns_of(db):
    return {relation.name: relation.batch.columns for relation in db}


def defining_sum(query, rows):
    """``(|A|, F(A))`` of a listed multiset, straight from the definition."""
    family, total = HashFamily(SEED), 0
    for row in rows:
        weight = 1
        for variable, value in zip(query.head, row):
            weight = weight * family.raw(f"answers:{variable}", value) \
                % LARGE_PRIME
        total = (total + weight) % LARGE_PRIME
    return len(rows), total


def emitted(query, delivered):
    """The servers' local answers, once per server that finds each."""
    return list(map(tuple, join_columns(query, delivered, tagged=True)
                    .T.tolist()))


class TestFingerprintAgainstTheListedAnswers:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_untagged_and_tagged(self, data):
        query = data.draw(acyclic_queries())
        db = data.draw(databases(query))
        listed = list(evaluate(query, db))
        assert fingerprint(query, columns_of(db)) == \
            defining_sum(query, listed)
        assert count_answers(query, db) == len(listed)
        delivered = data.draw(deliveries(db, data.draw(st.integers(1, 4))))
        assert fingerprint(query, delivered, tagged=True) == \
            defining_sum(query, emitted(query, delivered))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_one_tuple_dropped_or_duplicated(self, data):
        """A changed delivery moves the fingerprint exactly when it moves
        the emitted multiset; the verifier's verdict, fallback included,
        is the set comparison's."""
        query = data.draw(acyclic_queries())
        db = data.draw(databases(query))
        p = data.draw(st.integers(1, 4))
        delivered = data.draw(deliveries(db, p))
        name = data.draw(st.sampled_from(sorted(delivered)))
        columns = delivered[name]
        if columns.shape[1] and data.draw(st.booleans()):
            drop = data.draw(st.integers(0, columns.shape[1] - 1))
            changed = np.delete(columns, drop, axis=1)
        else:
            tuples = sorted(db.relation(name).tuples)
            assume(tuples)
            tup = data.draw(st.sampled_from(tuples))
            server = data.draw(st.integers(0, p - 1))
            assume(not (columns.T == (*tup, server)).all(axis=1).any())
            changed = np.concatenate(
                (columns, np.array([(*tup, server)]).T), axis=1)
        mutated = {**delivered, name: changed}
        assert (fingerprint(query, mutated, tagged=True)
                != fingerprint(query, delivered, tagged=True)) == \
            (Counter(emitted(query, mutated))
             != Counter(emitted(query, delivered)))
        self.assert_verdict_is_the_set_comparison(query, db, mutated)

    @staticmethod
    def assert_verdict_is_the_set_comparison(query, db, delivered):
        found = Answers.of(join_columns(query, delivered, tagged=True),
                           db.domain_size)
        final = ExecutionResult(
            algorithm="test", query=query, p=1, seed=0, report=None,
            answers=None, deliveries=delivered)
        assert Oracle(query, db).compare(final) == \
            (found == evaluate(query, db), len(found))

    def test_a_dropped_answer_and_a_repeated_one_are_seen(self):
        query = SHAPES["join"]
        db = Database.from_relations([
            Relation.build("S1", [(0, 5), (1, 5)], domain_size=8),
            Relation.build("S2", [(2, 5), (3, 6)], domain_size=8),
        ])
        whole = {name: np.concatenate(
            (columns, np.zeros((1, columns.shape[1]), dtype=np.int64)))
            for name, columns in columns_of(db).items()}
        exact = fingerprint(query, whole, tagged=True)
        assert exact == fingerprint(query, columns_of(db))
        dropped = {**whole, "S1": whole["S1"][:, :1]}
        assert fingerprint(query, dropped, tagged=True)[0] == 1
        # S1(0, 5) and S2(2, 5) also meet on server 1: (0, 2, 5) twice.
        again = {
            "S1": np.concatenate((whole["S1"], [[0], [5], [1]]), axis=1),
            "S2": np.concatenate((whole["S2"], [[2], [5], [1]]), axis=1),
        }
        assert fingerprint(query, again, tagged=True)[0] == exact[0] + 1
        assert fingerprint(query, again, tagged=True) != exact


#: Cyclic and acyclic shapes for the kernel against the tuple kernel.
KERNEL_SHAPES = {
    "triangle": parse_query("q(x, y, z) :- R(x, y), S(y, z), T(z, x)"),
    "4-cycle": parse_query("q(w, x, y, z) :- R(w, x), S(x, y), T(y, z), "
                           "U(z, w)"),
    "K4": parse_query("q(a, b, c, d) :- R1(a, b), R2(a, c), R3(a, d), "
                      "R4(b, c), R5(b, d), R6(c, d)"),
    "path": SHAPES["3-path"],
    "star": SHAPES["star"],
}


def tuple_kernel_emissions(query, delivered, domain):
    """Every server's local answers by the tuple kernel
    (``iterate_answers``), once per server that finds each."""
    servers = {int(s) for columns in delivered.values() for s in columns[-1]}
    rows = []
    for server in sorted(servers):
        local = Database.from_relations(
            Relation(atom.name, atom.arity, frozenset(
                tuple(row[:-1]) for row in delivered[atom.name].T.tolist()
                if row[-1] == server), domain)
            for atom in query.atoms)
        rows.extend(iterate_answers(query, local))
    return rows


class TestTheKernelAgainstTheTupleKernel:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_untagged_and_tagged(self, data):
        """Count and fingerprint of every answer, and of every server's
        emissions, cyclic query or not."""
        query = KERNEL_SHAPES[data.draw(st.sampled_from(
            sorted(KERNEL_SHAPES)))]
        db = data.draw(databases(query))
        listed = list(iterate_answers(query, db))
        assert fingerprint(query, columns_of(db)) == \
            defining_sum(query, listed)
        assert count_answers(query, db) == len(listed)
        delivered = data.draw(deliveries(db, data.draw(st.integers(1, 4))))
        assert fingerprint(query, delivered, tagged=True) == defining_sum(
            query, tuple_kernel_emissions(query, delivered, db.domain_size))


class TestTheJoinTreePass:
    def test_a_cyclic_query_has_no_tree(self):
        triangle = parse_query("q(x, y, z) :- R(x, y), S(y, z), T(z, x)")
        assert join_tree(triangle) is None
        db = Database.from_relations(
            Relation.build(name, [(0, 1), (1, 0), (0, 0)], domain_size=2)
            for name in "RST")
        listed = list(iterate_answers(triangle, db))
        assert fingerprint(triangle, columns_of(db)) == \
            defining_sum(triangle, listed)
        assert count_answers(triangle, db) == len(listed) == 4

    def test_counts_past_int64_are_exact(self):
        """Five unary relations of 10^4 values: 10^20 answers."""
        query = parse_query("q(a, b, c, d, e) :- A(a), B(b), C(c), D(d), E(e)")
        db = Database.from_relations(
            Relation.from_columns(name, np.arange(10**4)[None], 10**4)
            for name in "ABCDE")
        assert count_answers(query, db) == 10**20
        assert fingerprint(query, columns_of(db))[0] == 10**20


JOIN_TEXT = "q(x,y,z) :- S1(x,z), S2(y,z)"


class TestVerifiedCells:
    def test_bin_hypercube_repeats_answers_and_takes_the_fallback(self):
        """On this instance bin-hypercube's servers emit 6 184 answers for
        6 129 distinct ones: its record keeps ``complete`` and
        ``answer_count``, and only it falls back to the set comparison,
        evaluating the oracle's answers under their own span."""
        sweep = Sweep(query=JOIN_TEXT, workload="zipf", skews=(1.2,),
                      m_values=(300,), p_values=(16,), seeds=(1,),
                      verify=True, algorithms="applicable")
        cells = [replace(cell, observe=True) for cell in sweep.cells()]
        records = {r.algorithm: r for r in execute_cells(cells)}
        assert len(records) > 2 and "bin-hypercube" in records
        for key, record in records.items():
            assert record.ok and record.complete is True
            assert record.answer_count == 6129
            counters = record.metrics["counters"]
            lazy = record.metrics["histograms"].get(
                "rounds.verify.answers.seconds")
            if key == "bin-hypercube":
                assert counters["verify.fallbacks"] == 1
                assert counters["verify.duplicate_answers"] == 55
                # The fallback evaluates the oracle's answers in its span.
                assert lazy["count"] == 1
            else:
                assert "verify.fallbacks" not in counters, key
                assert lazy is None, key

    def test_a_verified_triangle_joins_nothing(self):
        """Every applicable plan emits each of the 4 480 answers once: the
        fingerprints agree, so no server's local join runs and no set is
        compared."""
        sweep = Sweep(query="q(x,y,z) :- R(x,y), S(y,z), T(z,x)",
                      workload="zipf", skews=(1.2,), m_values=(5000,),
                      p_values=(64,), seeds=(7,), domain=300, verify=True,
                      algorithms="applicable")
        cells = [replace(cell, observe=True) for cell in sweep.cells()]
        records = execute_cells(cells)
        assert len(records) == 4
        for record in records:
            assert record.ok and record.complete is True, record.algorithm
            assert record.answer_count == 4480
            assert "verify.fallbacks" not in record.metrics["counters"]
            assert "engine.local_join.seconds" not in \
                record.metrics["histograms"], record.algorithm

    @pytest.mark.parametrize("text", [
        JOIN_TEXT,
        "q(w,x,y,z) :- R(w,x), S(x,y), T(y,z)",
        "q(z,x,y,w) :- A(z,x), B(z,y), C(z,w)",
        "q(x,y,u,v) :- A(x,y), B(u,v)",
        "q(x,y,z) :- R(x,y), S(y,z), T(z,x)",
    ])
    def test_both_engines_write_the_same_verified_records(self, text):
        def records(engine):
            sweep = Sweep(query=text, workload="zipf", skews=(1.2,),
                          m_values=(60,), p_values=(8,), seeds=(1,),
                          verify=True, algorithms="applicable",
                          rounds=(1, 2), engine=engine)
            return [replace(r, wall_seconds=0.0, engine="").to_dict()
                    for r in sweep.run()]

        reference, batched = records("reference"), records("batched")
        assert reference == batched
        assert all(r["status"] == "ok" and r["complete"] is True
                   for r in batched)

"""Unit tests for the conjunctive query model."""

import pytest

from repro.query import Atom, ConjunctiveQuery, QueryError
from repro.query.families import triangle_query


class TestAtom:
    def test_arity_counts_positions_not_distinct_variables(self):
        atom = Atom("S", ("x", "x", "y"))
        assert atom.arity == 3
        assert atom.variable_set == frozenset({"x", "y"})

    def test_positions_of_repeated_variable(self):
        atom = Atom("S", ("x", "y", "x"))
        assert atom.positions_of("x") == (0, 2)
        assert atom.positions_of("y") == (1,)
        assert atom.positions_of("z") == ()

    def test_rejects_empty_name(self):
        with pytest.raises(QueryError):
            Atom("", ("x",))

    def test_rejects_empty_variable(self):
        with pytest.raises(QueryError):
            Atom("S", ("x", ""))

    def test_str(self):
        assert str(Atom("S1", ("x", "z"))) == "S1(x, z)"

    def test_zero_arity_atom_is_allowed(self):
        atom = Atom("S", ())
        assert atom.arity == 0
        assert atom.variable_set == frozenset()


class TestConjunctiveQuery:
    def test_head_defaults_to_first_appearance_order(self):
        q = ConjunctiveQuery([Atom("S1", ("x", "z")), Atom("S2", ("y", "z"))])
        assert q.head == ("x", "z", "y")

    def test_explicit_head_reorders(self):
        q = ConjunctiveQuery(
            [Atom("S1", ("x", "z")), Atom("S2", ("y", "z"))],
            head=("x", "y", "z"),
        )
        assert q.head == ("x", "y", "z")

    def test_rejects_self_join(self):
        with pytest.raises(QueryError, match="self-join"):
            ConjunctiveQuery([Atom("S", ("x", "y")), Atom("S", ("y", "z"))])

    def test_rejects_non_full_head(self):
        with pytest.raises(QueryError, match="full"):
            ConjunctiveQuery([Atom("S", ("x", "y"))], head=("x",))

    def test_rejects_head_with_extra_variable(self):
        with pytest.raises(QueryError, match="full"):
            ConjunctiveQuery([Atom("S", ("x",))], head=("x", "w"))

    def test_rejects_duplicate_head_variable(self):
        with pytest.raises(QueryError, match="full"):
            ConjunctiveQuery([Atom("S", ("x", "y"))], head=("x", "x", "y"))

    def test_rejects_empty_body(self):
        with pytest.raises(QueryError):
            ConjunctiveQuery([])

    def test_total_arity(self):
        q = triangle_query()
        assert q.total_arity == 6
        assert q.num_variables == 3
        assert q.num_atoms == 3

    def test_atom_lookup(self):
        q = triangle_query()
        assert q.atom("S2").variables == ("x2", "x3")
        with pytest.raises(QueryError):
            q.atom("nope")

    def test_atoms_containing(self):
        q = triangle_query()
        names = [a.name for a in q.atoms_containing("x2")]
        assert names == ["S1", "S2"]
        with pytest.raises(QueryError):
            q.atoms_containing("w")

    def test_incidence(self):
        q = ConjunctiveQuery([Atom("S1", ("x", "z")), Atom("S2", ("y", "z"))])
        inc = q.incidence()
        assert inc["z"] == ("S1", "S2")
        assert inc["x"] == ("S1",)

    def test_adjacency(self):
        q = triangle_query()
        adj = q.adjacency()
        assert adj["x1"] == frozenset({"x2", "x3"})

    def test_connectivity(self):
        q = triangle_query()
        assert q.is_connected()
        product = ConjunctiveQuery([Atom("S1", ("x",)), Atom("S2", ("y",))])
        assert not product.is_connected()

    def test_equality_and_hash(self):
        q1 = triangle_query()
        q2 = triangle_query()
        assert q1 == q2
        assert hash(q1) == hash(q2)
        assert q1 != ConjunctiveQuery([Atom("S1", ("x",))])

    def test_iteration_and_len(self):
        q = triangle_query()
        assert len(q) == 3
        assert [a.name for a in q] == ["S1", "S2", "S3"]

    def test_str_roundtrips_structure(self):
        q = triangle_query()
        assert str(q) == "C3(x1, x2, x3) :- S1(x1, x2), S2(x2, x3), S3(x3, x1)"

"""Unit tests for residual queries, extended queries, and saturation."""

from fractions import Fraction

import pytest

from repro.query import (
    QueryError,
    extended_query,
    packing_slacks,
    parse_query,
    residual_query,
    simple_join_query,
    triangle_query,
)


class TestResidualQuery:
    def test_example_4_8_join(self):
        """x = {z} on the simple join: residual is S1(x), S2(y)."""
        r = residual_query(simple_join_query(), {"z"})
        assert [str(a) for a in r.query.atoms] == ["S1(x)", "S2(y)"]
        assert r.remaining == ("x", "y")

    def test_example_4_8_triangle(self):
        """x = {x1} on C3: residual is S1(x2), S2(x2,x3), S3(x3)."""
        r = residual_query(triangle_query(), {"x1"})
        assert [str(a) for a in r.query.atoms] == [
            "S1(x2)",
            "S2(x2, x3)",
            "S3(x3)",
        ]

    def test_remove_everything(self):
        r = residual_query(simple_join_query(), {"x", "y", "z"})
        assert all(a.arity == 0 for a in r.query.atoms)
        assert r.remaining == ()

    def test_remove_nothing(self):
        r = residual_query(triangle_query(), set())
        assert r.query.head == triangle_query().head

    def test_unknown_variable_rejected(self):
        with pytest.raises(QueryError):
            residual_query(triangle_query(), {"nope"})


class TestSaturation:
    def test_join_packing_saturates_z(self):
        """(1,1) saturates z in the simple join (Example 4.8)."""
        r = residual_query(simple_join_query(), {"z"})
        assert r.saturates({"S1": 1, "S2": 1})

    def test_join_packing_not_saturating(self):
        r = residual_query(simple_join_query(), {"z"})
        assert not r.saturates({"S1": Fraction(1, 2), "S2": Fraction(1, 4)})
        assert not r.saturates({"S1": 0, "S2": 0})

    def test_triangle_saturation_from_paper(self):
        """(1,0,1) saturates x1 in C3; (0,1,0) does not (Example 4.8)."""
        r = residual_query(triangle_query(), {"x1"})
        assert r.saturates({"S1": 1, "S2": 0, "S3": 1})
        assert not r.saturates({"S1": 0, "S2": 1, "S3": 0})

    def test_missing_atoms_default_to_zero(self):
        r = residual_query(simple_join_query(), {"z"})
        assert not r.saturates({"S1": Fraction(1, 2)})
        # S1 alone saturates z because z occurs in S1 with weight 1.
        assert r.saturates({"S1": 1})


class TestExtendedQuery:
    def test_adds_one_unary_atom_per_variable(self):
        q = triangle_query()
        ext = extended_query(q)
        assert ext.num_atoms == q.num_atoms + q.num_variables
        assert ext.atom("T_x1").variables == ("x1",)

    def test_head_unchanged(self):
        q = simple_join_query()
        assert extended_query(q).head == q.head

    def test_prefix_collision_rejected(self):
        q = parse_query("q(x) :- T_x(x), S(x)")
        with pytest.raises(QueryError):
            extended_query(q)


class TestPackingSlacks:
    def test_slacks_complete_packing_to_tight(self):
        """Lemma A.5: (u, u') is tight on the extended query."""
        q = triangle_query()
        u = {"S1": Fraction(1, 2), "S2": Fraction(1, 2), "S3": Fraction(1, 2)}
        slacks = packing_slacks(q, u)
        assert all(s == 0 for s in slacks.values())

    def test_slack_values(self):
        q = simple_join_query()
        slacks = packing_slacks(q, {"S1": Fraction(1, 2), "S2": 0})
        assert slacks["x"] == Fraction(1, 2)
        assert slacks["y"] == 1
        assert slacks["z"] == Fraction(1, 2)

    def test_oversubscribed_rejected(self):
        q = simple_join_query()
        with pytest.raises(QueryError):
            packing_slacks(q, {"S1": 1, "S2": Fraction(1, 2)})

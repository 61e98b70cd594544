"""Unit tests for the standard query families."""

import pytest

from repro.query import (
    cartesian_product_query,
    chain_query,
    clique_query,
    cycle_query,
    simple_join_query,
    star_query,
    triangle_query,
    two_path_query,
)


class TestFamilyShapes:
    def test_simple_join(self):
        q = simple_join_query()
        assert q.head == ("x", "y", "z")
        assert q.atom("S1").variables == ("x", "z")
        assert q.atom("S2").variables == ("y", "z")

    def test_chain_structure(self):
        q = chain_query(3)
        assert q.num_atoms == 3
        assert q.num_variables == 4
        # Consecutive atoms share exactly one variable.
        for i in range(2):
            shared = q.atoms[i].variable_set & q.atoms[i + 1].variable_set
            assert len(shared) == 1

    def test_chain_of_one(self):
        q = chain_query(1)
        assert q.num_atoms == 1
        assert q.num_variables == 2

    def test_cycle_closes(self):
        q = cycle_query(4)
        assert q.num_atoms == 4
        assert q.num_variables == 4
        shared = q.atoms[0].variable_set & q.atoms[-1].variable_set
        assert len(shared) == 1

    def test_triangle_matches_paper_eq4(self):
        q = triangle_query()
        assert str(q) == "C3(x1, x2, x3) :- S1(x1, x2), S2(x2, x3), S3(x3, x1)"

    def test_star_center(self):
        q = star_query(3)
        assert q.num_atoms == 3
        assert all("z" in a.variable_set for a in q.atoms)
        assert q.num_variables == 4

    def test_cartesian_product_disjoint(self):
        q = cartesian_product_query(3)
        seen = set()
        for atom in q.atoms:
            assert not (atom.variable_set & seen)
            seen |= atom.variable_set

    def test_cartesian_product_arity(self):
        q = cartesian_product_query(2, arity=3)
        assert all(a.arity == 3 for a in q.atoms)

    def test_clique_pairs(self):
        q = clique_query(4)
        assert q.num_atoms == 6
        assert q.num_variables == 4

    def test_two_path(self):
        q = two_path_query()
        assert q.num_atoms == 2
        assert q.num_variables == 3

    @pytest.mark.parametrize(
        "factory, bad",
        [
            (chain_query, 0),
            (cycle_query, 1),
            (star_query, 0),
            (cartesian_product_query, 0),
            (clique_query, 1),
        ],
    )
    def test_rejects_degenerate_sizes(self, factory, bad):
        with pytest.raises(ValueError):
            factory(bad)

    def test_connectivity_of_families(self):
        assert triangle_query().is_connected()
        assert chain_query(5).is_connected()
        assert star_query(4).is_connected()
        assert not cartesian_product_query(2).is_connected()

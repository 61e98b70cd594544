"""Unit tests for the baselines: hash join, broadcast rule, cartesian grid."""

import math

import pytest

from repro.core import (
    BroadcastHyperCube,
    CartesianProductAlgorithm,
    HashJoinAlgorithm,
    cartesian_lower_bound_bits,
    default_partition_variables,
    optimal_grid,
    reduced_query,
)
from repro.data import single_value_relation, uniform_relation
from repro.mpc import run_one_round
from repro.query import (
    QueryError,
    cartesian_product_query,
    parse_query,
    simple_join_query,
    triangle_query,
)
from repro.seq import Database


class TestHashJoin:
    def test_default_partition_variables(self):
        assert default_partition_variables(simple_join_query()) == ("z",)
        assert default_partition_variables(triangle_query()) == ()

    def test_needs_partition_variables_for_triangle(self):
        with pytest.raises(QueryError):
            HashJoinAlgorithm(triangle_query(), 16)

    def test_unknown_partition_variable(self):
        with pytest.raises(QueryError):
            HashJoinAlgorithm(simple_join_query(), 16, ["nope"])

    def test_shares_concentrate_on_keys(self):
        algo = HashJoinAlgorithm(simple_join_query(), 16)
        assert algo.shares == {"x": 1, "y": 1, "z": 16}

    def test_multiple_keys_split_budget(self):
        q = parse_query("q(x, y, z) :- S1(x, y, z), S2(x, y)")
        algo = HashJoinAlgorithm(q, 16, ["x", "y"])
        assert algo.shares["x"] == algo.shares["y"] == 4

    def test_complete_on_uniform(self):
        q = simple_join_query()
        db = Database.from_relations(
            [
                uniform_relation("S1", 300, 900, seed=1),
                uniform_relation("S2", 300, 900, seed=2),
            ]
        )
        result = run_one_round(HashJoinAlgorithm(q, 8), db, 8, verify=True)
        assert result.is_complete

    def test_collapses_under_skew_example_3_3(self):
        """All tuples share z: one server receives everything."""
        q = simple_join_query()
        m = 60
        db = Database.from_relations(
            [
                single_value_relation("S1", m, 200, seed=3),
                single_value_relation("S2", m, 200, seed=4),
            ]
        )
        result = run_one_round(HashJoinAlgorithm(q, 8), db, 8, verify=True)
        assert result.is_complete
        assert result.max_load_tuples == 2 * m  # total collapse


class TestBroadcastRule:
    def test_reduced_query_drops_atoms(self):
        q = triangle_query()
        reduced = reduced_query(q, ["S3"])
        assert [a.name for a in reduced.atoms] == ["S1", "S2"]
        assert set(reduced.head) == {"x1", "x2", "x3"}

    def test_reduced_query_keeps_largest_when_all_dropped(self):
        q = simple_join_query()
        reduced = reduced_query(q, ["S1", "S2"])
        assert reduced.num_atoms == 1

    def test_complete_with_tiny_relation(self):
        q = simple_join_query()
        db = Database.from_relations(
            [
                uniform_relation("S1", 500, 2000, seed=5),
                uniform_relation("S2", 4, 2000, seed=6),  # tiny: broadcast
            ]
        )
        result = run_one_round(BroadcastHyperCube(q), db, 16, verify=True)
        assert result.is_complete
        assert "S2" in result.details["broadcast"]

    def test_no_broadcast_when_balanced(self):
        q = simple_join_query()
        db = Database.from_relations(
            [
                uniform_relation("S1", 400, 2000, seed=7),
                uniform_relation("S2", 400, 2000, seed=8),
            ]
        )
        result = run_one_round(BroadcastHyperCube(q), db, 16, verify=True)
        assert result.is_complete
        assert result.details["broadcast"] == []

    def test_broadcast_load_stays_small(self):
        """Broadcasting M_j <= M/p adds at most ~M/p per server."""
        q = simple_join_query()
        db = Database.from_relations(
            [
                uniform_relation("S1", 1600, 20000, seed=9),
                uniform_relation("S2", 8, 20000, seed=10),
            ]
        )
        p = 16
        result = run_one_round(BroadcastHyperCube(q), db, p, compute_answers=False)
        m_bits = db.relation("S1").bits
        # Ideal is M/p; allow hashing slack.
        assert result.max_load_bits <= 4 * m_bits / p


class TestCartesianGrid:
    def _run(self, cardinalities, seed, p):
        """The grid algorithm, load only, on unary uniform relations."""
        db = Database.from_relations(
            [
                uniform_relation(f"S{i + 1}", m, 10**6, arity=1, seed=seed + i)
                for i, m in enumerate(cardinalities)
            ]
        )
        q = cartesian_product_query(len(cardinalities))
        algo = CartesianProductAlgorithm(q)
        return run_one_round(algo, db, p, compute_answers=False), db

    def test_rejects_shared_variables(self):
        with pytest.raises(QueryError):
            CartesianProductAlgorithm(simple_join_query())

    def test_optimal_grid_square_case(self):
        dims = optimal_grid({"S1": 1000, "S2": 1000}, 16)
        assert dims == {"S1": 4, "S2": 4}

    def test_optimal_grid_rectangular_case(self):
        """p1/p2 tracks sqrt(m1/m2) (Section 1)."""
        dims = optimal_grid({"S1": 4000, "S2": 1000}, 16)
        assert dims["S1"] == 8 and dims["S2"] == 2

    def test_optimal_grid_broadcast_regime(self):
        """m1 << m2/p: S1 is effectively broadcast (footnote 1), and the
        load is the storage bound M2/p (E11 measures 1.038 of it)."""
        dims = optimal_grid({"S1": 2, "S2": 100000}, 16)
        assert dims["S1"] == 1
        assert dims["S2"] == 16
        result, db = self._run((16, 32768), seed=73, p=16)
        assert result.details["grid"]["S1"] == 1
        assert result.max_load_bits <= 1.29 * db.relation("S2").bits / 16

    def test_grid_product_bounded(self):
        for p in (3, 7, 16, 60):
            dims = optimal_grid({"S1": 500, "S2": 300, "S3": 100}, p)
            assert math.prod(dims.values()) <= p

    def test_complete_on_product(self):
        q = cartesian_product_query(2)
        db = Database.from_relations(
            [
                uniform_relation("S1", 40, 500, arity=1, seed=11),
                uniform_relation("S2", 25, 500, arity=1, seed=12),
            ]
        )
        result = run_one_round(CartesianProductAlgorithm(q), db, 8, verify=True)
        assert result.is_complete
        assert result.answer_count == 40 * 25

    def test_load_close_to_lower_bound(self):
        """Footnote 2: L = Theta((m1 ... mu / p)^(1/u)).  A server holds
        one slice of each of the u relations, so the grid's load is u times
        the bound: between 1.0 and 1.3 u (worst measured 1.042 u).  Rows
        (cardinalities, first seed, p): this file's, E11's three ratios
        and its three-way product."""
        for cardinalities, seed, p in [
            ((4096, 1024), 13, 16), ((4096, 4096), 71, 16),
            ((8192, 2048), 71, 16), ((16384, 1024), 71, 16),
            ((2048, 2048, 2048), 75, 27),
        ]:
            result, db = self._run(cardinalities, seed, p)
            bits = {name: db.relation(name).bits for name in db.relations}
            ratio = result.max_load_bits / cartesian_lower_bound_bits(bits, p)
            assert 1.0 <= ratio <= 1.3 * len(cardinalities), cardinalities

    def test_three_way_product(self):
        q = cartesian_product_query(3)
        db = Database.from_relations(
            [
                uniform_relation("S1", 12, 100, arity=1, seed=15),
                uniform_relation("S2", 10, 100, arity=1, seed=16),
                uniform_relation("S3", 8, 100, arity=1, seed=17),
            ]
        )
        result = run_one_round(CartesianProductAlgorithm(q), db, 8, verify=True)
        assert result.is_complete
        assert result.answer_count == 12 * 10 * 8

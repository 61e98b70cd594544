"""Unit tests for the baselines: hash join, broadcast rule, cartesian grid."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.core import (
    BroadcastHyperCube,
    CartesianProductAlgorithm,
    HashJoinAlgorithm,
    HyperCubeAlgorithm,
    cartesian_lower_bound_bits,
    default_partition_variables,
    optimal_grid,
    reduced_query,
)
from repro.data import single_value_relation, uniform_relation
from repro.mpc import HashFamily, run_one_round
from repro.query import (
    QueryError,
    cartesian_product_query,
    parse_query,
    simple_join_query,
    triangle_query,
)
from repro.rounds import run_rounds
from repro.seq import Database
from repro.stats import SimpleStatistics


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
        result = run_rounds(HashJoinAlgorithm(q, 8), db, 8, verify=True)
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
        result = run_rounds(HashJoinAlgorithm(q, 8), db, 8, verify=True)
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
        result = run_rounds(BroadcastHyperCube(q), db, 16, verify=True)
        assert result.is_complete
        assert "S2" in result.rounds[0].details["broadcast"]

    def test_no_broadcast_when_balanced(self):
        q = simple_join_query()
        db = Database.from_relations(
            [
                uniform_relation("S1", 400, 2000, seed=7),
                uniform_relation("S2", 400, 2000, seed=8),
            ]
        )
        result = run_rounds(BroadcastHyperCube(q), db, 16, verify=True)
        assert result.is_complete
        assert result.rounds[0].details["broadcast"] == []

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


    # The loads below are pinned to the values of the dedicated broadcast
    # plan the HyperCube grid replaced: the two must stay the same numbers.

    def test_a_dropped_middle_atom_costs_its_whole_size(self):
        q = parse_query("q(x,y,z) :- S1(x,y), S2(z), S3(y,z)")
        stats = SimpleStatistics.from_cardinalities(
            q, {"S1": 100000, "S2": 7, "S3": 100000}, 10**6
        )
        assert BroadcastHyperCube(q).predicted_load_bits(stats, 64) == (
            124711.82453826137
        )
        db = Database.from_relations([
            uniform_relation("S1", 400, 200, seed=1),
            uniform_relation("S2", 3, 200, arity=1, seed=2),
            uniform_relation("S3", 400, 200, seed=3),
        ])
        for engine in ("reference", "batched"):
            result = run_rounds(
                BroadcastHyperCube(q), db, 16, seed=5, verify=True,
                engine=engine,
            )
            assert result.is_complete and result.answer_count == 17
            assert result.max_load_bits == 1276.523983692379
            assert result.rounds[0].details["broadcast"] == ["S2"]

    def test_a_variable_only_in_a_dropped_atom_is_no_dimension(self):
        q = parse_query("q(x,y,w) :- S1(x,y), S2(y,w)")
        stats = SimpleStatistics.from_cardinalities(
            q, {"S1": 100000, "S2": 5}, 10**6
        )
        assert BroadcastHyperCube(q).predicted_load_bits(stats, 64) == (
            62485.46746483129
        )
        db = Database.from_relations([
            uniform_relation("S1", 1500, 3000, seed=4),
            uniform_relation("S2", 5, 3000, seed=6),
        ])
        for engine in ("reference", "batched"):
            result = run_rounds(
                BroadcastHyperCube(q), db, 16, seed=5, verify=True,
                engine=engine,
            )
            assert result.is_complete and result.answer_count == 4
            assert result.max_load_bits == 2887.686696345811
            assert result.rounds[0].details["shares"] == {"x": 16, "y": 1}

    def test_kept_atoms_route_as_the_reduced_hypercube(self):
        """The grid runs in the reduced query's variable order (here
        ``y, z, x``, not the head's); a dropped atom reaches every server
        of it."""
        q = parse_query("q(x,y,z) :- S1(y,z), S2(x), S3(x,y)")
        db = Database.from_relations([
            uniform_relation("S1", 300, 100, seed=21),
            uniform_relation("S2", 3, 100, arity=1, seed=22),
            uniform_relation("S3", 300, 100, seed=23),
        ])
        p = 16
        plan = BroadcastHyperCube(q).routing_plan(db, p, HashFamily(5))
        reduced = reduced_query(q, ["S2"])
        assert reduced.variables == ("y", "z", "x")
        shares = HyperCubeAlgorithm.with_optimal_shares(
            reduced, SimpleStatistics.of(db), p
        ).shares
        inner = HyperCubeAlgorithm(reduced, shares).routing_plan(
            db, p, HashFamily(5)
        )
        for name in ("S1", "S3"):
            batch = db.relation(name).batch
            for got, want in zip(
                plan.deliveries(name, batch), inner.deliveries(name, batch)
            ):
                assert np.array_equal(got, want), name
        indices, servers = plan.deliveries("S2", db.relation("S2").batch)
        grid = math.prod(shares.values())
        assert sorted(zip(indices.tolist(), servers.tolist())) == [
            (i, server) for i in range(3) for server in range(grid)
        ]


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
        assert result.details["shares"]["S1"] == 1
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
        result = run_rounds(CartesianProductAlgorithm(q), db, 8, verify=True)
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
        result = run_rounds(CartesianProductAlgorithm(q), db, 8, verify=True)
        assert result.is_complete
        assert result.answer_count == 12 * 10 * 8

    def test_three_way_product_with_a_two_column_atom(self):
        """The prediction is pinned to the dedicated grid plan the
        HyperCube grid replaced; the measured loads to the grid keyed by
        each atom's folded columns (502.08 bits, 42 tuples under Python's
        tuple hash)."""
        q = parse_query("q(a,b,c,d) :- S1(a,b), S2(c), S3(d)")
        stats = SimpleStatistics.from_cardinalities(
            q, {"S1": 400, "S2": 300, "S3": 200}, 10**6
        )
        assert optimal_grid(stats.cardinalities, 27) == {
            "S1": 4, "S2": 3, "S3": 2
        }
        assert CartesianProductAlgorithm(q).predicted_load_bits(stats, 27) == (
            7972.62742772967
        )
        db = Database.from_relations([
            uniform_relation("S1", 60, 500, seed=7),
            uniform_relation("S2", 30, 500, arity=1, seed=8),
            uniform_relation("S3", 20, 500, arity=1, seed=9),
        ])
        for engine in ("reference", "batched"):
            result = run_rounds(
                CartesianProductAlgorithm(q), db, 27, seed=5, verify=True,
                engine=engine,
            )
            assert result.is_complete and result.answer_count == 36000
            assert result.max_load_bits == 457.25499851776647
            assert result.max_load_tuples == 39
            assert result.rounds[0].details["shares"] == {
                "S1": 6, "S2": 2, "S3": 2
            }

    def test_the_rejection_does_not_depend_on_the_hash_seed(self):
        """The shared variable named is the first in atom order, under
        every ``PYTHONHASHSEED`` (a variable set iterates in hash order)."""
        program = (
            "from repro.core import CartesianProductAlgorithm; "
            "from repro.query import parse_query; "
            "print(CartesianProductAlgorithm.applicability(parse_query("
            "'q(x,y,z) :- S1(x,y), S2(z), S3(y,z)')))"
        )

        def reason(hash_seed):
            source = os.path.dirname(os.path.dirname(repro.__file__))
            return subprocess.run(
                [sys.executable, "-c", program], text=True,
                capture_output=True, timeout=60, check=True,
                env={**os.environ, "PYTHONPATH": source,
                     "PYTHONHASHSEED": hash_seed},
            ).stdout

        assert reason("0") == reason("3") == (
            "not a cartesian product: variable 'y' is shared by S1 and S3\n"
        )

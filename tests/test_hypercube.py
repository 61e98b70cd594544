"""Unit tests for the HyperCube algorithm (Section 3.1)."""

import math
import statistics

import pytest

from repro.core import (
    HyperCubeAlgorithm,
    ShareError,
    integer_shares,
    lower_bound,
    optimal_share_exponents,
)
from repro.data import (
    matching_relation,
    single_value_relation,
    uniform_relation,
)
from repro.mpc import HashFamily, run_one_round
from repro.query import (
    chain_query,
    parse_query,
    simple_join_query,
    triangle_query,
)
from repro.seq import Database
from repro.stats import SimpleStatistics

JOIN, TRIANGLE = simple_join_query(), triangle_query()


def _database(generator, query, cardinalities, domain, seed):
    """One relation per atom, seeded ``seed``, ``seed + 1``, ..."""
    return Database.from_relations([
        generator(atom.name, m, domain, seed=seed + i)
        for i, (atom, m) in enumerate(zip(query.atoms, cardinalities))
    ])


def _lp_load(query, db, p):
    """Measured max load, in bits, of HyperCube with LP-optimal shares."""
    algo = HyperCubeAlgorithm.with_optimal_shares(
        query, SimpleStatistics.of(db), p)
    return run_one_round(algo, db, p, compute_answers=False).max_load_bits


def _bound(query, db, p):
    return lower_bound(query, SimpleStatistics.of(db).bits_vector(query), p).bits


class TestConstruction:
    def test_missing_share_rejected(self):
        q = simple_join_query()
        with pytest.raises(ShareError):
            HyperCubeAlgorithm(q, {"x": 2, "y": 2})

    def test_nonpositive_share_rejected(self):
        q = simple_join_query()
        with pytest.raises(ShareError):
            HyperCubeAlgorithm(q, {"x": 2, "y": 0, "z": 2})

    def test_grid_larger_than_p_rejected_at_plan_time(self):
        q = simple_join_query()
        algo = HyperCubeAlgorithm(q, {"x": 4, "y": 4, "z": 4})
        db = Database.from_relations(
            [
                uniform_relation("S1", 10, 32, seed=1),
                uniform_relation("S2", 10, 32, seed=2),
            ]
        )
        with pytest.raises(ShareError):
            algo.routing_plan(db, p=32, hashes=HashFamily(0))

    def test_with_equal_shares(self):
        q = triangle_query()
        algo = HyperCubeAlgorithm.with_equal_shares(q, 27)
        assert algo.shares == {"x1": 3, "x2": 3, "x3": 3}

    def test_with_optimal_shares_join(self):
        q = simple_join_query()
        db = Database.from_relations(
            [
                uniform_relation("S1", 500, 4000, seed=1),
                uniform_relation("S2", 500, 4000, seed=2),
            ]
        )
        algo = HyperCubeAlgorithm.with_optimal_shares(
            q, SimpleStatistics.of(db), 64
        )
        # Equal-size join: the LP pushes everything onto z.
        assert algo.shares["z"] == 64
        assert algo.shares["x"] == algo.shares["y"] == 1


class TestRoutingInvariants:
    def test_tuple_replicated_along_free_dimensions(self):
        q = simple_join_query()
        algo = HyperCubeAlgorithm(q, {"x": 2, "y": 3, "z": 2})
        db = Database.from_relations(
            [
                uniform_relation("S1", 10, 32, seed=1),
                uniform_relation("S2", 10, 32, seed=2),
            ]
        )
        plan = algo.routing_plan(db, p=12, hashes=HashFamily(0))
        # S1 knows x and z, free on y: exactly 3 destinations.
        destinations = list(plan.destinations("S1", (4, 7)))
        assert len(destinations) == 3
        assert len(set(destinations)) == 3
        assert all(0 <= d < 12 for d in destinations)

    def test_fixed_dimension_consistency(self):
        """Potential answers meet at the server of their hashed coordinates."""
        q = simple_join_query()
        algo = HyperCubeAlgorithm(q, {"x": 2, "y": 2, "z": 3})
        db = Database.from_relations(
            [
                uniform_relation("S1", 10, 32, seed=1),
                uniform_relation("S2", 10, 32, seed=2),
            ]
        )
        plan = algo.routing_plan(db, p=12, hashes=HashFamily(1))
        a, b, c = 3, 9, 17  # x, y, z values
        s1_dests = set(plan.destinations("S1", (a, c)))
        s2_dests = set(plan.destinations("S2", (b, c)))
        assert s1_dests & s2_dests  # some server sees both

    def test_describe_exposes_shares(self):
        q = simple_join_query()
        algo = HyperCubeAlgorithm(q, {"x": 1, "y": 1, "z": 4})
        db = Database.from_relations(
            [
                uniform_relation("S1", 10, 32, seed=1),
                uniform_relation("S2", 10, 32, seed=2),
            ]
        )
        plan = algo.routing_plan(db, p=4, hashes=HashFamily(0))
        assert plan.describe()["shares"] == {"x": 1, "y": 1, "z": 4}
        assert plan.describe()["grid_size"] == 4


class TestCorrectness:
    @pytest.mark.parametrize("p", [1, 4, 8, 27])
    def test_complete_on_uniform_join(self, p):
        q = simple_join_query()
        db = Database.from_relations(
            [
                uniform_relation("S1", 300, 900, seed=3),
                uniform_relation("S2", 300, 900, seed=4),
            ]
        )
        algo = HyperCubeAlgorithm.with_equal_shares(q, p)
        result = run_one_round(algo, db, p, verify=True)
        assert result.is_complete

    def test_complete_on_triangles(self):
        q = triangle_query()
        db = Database.from_relations(
            [
                uniform_relation("S1", 200, 120, seed=5),
                uniform_relation("S2", 200, 120, seed=6),
                uniform_relation("S3", 200, 120, seed=7),
            ]
        )
        algo = HyperCubeAlgorithm.with_equal_shares(q, 27)
        result = run_one_round(algo, db, 27, verify=True)
        assert result.is_complete

    def test_complete_under_adversarial_skew(self):
        q = simple_join_query()
        db = Database.from_relations(
            [
                single_value_relation("S1", 80, 200, seed=8),
                single_value_relation("S2", 80, 200, seed=9),
            ]
        )
        algo = HyperCubeAlgorithm.with_equal_shares(q, 8)
        result = run_one_round(algo, db, 8, verify=True)
        assert result.is_complete

    def test_complete_with_lp_shares_many_seeds(self):
        q = simple_join_query()
        db = Database.from_relations(
            [
                uniform_relation("S1", 200, 600, seed=10),
                uniform_relation("S2", 200, 600, seed=11),
            ]
        )
        algo = HyperCubeAlgorithm.with_optimal_shares(
            q, SimpleStatistics.of(db), 16
        )
        for seed in range(5):
            assert run_one_round(algo, db, 16, seed=seed, verify=True).is_complete

    def test_repeated_variable_atom(self):
        from repro.seq import Relation

        q = parse_query("q(x, y) :- S(x, x), T(x, y)")
        db = Database.from_relations(
            [
                Relation.build("S", [(0, 0), (1, 1), (1, 2)], domain_size=4),
                Relation.build("T", [(0, 3), (1, 3)], domain_size=4),
            ]
        )
        algo = HyperCubeAlgorithm(q, {"x": 2, "y": 2})
        result = run_one_round(algo, db, 4, verify=True)
        assert result.is_complete


class TestLoadPredictions:
    def test_expected_load_formula(self):
        q = simple_join_query()
        db = Database.from_relations(
            [
                uniform_relation("S1", 512, 4096, seed=12),
                uniform_relation("S2", 512, 4096, seed=13),
            ]
        )
        stats = SimpleStatistics.of(db)
        algo = HyperCubeAlgorithm(q, {"x": 1, "y": 1, "z": 16})
        expected = algo.expected_max_load_bits(stats)
        assert math.isclose(expected, stats.bits("S1") / 16)

    def test_worst_case_load_formula(self):
        """Corollary 3.2(ii): max_j M_j / min_(i in S_j) p_i."""
        q = simple_join_query()
        db = Database.from_relations(
            [
                uniform_relation("S1", 512, 4096, seed=12),
                uniform_relation("S2", 512, 4096, seed=13),
            ]
        )
        stats = SimpleStatistics.of(db)
        algo = HyperCubeAlgorithm(q, {"x": 2, "y": 2, "z": 4})
        assert math.isclose(
            algo.worst_case_load_bits(stats), stats.bits("S1") / 2
        )

    # Skew-free instances (generator, query, cardinalities, domain, first
    # seed, p): this file's own join, E1's five matching databases, E1's
    # uniform join (Lemma 3.1(3) behaves like 3.1(2)) and Example 3.7's
    # three triangle regimes (E5).
    SKEW_FREE = [
        (matching_relation, JOIN, (2000, 2000), 8000, 14, 16),
        (matching_relation, JOIN, (4096, 4096), 16384, 100, 64),
        (matching_relation, JOIN, (8192, 1024), 32768, 100, 64),
        (matching_relation, TRIANGLE, (4096, 4096, 4096), 16384, 100, 64),
        (matching_relation, TRIANGLE, (8192, 4096, 1024), 32768, 100, 64),
        (matching_relation, chain_query(3), (4096, 2048, 4096), 16384, 100, 32),
        (uniform_relation, JOIN, (4096, 4096), 64 * 4096, 7, 64),
        (matching_relation, TRIANGLE, (4096, 4096, 4096), 16384, 10, 64),
        (matching_relation, TRIANGLE, (16384, 512, 512), 65536, 10, 64),
        (matching_relation, TRIANGLE, (8192, 8192, 1024), 32768, 10, 64),
    ]

    def test_skew_free_load_tracks_lp_bound(self):
        """Theorems 3.4 + 3.6: LP shares load every server with at least
        the lower bound and at most 6.21 times it (worst measured row:
        4.971, the mixed triangle)."""
        for generator, q, cardinalities, domain, seed, p in self.SKEW_FREE:
            db = _database(generator, q, cardinalities, domain, seed)
            ratio = _lp_load(q, db, p) / _bound(q, db, p)
            assert 1.0 <= ratio <= 6.21, (q.name, cardinalities, seed, ratio)

    def test_load_scales_as_p_to_the_minus_two_thirds(self):
        """The space exponent of the equal-size triangle, 1 / tau* = 2/3:
        the log-log slope of load against p over p = 8 .. 216."""
        db = _database(matching_relation, TRIANGLE, (4096,) * 3, 16384, 100)
        ps = (8, 27, 64, 216)
        slope = statistics.linear_regression(
            [math.log(p) for p in ps],
            [math.log(_lp_load(TRIANGLE, db, p)) for p in ps],
        ).slope
        assert abs(slope + 2 / 3) <= 0.0347  # fitted: -0.6389

    def test_greedy_rounding_never_loses_to_plain_floors(self):
        """On the measured load, at a p = 60 that is no perfect power."""
        q, p = TRIANGLE, 60
        db = _database(matching_relation, q, (8192, 4096, 1024), 32768, 100)
        bits = SimpleStatistics.of(db).bits_vector(q)
        exponents = optimal_share_exponents(q, bits, p).exponents
        load = {
            strategy: run_one_round(
                HyperCubeAlgorithm(q, integer_shares(
                    q, exponents, p, strategy=strategy, bits=bits)),
                db, p, compute_answers=False,
            ).max_load_bits
            for strategy in ("floor", "greedy")
        }
        assert load["greedy"] <= load["floor"]

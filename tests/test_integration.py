"""Cross-module integration tests: every algorithm, every workload shape,
always complete; loads ordered the way the theory says."""

import pytest

from repro.core import (
    BinHyperCubeAlgorithm,
    BroadcastHyperCube,
    HashJoinAlgorithm,
    HyperCubeAlgorithm,
    SkewAwareJoin,
    lower_bound,
)
from repro.data import (
    matching_relation,
    planted_heavy_relation,
    single_value_relation,
    uniform_relation,
    zipf_relation,
)
from repro.mpc import run_one_round
from repro.query import chain_query, simple_join_query, star_query, triangle_query
from repro.rounds import run_rounds
from repro.seq import Database
from repro.stats import SimpleStatistics


def _join_algorithms(query, p):
    return [
        HyperCubeAlgorithm.with_equal_shares(query, p),
        HashJoinAlgorithm(query, p),
        SkewAwareJoin(query),
        BinHyperCubeAlgorithm(query),
        BroadcastHyperCube(query),
    ]


def _generic_algorithms(query, p):
    return [
        HyperCubeAlgorithm.with_equal_shares(query, p),
        BinHyperCubeAlgorithm(query),
        BroadcastHyperCube(query),
    ]


JOIN_WORKLOADS = {
    "uniform": lambda: Database.from_relations(
        [
            uniform_relation("S1", 220, 2000, seed=1),
            uniform_relation("S2", 220, 2000, seed=2),
        ]
    ),
    "matching": lambda: Database.from_relations(
        [
            matching_relation("S1", 220, 2000, seed=3),
            matching_relation("S2", 220, 2000, seed=4),
        ]
    ),
    "zipf": lambda: Database.from_relations(
        [
            zipf_relation("S1", 220, 700, skew=1.3, seed=5),
            zipf_relation("S2", 220, 700, skew=1.3, seed=6),
        ]
    ),
    "single-value": lambda: Database.from_relations(
        [
            single_value_relation("S1", 90, 300, seed=7),
            single_value_relation("S2", 90, 300, seed=8),
        ]
    ),
    "asymmetric": lambda: Database.from_relations(
        [
            uniform_relation("S1", 400, 2000, seed=9),
            uniform_relation("S2", 25, 2000, seed=10),
        ]
    ),
    "one-sided-heavy": lambda: Database.from_relations(
        [
            planted_heavy_relation(
                "S1", 220, 700, heavy_values=[0, 5], heavy_fraction=0.6, seed=11
            ),
            uniform_relation("S2", 220, 700, seed=12),
        ]
    ),
}


class TestJoinAlgorithmsComplete:
    @pytest.mark.parametrize("workload", sorted(JOIN_WORKLOADS))
    @pytest.mark.parametrize("p", [5, 16])
    def test_all_complete(self, workload, p):
        query = simple_join_query()
        db = JOIN_WORKLOADS[workload]()
        for algorithm in _join_algorithms(query, p):
            result = run_rounds(algorithm, db, p, verify=True)
            assert result.is_complete, (algorithm.name, workload, p)


class TestOtherQueryShapes:
    def _db_for(self, query, m, n, seed):
        relations = [
            uniform_relation(atom.name, m, n, arity=atom.arity, seed=seed + i)
            for i, atom in enumerate(query.atoms)
        ]
        return Database.from_relations(relations)

    @pytest.mark.parametrize("p", [8, 27])
    def test_triangle(self, p):
        query = triangle_query()
        db = self._db_for(query, 150, 130, seed=20)
        for algorithm in _generic_algorithms(query, p):
            result = run_rounds(algorithm, db, p, verify=True)
            assert result.is_complete, algorithm.name

    def test_chain_4(self):
        query = chain_query(4)
        db = self._db_for(query, 120, 200, seed=30)
        p = 16
        stats = SimpleStatistics.of(db)
        algorithms = _generic_algorithms(query, p) + [
            HyperCubeAlgorithm.with_optimal_shares(query, stats, p)
        ]
        for algorithm in algorithms:
            result = run_rounds(algorithm, db, p, verify=True)
            assert result.is_complete, algorithm.name

    def test_star_3(self):
        query = star_query(3)
        db = self._db_for(query, 150, 250, seed=40)
        p = 16
        for algorithm in _generic_algorithms(query, p):
            result = run_rounds(algorithm, db, p, verify=True)
            assert result.is_complete, algorithm.name

    def test_star_with_heavy_center(self):
        query = star_query(2)
        db = Database.from_relations(
            [
                planted_heavy_relation(
                    "S1", 150, 300, heavy_values=[0], heavy_fraction=0.5,
                    heavy_position=0, seed=50,
                ),
                planted_heavy_relation(
                    "S2", 150, 300, heavy_values=[0], heavy_fraction=0.5,
                    heavy_position=0, seed=51,
                ),
            ]
        )
        p = 16
        for algorithm in _generic_algorithms(query, p):
            result = run_rounds(algorithm, db, p, verify=True)
            assert result.is_complete, algorithm.name


class TestLoadOrderings:
    def test_lower_bound_never_beaten_by_much(self):
        """No algorithm can sit far below L_lower on skew-free data.

        (Hashing variance allows small dips below the expectation.)
        """
        query = simple_join_query()
        db = JOIN_WORKLOADS["matching"]()
        p = 16
        stats = SimpleStatistics.of(db)
        bound = lower_bound(query, stats.bits_vector(query), p).bits
        for algorithm in _join_algorithms(query, p):
            result = run_one_round(algorithm, db, p, compute_answers=False)
            assert result.max_load_bits >= 0.4 * bound, algorithm.name

    def test_skew_aware_wins_under_skew(self):
        query = simple_join_query()
        db = JOIN_WORKLOADS["single-value"]()
        p = 16
        loads = {}
        for algorithm in _join_algorithms(query, p):
            result = run_one_round(algorithm, db, p, compute_answers=False)
            loads[algorithm.name] = result.max_load_tuples
        assert loads["skew-join"] < loads["hashjoin"]
        assert loads["bin-hypercube"] < loads["hashjoin"]

    def test_replication_bounded_by_grid(self):
        """HC replication <= product of free-dimension shares."""
        query = simple_join_query()
        db = JOIN_WORKLOADS["uniform"]()
        p = 27
        algo = HyperCubeAlgorithm.with_equal_shares(query, p)
        result = run_one_round(algo, db, p, compute_answers=False)
        assert result.report.replication_rate <= 3.0 + 1e-9

    def test_deterministic_across_runs(self):
        query = simple_join_query()
        db = JOIN_WORKLOADS["zipf"]()
        a = run_one_round(BinHyperCubeAlgorithm(query), db, 8, seed=3)
        b = run_one_round(BinHyperCubeAlgorithm(query), db, 8, seed=3)
        assert a.report.per_server_bits == b.report.per_server_bits
        assert a.answers == b.answers

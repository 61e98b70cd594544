"""End-to-end reproductions of the paper's worked examples.

Each test class regenerates one numbered example of the paper.  The
experiments E1-E13 are tier-1 tests too, each claim asserted once, on the
experiment's own instances and seeds, next to the small instance that
already held it (``tests/`` is implied; ``::`` continues the line above):

====  =========================  ==========================================
E1    Thm 3.4 + 3.6, skew-free   test_hypercube.py::TestLoadPredictions
                                 ::test_skew_free_load_tracks_lp_bound,
                                 ::test_load_scales_as_p_to_the_minus_two_thirds,
                                 ::test_greedy_rounding_never_loses_to_plain_floors;
                                 test_extensions.py::TestAfratiUllmanShares
                                 ::test_max_load_never_beats_lp
E2    Thm 3.5, capped servers    test_counting.py::TestCappedServers
E3    Example 3.3                TestExample33 (here)
E4    Cor 3.2(ii), resilience    TestSection31SharesExample
                                 ::test_guarantee_holds_on_worst_case_instances;
                                 TestExample33
                                 ::test_hash_join_on_skewed_data_collapses,
                                 ::test_cube_beats_hash_join_under_skew
E5    Example 3.7                TestExample37::test_regime_switch; measured
                                 loads are rows of E1's first test
E6    Sec 4.1, formula (10)      test_skew_join.py::TestLoadBehaviour
                                 ::test_load_tracks_formula_10,
                                 ::test_beats_hash_join_under_skew,
                                 ::test_hash_join_falls_behind_as_skew_grows,
                                 ::test_threshold_scale_barely_moves_the_load
E7    Thm 4.6, bin algorithm     test_skew_general.py::TestAlgorithmLoad
                                 ::test_load_tracks_theorem_4_6,
                                 ::test_beats_hash_join_under_heavy_skew;
                                 TestAlgorithmCorrectness
                                 ::test_nbc_variants_all_correct
E8    Thm 4.7, Example 4.8       test_residual_bounds.py::TestDegreeSequences,
                                 TestBestResidualBound
                                 ::test_breakdown_covers_candidates
E9    Thm 5.1, Example 5.2       test_mr.py::TestHyperCubeAsMapReduce
                                 ::test_measured_rate_tracks_lower_bound,
                                 ::test_choose_reducers_monotone
E10   Lemma 3.1, Appendix B      test_balls.py::TestRelationHashing (its last
                                 four tests)
E11   Sec 1, cartesian grid      test_baselines.py::TestCartesianGrid
                                 ::test_load_close_to_lower_bound,
                                 ::test_optimal_grid_broadcast_regime
E12   Sec 2.3, Lemma A.1         test_friedgut.py::TestAGMBound
                                 ::test_actual_never_exceeds_bound,
                                 ::test_triangle_closed_form,
                                 TestFriedgutInequality
                                 ::test_random_weights_triangle[E12];
                                 test_seq_join.py::TestExpectedAnswerCount
                                 ::test_empirical_match_on_random_instances
E13   planner regret             test_bench.py
                                 ::test_planner_regret_on_a_skew_sweep
====  =========================  ==========================================

An upper constant is 1.25 x the worst value measured over the test's rows
(every run is seeded, so measurements are exact); a lower side that guards
a lower bound is 1.0.
"""

import math
from fractions import Fraction

import pytest

from repro.core import (
    HashJoinAlgorithm,
    HyperCubeAlgorithm,
    lower_bound,
    non_dominated_packing_vertices,
    replication_rate_lower_bound,
    residual_lower_bound,
    vertex_loads,
)
from repro.data import single_value_relation, uniform_relation
from repro.mpc import run_one_round
from repro.query import simple_join_query, triangle_query
from repro.rounds import run_rounds
from repro.seq import Database
from repro.stats import HeavyHitterStatistics, SimpleStatistics


class TestExample33:
    """Example 3.3: two share allocations for the simple join, hash
    ``(1, 1, p)`` and cube ``(p^(1/3))^3``.

    ``SKEWED`` rows are ``(m, domain)`` of one-join-value instances at
    p = 27 (this file's, E3's, E4's two); ``UNIFORM`` rows are
    ``(m, domain, p)`` (this file's, E3's)."""

    SKEWED = [(120, 400), (220, 880), (60, 240), (240, 960)]
    UNIFORM = [(512, 4096, 16), (2048, 32768, 27)]

    def _skewed_db(self, m, domain):
        return Database.from_relations(
            [
                single_value_relation("S1", m, domain, seed=1),
                single_value_relation("S2", m, domain, seed=2),
            ]
        )

    def _uniform_db(self, m, domain):
        return Database.from_relations(
            [
                uniform_relation("S1", m, domain, seed=3),
                uniform_relation("S2", m, domain, seed=4),
            ]
        )

    def _run(self, shares, db, p=27, **how):
        q = simple_join_query()
        algo = (HashJoinAlgorithm(q, p) if shares == "hash"
                else HyperCubeAlgorithm.with_equal_shares(q, p))
        return run_rounds(algo, db, p, **how)

    def test_cube_shares_on_skewed_data(self):
        """Shares (p^(1/3))^3: load O(m/p^(1/3)) even under worst skew."""
        for m, domain in self.SKEWED:
            result = self._run("cube", self._skewed_db(m, domain), verify=True)
            assert result.is_complete, m
            # Every tuple replicates along one free dimension (3 copies):
            # the guarantee is 2m/p^(1/3) = 2m/3 per server; worst row 1.15.
            assert result.max_load_tuples <= 1.43 * 2 * m / 3, m

    def test_hash_join_on_skewed_data_collapses(self):
        """Shares (1,1,p): load Omega(m) when all z values collide, so it
        grows 1:1 with m — everything on one server."""
        for m, domain in self.SKEWED:
            result = self._run("hash", self._skewed_db(m, domain), verify=True)
            assert result.is_complete, m
            assert result.max_load_tuples == 2 * m

    def test_hash_join_on_uniform_data_is_ideal(self):
        """Shares (1,1,p): load O(m/p) on skew-free data, where the cube's
        m/p^(2/3) replication loses to it."""
        for m, domain, p in self.UNIFORM:
            db = self._uniform_db(m, domain)
            result = self._run("hash", db, p, verify=True)
            assert result.is_complete, m
            # Ideal is 2m/p tuples; hashing variance reads 1.203 and 1.246.
            assert result.max_load_tuples <= 1.55 * 2 * m / p, m
            cube = self._run("cube", db, p, compute_answers=False)
            assert result.max_load_tuples < cube.max_load_tuples, m

    def test_cube_beats_hash_join_under_skew(self):
        for m, domain in self.SKEWED:
            db = self._skewed_db(m, domain)
            cube, hashed = (
                self._run(shares, db, compute_answers=False).max_load_tuples
                for shares in ("cube", "hash")
            )
            assert cube <= 0.479 * hashed, (m, cube, hashed)  # worst: 0.383


class TestExample37:
    """Example 3.7: the four pk(C3) vertices and their loads."""

    def test_vertex_table(self):
        q = triangle_query()
        vertices = non_dominated_packing_vertices(q)
        assert len(vertices) == 4
        half = Fraction(1, 2)
        assert {"S1": half, "S2": half, "S3": half} in vertices

    def test_load_is_max_of_four_expressions(self):
        q = triangle_query()
        m1, m2, m3 = 2.0**22, 2.0**19, 2.0**15
        bits = {"S1": m1, "S2": m2, "S3": m3}
        p = 64
        expressions = {
            (m1 * m2 * m3) ** (1 / 3) / p ** (2 / 3),
            m1 / p,
            m2 / p,
            m3 / p,
        }
        computed = {value for _, value in vertex_loads(q, bits, p)}
        for expected in expressions:
            assert any(math.isclose(expected, c, rel_tol=1e-9) for c in computed)
        assert math.isclose(
            lower_bound(q, bits, p).bits, max(expressions), rel_tol=1e-9
        )

    def test_regime_switch(self):
        """Which vertex wins depends on the cardinalities, and the winner's
        expression is Theorem 3.6's bound.  The last three rows are E5's
        regimes, in the bits of matchings over a domain of 4 max_j m_j."""
        q = triangle_query()
        half = Fraction(1, 2)

        def matching_bits(*cardinalities):
            return SimpleStatistics.from_cardinalities(
                q, dict(zip(("S1", "S2", "S3"), cardinalities)),
                domain_size=4 * max(cardinalities),
            ).bits_vector(q)

        for bits, winner, bound_bits in [
            ({"S1": 2.0**20, "S2": 2.0**20, "S3": 2.0**20},
             (half, half, half), 2.0**16),
            ({"S1": 2.0**30, "S2": 2.0**8, "S3": 2.0**8}, (1, 0, 0), 2.0**24),
            (matching_bits(4096, 4096, 4096), (half, half, half), 7168.0),
            (matching_bits(16384, 512, 512), (1, 0, 0), 8192.0),
            (matching_bits(8192, 8192, 1024), (half, half, half), 7680.0),
        ]:
            bound = lower_bound(q, bits, 64)
            assert tuple(bound.packing[name] for name in bits) == winner
            assert math.isclose(bound.bits, bound_bits, rel_tol=1e-9)
            packing, load = max(vertex_loads(q, bits, 64), key=lambda r: r[1])
            assert tuple(packing[name] for name in bits) == winner
            assert math.isclose(load, bound_bits, rel_tol=1e-9)


class TestExample48:
    """Example 4.8: residual lower bounds for the join and the triangle."""

    def test_join_residual_formula(self):
        q = simple_join_query()
        m = 90
        db = Database.from_relations(
            [
                single_value_relation("S1", m, 256, seed=5),
                single_value_relation("S2", m, 256, seed=6),
            ]
        )
        p = 16
        stats = HeavyHitterStatistics.of(q, db, p, threshold_factor=0)
        bound = residual_lower_bound(q, stats, {"z"}, p)
        # sqrt(sum_h M1(h) M2(h) / p) with a single h carrying everything.
        bits_1 = db.relation("S1").bits
        bits_2 = db.relation("S2").bits
        assert math.isclose(
            bound.bits, math.sqrt(bits_1 * bits_2 / p), rel_tol=1e-9
        )

    def test_triangle_saturating_packing(self):
        q = triangle_query()
        db = Database.from_relations(
            [
                uniform_relation("S1", 120, 100, seed=7),
                uniform_relation("S2", 120, 100, seed=8),
                uniform_relation("S3", 120, 100, seed=9),
            ]
        )
        stats = HeavyHitterStatistics.of(q, db, 16, threshold_factor=0)
        bound = residual_lower_bound(q, stats, {"x1"}, 16)
        assert bound is not None
        # The witness packing must saturate x1 (S1 and S3 jointly).
        assert bound.packing["S1"] + bound.packing["S3"] >= 1


class TestExample52:
    """Example 5.2: triangle replication rate in the MapReduce model."""

    def test_equal_size_bound(self):
        q = triangle_query()
        M = 2.0**18
        L = 2.0**12
        value, packing = replication_rate_lower_bound(q, {"S1": M, "S2": M, "S3": M}, L)
        assert math.isclose(value, math.sqrt(M / L) / 3, rel_tol=1e-9)
        assert float(sum(packing.values())) == 1.5

    def test_unequal_sizes_still_bounded(self):
        q = triangle_query()
        value, _ = replication_rate_lower_bound(
            q, {"S1": 2.0**20, "S2": 2.0**16, "S3": 2.0**12}, 2.0**10
        )
        assert value > 0.5  # nontrivial even with very unequal sizes


class TestGoldenLoadBounds:
    """Golden numbers for the Theorem 3.4 / Corollary 3.2(ii) example
    configurations.

    These pin the *quantities* the paper's theorems are about —
    ``expected_max_load_bits`` (the skew-free expectation
    ``max_j M_j / prod_{i in S_j} p_i``) and ``worst_case_load_bits``
    (the any-data guarantee ``max_j M_j / min_{i in S_j} p_i``) — to the
    exact values the seed implementation produces, so an execution-layer or
    share-rounding refactor cannot silently shift the bounds.
    """

    def _join_stats(self):
        return SimpleStatistics.from_cardinalities(
            simple_join_query(), {"S1": 4096, "S2": 1024},
            domain_size=100_000,
        )

    def test_theorem_34_lp_shares_join(self):
        """Lopsided join, p=64: the LP puts all replication on y=1."""
        stats = self._join_stats()
        algo = HyperCubeAlgorithm.with_optimal_shares(
            simple_join_query(), stats, 64
        )
        assert algo.shares == {"x": 4, "y": 1, "z": 16}
        assert algo.expected_max_load_bits(stats) == pytest.approx(
            2126.033980727912, rel=1e-12
        )
        assert algo.worst_case_load_bits(stats) == pytest.approx(
            34016.54369164659, rel=1e-12
        )

    def test_corollary_32ii_equal_shares_join(self):
        """Equal shares p^(1/3)=4: worst case M_1 / 4 on any data."""
        stats = self._join_stats()
        algo = HyperCubeAlgorithm.with_equal_shares(simple_join_query(), 64)
        assert algo.shares == {"x": 4, "y": 4, "z": 4}
        assert algo.expected_max_load_bits(stats) == pytest.approx(
            8504.135922911648, rel=1e-12
        )
        # M_1 = 2 * 4096 * log2(1e5) bits; min share 4.
        assert algo.worst_case_load_bits(stats) == pytest.approx(
            34016.54369164659, rel=1e-12
        )

    def _triangle_stats(self):
        return SimpleStatistics.from_cardinalities(
            triangle_query(), {"S1": 4096, "S2": 4096, "S3": 4096},
            domain_size=16384,
        )

    def test_theorem_34_lp_shares_triangle(self):
        """Equal-size C3, p=64: LP shares are the 4x4x4 cube, load M/16."""
        stats = self._triangle_stats()
        algo = HyperCubeAlgorithm.with_optimal_shares(
            triangle_query(), stats, 64
        )
        assert algo.shares == {"x1": 4, "x2": 4, "x3": 4}
        assert algo.expected_max_load_bits(stats) == pytest.approx(
            7168.0, rel=1e-12
        )
        assert algo.worst_case_load_bits(stats) == pytest.approx(
            28672.0, rel=1e-12
        )

    def test_corollary_32ii_equal_shares_triangle(self):
        """C3 at p=27: the 3x3x3 cube guarantees M/3 = 38229.33... bits."""
        stats = self._triangle_stats()
        algo = HyperCubeAlgorithm.with_equal_shares(triangle_query(), 27)
        assert algo.shares == {"x1": 3, "x2": 3, "x3": 3}
        assert algo.expected_max_load_bits(stats) == pytest.approx(
            12743.111111111111, rel=1e-12
        )
        # M = 2 * 4096 * 14 = 114688 bits; 114688 / 3.
        assert algo.worst_case_load_bits(stats) == pytest.approx(
            38229.333333333336, rel=1e-12
        )


class TestSection31SharesExample:
    """The 'generalizing the example' paragraph: equal shares p^(1/k) give
    max_j M_j / p^(1/k) worst case for any query."""

    def test_triangle_worst_case_guarantee(self):
        q = triangle_query()
        p = 27
        db = Database.from_relations(
            [
                single_value_relation("S1", 100, 256, fixed_position=0, seed=10),
                single_value_relation("S2", 100, 256, fixed_position=0, seed=11),
                single_value_relation("S3", 100, 256, fixed_position=0, seed=12),
            ]
        )
        stats = SimpleStatistics.of(db)
        algo = HyperCubeAlgorithm.with_equal_shares(q, p)
        result = run_one_round(algo, db, p, compute_answers=False)
        guarantee = algo.worst_case_load_bits(stats)
        assert result.max_load_bits <= 3 * guarantee

    def test_guarantee_holds_on_worst_case_instances(self):
        """E4's one-join-value join (m = 240) and hub triangle (m = 200):
        a server's load sums the l per-relation guarantees, so the claim
        is ``load <= c * l * max_j M_j / p^(1/k)``; c = 1.125 at worst."""
        for q, positions, m, seed, ps in [
            (simple_join_query(), (1, 1), 240, 1, (8, 27, 64)),
            (triangle_query(), (0, 0, 1), 200, 3, (8, 27)),
        ]:
            db = Database.from_relations([
                single_value_relation(atom.name, m, 4 * m,
                                      fixed_position=position, seed=seed + i)
                for i, (atom, position) in enumerate(zip(q.atoms, positions))
            ])
            for p in ps:
                algo = HyperCubeAlgorithm.with_equal_shares(q, p)
                result = run_one_round(algo, db, p, compute_answers=False)
                guarantee = algo.worst_case_load_bits(SimpleStatistics.of(db))
                assert result.max_load_bits <= 1.4 * q.num_atoms * guarantee, \
                    (q.name, p, result.max_load_bits / guarantee)

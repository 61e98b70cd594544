"""Tests for the extension features: sampled heavy-hitter statistics and the
Afrati-Ullman total-load share optimizer."""

import math

import pytest

from repro.core import (
    BinHyperCubeAlgorithm,
    SkewAwareJoin,
    afrati_ullman_share_exponents,
    optimal_share_exponents,
)
from repro.data import planted_heavy_relation, uniform_relation, zipf_relation
from repro.mpc import run_one_round
from repro.query import chain_query, simple_join_query, star_query, triangle_query
from repro.seq import Database
from repro.stats import HeavyHitterStatistics, StatisticsError


class TestSampledHeavyHitters:
    def _skewed_db(self):
        return Database.from_relations(
            [
                planted_heavy_relation(
                    "S1", 600, 1800, heavy_values=[0, 1], heavy_fraction=0.6,
                    seed=1,
                ),
                zipf_relation("S2", 600, 1800, skew=1.3, seed=2),
            ]
        )

    def test_detects_planted_heavy_values(self):
        q = simple_join_query()
        db = self._skewed_db()
        estimated = HeavyHitterStatistics.estimate(
            q, db, p=8, sample_rate=0.3, seed=0
        )
        heavy = estimated.heavy_hitters("S1", ("z",))
        assert (0,) in heavy and (1,) in heavy

    def test_estimates_close_to_truth(self):
        q = simple_join_query()
        db = self._skewed_db()
        exact = HeavyHitterStatistics.of(q, db, p=8)
        estimated = HeavyHitterStatistics.estimate(
            q, db, p=8, sample_rate=0.5, seed=3
        )
        for assignment, truth in exact.heavy_hitters("S1", ("z",)).items():
            guess = estimated.frequency("S1", ("z",), assignment)
            if guess is not None:
                assert 0.5 * truth <= guess <= 2.0 * truth

    def test_full_sample_rate_matches_exact_detection(self):
        q = simple_join_query()
        db = self._skewed_db()
        exact = HeavyHitterStatistics.of(q, db, p=8)
        full = HeavyHitterStatistics.estimate(q, db, p=8, sample_rate=1.0)
        for key, hitters in exact.hitters.items():
            assert set(full.hitters[key]) == set(hitters)

    def test_algorithms_complete_with_estimated_statistics(self):
        """Correctness only needs *consistent* statistics, not exact ones."""
        q = simple_join_query()
        db = self._skewed_db()
        p = 8
        estimated = HeavyHitterStatistics.estimate(
            q, db, p=p, sample_rate=0.2, seed=4
        )
        for algorithm in (
            SkewAwareJoin(q, stats=estimated),
            BinHyperCubeAlgorithm(q, stats=estimated),
        ):
            result = run_one_round(algorithm, db, p, verify=True)
            assert result.is_complete, algorithm.name

    def test_validation(self):
        q = simple_join_query()
        db = self._skewed_db()
        with pytest.raises(StatisticsError):
            HeavyHitterStatistics.estimate(q, db, p=8, sample_rate=0.0)
        with pytest.raises(StatisticsError):
            HeavyHitterStatistics.estimate(q, db, p=0, sample_rate=0.5)

    def test_deterministic_given_seed(self):
        q = simple_join_query()
        db = self._skewed_db()
        a = HeavyHitterStatistics.estimate(q, db, p=8, sample_rate=0.3, seed=7)
        b = HeavyHitterStatistics.estimate(q, db, p=8, sample_rate=0.3, seed=7)
        assert a.hitters == b.hitters


class TestAfratiUllmanShares:
    CASES = [
        (triangle_query(), {"S1": 2.0**20, "S2": 2.0**20, "S3": 2.0**20}),
        (triangle_query(), {"S1": 2.0**22, "S2": 2.0**18, "S3": 2.0**16}),
        (simple_join_query(), {"S1": 2.0**20, "S2": 2.0**20}),
        (chain_query(3), {"S1": 2.0**18, "S2": 2.0**18, "S3": 2.0**18}),
        (star_query(3), {"S1": 2.0**18, "S2": 2.0**18, "S3": 2.0**18}),
        # E1's ablation: the lopsided join, where the objectives disagree.
        (simple_join_query(), {"S1": 2.0**22, "S2": 2.0**14}),
    ]

    def _total_load(self, query, bits, exponents, p):
        total = 0.0
        for atom in query.atoms:
            denom = p ** float(
                sum(exponents[v] for v in atom.variable_set)
            )
            total += bits[atom.name] / denom
        return total

    def test_exponents_live_on_the_simplex(self):
        for query, bits in self.CASES:
            solution = afrati_ullman_share_exponents(query, bits, 64)
            assert all(e >= 0 for e in solution.exponents.values())
            assert float(sum(solution.exponents.values())) <= 1 + 1e-6

    def test_equal_triangle_matches_lp(self):
        """Both objectives agree on the symmetric triangle: e_i = 1/3."""
        query, bits = self.CASES[0]
        au = afrati_ullman_share_exponents(query, bits, 64)
        for value in au.exponents.values():
            assert abs(float(value) - 1 / 3) < 0.02

    def test_max_load_never_beats_lp(self):
        """LP (5) minimizes the max load; [2] minimizes the total — so the
        LP's max-load objective is at least as good."""
        p = 64
        for query, bits in self.CASES:
            au = afrati_ullman_share_exponents(query, bits, p)
            lp = optimal_share_exponents(query, bits, p)
            assert float(au.lam) >= float(lp.lam) - 1e-6

    def test_total_load_never_beats_au(self):
        """Symmetrically, [2]'s total-load objective beats (or ties) LP (5)'s
        solution on the total-communication metric."""
        p = 64
        for query, bits in self.CASES:
            au = afrati_ullman_share_exponents(query, bits, p)
            lp = optimal_share_exponents(query, bits, p)
            au_total = self._total_load(query, bits, au.exponents, p)
            lp_total = self._total_load(query, bits, lp.exponents, p)
            assert au_total <= lp_total * 1.05

    def test_objectives_can_disagree(self):
        """A case where minimizing total and minimizing max differ: the
        lopsided join spreads shares under [2]."""
        query, bits = self.CASES[-1]
        au = afrati_ullman_share_exponents(query, bits, 64)
        # AU gives x (S1's private variable) a real share to shrink the
        # dominant S1 term of the *sum*.
        assert float(au.exponents["x"]) > 0.05

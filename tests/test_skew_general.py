"""Unit tests for the Section 4.2 bin-combination algorithm."""

import json
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import repro
from repro.api import WorkloadSpec

from repro.core import (
    BinHyperCubeAlgorithm,
    HashJoinAlgorithm,
    build_cprime,
    solve_bin_lp,
)
from repro.core.skew_general import _proper_supersets
from repro.data import (
    planted_heavy_relation,
    single_value_relation,
    uniform_relation,
    zipf_relation,
)
from repro.mpc import HashFamily, run_one_round
from repro.query import parse_query, simple_join_query, triangle_query
from repro.seq import Database, Relation
from repro.stats import BinCombination, HeavyHitterStatistics


def _planted_join_db(heavy_fraction: float) -> Database:
    """E7's join (run at p = 16): three heavy values planted in S1, two
    in S2 at half the fraction, one of them shared."""
    return Database.from_relations(
        [
            planted_heavy_relation(
                "S1", 1200, 4000, heavy_values=[0, 1, 2],
                heavy_fraction=heavy_fraction, seed=31,
            ),
            planted_heavy_relation(
                "S2", 1200, 4000, heavy_values=[0, 7],
                heavy_fraction=heavy_fraction / 2, seed=32,
            ),
        ]
    )


def _hub_triangle_db() -> Database:
    """E7's triangle: S1 and S3 share one heavy value of x1."""
    return Database.from_relations(
        [
            planted_heavy_relation(
                "S1", 400, 500, heavy_values=[0], heavy_fraction=0.4,
                heavy_position=0, seed=33,
            ),
            uniform_relation("S2", 400, 500, seed=34),
            planted_heavy_relation(
                "S3", 400, 500, heavy_values=[0], heavy_fraction=0.4,
                heavy_position=1, seed=35,
            ),
        ]
    )


class TestProperSupersets:
    def test_from_empty(self):
        out = _proper_supersets(("x", "z"), ())
        assert set(out) == {("x",), ("z",), ("x", "z")}

    def test_from_singleton(self):
        out = _proper_supersets(("x", "z"), ("z",))
        assert set(out) == {("x", "z")}

    def test_full_set_has_none(self):
        assert _proper_supersets(("x", "z"), ("x", "z")) == []


class TestBinLP:
    def test_empty_combination_equals_share_lp(self):
        """LP (11) at B_empty coincides with LP (5)."""
        from repro.core import optimal_share_exponents

        q = simple_join_query()
        bits = {"S1": 2.0**16, "S2": 2.0**16}
        lp = solve_bin_lp(q, BinCombination.empty(), Fraction(0), bits, 64)
        share = optimal_share_exponents(q, bits, 64)
        assert abs(float(lp.lam - share.lam)) < 1e-9

    def test_beta_discount_lowers_lambda(self):
        """A heavy-hitter bin exponent reduces the residual size constraint."""
        q = simple_join_query()
        bits = {"S1": 2.0**16, "S2": 2.0**16}
        combo = BinCombination.build(
            {"z"}, {"S1": Fraction(1, 2), "S2": Fraction(1, 2)}
        )
        lp_base = solve_bin_lp(q, BinCombination.empty(), Fraction(0), bits, 64)
        lp_combo = solve_bin_lp(q, combo, Fraction(0), bits, 64)
        assert lp_combo.lam <= lp_base.lam

    def test_alpha_reduces_share_budget(self):
        q = simple_join_query()
        bits = {"S1": 2.0**16, "S2": 2.0**16}
        combo = BinCombination.build({"z"}, {"S1": Fraction(0), "S2": Fraction(0)})
        lp_alpha0 = solve_bin_lp(q, combo, Fraction(0), bits, 64)
        lp_alpha1 = solve_bin_lp(q, combo, Fraction(1), bits, 64)
        assert sum(lp_alpha1.exponents.values()) == 0
        assert lp_alpha1.lam >= lp_alpha0.lam

    def test_exponents_cover_remaining_variables_only(self):
        q = simple_join_query()
        bits = {"S1": 2.0**12, "S2": 2.0**12}
        combo = BinCombination.build({"z"}, {"S1": Fraction(0), "S2": Fraction(1)})
        lp = solve_bin_lp(q, combo, Fraction(0), bits, 16)
        assert set(lp.exponents) == {"x", "y"}


class TestCPrimeConstruction:
    def _stats(self, db, p):
        q = simple_join_query()
        return q, HeavyHitterStatistics.of(q, db, p)

    def test_uniform_data_only_empty_combination(self):
        db = Database.from_relations(
            [
                uniform_relation("S1", 200, 4000, seed=1),
                uniform_relation("S2", 200, 4000, seed=2),
            ]
        )
        q, stats = self._stats(db, 8)
        bits = {"S1": stats.simple.bits("S1"), "S2": stats.simple.bits("S2")}
        combos, lps = build_cprime(q, stats, 8, bits)
        assert BinCombination.empty() in combos
        assert combos[BinCombination.empty()] == frozenset({()})
        # No heavy hitters -> nothing is overweight -> only B_empty.
        assert len(combos) == 1

    def test_single_value_data_spawns_combination(self):
        db = Database.from_relations(
            [
                single_value_relation("S1", 100, 400, seed=3),
                single_value_relation("S2", 100, 400, seed=4),
            ]
        )
        q, stats = self._stats(db, 8)
        bits = {"S1": stats.simple.bits("S1"), "S2": stats.simple.bits("S2")}
        combos, lps = build_cprime(q, stats, 8, bits)
        assert len(combos) >= 2
        # Some combination must own the heavy value z=0.
        owned = {
            assignment
            for combo, members in combos.items()
            if combo.variables == frozenset({"z"})
            for assignment in members
        }
        assert (("z", 0),) in owned

    def test_every_combo_has_an_lp(self):
        db = Database.from_relations(
            [
                zipf_relation("S1", 300, 900, skew=1.3, seed=5),
                zipf_relation("S2", 300, 900, skew=1.3, seed=6),
            ]
        )
        q, stats = self._stats(db, 16)
        bits = {"S1": stats.simple.bits("S1"), "S2": stats.simple.bits("S2")}
        combos, lps = build_cprime(q, stats, 16, bits)
        assert set(combos) == set(lps)
        for lp in lps.values():
            assert lp.lam >= 0
            assert all(e >= 0 for e in lp.exponents.values())


class TestAlgorithmCorrectness:
    @pytest.mark.parametrize("p", [4, 16])
    def test_complete_on_uniform(self, p):
        q = simple_join_query()
        db = Database.from_relations(
            [
                uniform_relation("S1", 250, 2000, seed=7),
                uniform_relation("S2", 250, 2000, seed=8),
            ]
        )
        result = run_one_round(BinHyperCubeAlgorithm(q), db, p, verify=True)
        assert result.is_complete

    @pytest.mark.parametrize("p", [4, 16])
    def test_complete_on_zipf(self, p):
        q = simple_join_query()
        db = Database.from_relations(
            [
                zipf_relation("S1", 300, 900, skew=1.3, seed=9),
                zipf_relation("S2", 300, 900, skew=1.3, seed=10),
            ]
        )
        result = run_one_round(BinHyperCubeAlgorithm(q), db, p, verify=True)
        assert result.is_complete

    def test_complete_on_single_value(self):
        q = simple_join_query()
        db = Database.from_relations(
            [
                single_value_relation("S1", 80, 300, seed=11),
                single_value_relation("S2", 80, 300, seed=12),
            ]
        )
        result = run_one_round(BinHyperCubeAlgorithm(q), db, 8, verify=True)
        assert result.is_complete

    def test_complete_on_one_sided_skew(self):
        q = simple_join_query()
        db = Database.from_relations(
            [
                planted_heavy_relation(
                    "S1", 240, 720, heavy_values=[0, 1, 2],
                    heavy_fraction=0.7, seed=13,
                ),
                uniform_relation("S2", 240, 720, seed=14),
            ]
        )
        result = run_one_round(BinHyperCubeAlgorithm(q), db, 8, verify=True)
        assert result.is_complete

    def test_complete_on_skewed_triangle(self):
        q = triangle_query()
        db = Database.from_relations(
            [
                planted_heavy_relation(
                    "S1", 150, 200, heavy_values=[0], heavy_fraction=0.5,
                    heavy_position=0, seed=15,
                ),
                uniform_relation("S2", 150, 200, seed=16),
                uniform_relation("S3", 150, 200, seed=17),
            ]
        )
        result = run_one_round(BinHyperCubeAlgorithm(q), db, 8, verify=True)
        assert result.is_complete

    def test_complete_with_pair_heavy_hitters(self):
        """A heavy (x, u) pair in a ternary relation."""
        q = parse_query("q(x, u, y) :- S1(x, u), S2(u, y)")
        db = Database.from_relations(
            [
                planted_heavy_relation(
                    "S1", 200, 500, heavy_values=[7], heavy_fraction=0.6,
                    heavy_position=1, seed=18,
                ),
                planted_heavy_relation(
                    "S2", 200, 500, heavy_values=[7], heavy_fraction=0.6,
                    heavy_position=0, seed=19,
                ),
            ]
        )
        result = run_one_round(BinHyperCubeAlgorithm(q), db, 8, verify=True)
        assert result.is_complete

    def test_two_level_overweight_chain(self):
        """The paper's second challenge: a value heavy *within* a heavy
        hitter's residual (here the pair (x=0, u=7) inside the heavy x=0)
        must be chased down a two-level C' chain."""
        import random

        rng = random.Random(99)
        tuples = set()
        # 60% of S1 sits on x=0; half of that again on (x=0, u=7).
        while len(tuples) < 72:
            tuples.add((0, 7, rng.randrange(500)))
        while len(tuples) < 144:
            tuples.add((0, rng.randrange(500), rng.randrange(500)))
        while len(tuples) < 240:
            tuples.add((rng.randrange(500), rng.randrange(500), rng.randrange(500)))
        from repro.seq import Relation

        q = parse_query("q(x, u, w, y) :- S1(x, u, w), S2(x, u, y)")
        db = Database.from_relations(
            [
                Relation.build("S1", tuples, domain_size=500),
                uniform_relation("S2", 240, 500, arity=3, seed=101),
            ]
        )
        p = 8
        algo = BinHyperCubeAlgorithm(q)
        result = run_one_round(algo, db, p, verify=True)
        assert result.is_complete
        # The plan must contain a combination over two or more variables —
        # the end of the overweight chain.
        from repro.mpc import HashFamily

        plan = algo.routing_plan(db, p, HashFamily(0))
        depths = {len(c.combo.variables) for c in plan.combo_plans}
        assert max(depths) >= 2

    def test_nbc_variants_all_correct(self):
        """Correctness must hold for any Nbc (only the load changes)."""
        q = simple_join_query()
        zipf_db = Database.from_relations(
            [
                zipf_relation("S1", 250, 750, skew=1.5, seed=20),
                zipf_relation("S2", 250, 750, skew=1.5, seed=21),
            ]
        )
        for db, p, nbcs in [(zipf_db, 8, (0.25, 1.0, 4.0, 64.0)),
                            (_planted_join_db(0.8), 16, (0.25, 1.0, 16.0))]:
            for nbc in nbcs:
                result = run_one_round(
                    BinHyperCubeAlgorithm(q, nbc=nbc), db, p, verify=True
                )
                assert result.is_complete, nbc


class TestAlgorithmLoad:
    def test_beats_hash_join_under_heavy_skew(self):
        """At most half the hash join's load: worst 0.489, E7's join."""
        q, p = simple_join_query(), 16
        single_db = Database.from_relations(
            [
                single_value_relation("S1", 120, 500, seed=22),
                single_value_relation("S2", 120, 500, seed=23),
            ]
        )
        for db in (single_db, _planted_join_db(0.8)):
            bin_load, hash_load = (
                run_one_round(algo, db, p, compute_answers=False).max_load_tuples
                for algo in (BinHyperCubeAlgorithm(q), HashJoinAlgorithm(q, p))
            )
            assert bin_load < hash_load / 2, (bin_load, hash_load)

    def test_load_tracks_theorem_4_6(self):
        """Measured load <= 6.82 * max_B p^lambda(B), the theorem's polylog
        (worst measured 5.461, E7's hub triangle)."""
        zipf_db = Database.from_relations(
            [
                zipf_relation("S1", 400, 1200, skew=1.4, seed=24),
                zipf_relation("S2", 400, 1200, skew=1.4, seed=25),
            ]
        )
        for q, db in [
            (simple_join_query(), zipf_db),
            *((simple_join_query(), _planted_join_db(heavy_fraction))
              for heavy_fraction in (0.2, 0.5, 0.8)),
            (triangle_query(), _hub_triangle_db()),
        ]:
            result = run_one_round(
                BinHyperCubeAlgorithm(q), db, 16, compute_answers=False
            )
            predicted = result.details["theoretical_load_bits"]
            assert result.max_load_bits <= 6.82 * predicted, q.name

    def test_describe_counts(self):
        q = simple_join_query()
        db = Database.from_relations(
            [
                zipf_relation("S1", 200, 600, skew=1.4, seed=26),
                zipf_relation("S2", 200, 600, skew=1.4, seed=27),
            ]
        )
        result = run_one_round(
            BinHyperCubeAlgorithm(q), db, 8, compute_answers=False
        )
        assert result.details["bin_combinations"] >= 1
        assert result.details["assignments"] >= 1


class TestStatisticsReuse:
    def test_prebuilt_statistics_accepted(self):
        q = simple_join_query()
        db = Database.from_relations(
            [
                zipf_relation("S1", 150, 450, skew=1.2, seed=28),
                zipf_relation("S2", 150, 450, skew=1.2, seed=29),
            ]
        )
        stats = HeavyHitterStatistics.of(q, db, 8)
        algo = BinHyperCubeAlgorithm(q, stats=stats)
        result = run_one_round(algo, db, 8, verify=True)
        assert result.is_complete

    def test_mismatched_p_rebuilds_statistics(self):
        q = simple_join_query()
        db = Database.from_relations(
            [
                uniform_relation("S1", 100, 400, seed=30),
                uniform_relation("S2", 100, 400, seed=31),
            ]
        )
        stats = HeavyHitterStatistics.of(q, db, 4)
        algo = BinHyperCubeAlgorithm(q, stats=stats)
        # Run with a different p: the algorithm must rebuild stats for p=16.
        result = run_one_round(algo, db, 16, verify=True)
        assert result.is_complete


class TestHashSeedIndependence:
    """Bin combinations are numbered — and their inner HyperCubes salted —
    in sorted order; the sort key must not depend on ``PYTHONHASHSEED`` (a
    frozenset of two variable names prints in hash order)."""

    TRIANGLE = "q(x,y,z) :- R(x,y), S(y,z), T(z,x)"

    def test_fixture_has_a_combination_on_several_variables(self):
        q = parse_query(self.TRIANGLE)
        db = WorkloadSpec(kind="zipf", m=1500, skew=1.3, seed=7).build(q)
        plan = BinHyperCubeAlgorithm(q).routing_plan(db, 64, HashFamily(7))
        assert any(len(c.combo.variables) >= 2 for c in plan.combo_plans)

    def test_records_do_not_depend_on_the_hash_seed(self):
        def records(hash_seed):
            source = os.path.dirname(os.path.dirname(repro.__file__))
            done = subprocess.run(
                [sys.executable, "-m", "repro", "sweep", self.TRIANGLE,
                 "--workload", "zipf", "--skew", "1.3", "--m", "1500",
                 "--p", "64", "--seeds", "7", "--algorithms", "bin-hypercube",
                 "--format", "json", "-q"],
                text=True, capture_output=True, timeout=120, check=True,
                env={**os.environ, "PYTHONPATH": source,
                     "PYTHONHASHSEED": hash_seed},
            )
            out = json.loads(done.stdout)
            for record in out:
                del record["wall_seconds"]
            return out

        first = records("1")
        assert first and first[0]["status"] == "ok"
        assert first == records("2")


class TestRowOrderIndependence:
    """The prediction sums the combinations' LP targets in their fixed
    order: the order heavy hitters are found in follows the relations' row
    order, and a float sum follows the order of its terms."""

    def test_the_prediction_does_not_follow_row_order(self):
        q = simple_join_query()
        db = WorkloadSpec("zipf", m=2000, skew=1.2, seed=7).build(q)
        rng = np.random.default_rng(0)
        predictions = set()
        for _ in range(20):  # the unsorted sum took two values here
            shuffled = Database.from_relations(
                Relation.from_columns(
                    relation.name,
                    relation.batch.columns[:, rng.permutation(len(relation))],
                    relation.domain_size,
                )
                for relation in db
            )
            stats = HeavyHitterStatistics.of(q, shuffled, 64)
            predictions.add(
                BinHyperCubeAlgorithm(q).predicted_load_bits(stats, 64)
            )
        assert len(predictions) == 1

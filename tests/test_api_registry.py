"""The algorithm registry: declared applicability and cost hooks."""

import math

import pytest

from repro.api import (
    AlgorithmSpec,
    RegistryError,
    algorithm_keys,
    algorithm_specs,
    applicable_specs,
    get_spec,
    register,
    unregister,
)
from repro.core import HyperCubeAlgorithm
from repro.data import uniform_relation
from repro.mpc import OneRoundAlgorithm
from repro.query import parse_query
from repro.seq import Database
from repro.stats import HeavyHitterStatistics, SimpleStatistics
from repro.stats.provider import simple_of

JOIN = parse_query("q(x, y, z) :- S1(x, z), S2(y, z)")
TRIANGLE = parse_query("C3(x, y, z) :- R(x, y), S(y, z), T(z, x)")
STAR = parse_query("star(x, y, z, w) :- R(x, y), S(x, z), T(x, w)")
CARTESIAN = parse_query("q(x, y) :- R(x), S(y)")

CANONICAL = {
    "join": JOIN,
    "star": STAR,
    "triangle": TRIANGLE,
    "cartesian": CARTESIAN,
}

# The ground truth of which registered algorithm handles which query.
EXPECTED_APPLICABILITY = {
    "hypercube-lp": {"join", "star", "triangle", "cartesian"},
    "hypercube-equal": {"join", "star", "triangle", "cartesian"},
    "hypercube-broadcast": {"join", "star", "triangle", "cartesian"},
    "hashjoin": {"join", "star"},
    "skew-join": {"join"},
    "bin-hypercube": {"join", "star", "triangle", "cartesian"},
    "cartesian-grid": {"cartesian"},
}


def _db(query, m=120, seed=7):
    return Database.from_relations([
        uniform_relation(atom.name, m, 8 * m, arity=atom.arity, seed=seed + i)
        for i, atom in enumerate(query.atoms)
    ])


class TestDefaultRegistry:
    def test_every_paper_algorithm_is_registered(self):
        keys = algorithm_keys()
        assert set(EXPECTED_APPLICABILITY) <= set(keys)

    def test_declared_applicability_matches_ground_truth(self):
        for key, expected in EXPECTED_APPLICABILITY.items():
            spec = get_spec(key)
            for label, query in CANONICAL.items():
                reason = spec.applicability(query)
                if label in expected:
                    assert reason is None, (key, label, reason)
                else:
                    assert isinstance(reason, str) and reason, (key, label)

    def test_applicable_specs_filters(self):
        keys = {spec.key for spec in applicable_specs(TRIANGLE)}
        assert "skew-join" not in keys
        assert "hashjoin" not in keys
        assert "hypercube-lp" in keys

    def test_applicable_specs_round_budget(self):
        # The default budget of 1 keeps the one-round contract; raising
        # it (or lifting it with None) admits the multi-round specs.
        one_round = {spec.key for spec in applicable_specs(TRIANGLE)}
        assert "two-round-triangle" not in one_round
        two_round = {
            spec.key for spec in applicable_specs(TRIANGLE, max_rounds=2)
        }
        assert {"two-round-triangle", "round-join"} <= two_round
        assert two_round == {
            spec.key for spec in applicable_specs(TRIANGLE, max_rounds=None)
        }

    def test_build_rejects_inapplicable(self):
        stats = SimpleStatistics.of(_db(TRIANGLE))
        with pytest.raises(RegistryError, match="not applicable"):
            get_spec("skew-join").build(TRIANGLE, stats, 8)

    def test_unknown_key(self):
        with pytest.raises(RegistryError, match="unknown algorithm"):
            get_spec("warp-join")

    def test_specs_by_keys_preserve_order(self):
        specs = algorithm_specs(["skew-join", "hashjoin"])
        assert [spec.key for spec in specs] == ["skew-join", "hashjoin"]


class TestCostHooks:
    def test_predictions_are_finite_and_positive(self):
        for label, query in CANONICAL.items():
            db = _db(query)
            stats = HeavyHitterStatistics.of(query, db, 8)
            for spec in applicable_specs(query):
                predicted = spec.predicted_load_bits(query, stats, 8)
                assert math.isfinite(predicted) and predicted > 0, (
                    spec.key, label, predicted,
                )

    def test_simple_and_heavy_statistics_agree_when_skew_free(self):
        """On a matching-free uniform workload the heavy-hitter refinement
        must not move the hypercube prediction (no hitters to refine by)."""
        from repro.data import matching_relation

        db = Database.from_relations([
            matching_relation(a.name, 200, 1600, arity=a.arity, seed=i)
            for i, a in enumerate(JOIN.atoms)
        ])
        hh = HeavyHitterStatistics.of(JOIN, db, 8)
        assert hh.total_heavy_count() == 0
        spec = get_spec("hypercube-lp")
        assert spec.predicted_load_bits(JOIN, hh, 8) == pytest.approx(
            spec.predicted_load_bits(JOIN, hh.simple, 8)
        )

    def test_hashjoin_prediction_collapses_under_skew(self):
        """Example 3.3: one shared join value forces ~m tuples through one
        server; the cost hook must see it through the heavy hitters."""
        from repro.data import single_value_relation

        m, p = 200, 8
        db = Database.from_relations([
            single_value_relation("S1", m, 8 * m, fixed_position=1, seed=1),
            single_value_relation("S2", m, 8 * m, fixed_position=1, seed=2),
        ])
        hh = HeavyHitterStatistics.of(JOIN, db, p)
        spec = get_spec("hashjoin")
        skew_free = spec.predicted_load_bits(JOIN, hh.simple, p)
        skew_aware = spec.predicted_load_bits(JOIN, hh, p)
        # The skew-free estimate is ~2m/p tuples; the aware one ~m tuples.
        assert skew_aware > 3 * skew_free

    def test_predicted_load_tracks_measured(self):
        """Cost hooks are honest within small constants on every canonical
        query (skew-free): measured/predicted stays in a tight band."""
        from repro.mpc import run_one_round

        p = 8
        for label, query in CANONICAL.items():
            db = _db(query)
            stats = HeavyHitterStatistics.of(query, db, p)
            for spec in applicable_specs(query):
                predicted = spec.predicted_load_bits(query, stats, p)
                algorithm = spec.build(query, stats, p)
                measured = run_one_round(
                    algorithm, db, p, compute_answers=False
                ).max_load_bits
                ratio = measured / predicted
                assert 0.3 < ratio < 5.0, (label, spec.key, ratio)


class TestCustomRegistration:
    def test_register_and_unregister(self):
        class Everywhere(OneRoundAlgorithm):
            def __init__(self, query):
                super().__init__(query, name="everywhere")

            def routing_plan(self, db, p, hashes):  # pragma: no cover
                raise NotImplementedError

            def predicted_load_bits(self, stats, p):
                simple = simple_of(stats)
                return sum(
                    simple.bits(a.name) for a in self.query.atoms
                )

        spec = AlgorithmSpec(
            key="test-everywhere",
            algorithm_class=Everywhere,
            factory=lambda query, stats, p: Everywhere(query),
            summary="broadcast everything (test)",
        )
        try:
            register(spec)
            assert "test-everywhere" in algorithm_keys()
            with pytest.raises(RegistryError, match="already registered"):
                register(spec)
            stats = SimpleStatistics.of(_db(JOIN))
            predicted = get_spec("test-everywhere").predicted_load_bits(
                JOIN, stats, 8
            )
            assert predicted == pytest.approx(
                stats.bits("S1") + stats.bits("S2")
            )
        finally:
            unregister("test-everywhere")
        assert "test-everywhere" not in algorithm_keys()

    def test_base_applicability_defaults_to_everywhere(self):
        assert HyperCubeAlgorithm.applicability(TRIANGLE) is None
        assert HyperCubeAlgorithm.applicability(CARTESIAN) is None

"""Tests for the plan introspection (explain) output."""

from repro.core import BinHyperCubeAlgorithm, SkewAwareJoin
from repro.data import single_value_relation, uniform_relation
from repro.mpc import HashFamily
from repro.query import simple_join_query
from repro.seq import Database


def _skewed_db():
    return Database.from_relations(
        [
            single_value_relation("S1", 80, 300, seed=1),
            single_value_relation("S2", 80, 300, seed=2),
        ]
    )


def _uniform_db():
    return Database.from_relations(
        [
            uniform_relation("S1", 100, 800, seed=3),
            uniform_relation("S2", 100, 800, seed=4),
        ]
    )


class TestSkewJoinExplain:
    def test_mentions_grid_for_doubly_heavy(self):
        q = simple_join_query()
        db = _skewed_db()
        plan = SkewAwareJoin(q).routing_plan(db, 8, HashFamily(0))
        text = plan.explain()
        assert "skew-aware join on z" in text
        assert "H12" in text and "cartesian grid" in text

    def test_uniform_plan_has_no_heavy_lines(self):
        q = simple_join_query()
        db = _uniform_db()
        plan = SkewAwareJoin(q).routing_plan(db, 8, HashFamily(0))
        text = plan.explain()
        assert "H12" not in text
        assert "light hitters" in text


class TestBinPlanExplain:
    def test_lists_combinations_and_budgets(self):
        q = simple_join_query()
        db = _skewed_db()
        plan = BinHyperCubeAlgorithm(q).routing_plan(db, 8, HashFamily(0))
        text = plan.explain()
        assert "bin combinations" in text
        assert "p^lambda" in text
        assert "predicted load" in text
        # The heavy value z=0 should have spawned a combination on {z}.
        assert "x={z}" in text

    def test_uniform_plan_is_single_combination(self):
        q = simple_join_query()
        db = _uniform_db()
        plan = BinHyperCubeAlgorithm(q).routing_plan(db, 8, HashFamily(0))
        assert len(plan.families) == 1
        assert "1 bin combinations" in plan.explain()

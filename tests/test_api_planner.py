"""The bound-driven planner: ranking, instantiation, optimality gaps.

The satellite contract from the issue: on the canonical queries the
auto-planner must never instantiate an inapplicable algorithm, and its
predicted ranking must match the measured ``max_load_bits`` ordering on
skew-free workloads (near-ties excluded — hash fluctuations make loads
within a small factor of each other order-unstable by nature).
"""

import pytest

from repro.api import (
    PlanError,
    QueryPlan,
    applicable_specs,
    autoplan,
    get_spec,
    plan,
)
from repro.core import lower_bound
from repro.lp import maximize
from repro.data import uniform_relation, zipf_relation
from repro.mpc import run_one_round
from repro.query import parse_query
from repro.seq import Database
from repro.stats import HeavyHitterStatistics, SimpleStatistics

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

P = 8


def _uniform_db(query, m=150, seed=11):
    return Database.from_relations([
        uniform_relation(atom.name, m, 8 * m, arity=atom.arity, seed=seed + i)
        for i, atom in enumerate(query.atoms)
    ])


class TestPlanShape:
    def test_plan_parses_textual_queries(self):
        db = _uniform_db(JOIN)
        query_plan = plan("q(x, y, z) :- S1(x, z), S2(y, z)", db=db, p=P)
        assert isinstance(query_plan, QueryPlan)
        assert query_plan.p == P

    def test_plan_attaches_theorem_36_lower_bound(self):
        db = _uniform_db(JOIN)
        stats = SimpleStatistics.of(db)
        query_plan = plan(JOIN, stats, P)
        expected = lower_bound(JOIN, stats.bits_vector(JOIN), P).bits
        assert query_plan.lower_bound_bits == pytest.approx(expected)
        for prediction in query_plan.applicable:
            assert prediction.lower_bound_bits == pytest.approx(expected)
            assert prediction.optimality_ratio == pytest.approx(
                prediction.predicted_load_bits / expected
            )

    def test_ranking_is_sorted_by_predicted_load(self):
        for query in CANONICAL.values():
            db = _uniform_db(query)
            query_plan = plan(query, db=db, p=P)
            loads = [
                pr.predicted_load_bits for pr in query_plan.applicable
            ]
            assert loads == sorted(loads)
            assert query_plan.chosen.key == query_plan.applicable[0].key

    def test_inapplicable_entries_carry_reasons(self):
        db = _uniform_db(TRIANGLE)
        query_plan = plan(TRIANGLE, db=db, p=P)
        skipped = {
            pr.key: pr.reason
            for pr in query_plan.predictions
            if not pr.applicable
        }
        assert "skew-join" in skipped and "two atoms" in skipped["skew-join"]
        assert "hashjoin" in skipped

    def test_plan_requires_statistics_or_database(self):
        with pytest.raises(PlanError, match="statistics or a database"):
            plan(JOIN, p=P)

    def test_restricting_algorithms(self):
        db = _uniform_db(JOIN)
        query_plan = plan(
            JOIN, db=db, p=P, algorithms=["hashjoin", "hypercube-equal"]
        )
        assert {pr.key for pr in query_plan.predictions} == {
            "hashjoin", "hypercube-equal",
        }

    def test_explain_mentions_every_algorithm(self):
        db = _uniform_db(JOIN)
        text = plan(JOIN, db=db, p=P).explain()
        for spec in applicable_specs(JOIN):
            assert spec.key in text
        assert "lower bound" in text


class TestAutoplan:
    @pytest.mark.parametrize("label", sorted(CANONICAL))
    def test_autoplan_never_instantiates_inapplicable(self, label):
        """The chosen algorithm's class must declare the query applicable."""
        query = CANONICAL[label]
        db = _uniform_db(query)
        algorithm = autoplan(query, db=db, p=P)
        matching = [
            spec for spec in applicable_specs(query)
            if isinstance(algorithm, spec.algorithm_class)
        ]
        assert matching, (label, type(algorithm).__name__)
        for spec in matching:
            assert spec.applicability(query) is None

    @pytest.mark.parametrize("label", sorted(CANONICAL))
    def test_autoplan_picks_minimum_predicted_load(self, label):
        query = CANONICAL[label]
        db = _uniform_db(query)
        stats = HeavyHitterStatistics.of(query, db, P)
        query_plan = plan(query, stats, P)
        best = min(
            query_plan.applicable, key=lambda pr: pr.predicted_load_bits
        )
        assert query_plan.chosen.predicted_load_bits == pytest.approx(
            best.predicted_load_bits
        )
        algorithm = autoplan(query, stats, P)
        chosen_spec = get_spec(query_plan.chosen.key)
        assert isinstance(algorithm, chosen_spec.algorithm_class)

    @pytest.mark.parametrize("label", sorted(CANONICAL))
    def test_predicted_ranking_matches_measured_on_skew_free(self, label):
        """Pairs separated by >= 1.5x in prediction must measure in the
        same order; closer pairs are legitimate near-ties."""
        query = CANONICAL[label]
        db = _uniform_db(query)
        stats = HeavyHitterStatistics.of(query, db, P)
        query_plan = plan(query, stats, P)
        measured = {}
        for prediction in query_plan.applicable:
            algorithm = query_plan.instantiate(prediction.key)
            measured[prediction.key] = run_one_round(
                algorithm, db, P, compute_answers=False
            ).max_load_bits
        ranked = query_plan.applicable
        for i, first in enumerate(ranked):
            for second in ranked[i + 1:]:
                if (second.predicted_load_bits
                        >= 1.5 * first.predicted_load_bits):
                    assert measured[first.key] <= measured[second.key], (
                        label, first.key, second.key, measured,
                    )

    def test_skew_steers_the_choice(self):
        """The planner's raison d'etre: skew-free picks a plain grid
        algorithm, heavy skew picks a skew-aware one."""
        m = 300
        skewed = Database.from_relations([
            zipf_relation("S1", m, 4 * m, skew=1.8, seed=1),
            zipf_relation("S2", m, 4 * m, skew=1.8, seed=2),
        ])
        flat = _uniform_db(JOIN, m=m)
        flat_choice = plan(JOIN, db=flat, p=16).chosen.key
        skewed_choice = plan(JOIN, db=skewed, p=16).chosen.key
        assert flat_choice in {"hypercube-lp", "hypercube-broadcast",
                               "hashjoin", "bin-hypercube", "skew-join"}
        assert skewed_choice in {"skew-join", "bin-hypercube"}
        # And the skewed choice must not be a skew-oblivious grid.
        assert skewed_choice not in {"hashjoin", "hypercube-lp"}

    def test_one_share_lp_for_two_seeds_and_two_skews(self):
        """The share LP (5) is a function of ``(q, M, p)``: the grid
        algorithms' plans solve it for the first of four databases that
        differ in seed and skew only, and never again."""
        m, misses = 300, []
        maximize.cache_clear()
        for seed in (1, 2):
            for skew in (0.8, 1.4):
                db = Database.from_relations([
                    zipf_relation("S1", m, 4 * m, skew=skew, seed=seed),
                    zipf_relation("S2", m, 4 * m, skew=skew, seed=seed + 10),
                ])
                assert [db.relation(name).cardinality
                        for name in ("S1", "S2")] == [m, m]
                plan(JOIN, HeavyHitterStatistics.of(JOIN, db, 16), 16,
                     algorithms=("hypercube-lp", "hypercube-broadcast"))
                misses.append(maximize.cache_info().misses)
        assert misses[0] >= 1
        assert misses == [misses[0]] * 4
        assert maximize.cache_info().hits >= 3

    def test_autoplan_runs_complete(self):
        """The planner's winner actually answers the query."""
        for query in CANONICAL.values():
            db = _uniform_db(query, m=80)
            algorithm = autoplan(query, db=db, p=4)
            result = run_one_round(algorithm, db, 4, verify=True)
            assert result.is_complete, query.name

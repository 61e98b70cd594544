"""The multi-round subsystem: protocol, execution parity, planner, curve.

The golden numbers below pin the skewed-triangle instance the acceptance
criteria name: the two-round triangle must beat every one-round
algorithm's predicted *and* measured max-load on it, run bit-identically
on all three engines, and be the round-aware planner's pick at
``max_rounds=2`` — while a cross-skewed instance (every pairwise join
huge) must still fall to a one-round plan.
"""

import pytest

from repro.api import Sweep
from repro.api.planner import PlanError, plan, autoplan, tradeoff
from repro.api.records import RecordError, RunRecord, validate_record
from repro.data.generators import planted_heavy_relation, uniform_relation
from repro.mpc.engine.base import available_engines
from repro.query.atoms import Atom, ConjunctiveQuery
from repro.query.parser import parse_query
from repro.rounds import (
    MultiRoundAlgorithm,
    RoundComposedJoin,
    RoundsError,
    TwoRoundTriangle,
    estimate_join_size,
    intermediate_name,
    run_rounds,
    select_one_round,
)
from repro.seq.join import evaluate
from repro.seq.relation import Database, Relation
from repro.stats.heavy_hitters import HeavyHitterStatistics

TRIANGLE_TEXT = "q(x, y, z) :- R(x, y), S(y, z), T(z, x)"

# The pinned skewed triangle: x is heavy in R (first position) and in T
# (second position), so every one-round algorithm pays for the skew
# while the two-round plan joins the small R ⋈ S first.
M, N, P, SEED = 300, 1200, 8, 0

#: max per-server bits of each round on the instance above — identical
#: across engines by construction, so one engine drifting is a bug.
GOLDEN_ROUND_LOADS = (1779.8144521462834, 1207.000605478514)
GOLDEN_ANSWERS = 7


def skewed_triangle_db() -> Database:
    return Database.from_relations([
        planted_heavy_relation("R", M, N, heavy_values=[0],
                               heavy_fraction=0.5, heavy_position=0, seed=1),
        uniform_relation("S", M, N, seed=2),
        planted_heavy_relation("T", M, N, heavy_values=[0],
                               heavy_fraction=0.5, heavy_position=1, seed=3),
    ])


def cross_heavy_triangle_db() -> Database:
    """Every pairwise join is quadratic: each relation is a star around
    value 0 on *both* positions, so no binary-join order is cheap and
    the one-round HyperCube must win the combined ranking."""
    half = M // 2
    star = {(0, v) for v in range(1, half + 1)}
    star |= {(u, 0) for u in range(1, half + 1)}
    return Database.from_relations([
        Relation.build(name, star, domain_size=N) for name in "RST"
    ])


def triangle_query() -> ConjunctiveQuery:
    return parse_query(TRIANGLE_TEXT)


class TestProtocol:
    def test_intermediate_name_avoids_clashes(self):
        query = triangle_query()
        assert intermediate_name(query, 0) == "_J1"
        clash = ConjunctiveQuery(
            atoms=(Atom("_J1", ("x", "y")), Atom("S", ("y", "z")),
                   Atom("T", ("z", "x"))),
        )
        assert intermediate_name(clash, 0).startswith("__J1")

    def test_triangle_applicability(self):
        assert TwoRoundTriangle.applicability(triangle_query()) is None
        two_atoms = parse_query("q(x, y, z) :- R(x, y), S(y, z)")
        assert TwoRoundTriangle.applicability(two_atoms) is not None
        star = parse_query("q(x, y, z, w) :- R(x, y), S(y, z), T(y, w)")
        assert TwoRoundTriangle.applicability(star) is not None
        with pytest.raises(RoundsError):
            TwoRoundTriangle(two_atoms)

    def test_composed_needs_three_connected_atoms(self):
        assert RoundComposedJoin.applicability(
            parse_query("q(x, y) :- R(x, y), S(x, y)")) is not None
        disconnected = parse_query("q(x, y, u, v) :- R(x, y), S(u, v), T(u, v)")
        assert "disconnected" in RoundComposedJoin.applicability(disconnected)

    def test_round_plan_shape(self):
        algo = TwoRoundTriangle(triangle_query())
        specs = algo.round_plan()
        assert [spec.index for spec in specs] == [0, 1]
        assert not specs[0].is_final and specs[1].is_final
        assert specs[0].output == "_J1"
        # The final round's head is the original query's head order.
        assert specs[1].query.head == triangle_query().variables
        assert algo.round_count(triangle_query()) == 2
        assert RoundComposedJoin.round_count(
            parse_query("q(a, b, c, d) :- R(a, b), S(b, c), T(c, d)")) == 2

    def test_estimate_join_size_caps_at_cross_product(self):
        query = triangle_query()
        stats = HeavyHitterStatistics.of(query, skewed_triangle_db(), P)
        estimate = estimate_join_size(
            "R", ("x", "y"), stats.simple.cardinality("R"),
            query.atoms[1], stats.simple, N, hh=stats,
        )
        assert 0.0 <= estimate <= M * M

    def test_select_one_round_is_deterministic(self):
        query = triangle_query()
        stats = HeavyHitterStatistics.of(query, skewed_triangle_db(), P)
        first = select_one_round(query, stats, P)
        second = select_one_round(query, stats, P)
        assert first[1] == second[1]
        assert first[2] == pytest.approx(second[2])


class TestExecution:
    def test_engine_parity_with_golden_loads(self):
        """All three engines replay the same round sequence bit for bit."""
        db = skewed_triangle_db()
        algo = TwoRoundTriangle(
            triangle_query(),
            stats=HeavyHitterStatistics.of(triangle_query(), db, P),
        )
        results = {
            engine: run_rounds(algo, db, P, seed=SEED, verify=True,
                               engine=engine)
            for engine in available_engines()
        }
        baseline = results["reference"]
        assert baseline.round_load_bits == pytest.approx(GOLDEN_ROUND_LOADS)
        assert baseline.answer_count == GOLDEN_ANSWERS
        for result in results.values():
            assert result.is_complete is True
            assert result.answers == baseline.answers
            assert result.round_count == 2
            for mine, theirs in zip(result.rounds, baseline.rounds):
                assert mine.report.per_server_bits == pytest.approx(
                    theirs.report.per_server_bits)
                assert (mine.report.per_server_tuples
                        == theirs.report.per_server_tuples)

    def test_two_round_beats_one_round_predicted_and_measured(self):
        db = skewed_triangle_db()
        query = triangle_query()
        stats = HeavyHitterStatistics.of(query, db, P)
        one_round_plan = plan(query, stats, P, max_rounds=1)
        best_one = one_round_plan.chosen
        two = TwoRoundTriangle(query, stats=stats)
        assert two.predicted_load_bits(stats, P) < best_one.predicted_load_bits

        two_result = run_rounds(two, db, P, seed=SEED, engine="batched")
        one_result_loads = []
        for prediction in one_round_plan.applicable:
            algorithm = one_round_plan.instantiate(prediction.key)
            from repro.mpc.execution import run_one_round

            result = run_one_round(algorithm, db, P, seed=SEED,
                                   engine="batched", compute_answers=False)
            one_result_loads.append(result.max_load_bits)
        assert two_result.max_load_bits < min(one_result_loads)

    def test_details_and_derived_properties(self):
        db = skewed_triangle_db()
        algo = TwoRoundTriangle(
            triangle_query(),
            stats=HeavyHitterStatistics.of(triangle_query(), db, P),
        )
        result = run_rounds(algo, db, P, seed=SEED, engine="batched")
        assert result.details["round_algorithms"] == ("hypercube-lp",
                                                      "skew-join")
        assert result.max_load_bits == max(result.round_load_bits)
        assert result.total_bits == pytest.approx(
            sum(r.report.total_bits for r in result.rounds))
        assert result.replication_rate > 0
        assert "two-round-triangle" in result.describe()

    def test_verify_against_sequential_oracle(self):
        db = skewed_triangle_db()
        algo = TwoRoundTriangle(
            triangle_query(),
            stats=HeavyHitterStatistics.of(triangle_query(), db, P),
        )
        result = run_rounds(algo, db, P, seed=SEED, verify=True,
                            engine="batched")
        assert result.answers == evaluate(triangle_query(), db)

    def test_an_empty_intermediate_runs_to_no_answers(self):
        """R ⋈ S is empty on the worst-case triangle: a round algorithm
        whose shares need bits on every relation is no candidate there."""
        result = Sweep(TRIANGLE_TEXT, workload="worst", m_values=(3000,),
                       p_values=(8, 64), verify=True,
                       algorithms=("two-round-triangle", "round-join")).run()
        assert len(result) == 4
        assert all(r.ok and r.complete is True and r.answer_count == 0
                   for r in result), [r.status for r in result]

    def test_composed_join_on_four_atom_chain(self):
        query = parse_query(
            "q(a, b, c, d, e) :- R(a, b), S(b, c), T(c, d), U(d, e)")
        db = Database.from_relations([
            uniform_relation(name, 120, 600, seed=i)
            for i, name in enumerate("RSTU")
        ])
        algo = RoundComposedJoin(
            query, stats=HeavyHitterStatistics.of(query, db, 4))
        assert algo.round_count(query) == 3
        result = run_rounds(algo, db, 4, seed=SEED, verify=True,
                            engine="batched")
        assert result.is_complete is True
        assert result.round_count == 3
        assert len(result.round_load_bits) == 3


class TestPlanner:
    def test_budget_of_one_excludes_multi_round(self):
        query = triangle_query()
        stats = HeavyHitterStatistics.of(query, skewed_triangle_db(), P)
        one = plan(query, stats, P)
        skipped = {pr.key: pr.reason for pr in one.predictions
                   if not pr.applicable}
        assert "max_rounds=1" in skipped["two-round-triangle"]
        assert one.chosen.rounds == 1

    def test_autoplan_selects_two_round_on_skew(self):
        db = skewed_triangle_db()
        algo = autoplan(TRIANGLE_TEXT, db=db, p=P, max_rounds=2)
        assert isinstance(algo, MultiRoundAlgorithm)
        assert algo.name == "two-round-triangle"

    def test_autoplan_keeps_one_round_where_it_wins(self):
        db = cross_heavy_triangle_db()
        algo = autoplan(TRIANGLE_TEXT, db=db, p=P, max_rounds=2)
        assert not isinstance(algo, MultiRoundAlgorithm)

    def test_combined_scale_and_dict_round_trip(self):
        query = triangle_query()
        stats = HeavyHitterStatistics.of(query, skewed_triangle_db(), P)
        query_plan = plan(query, stats, P, max_rounds=2)
        chosen = query_plan.chosen
        assert chosen.rounds == 2
        assert chosen.cost_bits == pytest.approx(
            chosen.predicted_load_bits * 2)
        assert len(chosen.round_loads) == 2
        document = query_plan.to_dict()
        assert document["max_rounds"] == 2
        by_key = {row["key"]: row for row in document["predictions"]}
        assert by_key["two-round-triangle"]["rounds"] == 2
        assert by_key["hypercube-lp"]["rounds"] == 1
        assert "(2 rounds)" in query_plan.explain()

    def test_multi_round_lower_bound_attached(self):
        query = triangle_query()
        stats = HeavyHitterStatistics.of(query, skewed_triangle_db(), P)
        query_plan = plan(query, stats, P, max_rounds=2)
        two = query_plan.prediction("two-round-triangle")
        one = query_plan.prediction("hypercube-lp")
        # The repartition bound max_j M_j / p, not the one-round bound.
        expected = max(stats.simple.bits(a.name) for a in query.atoms) / P
        assert two.lower_bound_bits == pytest.approx(expected)
        assert one.lower_bound_bits == pytest.approx(
            query_plan.lower_bound_bits)

    def test_bad_budget_rejected(self):
        query = triangle_query()
        stats = HeavyHitterStatistics.of(query, skewed_triangle_db(), P)
        with pytest.raises(PlanError, match="max_rounds"):
            plan(query, stats, P, max_rounds=0)


class TestTradeoff:
    def test_curve_on_the_skewed_triangle(self):
        db = skewed_triangle_db()
        points = tradeoff(TRIANGLE_TEXT, P, rounds=3, db=db)
        assert [point.rounds for point in points] == [1, 2, 3]
        one, two, three = points
        assert one.key == "hypercube-lp"
        assert two.key == "two-round-triangle"
        assert three.key is None and three.cost_bits is None
        assert two.predicted_load_bits < one.predicted_load_bits
        assert two.round_loads is not None and len(two.round_loads) == 2
        payload = two.to_dict()
        assert payload["cost_bits"] == pytest.approx(
            two.predicted_load_bits * 2)

    def test_rounds_must_be_positive(self):
        with pytest.raises(ValueError, match="rounds"):
            tradeoff(TRIANGLE_TEXT, P, rounds=0, db=skewed_triangle_db())


class TestRecordsAndSweep:
    def test_record_round_fields_validate(self):
        record = RunRecord(
            query=TRIANGLE_TEXT, workload="zipf", m=100, skew=1.0, seed=0,
            domain=400, p=8, algorithm="two-round-triangle",
            algorithm_name="two-round-triangle", engine="batched",
            predicted_load_bits=10.0, lower_bound_bits=5.0,
            max_load_bits=12.0, max_load_tuples=3, replication_rate=1.0,
            balance=1.0, wall_seconds=0.1, rounds=2,
            round_load_bits=(12.0, 8.0),
        )
        payload = record.to_dict()
        validate_record(payload)
        assert RunRecord.from_dict(payload).rounds == 2
        payload["rounds"] = 0
        with pytest.raises(RecordError, match="rounds"):
            validate_record(payload)
        payload["rounds"] = 2
        payload["round_load_bits"] = [12.0, "eight"]
        with pytest.raises(RecordError, match="round_load_bits"):
            validate_record(payload)

    def test_sweep_rounds_axis(self):
        result = Sweep(
            query=TRIANGLE_TEXT, workload="zipf", m_values=(120,),
            skews=(1.5,), seeds=(0,), p_values=(4,), algorithms="auto",
            rounds=(1, 2), verify=True,
        ).run()
        by_budget = {record.rounds: record for record in result}
        assert set(by_budget) == {1, 2}
        one, two = by_budget[1], by_budget[2]
        assert one.round_load_bits is None
        assert len(two.round_load_bits) == 2
        assert two.max_load_bits == pytest.approx(max(two.round_load_bits))
        assert one.complete is True and two.complete is True
        assert one.answer_count == two.answer_count

    def test_explicit_multi_round_key_opts_into_its_rounds(self):
        result = Sweep(
            query=TRIANGLE_TEXT, workload="zipf", m_values=(120,),
            skews=(1.0,), seeds=(0,), p_values=(4,),
            algorithms=("hypercube-lp", "two-round-triangle"),
        ).run()
        by_key = {record.algorithm: record for record in result}
        assert by_key["hypercube-lp"].rounds == 1
        assert by_key["two-round-triangle"].rounds == 2

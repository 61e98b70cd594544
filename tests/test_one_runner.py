"""One runner for one round and many: ``run_rounds`` above the engines.

A one-round algorithm is the 1-round case of the round protocol, so the
unified runner must measure exactly what a direct ``run_one_round`` does;
a user-defined algorithm that knows nothing of rounds must still plan,
race and sweep; and ``repro race`` goes through the same path.
"""

from functools import partialmethod

import pytest

from repro import cli
from repro.api import (
    AlgorithmSpec,
    Sweep,
    WorkloadSpec,
    algorithm_specs,
    plan,
    register,
    unregister,
)
from repro.api.experiment import SharedContext
from repro.mpc import (
    OneRoundAlgorithm,
    RoutingPlan,
    available_engines,
    run_one_round,
)
from repro.query.families import FAMILIES, cartesian_product_query
from repro.rounds import run_rounds
from repro.seq import count_answers
from repro.stats import HeavyHitterStatistics
from repro.stats.provider import simple_of

P, SEED = 8, 3
TRIANGLE_TEXT = "q(x,y,z) :- R(x,y), S(y,z), T(z,x)"
JOIN_TEXT = "q(x,y,z) :- S1(x,z), S2(y,z)"

QUERIES = {**{name: build() for name, build in FAMILIES.items()},
           "product": cartesian_product_query(2, arity=2)}


def _one_round_cases():
    for name, query in QUERIES.items():
        for spec in algorithm_specs():
            if spec.is_applicable(query) and spec.rounds(query) == 1:
                yield pytest.param(name, spec.key, id=f"{name}-{spec.key}")


@pytest.mark.parametrize("engine", available_engines())
@pytest.mark.parametrize("query_name, key", _one_round_cases())
def test_unified_runner_equals_direct_one_round(query_name, key, engine):
    query = QUERIES[query_name]
    db = WorkloadSpec("zipf", m=60, skew=1.2, seed=1).build(query)
    stats = HeavyHitterStatistics.of(query, db, P)
    algorithm = plan(query, stats, P, algorithms=[key]).instantiate(key)
    unified = run_rounds(algorithm, db, P, seed=SEED, verify=True,
                         engine=engine)
    direct = run_one_round(algorithm, db, P, seed=SEED, engine=engine)
    assert unified.round_count == 1
    assert unified.max_load_bits == direct.max_load_bits
    assert unified.max_load_tuples == direct.max_load_tuples
    assert unified.replication_rate == direct.report.replication_rate
    assert unified.balance == direct.report.balance
    assert unified.answers == direct.answers
    assert unified.is_complete is True
    assert unified.answer_count == count_answers(query, db)


class _EverythingToZero(RoutingPlan):
    def destinations(self, relation_name, tup):
        return (0,)


class EverythingToZero(OneRoundAlgorithm):
    """Knows only the one-round surface: a routing plan and a prediction."""

    def __init__(self, query):
        super().__init__(query, "everything-to-zero")

    def routing_plan(self, db, p, hashes):
        return _EverythingToZero()

    def predicted_load_bits(self, stats, p):
        return float(sum(simple_of(stats).bits_vector(
            self.query).values()))


@pytest.fixture
def user_algorithm():
    register(AlgorithmSpec(
        key="everything-to-zero", algorithm_class=EverythingToZero,
        factory=lambda query, stats, p: EverythingToZero(query),
        summary="test: one server receives the whole input",
    ))
    try:
        yield "everything-to-zero"
    finally:
        unregister("everything-to-zero")


class TestUserDefinedOneRoundAlgorithm:
    def test_plans_on_the_round_scale(self, user_algorithm):
        query = QUERIES["join"]
        db = WorkloadSpec("uniform", m=50).build(query)
        prediction = plan(query, db=db, p=4).prediction(user_algorithm)
        assert prediction.applicable and prediction.rounds == 1
        assert prediction.round_loads == (prediction.predicted_load_bits,)
        assert prediction.predicted_load_bits == db.total_bits

    def test_sweeps(self, user_algorithm):
        record, = Sweep(
            JOIN_TEXT, workload="uniform", p_values=(4,), m_values=(50,),
            algorithms=(user_algorithm,), verify=True,
        ).run()
        assert record.ok and record.complete
        assert record.rounds == 1 and record.round_load_bits is None
        assert record.max_load_bits == record.predicted_load_bits
        assert record.replication_rate == 1.0

    def test_races(self, user_algorithm, capsys):
        assert cli.main(["race", JOIN_TEXT, "-m", "50", "-p", "4",
                         "--verify", "-q"]) == 0
        row, = [line.split() for line in capsys.readouterr().out.splitlines()
                if line.split()[:1] == [user_algorithm]]
        assert row[-1] == "True" and row[-2] == "1.00"


class TestRaceSharesTheRunner:
    ARGV = ["race", TRIANGLE_TEXT, "--workload", "zipf", "-m", "120",
            "-p", "8", "--verify", "-q"]

    def test_race_plans_at_one_round(self, capsys):
        """``race`` keeps its round budget of 1: multi-round keys are
        listed with the budget as the reason, and the help text says so."""
        assert cli.main(self.ARGV) == 0
        out = capsys.readouterr().out
        skipped = out[out.index("not applicable:"):]
        assert "two-round-triangle (needs 2 rounds" in skipped
        assert "round budget of 1" in " ".join(
            cli.build_parser().format_help().split())

    def test_a_multi_round_plan_races_through_the_same_path(
            self, capsys, monkeypatch):
        """Race planned at a round budget of 2: the two-round key becomes
        a cell beside the one-round ones, lifted to its rounds by the
        step every sweep cell runs."""
        monkeypatch.setattr(SharedContext, "plan",
                            partialmethod(SharedContext.plan, rounds=2))
        assert cli.main(self.ARGV) == 0
        rows = {line.split()[0]: line.split()
                for line in capsys.readouterr().out.splitlines()
                if line.strip()}
        assert rows["two-round-triangle"][-1] == "True"
        assert rows["hypercube-lp"][-1] == "True"

"""The engine-parity contract: every execution engine must be answer- and
load-identical to the reference simulator.

The matrix is algorithms (HC equal/LP shares, hash join, skew-aware join,
bin-hypercube, broadcast, cartesian) x data generators (uniform,
zipf-skewed, single-heavy-hitter) x seeds, with both ``compute_answers``
modes.  Identity is exact: same answer sets, same per-server tuple counts,
and bit-identical per-server bit loads (all engines fold bits as
``count * tuple_bits`` per relation in atom order, so no float tolerance
is needed).
"""

from __future__ import annotations

import pytest

from repro.core import (
    BinHyperCubeAlgorithm,
    BroadcastHyperCube,
    CartesianProductAlgorithm,
    HashJoinAlgorithm,
    HyperCubeAlgorithm,
    SkewAwareJoin,
)
from repro.data import single_value_relation, uniform_relation, zipf_relation
from repro.mpc import BatchedEngine, ReferenceEngine, run_one_round
from repro.obs import Observation
from repro.query import parse_query, simple_join_query
from repro.rounds import run_rounds
from repro.seq import Database, evaluate
from repro.stats import SimpleStatistics

P = 8
M = 120
SEEDS = (0, 1)

ENGINES = {"batched": BatchedEngine()}


def _join_db(generator: str, seed: int) -> Database:
    if generator == "uniform":
        relations = [
            uniform_relation("S1", M, 3 * M, seed=seed * 100 + 1),
            uniform_relation("S2", M, 3 * M, seed=seed * 100 + 2),
        ]
    elif generator == "zipf":
        relations = [
            zipf_relation("S1", M, 3 * M, skew=1.4, seed=seed * 100 + 1),
            zipf_relation("S2", M, 3 * M, skew=1.4, seed=seed * 100 + 2),
        ]
    else:  # one heavy hitter carrying every tuple
        relations = [
            single_value_relation("S1", M, 3 * M, seed=seed * 100 + 1),
            single_value_relation("S2", M, 3 * M, seed=seed * 100 + 2),
        ]
    return Database.from_relations(relations)


def _join_algorithms(db: Database) -> list:
    query = simple_join_query()
    stats = SimpleStatistics.of(db)
    return [
        HyperCubeAlgorithm.with_equal_shares(query, P),
        HyperCubeAlgorithm.with_optimal_shares(query, stats, P),
        HashJoinAlgorithm(query, P),
        SkewAwareJoin(query),
        BinHyperCubeAlgorithm(query),
        BroadcastHyperCube(query),
    ]


def _assert_identical(result, oracle, context: str) -> None:
    assert result.answers == oracle.answers, f"{context}: answers differ"
    assert result.report.per_server_tuples == oracle.report.per_server_tuples, (
        f"{context}: per-server tuple counts differ"
    )
    assert result.report.per_server_bits == oracle.report.per_server_bits, (
        f"{context}: per-server bit loads differ"
    )
    assert result.max_load_tuples == oracle.max_load_tuples, context
    assert result.max_load_bits == oracle.max_load_bits, context
    assert result.report.input_tuples == oracle.report.input_tuples, context
    assert result.report.input_bits == oracle.report.input_bits, context


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("generator", ["uniform", "zipf", "heavy"])
def test_join_algorithms_parity(generator, seed):
    db = _join_db(generator, seed)
    for algorithm in _join_algorithms(db):
        oracle = run_one_round(
            algorithm, db, P, seed=seed, engine="reference"
        )
        for name, engine in ENGINES.items():
            result = run_one_round(
                algorithm, db, P, seed=seed, engine=engine
            )
            _assert_identical(
                result, oracle, f"{algorithm.name}/{generator}/{name}"
            )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("generator", ["uniform", "zipf", "heavy"])
def test_cartesian_parity(generator, seed):
    query = parse_query("q(x, y) :- S1(x), S2(y)")
    if generator == "uniform":
        relations = [
            uniform_relation("S1", 60, 200, arity=1, seed=seed * 100 + 1),
            uniform_relation("S2", 40, 200, arity=1, seed=seed * 100 + 2),
        ]
    elif generator == "zipf":
        relations = [
            zipf_relation("S1", 60, 200, arity=1, skew=1.4,
                          skewed_positions=(0,), seed=seed * 100 + 1),
            zipf_relation("S2", 40, 200, arity=1, skew=1.4,
                          skewed_positions=(0,), seed=seed * 100 + 2),
        ]
    else:
        relations = [
            single_value_relation("S1", 1, 200, arity=1, fixed_position=0,
                                  seed=seed * 100 + 1),
            uniform_relation("S2", 40, 200, arity=1, seed=seed * 100 + 2),
        ]
    db = Database.from_relations(relations)
    algorithm = CartesianProductAlgorithm(query)
    oracle = run_one_round(algorithm, db, P, seed=seed, engine="reference")
    for name, engine in ENGINES.items():
        result = run_one_round(algorithm, db, P, seed=seed, engine=engine)
        _assert_identical(result, oracle, f"cartesian/{generator}/{name}")


@pytest.mark.parametrize("generator", ["uniform", "zipf", "heavy"])
def test_load_only_parity(generator):
    """compute_answers=False exercises the streaming count paths."""
    db = _join_db(generator, seed=0)
    for algorithm in _join_algorithms(db):
        oracle = run_one_round(
            algorithm, db, P, compute_answers=False, engine="reference"
        )
        assert oracle.answers is None
        for name, engine in ENGINES.items():
            result = run_one_round(
                algorithm, db, P, compute_answers=False, engine=engine
            )
            assert result.answers is None
            _assert_identical(
                result, oracle, f"{algorithm.name}/{generator}/{name}/loads"
            )


def test_seed_sensitivity_is_engine_independent():
    """Different seeds change the loads, identically for every engine."""
    db = _join_db("zipf", seed=0)
    algorithm = HyperCubeAlgorithm.with_equal_shares(simple_join_query(), P)
    per_seed = []
    for seed in (3, 4):
        oracle = run_one_round(
            algorithm, db, P, seed=seed, compute_answers=False,
            engine="reference",
        )
        batched = run_one_round(
            algorithm, db, P, seed=seed, compute_answers=False,
            engine="batched",
        )
        assert batched.report.per_server_bits == oracle.report.per_server_bits
        per_seed.append(oracle.report.per_server_tuples)
    assert per_seed[0] != per_seed[1]


def test_verify_flag_round_trips_through_engines():
    db = _join_db("uniform", seed=0)
    algorithm = SkewAwareJoin(simple_join_query())
    for engine in ("reference", "batched"):
        result = run_rounds(algorithm, db, P, verify=True, engine=engine)
        assert result.is_complete, engine


@pytest.mark.parametrize("engine", ["reference", "batched"])
def test_verification_belongs_to_run_rounds(engine):
    """An engine only simulates the round: a verified run evaluates one
    oracle (``rounds.verify``) and makes one comparison
    (``rounds.compare``), neither inside ``engine.run``, the same way for
    every engine — and an unverified ``run_one_round`` has no oracle."""
    db = _join_db("zipf", seed=1)
    algorithm = SkewAwareJoin(simple_join_query())
    obs = Observation.create()
    plain = run_one_round(algorithm, db, P, engine=engine, obs=obs)
    assert [span.name for span in obs.tracer.finished_spans()
            if span.name.startswith("rounds.")] == []
    verified = run_rounds(
        algorithm, db, P, verify=True, engine=engine, obs=obs
    )
    assert verified.is_complete is True
    assert verified.answers == plain.answers == evaluate(algorithm.query, db)
    assert verified.rounds[0].report == plain.report
    for name in ("rounds.verify", "rounds.compare"):
        (span,) = obs.tracer.finished_spans(name)
        ancestor = span.parent
        while ancestor is not None:
            assert ancestor.name != "engine.run", name
            ancestor = ancestor.parent


def test_engine_instances_accepted():
    db = _join_db("uniform", seed=0)
    algorithm = HyperCubeAlgorithm.with_equal_shares(simple_join_query(), P)
    oracle = run_one_round(algorithm, db, P, engine=ReferenceEngine())
    result = run_one_round(algorithm, db, P, engine=BatchedEngine())
    _assert_identical(result, oracle, "instance-passing")

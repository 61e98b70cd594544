"""Edge-case hardening: degenerate inputs every algorithm must survive."""

import pytest

from repro.core import (
    BinHyperCubeAlgorithm,
    BroadcastHyperCube,
    HashJoinAlgorithm,
    HyperCubeAlgorithm,
    SkewAwareJoin,
)
from repro.data import uniform_relation
from repro.mpc import run_one_round
from repro.query import parse_query, simple_join_query
from repro.rounds import run_rounds
from repro.seq import Database, Relation


def _algorithms(query, p):
    return [
        HyperCubeAlgorithm.with_equal_shares(query, p),
        HashJoinAlgorithm(query, p),
        SkewAwareJoin(query),
        BinHyperCubeAlgorithm(query),
        BroadcastHyperCube(query),
    ]


class TestEmptyRelations:
    def test_one_empty_relation(self):
        query = simple_join_query()
        db = Database.from_relations(
            [
                Relation.build("S1", [], arity=2, domain_size=100),
                uniform_relation("S2", 50, 100, seed=1),
            ]
        )
        for algorithm in _algorithms(query, 4):
            result = run_rounds(algorithm, db, 4, verify=True)
            assert result.is_complete, algorithm.name
            assert result.answer_count == 0

    def test_all_empty_relations(self):
        query = simple_join_query()
        db = Database.from_relations(
            [
                Relation.build("S1", [], arity=2, domain_size=10),
                Relation.build("S2", [], arity=2, domain_size=10),
            ]
        )
        for algorithm in _algorithms(query, 4):
            result = run_rounds(algorithm, db, 4, verify=True)
            assert result.is_complete, algorithm.name
            assert result.total_bits == 0


class TestSingleServer:
    def test_p_equals_one(self):
        query = simple_join_query()
        db = Database.from_relations(
            [
                uniform_relation("S1", 60, 200, seed=2),
                uniform_relation("S2", 60, 200, seed=3),
            ]
        )
        for algorithm in _algorithms(query, 1):
            result = run_rounds(algorithm, db, 1, verify=True)
            assert result.is_complete, algorithm.name
            # One server receives everything exactly once.
            assert result.replication_rate == pytest.approx(1.0)


class TestTinyDomains:
    def test_domain_of_one_value(self):
        query = simple_join_query()
        db = Database.from_relations(
            [
                Relation.build("S1", [(0, 0)], domain_size=1),
                Relation.build("S2", [(0, 0)], domain_size=1),
            ]
        )
        for algorithm in _algorithms(query, 4):
            result = run_rounds(algorithm, db, 4, verify=True)
            assert result.is_complete, algorithm.name
            assert result.answers == frozenset({(0, 0, 0)})

    def test_single_tuple_relations(self):
        query = simple_join_query()
        db = Database.from_relations(
            [
                Relation.build("S1", [(3, 7)], domain_size=10),
                Relation.build("S2", [(5, 7)], domain_size=10),
            ]
        )
        for algorithm in _algorithms(query, 8):
            result = run_rounds(algorithm, db, 8, verify=True)
            assert result.is_complete, algorithm.name
            assert result.answers == frozenset({(3, 5, 7)})


class TestUnaryAtoms:
    def test_join_with_unary_atom(self):
        query = parse_query("q(x, y) :- S(x), T(x, y)")
        db = Database.from_relations(
            [
                uniform_relation("S", 30, 60, arity=1, seed=4),
                uniform_relation("T", 60, 60, arity=2, seed=5),
            ]
        )
        for algorithm in (
            HyperCubeAlgorithm.with_equal_shares(query, 4),
            BinHyperCubeAlgorithm(query),
            BroadcastHyperCube(query),
            SkewAwareJoin(query),
        ):
            result = run_rounds(algorithm, db, 4, verify=True)
            assert result.is_complete, algorithm.name

    def test_all_unary(self):
        query = parse_query("q(x) :- S(x), T(x)")
        db = Database.from_relations(
            [
                uniform_relation("S", 20, 40, arity=1, seed=6),
                uniform_relation("T", 25, 40, arity=1, seed=7),
            ]
        )
        for algorithm in (
            HyperCubeAlgorithm.with_equal_shares(query, 4),
            BinHyperCubeAlgorithm(query),
            SkewAwareJoin(query),
        ):
            result = run_rounds(algorithm, db, 4, verify=True)
            assert result.is_complete, algorithm.name


class TestPrimeServerCounts:
    """Non-power p must not break share rounding or block tiling."""

    @pytest.mark.parametrize("p", [3, 7, 13, 31])
    def test_skewed_join_prime_p(self, p):
        from repro.data import zipf_relation

        query = simple_join_query()
        db = Database.from_relations(
            [
                zipf_relation("S1", 150, 450, skew=1.4, seed=8),
                zipf_relation("S2", 150, 450, skew=1.4, seed=9),
            ]
        )
        for algorithm in _algorithms(query, p):
            result = run_rounds(algorithm, db, p, verify=True)
            assert result.is_complete, (algorithm.name, p)


ENGINES = ["reference", "batched"]


class TestEnginesOnDegenerateInputs:
    """Every engine must survive the same degenerate inputs the reference
    does, with identical results."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_p_equals_one(self, engine):
        query = simple_join_query()
        db = Database.from_relations(
            [
                uniform_relation("S1", 40, 150, seed=13),
                uniform_relation("S2", 40, 150, seed=14),
            ]
        )
        for algorithm in _algorithms(query, 1):
            result = run_rounds(algorithm, db, 1, verify=True, engine=engine)
            assert result.is_complete, (algorithm.name, engine)
            assert result.replication_rate == pytest.approx(1.0)
            assert result.rounds[0].report.per_server_tuples == (80,)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_empty_relation(self, engine):
        query = simple_join_query()
        db = Database.from_relations(
            [
                Relation.build("S1", [], arity=2, domain_size=100),
                uniform_relation("S2", 50, 100, seed=1),
            ]
        )
        for algorithm in _algorithms(query, 4):
            result = run_rounds(algorithm, db, 4, verify=True, engine=engine)
            assert result.is_complete, (algorithm.name, engine)
            assert result.answer_count == 0

    @pytest.mark.parametrize("engine", ENGINES)
    def test_every_tuple_shares_one_join_value(self, engine):
        """The worst skew: a single z value carries both relations."""
        from repro.data import single_value_relation

        query = simple_join_query()
        m = 40
        db = Database.from_relations(
            [
                single_value_relation("S1", m, 200, seed=15),
                single_value_relation("S2", m, 200, seed=16),
            ]
        )
        for algorithm in _algorithms(query, 8):
            result = run_rounds(algorithm, db, 8, verify=True, engine=engine)
            assert result.is_complete, (algorithm.name, engine)
            assert result.answer_count == m * m

    @pytest.mark.parametrize("engine", ENGINES)
    def test_share_product_exceeding_p_raises(self, engine):
        """Oversubscribed grids must raise ShareError in every engine."""
        from repro.core import ShareError

        query = simple_join_query()
        db = Database.from_relations(
            [
                uniform_relation("S1", 20, 60, seed=17),
                uniform_relation("S2", 20, 60, seed=18),
            ]
        )
        algorithm = HyperCubeAlgorithm(
            query, {"x": 4, "y": 4, "z": 4}, name="oversubscribed"
        )
        with pytest.raises(ShareError):
            run_one_round(algorithm, db, 4, engine=engine)

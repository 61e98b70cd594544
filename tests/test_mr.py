"""Unit tests for HyperCube as MapReduce and Theorem 5.1 bounds (Section 5)."""

import math

import pytest

from repro.core import (
    minimum_reducers,
    replication_rate_bound_for_packing,
    replication_rate_lower_bound,
    triangle_replication_shape,
)
from repro.data import uniform_relation
from repro.mr import choose_reducers, hypercube_mapreduce
from repro.query import simple_join_query, triangle_query
from repro.seq import Database
from repro.stats import SimpleStatistics


def _triangle_db(m=400, n=300, seed=0):
    return Database.from_relations(
        [
            uniform_relation("S1", m, n, seed=seed + 1),
            uniform_relation("S2", m, n, seed=seed + 2),
            uniform_relation("S3", m, n, seed=seed + 3),
        ]
    )


class TestTheorem51:
    def test_triangle_equal_sizes_shape(self):
        """Example 5.2: r = Omega(sqrt(M/L)) via the (1/2,1/2,1/2) packing."""
        q = triangle_query()
        m_bits = 2.0**20
        bits = {"S1": m_bits, "S2": m_bits, "S3": m_bits}
        reducer_bits = 2.0**14
        value, packing = replication_rate_lower_bound(q, bits, reducer_bits)
        assert all(u == 0.5 for u in map(float, packing.values()))
        # r >= (L / sum M) * (M/L)^(3/2) = sqrt(M/L) / 3: the Omega(sqrt(M/L))
        # shape of [1], with the model's 1/3 constant.
        assert math.isclose(
            value,
            triangle_replication_shape(m_bits, reducer_bits) / 3,
            rel_tol=1e-9,
        )
        # And the shape scales as sqrt: quadrupling L halves the bound.
        quarter, _ = replication_rate_lower_bound(q, bits, 4 * reducer_bits)
        assert math.isclose(value / quarter, 2.0, rel_tol=1e-9)

    def test_reducer_count_shape(self):
        """Example 5.2: p >= (M/L)^(3/2) reducers for triangles."""
        m_bits = 2.0**20
        reducer_bits = 2.0**14
        rate = triangle_replication_shape(m_bits, reducer_bits)
        reducers = minimum_reducers(rate, 3 * m_bits, reducer_bits)
        assert math.isclose(
            reducers, 3 * (m_bits / reducer_bits) ** 1.5, rel_tol=1e-9
        )

    def test_unequal_sizes_supported(self):
        """The paper's extension beyond [1]: different relation sizes."""
        q = triangle_query()
        bits = {"S1": 2.0**22, "S2": 2.0**18, "S3": 2.0**14}
        value, packing = replication_rate_lower_bound(q, bits, 2.0**12)
        assert value > 0
        assert sum(map(float, packing.values())) >= 1

    def test_rate_decreases_with_reducer_size(self):
        q = triangle_query()
        bits = {"S1": 2.0**20, "S2": 2.0**20, "S3": 2.0**20}
        rates = [
            replication_rate_lower_bound(q, bits, 2.0**e)[0]
            for e in range(10, 20)
        ]
        assert rates == sorted(rates, reverse=True)

    def test_per_packing_formula(self):
        q = simple_join_query()
        bits = {"S1": 2.0**16, "S2": 2.0**16}
        value = replication_rate_bound_for_packing(
            {"S1": 1, "S2": 0}, bits, reducer_bits=2.0**10
        )
        # u = 1: r >= M1 / (M1 + M2) = 1/2.
        assert math.isclose(value, 0.5, rel_tol=1e-9)


class TestHyperCubeAsMapReduce:
    def test_choose_reducers_monotone(self):
        """... and grows as (M/L)^(3/2) (Example 5.2): 16, 128, 1024
        reducers at L = M/4, M/16, M/64 on E9's triangle."""
        q = triangle_query()
        db = _triangle_db()
        stats = SimpleStatistics.of(db)
        small = choose_reducers(q, stats, reducer_bits=2.0**9)
        large = choose_reducers(q, stats, reducer_bits=2.0**13)
        assert small >= large
        stats = SimpleStatistics.of(_triangle_db(m=3000, n=9000, seed=50))
        counts = [choose_reducers(q, stats, stats.bits("S1") / divisor)
                  for divisor in (4, 16, 64)]
        assert counts == sorted(counts)
        assert counts[-1] >= 51 * counts[0]  # 64 = 16^(3/2), modulo rounding

    @pytest.mark.parametrize("reducer_bits", [0.5, 0.0, -5.0, math.nan])
    def test_choose_reducers_rejects_a_budget_no_count_meets(
        self, reducer_bits
    ):
        """Theorem 3.6's bound at 2**20 reducers is 0.64 bits here: a
        smaller budget has no reducer count, not the fewest."""
        q = triangle_query()
        stats = SimpleStatistics.of(_triangle_db())
        with pytest.raises(ValueError):
            choose_reducers(q, stats, reducer_bits)

    def test_run_is_complete(self):
        q = triangle_query()
        db = _triangle_db(m=200, n=150)
        run = hypercube_mapreduce(q, db, reducer_bits=4000.0, verify=True)
        assert run.is_complete

    @pytest.mark.parametrize("divisor", [4, 16])
    def test_a_tuple_goes_to_the_shares_of_its_missing_variables(
        self, divisor
    ):
        """The map phase is one HC round on ``choose_reducers``' count: a
        tuple of ``S_j`` reaches ``prod_{v not in S_j} share_v`` reducers,
        so ``r = sum_i L_i / |I|`` counts exactly those copies."""
        q = triangle_query()
        db = _triangle_db(m=600, n=1200, seed=50)
        stats = SimpleStatistics.of(db)
        reducer_bits = stats.bits("S1") / divisor
        run = hypercube_mapreduce(q, db, reducer_bits)
        assert run.p == choose_reducers(q, stats, reducer_bits)
        (map_round,) = run.rounds
        shares = map_round.details["shares"]
        assert math.prod(shares.values()) > 1
        copies = sum(
            len(db.relation(atom.name).tuples)
            * math.prod(
                share for var, share in shares.items()
                if var not in atom.variables
            )
            for atom in q.atoms
        )
        assert sum(map_round.report.per_server_tuples) == copies
        # The three relations share one domain, so every tuple has equal bits.
        assert math.isclose(run.replication_rate, copies / run.input_tuples)

    def test_answers_only_when_verifying(self):
        q = triangle_query()
        db = _triangle_db(m=200, n=150)
        run = hypercube_mapreduce(q, db, reducer_bits=4000.0)
        assert run.answers is None and run.is_complete is None

    def test_measured_rate_tracks_lower_bound(self):
        """HC's replication rate is between Theorem 5.1's bound and 4.68
        times it, at reducer budgets L = M / divisor (measured: 3.0, 3.0,
        3.75, 3.75), and follows its sqrt(M/L) shape."""
        q = triangle_query()
        for m, n, divisors in [(600, 1200, (4,)), (3000, 9000, (4, 16, 64))]:
            db = _triangle_db(m=m, n=n, seed=50)
            bits = SimpleStatistics.of(db).bits_vector(q)
            rate = {}
            for divisor in divisors:
                reducer_bits = bits["S1"] / divisor
                run = hypercube_mapreduce(q, db, reducer_bits=reducer_bits)
                bound, _ = replication_rate_lower_bound(q, bits, reducer_bits)
                rate[divisor] = run.replication_rate
                assert 1.0 <= rate[divisor] / bound <= 4.68, (m, divisor)
        # A 16x smaller budget predicts a 4x rate; reducer counts move in
        # powers of two, and the measured factor is 10 / 2.
        assert 4.0 <= rate[64] / rate[4] <= 6.25

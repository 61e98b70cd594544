"""Unit tests for the counting lower bound (Theorem 3.5(1))."""

import math

from repro.core import (
    HyperCubeAlgorithm,
    answers_per_server_bound,
    lower_bound,
    lower_bound_constant,
    per_packing_fraction_bounds,
    reported_fraction_bound,
)
from repro.core.counting import log_p
from repro.data import matching_relation
from repro.mpc import Cluster, HashFamily
from repro.query import simple_join_query, triangle_query
from repro.seq import Database, evaluate, local_join
from repro.stats import SimpleStatistics


class TestConstant:
    def test_binary_relations(self):
        """c = (2 - delta) / 6 for binary atoms."""
        q = triangle_query()
        assert math.isclose(lower_bound_constant(q, delta=0.5), 1.5 / 6)

    def test_smaller_delta_larger_constant(self):
        q = triangle_query()
        assert lower_bound_constant(q, 0.1) > lower_bound_constant(q, 1.0)


class TestFractionBounds:
    def test_fraction_small_when_load_below_bound(self):
        q = triangle_query()
        bits = {"S1": 2.0**20, "S2": 2.0**20, "S3": 2.0**20}
        p = 64
        target = lower_bound(q, bits, p).bits
        # p (L / L_lower)^u with u = 3/2: a 1000x load deficit leaves only
        # 64 * 1000^-1.5 ~ 0.002 of the answers reachable.
        fraction = reported_fraction_bound(q, bits, p, load_bits=target / 1000)
        assert fraction < 0.01

    def test_fraction_capped_at_one(self):
        q = triangle_query()
        bits = {"S1": 2.0**20, "S2": 2.0**20, "S3": 2.0**20}
        fraction = reported_fraction_bound(q, bits, 64, load_bits=2.0**30)
        assert fraction == 1.0

    def test_fraction_monotone_in_load(self):
        q = simple_join_query()
        bits = {"S1": 2.0**18, "S2": 2.0**18}
        p = 64
        fractions = [
            reported_fraction_bound(q, bits, p, load_bits=2.0**e)
            for e in range(6, 16)
        ]
        assert fractions == sorted(fractions)

    def test_per_packing_breakdown(self):
        q = triangle_query()
        bits = {"S1": 2.0**20, "S2": 2.0**20, "S3": 2.0**20}
        bounds = per_packing_fraction_bounds(q, bits, 64, load_bits=2.0**10)
        assert len(bounds) == 4  # the four pk(C3) vertices
        assert all(0 <= v <= 1 for v in bounds.values())

    def test_scaling_exponent_matches_packing_value(self):
        """Halving L scales the best fraction by 2^-u at the optimal u."""
        q = triangle_query()
        bits = {"S1": 2.0**24, "S2": 2.0**24, "S3": 2.0**24}
        p = 64
        load = 2.0**12
        f1 = reported_fraction_bound(q, bits, p, load_bits=load)
        f2 = reported_fraction_bound(q, bits, p, load_bits=load / 2)
        # Optimal packing value for equal-size C3 is 3/2.
        assert math.isclose(f1 / f2, 2 ** 1.5, rel_tol=1e-6)


class TestCappedServers:
    """E2 — Theorem 3.5 measured: route a skew-free join with HyperCube,
    let every server keep only a prefix of ``cap`` bits of what it
    receives (on random data no choice of tuples does better in
    expectation), and count the answers still derivable."""

    def _reported_fraction(self, query, db, p, cap_bits):
        algo = HyperCubeAlgorithm.with_optimal_shares(
            query, SimpleStatistics.of(db), p)
        plan = algo.routing_plan(db, p, HashFamily(0))
        cluster = Cluster(p)
        for atom in query.atoms:
            relation = db.relation(atom.name)
            for tup in sorted(relation.tuples):
                for dest in plan.destinations(atom.name, tup):
                    server = cluster.servers[dest]
                    if server.received_bits + relation.tuple_bits <= cap_bits:
                        server.receive(atom.name, tup, relation.tuple_bits)
        found = set()
        for server in cluster.servers:
            if server.fragments:
                found |= local_join(query, server.fragments, db.domain_size)
        return len(found) / len(evaluate(query, db))

    def test_reported_fraction_stays_under_the_bound(self):
        """At caps of 0.05 .. 2 (m = 2048) and 0.1 .. 3 (m = 1024) times
        L_lower: never above p (L / L_lower)^u, growing with the cap, and
        everything once the cap is generous."""
        q, p = simple_join_query(), 16
        for m, seed, caps in [(2048, 1, (0.05, 0.15, 0.3, 0.6, 1.0, 2.0)),
                              (1024, 3, (0.1, 0.5, 1.0, 3.0))]:
            db = Database.from_relations(
                [
                    matching_relation("S1", m, 4 * m, seed=seed),
                    matching_relation("S2", m, 4 * m, seed=seed + 1),
                ]
            )
            bits = SimpleStatistics.of(db).bits_vector(q)
            target = lower_bound(q, bits, p).bits
            measured = [self._reported_fraction(q, db, p, cap * target)
                        for cap in caps]
            for cap, fraction in zip(caps, measured):
                assert fraction <= 1e-9 + reported_fraction_bound(
                    q, bits, p, load_bits=cap * target), (m, cap)
            assert measured == sorted(measured)
        assert measured[-1] == 1.0  # 0.000, 0.000, 0.044, 1.000


class TestAbsoluteBound:
    def test_answers_per_server(self):
        q = simple_join_query()
        n = 10_000
        stats = SimpleStatistics.from_cardinalities(
            q, {"S1": 1000, "S2": 1000}, n
        )
        value = answers_per_server_bound(q, stats, p=16, load_bits=100.0)
        assert value >= 0.0
        # Full-load servers report everything.
        full = answers_per_server_bound(q, stats, p=16, load_bits=2.0**40)
        expected = 1000 * 1000 / n  # Lemma A.1
        assert math.isclose(full, expected, rel_tol=1e-9)


class TestHelpers:
    def test_log_p(self):
        assert math.isclose(log_p(64.0, 4), 3.0)

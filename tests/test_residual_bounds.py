"""Unit tests for the residual lower bounds (Theorem 4.7, Example 4.8)."""

import math
from fractions import Fraction

from repro.core import (
    SkewAwareJoin,
    best_residual_lower_bound,
    lower_bound,
    residual_load,
    residual_lower_bound,
    saturating_packing_vertices,
)
from repro.data import degree_relation, single_value_relation, uniform_relation
from repro.mpc import run_one_round
from repro.query import residual_query, simple_join_query, triangle_query
from repro.seq import Database, Relation, bits_per_value
from repro.stats import DegreeStatistics


def _degree_sequence_db(skew: float, m: int = 1024) -> Database:
    """E8's join instances: both relations get the z-degree sequence
    ``d(v) ~ (v + 1)^-skew`` summing to m — flat (every degree 4) at skew
    0, concentrated on the first values as it grows."""
    weights = [(v + 1) ** (-skew) for v in range(m // 4)]
    scale = m / sum(weights)
    degrees: dict[int, int] = {}
    remaining = m
    for value, weight in enumerate(weights):
        if remaining <= 0:
            break
        degrees[value] = min(remaining, max(1, round(weight * scale)))
        remaining -= degrees[value]
    return Database.from_relations(
        [
            degree_relation("S1", degrees, 4 * m, seed=41),
            degree_relation("S2", degrees, 4 * m, seed=42),
        ]
    )


class TestSaturatingVertices:
    def test_join_z_saturation(self):
        """Example 4.8: the only saturating packing of q_{z} is (1, 1)."""
        q = simple_join_query()
        vertices = saturating_packing_vertices(q, {"z"})
        assert {"S1": Fraction(1), "S2": Fraction(1)} in vertices
        residual = residual_query(q, {"z"})
        for vertex in vertices:
            assert residual.saturates(vertex)

    def test_triangle_x1_saturation(self):
        """Example 4.8: (1, 0, 1) saturates x1 in C3."""
        q = triangle_query()
        vertices = saturating_packing_vertices(q, {"x1"})
        assert {"S1": Fraction(1), "S2": Fraction(0), "S3": Fraction(1)} in vertices
        residual = residual_query(q, {"x1"})
        for vertex in vertices:
            assert residual.saturates(vertex)

    def test_all_variables_removed(self):
        """x = all vars: the residual atoms are all nullary, u_j <= 1 caps
        keep the polytope bounded."""
        q = simple_join_query()
        vertices = saturating_packing_vertices(q, {"x", "y", "z"})
        assert vertices  # feasible: u = (1, 1)
        for vertex in vertices:
            assert all(value <= 1 for value in vertex.values())

    def test_infeasible_saturation_empty(self):
        """A variable in no atom of positive possible weight cannot happen,
        but saturation can still be infeasible for over-constrained sets."""
        q = simple_join_query()
        # x appears only in S1; saturating x forces u1 = 1.  Feasible.
        vertices = saturating_packing_vertices(q, {"x"})
        assert all(v["S1"] == 1 for v in vertices)


class TestResidualLoad:
    def test_join_degenerate_uniform_matches_simple_bound(self):
        """On uniform degrees sum_h m1(h) m2(h) ~ m^2/n: the residual bound
        is below the cardinality bound (skew does not help)."""
        q = simple_join_query()
        db = Database.from_relations(
            [
                uniform_relation("S1", 300, 600, seed=1),
                uniform_relation("S2", 300, 600, seed=2),
            ]
        )
        p = 16
        stats = DegreeStatistics.of(q, db, {"z"})
        bound = residual_lower_bound(q, stats, p)
        simple = lower_bound(
            q,
            {"S1": db.relation("S1").bits, "S2": db.relation("S2").bits},
            p,
        ).bits
        assert bound is not None
        assert bound.bits <= simple * 1.05

    def test_join_single_value_closed_form(self):
        """All tuples share z=0: sum_h M1(h) M2(h) = M1 M2, so the bound is
        sqrt(M1 M2 / p) — the cartesian-product load."""
        q = simple_join_query()
        m = 100
        db = Database.from_relations(
            [
                single_value_relation("S1", m, 256, seed=3),
                single_value_relation("S2", m, 256, seed=4),
            ]
        )
        p = 16
        stats = DegreeStatistics.of(q, db, {"z"})
        bound = residual_lower_bound(q, stats, p)
        tuple_bits = 2 * bits_per_value(256)
        expected = math.sqrt((m * tuple_bits) ** 2 / p)
        assert bound is not None
        assert math.isclose(bound.bits, expected, rel_tol=1e-9)

    def test_residual_beats_cardinality_bound_under_skew(self):
        """Theorem 4.7's point: skew makes the problem harder."""
        q = simple_join_query()
        m = 128
        db = Database.from_relations(
            [
                single_value_relation("S1", m, 256, seed=5),
                single_value_relation("S2", m, 256, seed=6),
            ]
        )
        p = 64
        stats = DegreeStatistics.of(q, db, {"z"})
        residual = residual_lower_bound(q, stats, p)
        simple = lower_bound(
            q, {"S1": db.relation("S1").bits, "S2": db.relation("S2").bits}, p
        ).bits
        # sqrt(M^2/p) = M/sqrt(p) > M/p.
        assert residual.bits > simple * 2

    def test_triangle_degree_bound(self):
        """Example 4.8's new C3 bound: sqrt(sum_h m1(h) m3(h) / p)."""
        q = triangle_query()
        degrees = {0: 60, 1: 30, 2: 10}
        db = Database.from_relations(
            [
                degree_relation("S1", degrees, 128, degree_position=0, seed=7),
                uniform_relation("S2", 100, 128, seed=8),
                degree_relation("S3", degrees, 128, degree_position=1, seed=9),
            ]
        )
        p = 16
        stats = DegreeStatistics.of(q, db, {"x1"})
        bound = residual_lower_bound(q, stats, p)
        assert bound is not None
        # Hand-compute sum_h M1(h) M3(h) over the degree maps.
        per_bit = 2 * bits_per_value(128)
        m1 = db.relation("S1").frequencies([0])
        m3 = db.relation("S3").frequencies([1])
        total = sum(
            (m1[h] * per_bit) * (m3[h] * per_bit) for h in m1 if h in m3
        )
        expected = math.sqrt(total / p)
        assert bound.bits >= expected * 0.999

    def test_zero_intersection_support(self):
        """Disjoint degree supports make the residual sum zero."""
        q = simple_join_query()
        db = Database.from_relations(
            [
                Relation.build("S1", [(0, 1), (1, 1)], domain_size=8),
                Relation.build("S2", [(0, 5), (1, 5)], domain_size=8),
            ]
        )
        stats = DegreeStatistics.of(q, db, {"z"})
        value = residual_load(q, stats, {"S1": 1, "S2": 1}, 4)
        assert value == 0.0


class TestEmptySetDegenerates:
    def test_x_empty_recovers_theorem_3_5(self):
        """With x = emptyset, L_x(u, M, p) == L(u, M, p) — the residual
        machinery strictly generalizes the simple bound."""
        q = simple_join_query()
        db = Database.from_relations(
            [
                uniform_relation("S1", 200, 500, seed=14),
                uniform_relation("S2", 120, 500, seed=15),
            ]
        )
        p = 16
        stats = DegreeStatistics.of(q, db, set())
        from repro.core import load as load_formula

        bits = {name: db.relation(name).bits for name in ("S1", "S2")}
        for packing in (
            {"S1": 1, "S2": 0},
            {"S1": 0, "S2": 1},
            {"S1": 1, "S2": 1},
        ):
            expected = load_formula(packing, bits, p)
            measured = residual_load(q, stats, packing, p)
            assert math.isclose(measured, expected, rel_tol=1e-9), packing


class TestBestResidualBound:
    def test_breakdown_covers_candidates(self):
        """... and the maximization over x finds {z} for a skewed join."""
        q = simple_join_query()
        single_db = Database.from_relations(
            [
                single_value_relation("S1", 64, 256, seed=10),
                single_value_relation("S2", 64, 256, seed=11),
            ]
        )
        for db, max_set_size in [(single_db, 1), (_degree_sequence_db(2.0), 2)]:
            best, breakdown = best_residual_lower_bound(
                q, db, 16, max_set_size=max_set_size)
            assert best is not None
            assert frozenset({"z"}) in breakdown
            assert best.bits == max(breakdown.values())
            assert "z" in best.variables, max_set_size

    def test_explicit_candidates(self):
        q = simple_join_query()
        db = Database.from_relations(
            [
                uniform_relation("S1", 100, 300, seed=12),
                uniform_relation("S2", 100, 300, seed=13),
            ]
        )
        best, breakdown = best_residual_lower_bound(
            q, db, 8, candidate_sets=[{"z"}]
        )
        assert set(breakdown) == {frozenset({"z"})}


class TestDegreeSequences:
    """Theorem 4.7 along E8's degree sequences of increasing skew, p = 16."""

    def _bounds(self, db):
        """(residual bound with x = {z}, cardinality bound), in bits."""
        q = simple_join_query()
        residual = residual_lower_bound(q, DegreeStatistics.of(q, db, {"z"}), 16)
        bits = {name: db.relation(name).bits for name in ("S1", "S2")}
        return residual.bits, lower_bound(q, bits, 16).bits

    def test_residual_bound_overtakes_the_cardinality_bound(self):
        """``sqrt(sum_h M1(h) M2(h) / p)`` against ``max_j M_j / p``: no
        advantage on flat degrees, a growing one with skew, past 1 by 2."""
        advantage = [
            residual / simple
            for residual, simple in map(
                self._bounds, map(_degree_sequence_db, (0.0, 0.5, 1.0, 2.0)))
        ]
        assert advantage == sorted(advantage)  # 0.25, 0.326, 0.837, 2.536
        assert advantage[1] <= 0.407 and advantage[2] < 1.0 < advantage[3]

    def test_skew_join_load_is_sandwiched_at_skew_2(self):
        """Measured load between the residual bound and 4.84 times it."""
        q, db = simple_join_query(), _degree_sequence_db(2.0)
        result = run_one_round(SkewAwareJoin(q), db, 16, compute_answers=False)
        ratio = result.max_load_bits / self._bounds(db)[0]
        assert 1.0 <= ratio <= 4.84  # measured 3.876

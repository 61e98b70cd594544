"""Unit tests for Friedgut's inequality and the AGM bound (Section 2.3)."""

import math
import random
from fractions import Fraction

import pytest

from repro.core import (
    agm_bound,
    check_agm,
    friedgut_gap,
    friedgut_lhs,
    friedgut_rhs,
)
from repro.data import uniform_relation
from repro.query import QueryError, parse_query, triangle_query
from repro.seq import Database


def _random_weights(query, n, density, seed, scale=1.0):
    rng = random.Random(seed)
    weights = {}
    for atom in query.atoms:
        table = {}
        for _ in range(int(density * n)):
            key = tuple(rng.randrange(n) for _ in range(atom.arity))
            table[key] = rng.random() * scale
        weights[atom.name] = table
    return weights


class TestFriedgutInequality:
    def test_triangle_paper_instance(self):
        """The C3 illustration after Eq. 3 with 0/1 weights."""
        q = triangle_query()
        db = Database.from_relations(
            [
                uniform_relation("S1", 60, 20, seed=1),
                uniform_relation("S2", 60, 20, seed=2),
                uniform_relation("S3", 60, 20, seed=3),
            ]
        )
        weights = {
            name: {t: 1.0 for t in db.relation(name).tuples}
            for name in ("S1", "S2", "S3")
        }
        cover = {"S1": Fraction(1, 2), "S2": Fraction(1, 2), "S3": Fraction(1, 2)}
        lhs, rhs = friedgut_gap(q, cover, weights)
        # lhs = |C3|, rhs = sqrt(m1 m2 m3).
        assert lhs <= rhs * (1 + 1e-9)
        assert math.isclose(rhs, math.sqrt(60**3), rel_tol=1e-9)

    # The last row is E12's instance: 60 weights in [0, 4) over 15 values.
    @pytest.mark.parametrize(
        "seed,n,density,scale",
        [(seed, 12, 3.0, 1.0) for seed in range(5)] + [(82, 15, 4.0, 4.0)],
        ids=["0", "1", "2", "3", "4", "E12"],
    )
    def test_random_weights_triangle(self, seed, n, density, scale):
        q = triangle_query()
        weights = _random_weights(q, n, density, seed, scale)
        cover = {"S1": Fraction(1, 2), "S2": Fraction(1, 2), "S3": Fraction(1, 2)}
        lhs, rhs = friedgut_gap(q, cover, weights)
        assert lhs <= rhs * (1 + 1e-9)

    @pytest.mark.parametrize("seed", range(3))
    def test_random_weights_chain(self, seed):
        q = parse_query("q(a,b,c) :- R(a,b), S(b,c)")
        weights = _random_weights(q, n=10, density=4.0, seed=seed)
        cover = {"R": 1, "S": 1}
        lhs, rhs = friedgut_gap(q, cover, weights)
        assert lhs <= rhs * (1 + 1e-9)

    def test_zero_weight_cover_atom_uses_max(self):
        """u_j = 0 contributes the max weight (the limiting norm)."""
        q = parse_query("q(a,b) :- R(a,b), S(b)")
        weights = {
            "R": {(0, 1): 2.0, (1, 1): 3.0},
            "S": {(1,): 5.0},
        }
        cover = {"R": 1, "S": 0}  # R alone covers both variables
        rhs = friedgut_rhs(q, cover, weights)
        assert math.isclose(rhs, (2.0 + 3.0) * 5.0)
        lhs = friedgut_lhs(q, weights)
        assert math.isclose(lhs, 2.0 * 5.0 + 3.0 * 5.0)
        assert lhs <= rhs

    def test_non_cover_rejected(self):
        q = triangle_query()
        weights = _random_weights(q, n=5, density=2.0, seed=0)
        with pytest.raises(QueryError):
            friedgut_rhs(q, {"S1": Fraction(1, 4), "S2": 0, "S3": 0}, weights)

    def test_negative_weight_rejected(self):
        q = parse_query("q(a) :- R(a)")
        with pytest.raises(QueryError):
            friedgut_lhs(q, {"R": {(0,): -1.0}})

    def test_missing_weights_rejected(self):
        q = triangle_query()
        with pytest.raises(QueryError):
            friedgut_lhs(q, {"S1": {}})

    def test_wrong_key_arity_rejected(self):
        q = parse_query("q(a, b) :- R(a, b)")
        with pytest.raises(QueryError):
            friedgut_lhs(q, {"R": {(0,): 1.0}})


class TestAGMBound:
    def test_triangle_closed_form(self):
        """sqrt(m1 m2 m3) from the cover (1/2, 1/2, 1/2), which also wins
        when S3 is tiny (E12): a 16x drop from the balanced 1000^1.5."""
        q = triangle_query()
        for sizes in [(100, 100, 100), (1000, 1000, 1000), (1000, 1000, 4)]:
            bound = agm_bound(q, dict(zip(("S1", "S2", "S3"), sizes)))
            assert math.isclose(
                bound, math.sqrt(math.prod(sizes)), rel_tol=1e-9), sizes

    def test_join_closed_form(self):
        q = parse_query("q(x, y, z) :- S1(x, z), S2(y, z)")
        bound = agm_bound(q, {"S1": 50, "S2": 70})
        assert math.isclose(bound, 50 * 70, rel_tol=1e-9)

    def test_empty_relation_gives_zero(self):
        q = triangle_query()
        assert agm_bound(q, {"S1": 0, "S2": 10, "S3": 10}) == 0.0

    def test_unequal_sizes_pick_best_cover(self):
        q = triangle_query()
        # With S3 tiny, covering via S1+S2... every edge cover of C3 has
        # total weight >= 3/2; the optimum shifts weight onto small atoms.
        bound = agm_bound(q, {"S1": 10**6, "S2": 10**6, "S3": 1})
        # cover (1/2,1/2,1/2) gives 1e6; cover (1,0,1) gives 1e6 * 1.
        assert bound <= 10**6 + 1e-6

    def test_actual_never_exceeds_bound(self):
        """|C3| <= m^1.5 on random graphs: this file's five, then E12's
        sparse (no triangle at all) and dense (1021 of them) ones."""
        q = triangle_query()
        for m, n, seed in [(80, 25, 3 * s) for s in range(5)] + [
            (800, 2000, 81), (800, 80, 81),
        ]:
            db = Database.from_relations(
                [
                    uniform_relation("S1", m, n, seed=seed),
                    uniform_relation("S2", m, n, seed=seed + 1),
                    uniform_relation("S3", m, n, seed=seed + 2),
                ]
            )
            actual, bound = check_agm(q, db)
            assert actual <= bound * (1 + 1e-9), (m, n, seed)
            assert math.isclose(bound, m**1.5, rel_tol=1e-9)

    def test_singleton_cardinalities(self):
        q = parse_query("q(x) :- R(x)")
        assert math.isclose(agm_bound(q, {"R": 7}), 7.0)
        assert math.isclose(agm_bound(q, {"R": 1}), 1.0)

"""Unit tests for balls-into-bins bounds and hashing simulations
(Appendices B and C, Lemma 3.1)."""

import math
from collections import Counter

import numpy as np
import pytest

from repro.balls import (
    average_max_hash_load,
    hash_relation_loads,
    matching_hash_bound,
    max_weighted_load,
    skew_free_hash_threshold,
    throw_weighted_balls,
    uniform_balls_bound,
    weighted_balls_bound,
    worst_case_hash_bound,
)
from repro.data import matching_relation, single_value_relation, uniform_relation
from repro.mpc import HashFamily, hashing
from repro.seq import Relation


class TestChernoffFormulas:
    def test_uniform_balls_bound(self):
        bound = uniform_balls_bound(1000, 10)
        assert bound.threshold == 300.0
        assert bound.failure_probability == 10 * math.exp(-100)

    def test_uniform_balls_validation(self):
        with pytest.raises(ValueError):
            uniform_balls_bound(0, 10)

    def test_weighted_balls_bound_scales_with_cap(self):
        small = weighted_balls_bound(1000, 10.0, 10, delta=0.01)
        large = weighted_balls_bound(1000, 200.0, 10, delta=0.01)
        assert large.threshold > small.threshold

    def test_weighted_balls_validation(self):
        with pytest.raises(ValueError):
            weighted_balls_bound(100, 1.0, 10, delta=2.0)

    def test_matching_bound_alias(self):
        assert matching_hash_bound(500, 25).threshold == 60.0

    def test_skew_free_threshold_grows_with_arity(self):
        r1 = skew_free_hash_threshold(4096, [64])
        r2 = skew_free_hash_threshold(4096, [8, 8])
        assert r2 > r1  # the ln^r(p) factor

    def test_worst_case_bound(self):
        assert worst_case_hash_bound(1000, [4, 8]) == 250.0
        assert worst_case_hash_bound(1000, {"a": 10, "b": 2}) == 500.0


class TestWeightedSimulation:
    def test_total_weight_conserved(self):
        weights = [1.0] * 100 + [5.0] * 10
        loads = throw_weighted_balls(weights, 8, seed=1)
        assert math.isclose(sum(loads), 150.0)

    def test_max_load_within_chernoff_threshold(self):
        """Simulated maxima respect Lemma C.1 with delta = 1/p^2."""
        m, p = 5000, 16
        weights = [1.0] * m
        bound = weighted_balls_bound(m, 1.0, p, delta=1 / p**2)
        for seed in range(5):
            assert max_weighted_load(weights, p, seed=seed) <= bound.threshold

    def test_deterministic_given_seed(self):
        weights = [2.0] * 50
        assert throw_weighted_balls(weights, 4, seed=7) == throw_weighted_balls(
            weights, 4, seed=7
        )


class TestRelationHashing:
    def test_loads_sum_to_cardinality(self):
        rel = uniform_relation("R", 2000, 8000, seed=1)
        loads = hash_relation_loads(rel, [4, 4], seed=0)
        assert sum(loads.values()) == 2000

    def test_share_arity_mismatch_rejected(self):
        rel = uniform_relation("R", 100, 500, seed=2)
        with pytest.raises(ValueError):
            hash_relation_loads(rel, [4], seed=0)

    def test_matching_achieves_near_ideal(self):
        """Lemma 3.1(2): matchings get O(m/p) whp — between the average and
        1.76 times it, inside the lemma's 3 m/p (worst measured 1.41).
        Rows (m, domain, grid, seed): this file's, E10's three."""
        for m, domain, grid, seed in [
            (4096, 3 * 4096, (8, 8), 3), (8192, 4 * 8192, (64,), 61),
            (8192, 4 * 8192, (8, 8), 61), (8192, 4 * 8192, (4, 4, 4), 61),
        ]:
            rel = matching_relation("R", m, domain, arity=len(grid), seed=seed)
            mean = m / math.prod(grid)
            envelope = matching_hash_bound(m, math.prod(grid)).threshold
            measured = average_max_hash_load(rel, grid, trials=3, seed=0)
            assert mean <= measured <= 1.76 * mean <= envelope, (m, grid)

    def test_uniform_relation_within_skew_free_regime(self):
        """Lemma 3.1(3): skew-free data stays within the polylog bound — in
        fact within 1.6 m/p (worst measured 1.28).  Rows: this file's, E10's."""
        for m, domain, grid, seed in [(4096, 10 * 4096, (8, 8), 4),
                                      (8192, 16 * 8192, (8, 8), 62),
                                      (8192, 16 * 8192, (4, 16), 62)]:
            rel = uniform_relation("R", m, domain, seed=seed)
            envelope = skew_free_hash_threshold(m, list(grid))
            measured = average_max_hash_load(rel, grid, trials=3, seed=0)
            assert measured <= 1.6 * m / math.prod(grid) <= envelope, (m, grid)

    def test_single_value_hits_worst_case(self):
        """Example B.2: one pinned column forces m / p_other load — at
        least that, at most 1.42 times it (worst measured 1.14), so far
        above m/p and under Lemma 3.1(4)'s ceiling.  Rows: this file's
        (one hash draw), E10's (three)."""
        for m, grid, seed, trials in [(1024, (4, 8), 5, 1), (2048, (8, 8), 63, 3)]:
            rel = single_value_relation("R", m, 4 * m, fixed_position=0, seed=seed)
            measured = average_max_hash_load(rel, grid, trials=trials, seed=0)
            # All tuples share the first coordinate: spread over p_2 bins.
            spread, ceiling = m / grid[1], worst_case_hash_bound(m, list(grid))
            assert spread <= measured <= 1.42 * spread <= 3 * ceiling, (m, grid)

    def test_loads_are_the_scalar_hash_of_every_tuple(self):
        """Columns hashed whole land every tuple where the scalar
        ``bucket`` of each of its values puts it."""
        rel = matching_relation("R", 600, 5000, arity=3, seed=8)
        hashes, expected = HashFamily(4), Counter()
        for tup in rel.tuples:
            expected[tuple(hashes.bucket(f"attr{i}", v, s)
                           for i, (v, s) in enumerate(zip(tup, (2, 3, 5))))] += 1
        assert hash_relation_loads(rel, (2, 3, 5), seed=4) == expected

    def test_expected_load_is_m_over_p(self):
        """Lemma 3.1(1) / Lemma B.1: mean bucket load equals m/p over the
        occupied grid.  Rows: this file's, E10's."""
        for m, domain, grid, seed in [(2048, 10 * 2048, (4, 4), 6),
                                      (8192, 16 * 8192, (8, 8), 64)]:
            rel = uniform_relation("R", m, domain, seed=seed)
            loads = hash_relation_loads(rel, grid, seed=1)
            p = math.prod(grid)
            assert math.isclose(sum(loads.values()) / p, m / p), (m, grid)


class TestHashFamilyGate:
    """The routing hash family against the paper's model: over 200 seeds on
    an 8 x 8 grid, the max bucket load of the polynomial family must be
    distributed like that of perfectly random buckets (independent uniform
    draws per distinct key) — mean within 3 standard errors, standard
    deviation within [0.8, 1.25] of the reference's — and every run must
    stay under its Lemma 3.1 envelope.  The degree-1 family on the same
    harness shows the test has power."""

    SEEDS, GRID, N = 200, (8, 8), 4096

    @classmethod
    def key_sets(cls):
        """name -> (relation, its Lemma 3.1 envelope on the grid)."""
        n, p = cls.N, math.prod(cls.GRID)
        matching = matching_hash_bound(n, p).threshold
        skew_free = skew_free_hash_threshold(n, list(cls.GRID))
        side = 128

        def rows(tuples):
            return Relation.build("R", tuples)

        return {
            "matching": (rows((i, i) for i in range(n)), matching),
            "uniform": (uniform_relation("R", n, 16 * n, seed=1), skew_free),
            # Example B.2: one value in the first column.
            "single heavy value": (rows((0, i) for i in range(n)),
                                   3 * worst_case_hash_bound(n, list(cls.GRID))),
            "stride 64": (rows((64 * i, 64 * i) for i in range(n)), matching),
            "stride 256": (rows((256 * i, 256 * i) for i in range(n)), matching),
            "128-wide grid": (
                rows((i, j) for i in range(side) for j in range(side)),
                skew_free_hash_threshold(side * side, list(cls.GRID)),
            ),
        }

    def random_max_loads(self, relation):
        """The reference: one independent uniform bucket per distinct key
        and attribute, from a seeded generator."""
        from numpy.random import default_rng

        inverses = [np.unique(column, return_inverse=True)[1]
                    for column in relation.batch.columns]
        loads = []
        for seed in range(self.SEEDS):
            rng = default_rng(seed)
            cells = np.zeros(len(relation), dtype=np.int64)
            for inverse, share in zip(inverses, self.GRID):
                cells = cells * share + rng.integers(
                    0, share, inverse.max() + 1)[inverse]
            loads.append(np.bincount(cells).max())
        return np.array(loads)

    def rejected(self, references):
        """The key sets on which the current family fails the gate."""
        failed = []
        for name, (relation, envelope) in self.key_sets().items():
            family = np.array([
                max(hash_relation_loads(relation, self.GRID, seed=s).values())
                for s in range(self.SEEDS)
            ])
            reference = references[name]
            error = math.sqrt((family.var(ddof=1) + reference.var(ddof=1))
                              / self.SEEDS)
            ratio = family.std(ddof=1) / reference.std(ddof=1)
            if (abs(family.mean() - reference.mean()) > 3 * error
                    or not 0.8 <= ratio <= 1.25
                    or family.max() > envelope):
                failed.append(name)
        return failed

    def test_the_family_is_as_good_as_random_buckets(self, monkeypatch):
        references = {name: self.random_max_loads(relation)
                      for name, (relation, _) in self.key_sets().items()}
        assert self.rejected(references) == []
        monkeypatch.setattr(hashing, "DEGREE", 1)
        assert {"matching", "single heavy value"} <= set(
            self.rejected(references))

"""Unit tests for the Section 4.1 skew-aware join."""

import math
import re

import numpy as np
import pytest

from repro.api import WorkloadSpec
from repro.core import (
    HashJoinAlgorithm,
    SkewAwareJoin,
    skew_join_load_bound,
)
from repro.data import (
    planted_heavy_relation,
    single_value_relation,
    uniform_relation,
    zipf_relation,
)
from repro.core.hypercube import _mix, _mix_columns
from repro.mpc import HashFamily, run_one_round
from repro.mpc.hashing import ColumnHashes
from repro.query import QueryError, parse_query, simple_join_query, triangle_query
from repro.rounds import run_rounds
from repro.seq import Database, Relation
from repro.stats import HeavyHitterStatistics


def _join_db(kind: str, m: int = 400, seed: int = 0) -> Database:
    if kind == "uniform":
        return Database.from_relations(
            [
                uniform_relation("S1", m, 4 * m, seed=seed + 1),
                uniform_relation("S2", m, 4 * m, seed=seed + 2),
            ]
        )
    if kind == "zipf":
        return Database.from_relations(
            [
                zipf_relation("S1", m, 3 * m, skew=1.2, seed=seed + 1),
                zipf_relation("S2", m, 3 * m, skew=1.2, seed=seed + 2),
            ]
        )
    if kind == "single":
        return Database.from_relations(
            [
                single_value_relation("S1", min(m, 150), 4 * m, seed=seed + 1),
                single_value_relation("S2", min(m, 150), 4 * m, seed=seed + 2),
            ]
        )
    if kind == "one-sided":
        return Database.from_relations(
            [
                planted_heavy_relation(
                    "S1", m, 4 * m, heavy_values=[0, 1], heavy_fraction=0.6,
                    seed=seed + 1,
                ),
                uniform_relation("S2", m, 4 * m, seed=seed + 2),
            ]
        )
    raise ValueError(kind)


def _sweep_db(skew: float, m: int = 2000) -> Database:
    """E6's Zipf skew sweep (run at p = 32): sparser below skew 1."""
    domain = (8 if skew < 1.0 else 4) * m
    return Database.from_relations(
        [
            zipf_relation("S1", m, domain, skew=skew, seed=21),
            zipf_relation("S2", m, domain, skew=skew, seed=22),
        ]
    )


def _load(algorithm, db: Database, p: int) -> float:
    """Measured max load, in bits, of the skew-aware join (``"skew"``) or
    the plain hash join (``"hash"``)."""
    q = simple_join_query()
    algo = SkewAwareJoin(q) if algorithm == "skew" else HashJoinAlgorithm(q, p)
    return run_one_round(algo, db, p, compute_answers=False).max_load_bits


class TestValidation:
    def test_rejects_triangle(self):
        with pytest.raises(QueryError):
            SkewAwareJoin(triangle_query())

    def test_rejects_cartesian_product(self):
        q = parse_query("q(x, y) :- S1(x), S2(y)")
        with pytest.raises(QueryError):
            SkewAwareJoin(q)


class TestCorrectness:
    @pytest.mark.parametrize("kind", ["uniform", "zipf", "single", "one-sided"])
    @pytest.mark.parametrize("p", [4, 16])
    def test_complete_on_all_skew_profiles(self, kind, p):
        q = simple_join_query()
        db = _join_db(kind)
        result = run_rounds(SkewAwareJoin(q), db, p, verify=True)
        assert result.is_complete, (kind, p)

    def test_complete_across_seeds(self):
        q = simple_join_query()
        db = _join_db("zipf", seed=100)
        for seed in range(4):
            result = run_rounds(SkewAwareJoin(q), db, 8, seed=seed, verify=True)
            assert result.is_complete

    def test_multi_variable_join_keys(self):
        """Two shared variables: heavy hitters are pairs."""
        q = parse_query("q(x, y, u, v) :- S1(x, u, v), S2(y, u, v)")
        db = Database.from_relations(
            [
                planted_heavy_relation(
                    "S1", 200, 300, heavy_values=[3], heavy_fraction=0.5,
                    heavy_position=1, arity=3, seed=5,
                ),
                uniform_relation("S2", 200, 300, arity=3, seed=6),
            ]
        )
        result = run_rounds(SkewAwareJoin(q), db, 8, verify=True)
        assert result.is_complete


class TestMixColumns:
    """The batch path folds key columns in uint64.  The first value is
    taken as it is, up to 63 bits, and each fold keeps 47, so the scalar
    fold's ``mixed * 1_000_003`` (a value times 20 bits) no longer fits 64
    bits at the top of the domain and the array product wraps; the 47-bit
    mask keeps only bits the wrap leaves exact.  An empty key is 0, and a
    one-position key is the column itself."""

    @pytest.mark.parametrize(
        "positions",
        [(), (0,), (1,), (3,), (0, 1), (2, 0), (0, 1, 2), (3, 2, 1, 0)],
    )
    def test_equals_the_scalar_fold_at_the_top_of_a_large_domain(
        self, positions
    ):
        top = 4 * 10**5
        relation = Relation.build("R", [
            (top - 1 - i, top - 1 - (7 * i) % 1000, top - 1 - (i * i) % 977,
             top - 1 - (3 * i) % 500)
            for i in range(300)
        ] + [(0, 0, 0, 0), (top - 1, 0, top - 1, 0),
             (2**63 - 1, 2**62, 2**47 - 1, 2**63 - 1)], domain_size=2**63)
        rows = list(relation.tuples)
        scalar = [_mix(row[i] for i in positions) for row in rows]
        if len(positions) == 4:
            assert sum(
                _mix(row[i] for i in positions[:-1]) * 1_000_003 > 2**64
                for row in rows
            ) > 200
        batch = relation.batch
        mixed = _mix_columns(batch, positions)
        assert mixed.dtype == np.int64
        assert mixed.tolist() == scalar
        if len(positions) == 1:
            assert np.shares_memory(mixed, batch.columns[positions[0]])

    def test_a_one_column_join_key_is_hashed_once_per_database(
        self, monkeypatch
    ):
        """The light hash join's key ``(z,)`` is the relation's own column,
        so two routings of one database with one :class:`ColumnHashes`
        evaluate its polynomial once per relation (no value is heavy)."""
        evaluated, real = [], HashFamily.raw_column
        monkeypatch.setattr(HashFamily, "raw_column", lambda self, salt, v: (
            evaluated.append(salt) or real(self, salt, v)
        ))
        db = _join_db("uniform")
        cache = ColumnHashes(relation.batch.columns for relation in db)
        q = simple_join_query()
        assert not HeavyHitterStatistics.of(q, db, 8).total_heavy_count()
        loads = [
            run_rounds(SkewAwareJoin(q), db, 8, column_hashes=cache,
                       compute_answers=False).max_load_bits
            for _ in range(2)
        ]
        assert loads[0] == loads[1]
        assert evaluated.count("skewjoin:light") == 2  # S1 and S2, once each


    def test_every_dimension_is_hashed_once_per_database_under_skew(
        self, monkeypatch
    ):
        """With heavy values the groups that do not spread a dimension take
        share 1 there (bucket 0), so each dimension still hashes the whole
        key column, and :class:`ColumnHashes` serves it: three routings
        evaluate ``skewjoin:light`` and each atom's private dimension once
        per relation, 4 polynomials where a hash per spreading group took
        12."""
        evaluated, real = [], HashFamily.raw_column
        monkeypatch.setattr(HashFamily, "raw_column", lambda self, salt, v: (
            evaluated.append(salt) or real(self, salt, v)
        ))
        q = simple_join_query()
        db = WorkloadSpec(kind="zipf", m=50_000, skew=1.2, seed=7).build(q)
        cache = ColumnHashes(relation.batch.columns for relation in db)
        assert HeavyHitterStatistics.of(q, db, 64).total_heavy_count()
        for _ in range(3):
            run_rounds(SkewAwareJoin(q), db, 64, column_hashes=cache,
                       compute_answers=False)
        assert sorted(evaluated) == sorted(
            ["skewjoin:light", "skewjoin:light", "skewjoin:S1", "skewjoin:S2"]
        )


class TestBlocks:
    def test_describe_lists_the_placed_blocks(self):
        """Block 0 is the light hash join over all ``p`` servers.  The one
        value heavy in both relations (150 tuples each) gets all ``p_h =
        8 * 150 * 150 // 150**2 = 8`` servers as a ``(1, p1, p2)`` grid,
        ``p1 = isqrt(8 * 150 // 150) = 2`` by ``p2 = 8 // 2 = 4``; the two
        values heavy in S1 alone (120 tuples each) get ``8 * 120 // 240 =
        4`` servers each as ``(1, n, 1)`` partitions of S1, laid out from
        server 0, one after the other."""
        light = {"label": "light hitters: hash join across all 8 servers",
                 "shares": (8, 1, 1), "start": 0, "cells": 8}
        partition = "partition S1 over 4 servers, broadcast the other side"
        expected = {
            "single": [light, {
                "label": "H12 (0,): 2x4 cartesian grid on 8 servers",
                "shares": (1, 2, 4), "start": 0, "cells": 8,
            }],
            "one-sided": [light, *(
                {"label": f"H1/H2 ({value},): {partition}",
                 "shares": (1, 4, 1), "start": 4 * value, "cells": 4}
                for value in (0, 1)
            )],
        }
        q = simple_join_query()
        hitters = HeavyHitterStatistics.of(q, _join_db("one-sided"), 8)
        assert hitters.heavy_hitters("S1", ("z",)) == {(0,): 120, (1,): 120}
        for kind, blocks in expected.items():
            plan = SkewAwareJoin(simple_join_query()).routing_plan(
                _join_db(kind), 8, HashFamily(0)
            )
            assert plan.describe()["blocks"] == blocks, kind


    @pytest.mark.parametrize("skew, p", [(1.2, 16), (1.5, 32), (2.0, 64)])
    def test_a_tiers_multi_server_blocks_share_no_server(self, skew, p):
        """Rounded down, the multi-server blocks of a tier (H12, the
        partitions of S1, those of S2) add up to at most ``p`` and sit side
        by side inside ``[0, p)``; only one-server blocks may stack."""
        plan = SkewAwareJoin(simple_join_query()).routing_plan(
            _sweep_db(skew), p, HashFamily(0)
        )
        tiers: dict[str, list[range]] = {}
        for block in plan.describe()["blocks"][1:]:
            if block["cells"] > 1:
                tier = re.search(r"H12|partition S\d", block["label"])[0]
                tiers.setdefault(tier, []).append(
                    range(block["start"], block["start"] + block["cells"])
                )
        assert max(map(len, tiers.values())) >= 2
        for servers in tiers.values():
            assert all(0 <= s.start and s.stop <= p for s in servers)
            assert sum(map(len, servers)) == len(set().union(*servers))


class TestLoadBehaviour:
    def test_beats_hash_join_under_skew(self):
        """At most half the hash join's load: worst 0.484, E6's skew 1.5."""
        for db, p in [(_join_db("single"), 16),
                      (_sweep_db(1.5), 32), (_sweep_db(2.0), 32)]:
            ratio = _load("skew", db, p) / _load("hash", db, p)
            assert ratio < 0.5, (p, ratio)

    def test_hash_join_falls_behind_as_skew_grows(self):
        """E6's crossover series: hash-join load over skew-join load.  At
        skew 0 there is no heavy hitter and skew-join is a hash join on
        another salt, so the ratio is 1 up to the hash sample."""
        ratios = [
            _load("hash", db, 32) / _load("skew", db, 32)
            for db in map(_sweep_db, (0.0, 1.0, 2.0))
        ]
        assert ratios == sorted(ratios)  # 0.986, 1.190, 3.093
        assert 1 / 1.25 <= ratios[0] <= 1.25 and ratios[-1] > 2.26

    def test_matches_hash_join_on_uniform(self):
        """No heavy hitters: the plan degenerates to the plain hash join."""
        q = simple_join_query()
        db = _join_db("uniform")
        p = 16
        skew_result = run_one_round(SkewAwareJoin(q), db, p, compute_answers=False)
        hash_result = run_one_round(
            HashJoinAlgorithm(q, p), db, p, compute_answers=False
        )
        assert skew_result.details["h12"] == 0
        assert skew_result.details["h1_h2"] == 0
        # Same routing family: loads in the same ballpark.
        assert (
            skew_result.max_load_tuples <= 2 * hash_result.max_load_tuples
        )

    def test_load_tracks_formula_10(self):
        """Measured load between max(m1/p, m2/p, L12...) and 8.28 times it
        (the O(log p) of Section 4.1; worst measured 6.624, E6's skew 1)."""
        q = simple_join_query()
        for db, p in [(_join_db("single"), 16)] + [
            (_sweep_db(skew), 32) for skew in (0.0, 0.5, 1.0, 1.5, 2.0)
        ]:
            stats = HeavyHitterStatistics.of(q, db, p)
            bound = skew_join_load_bound(stats, q)["bound"]
            ratio = _load("skew", db, p) / bound
            assert 1.0 <= ratio <= 8.28, (p, stats.total_heavy_count(), ratio)

    def test_threshold_scale_barely_moves_the_load(self):
        """E6's ablation of the heavy-hitter threshold ``factor * m_j / p``
        at skew 1.5: complete at every scale, loads within 1.24x."""
        q, db, loads = simple_join_query(), _sweep_db(1.5), []
        for factor in (0.5, 1.0, 2.0):
            stats = HeavyHitterStatistics.of(q, db, 32, threshold_factor=factor)
            result = run_rounds(
                SkewAwareJoin(q, stats=stats), db, 32, verify=True)
            assert result.is_complete, factor
            loads.append(result.max_load_tuples)
        assert max(loads) <= 1.54 * min(loads)  # 606, 750, 689 tuples

class TestLoadBoundFormula:
    def test_components_present(self):
        q = simple_join_query()
        db = _join_db("single")
        stats = HeavyHitterStatistics.of(q, db, 16)
        components = skew_join_load_bound(stats, q)
        assert set(components) == {
            "m1_over_p",
            "m2_over_p",
            "L1",
            "L2",
            "L12",
            "bound",
        }
        assert components["bound"] == max(
            v for k, v in components.items() if k != "bound"
        )

    def test_l12_dominates_for_double_skew(self):
        q = simple_join_query()
        db = _join_db("single")
        stats = HeavyHitterStatistics.of(q, db, 16)
        components = skew_join_load_bound(stats, q, in_bits=False)
        m = db.relation("S1").cardinality
        # All tuples on one value: L12 = sqrt(m^2/p) = m/sqrt(p) > m/p.
        assert math.isclose(components["L12"], m / 4.0, rel_tol=1e-9)
        assert components["bound"] == components["L12"]

    def test_uniform_case_reduces_to_m_over_p(self):
        q = simple_join_query()
        db = _join_db("uniform")
        stats = HeavyHitterStatistics.of(q, db, 16)
        components = skew_join_load_bound(stats, q, in_bits=False)
        assert components["L12"] == 0.0
        assert components["bound"] == max(
            components["m1_over_p"], components["m2_over_p"]
        )

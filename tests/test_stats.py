"""Unit tests for statistics: cardinalities, heavy hitters, bins, degrees."""

import math
from fractions import Fraction

import pytest

from repro.api import WorkloadSpec
from repro.data import (
    planted_heavy_relation,
    single_value_relation,
    uniform_relation,
    zipf_relation,
)
from repro.core import residual_load, residual_lower_bound
from repro.query import parse_query, simple_join_query
from repro.seq import Database, Relation
from repro.stats import (
    BinCombination,
    HeavyHitterStatistics,
    SimpleStatistics,
    StatisticsError,
    StatisticsProvider,
    assignment_bin_exponent,
    bin_exponent,
    bin_index,
    canonical_subset,
    combination_for_assignment,
    light_bin_index,
    num_heavy_bins,
)
from repro.stats.heavy_hitters import nonempty_subsets


class TestSimpleStatistics:
    def test_of_database(self):
        db = Database.from_relations(
            [Relation.build("S1", [(0, 1), (1, 2)], domain_size=16)]
        )
        stats = SimpleStatistics.of(db)
        assert stats.cardinality("S1") == 2
        assert stats.arity("S1") == 2
        assert stats.bits("S1") == 2 * 2 * 4.0

    def test_from_cardinalities(self):
        q = simple_join_query()
        stats = SimpleStatistics.from_cardinalities(
            q, {"S1": 100, "S2": 200}, domain_size=1024
        )
        assert stats.bits("S1") == 2 * 100 * 10.0
        assert stats.bits_vector(q) == {"S1": 2000.0, "S2": 4000.0}

    def test_missing_cardinality_rejected(self):
        q = simple_join_query()
        with pytest.raises(StatisticsError):
            SimpleStatistics.from_cardinalities(q, {"S1": 100}, 16)

    def test_unknown_relation_rejected(self):
        stats = SimpleStatistics(cardinalities={}, arities={}, domain_size=4)
        with pytest.raises(StatisticsError):
            stats.cardinality("S1")

    def test_total_bits(self):
        q = simple_join_query()
        stats = SimpleStatistics.from_cardinalities(
            q, {"S1": 10, "S2": 20}, domain_size=4
        )
        assert stats.total_bits == 2 * 10 * 2.0 + 2 * 20 * 2.0


class TestHeavyHitterStatistics:
    def test_single_value_relation_is_heavy(self):
        q = simple_join_query()
        db = Database.from_relations(
            [
                single_value_relation("S1", 100, 500, seed=1),
                uniform_relation("S2", 100, 500, seed=2),
            ]
        )
        stats = HeavyHitterStatistics.of(q, db, p=10)
        heavy = stats.heavy_hitters("S1", ("z",))
        assert heavy == {(0,): 100}
        assert stats.frequency("S1", ("z",), (0,)) == 100

    def test_uniform_relation_has_no_heavy_hitters_on_single_vars(self):
        q = simple_join_query()
        db = Database.from_relations(
            [
                uniform_relation("S1", 200, 5000, seed=3),
                uniform_relation("S2", 200, 5000, seed=4),
            ]
        )
        stats = HeavyHitterStatistics.of(q, db, p=8)
        # threshold = 200/8 = 25; uniform values over 5000 can't reach it.
        assert not stats.heavy_hitters("S1", ("z",))
        assert not stats.heavy_hitters("S2", ("z",))

    def test_light_values_return_none(self):
        q = simple_join_query()
        db = Database.from_relations(
            [
                uniform_relation("S1", 100, 1000, seed=5),
                uniform_relation("S2", 100, 1000, seed=6),
            ]
        )
        stats = HeavyHitterStatistics.of(q, db, p=4)
        assert stats.frequency("S1", ("z",), (99999,)) is None
        assert stats.threshold("S1") == 25.0

    def test_pair_subsets_tracked(self):
        """Heavy hitters exist for every nonempty subset of atom variables."""
        q = simple_join_query()
        tuples = [(0, 0)] * 1 + [(i, 0) for i in range(50)] + [(0, i) for i in range(50)]
        db = Database.from_relations(
            [
                Relation.build("S1", tuples, domain_size=64),
                uniform_relation("S2", 50, 64, seed=7),
            ]
        )
        stats = HeavyHitterStatistics.of(q, db, p=4)
        assert ("S1", ("x", "z")) in stats.hitters
        assert ("S1", ("x",)) in stats.hitters
        assert ("S1", ("z",)) in stats.hitters

    def test_threshold_factor(self):
        q = simple_join_query()
        db = Database.from_relations(
            [
                zipf_relation("S1", 300, 500, skew=1.0, seed=8),
                uniform_relation("S2", 300, 5000, seed=9),
            ]
        )
        strict = HeavyHitterStatistics.of(q, db, p=8, threshold_factor=1.0)
        loose = HeavyHitterStatistics.of(q, db, p=8, threshold_factor=0.25)
        assert loose.total_heavy_count() >= strict.total_heavy_count()

    def test_bad_p_rejected(self):
        q = simple_join_query()
        db = Database.from_relations(
            [
                uniform_relation("S1", 10, 100, seed=1),
                uniform_relation("S2", 10, 100, seed=2),
            ]
        )
        with pytest.raises(StatisticsError):
            HeavyHitterStatistics.of(q, db, p=0)

    @pytest.mark.parametrize("factor", [-0.5, math.nan, math.inf])
    def test_bad_threshold_factor_rejected(self, factor):
        """A factor must be finite and >= 0: NaN would report nothing heavy
        on the partial subsets yet every tuple on the full-key ones."""
        q = simple_join_query()
        db = Database.from_relations(
            [
                uniform_relation("S1", 10, 100, seed=1),
                uniform_relation("S2", 10, 100, seed=2),
            ]
        )
        with pytest.raises(StatisticsError):
            HeavyHitterStatistics.of(q, db, p=4, threshold_factor=factor)

    def test_heavy_count_is_bounded(self):
        """At most p heavy hitters per (relation, subset) (Section 1)."""
        q = simple_join_query()
        db = Database.from_relations(
            [
                zipf_relation("S1", 400, 500, skew=1.5, seed=10),
                zipf_relation("S2", 400, 500, skew=1.5, seed=11),
            ]
        )
        p = 16
        stats = HeavyHitterStatistics.of(q, db, p=p)
        for (_name, _subset), hitters in stats.hitters.items():
            assert len(hitters) < p


def _counter_hitters(query, db, p, threshold_factor=1.0):
    """``HeavyHitterStatistics.of`` up to ISSUE 20, kept as the reference:
    a ``Counter`` over every subset's projected tuples, filtered."""
    hitters = {}
    for atom in query.atoms:
        relation = db.relation(atom.name)
        threshold = threshold_factor * relation.cardinality / p
        for subset in nonempty_subsets(canonical_subset(atom.variables)):
            positions = [atom.positions_of(var)[0] for var in subset]
            hitters[(atom.name, subset)] = {
                assignment: count
                for assignment, count
                in relation.frequencies(positions).items()
                if count > threshold
            }
    return hitters


class TestHeavyHitterIdentity:
    """Counting a column — and not counting the all-columns subset at all
    — gives the hitter dicts the ``Counter`` gave, *in its order*: plans
    iterate them, so an order change would move records."""

    @pytest.mark.parametrize("text", [
        "q(x,y,z) :- S1(x,z), S2(y,z)",
        "q(x,y,z) :- R(x,y), S(y,z), T(z,x)",
        "q(x,y) :- A(x), B(x,y), C(y,y)",
    ])
    @pytest.mark.parametrize("p, factor", [
        (1, 1.0), (7, 1.0), (64, 1.0),
        (64, 0.25),  # threshold < 1 with m = 150: every tuple is heavy
        (400, 1.0),  # threshold < 1 on the all-columns subsets too
        (64, 0.0),  # the full degree maps the residual bound reads
    ])
    @pytest.mark.parametrize("workload", ["zipf", "planted"])
    def test_equal_including_order(self, text, workload, p, factor):
        query = parse_query(text)
        if workload == "zipf":
            db = WorkloadSpec(kind="zipf", m=150, skew=1.2, seed=5).build(query)
        else:
            db = Database.from_relations([
                planted_heavy_relation(
                    atom.name, 150, 1200, heavy_values=(0, 1, 2),
                    heavy_position=atom.arity - 1, arity=atom.arity, seed=7 + i,
                )
                for i, atom in enumerate(query.atoms)
            ])
        stats = HeavyHitterStatistics.of(query, db, p, threshold_factor=factor)
        reference = _counter_hitters(query, db, p, factor)
        assert stats.hitters == reference
        assert list(stats.hitters) == list(reference)
        for key, hitters in reference.items():
            assert list(stats.hitters[key].items()) == list(hitters.items())
            assert all(
                type(v) is int for a in stats.hitters[key] for v in a
            ), key
        assert stats.total_heavy_count() > 0 or p == 1


class TestBins:
    def test_num_heavy_bins(self):
        assert num_heavy_bins(16) == 4
        assert num_heavy_bins(17) == 5
        assert light_bin_index(16) == 5

    def test_bin_index_boundaries(self):
        """Bin b holds m/2^(b-1) >= freq > m/2^b."""
        p, m = 16, 1000
        assert bin_index(m, 1000, p) == 1
        assert bin_index(m, 501, p) == 1
        assert bin_index(m, 500, p) == 2
        assert bin_index(m, 251, p) == 2
        assert bin_index(m, 250, p) == 3
        # Light values land in the light bin.
        assert bin_index(m, 10, p) == light_bin_index(p)

    def test_bin_index_validation(self):
        with pytest.raises(ValueError):
            bin_index(100, 0, 16)
        with pytest.raises(ValueError):
            bin_index(100, 101, 16)

    def test_bin_exponent_values(self):
        p = 16
        assert bin_exponent(1, p) == 0
        assert bin_exponent(light_bin_index(p), p) == 1
        # beta_2 = log_p 2 = 1/4 for p = 16.
        assert abs(float(bin_exponent(2, p)) - 0.25) < 1e-9

    def test_bin_exponents_increase(self):
        p = 64
        exponents = [bin_exponent(b, p) for b in range(1, light_bin_index(p) + 1)]
        assert exponents == sorted(exponents)
        assert exponents[0] == 0
        assert exponents[-1] == 1

    def test_assignment_bin_exponent_light_is_one(self):
        q = simple_join_query()
        db = Database.from_relations(
            [
                uniform_relation("S1", 100, 1000, seed=12),
                uniform_relation("S2", 100, 1000, seed=13),
            ]
        )
        stats = HeavyHitterStatistics.of(q, db, p=4)
        assert assignment_bin_exponent(stats, "S1", ("z",), (5,)) == 1

    def test_combination_for_assignment(self):
        q = simple_join_query()
        db = Database.from_relations(
            [
                single_value_relation("S1", 64, 500, seed=1),
                uniform_relation("S2", 64, 5000, seed=2),
            ]
        )
        stats = HeavyHitterStatistics.of(q, db, p=8)
        combo = combination_for_assignment(q, stats, {"z": 0})
        assert combo.variables == frozenset({"z"})
        assert combo.beta("S1") == 0  # the whole relation sits on z=0
        assert combo.beta("S2") == 1  # light in S2

    def test_combination_dominance(self):
        small = BinCombination.build({"z"}, {"S1": Fraction(0)})
        large = BinCombination.build({"z", "x"}, {"S1": Fraction(1, 2)})
        assert large.dominates(small)
        assert not small.dominates(large)
        assert not large.dominates(large)

    def test_empty_combination(self):
        empty = BinCombination.empty()
        assert empty.variables == frozenset()
        assert empty.beta("anything") == 0


class TestDegreeMaps:
    """Section 4.3's degree maps are the heavy hitters at factor 0, and the
    residual bound reads them off the provider."""

    def test_degree_maps(self):
        q = simple_join_query()
        db = Database.from_relations(
            [
                Relation.build("S1", [(0, 1), (1, 1), (2, 2)], domain_size=4),
                Relation.build("S2", [(0, 1), (3, 3)], domain_size=4),
            ]
        )
        stats = HeavyHitterStatistics.of(q, db, p=4, threshold_factor=0)
        assert stats.frequency("S1", ("z",), (1,)) == 2
        assert stats.frequency("S1", ("z",), (2,)) == 1
        assert stats.frequency("S1", ("z",), (3,)) is None
        assert sum(stats.heavy_hitters("S1", ("z",)).values()) == 3

    def test_untouched_atom_reads_cardinality(self):
        """x = {x} leaves S2 untouched: it contributes the constant M_2."""
        q = simple_join_query()
        db = Database.from_relations(
            [
                Relation.build("S1", [(0, 1)], domain_size=4),
                Relation.build("S2", [(0, 1), (1, 1)], domain_size=4),
            ]
        )
        stats = HeavyHitterStatistics.of(q, db, p=2, threshold_factor=0)
        # sqrt(M1(0) * M2 / p) = sqrt((2 * 1 * 2) * (2 * 2 * 2) / 2)
        assert residual_load(q, stats, {"x"}, {"S1": 1, "S2": 1}, 2) == 4.0

    def test_bits(self):
        """``M_j(h_j) = a_j m_j(h_j) log2 n``."""
        q = simple_join_query()
        db = Database.from_relations(
            [
                Relation.build("S1", [(0, 1), (1, 1)], domain_size=16),
                Relation.build("S2", [(0, 1)], domain_size=16),
            ]
        )
        stats = HeavyHitterStatistics.of(q, db, p=1, threshold_factor=0)
        value = residual_load(q, stats, {"z"}, {"S1": 1, "S2": 0}, 1)
        assert math.isclose(value, 2 * 2 * 4.0)

    def test_unknown_variable_rejected(self):
        q = simple_join_query()
        db = Database.from_relations(
            [
                Relation.build("S1", [(0, 1)], domain_size=4),
                Relation.build("S2", [(0, 1)], domain_size=4),
            ]
        )
        stats = HeavyHitterStatistics.of(q, db, p=4, threshold_factor=0)
        with pytest.raises(StatisticsError):
            residual_lower_bound(q, stats, {"w"}, 4)

    def test_missing_map_rejected(self):
        """A provider without the (atom, subset) map a bound needs."""
        q = simple_join_query()
        db = Database.from_relations(
            [
                Relation.build("S1", [(0, 1)], domain_size=4),
                Relation.build("S2", [(0, 1)], domain_size=4),
            ]
        )
        stats = StatisticsProvider(
            simple=SimpleStatistics.of(db), p=4, threshold_factor=0, hitters={}
        )
        with pytest.raises(StatisticsError):
            residual_lower_bound(q, stats, {"z"}, 4)


class TestCanonicalSubset:
    def test_sorted_and_deduplicated(self):
        assert canonical_subset(["z", "x", "z"]) == ("x", "z")
        assert canonical_subset([]) == ()

"""Unit tests for the workload generators."""

import random
import time

import pytest

from repro.api import WorkloadSpec
from repro.data import (
    GeneratorError,
    degree_relation,
    graph_edges,
    matching_relation,
    planted_heavy_relation,
    single_value_relation,
    uniform_relation,
    zipf_relation,
)
from repro.query import parse_query


class TestUniform:
    def test_cardinality_and_domain(self):
        rel = uniform_relation("R", 500, 1000, seed=1)
        assert rel.cardinality == 500
        assert rel.domain_size == 1000
        assert rel.arity == 2

    def test_deterministic(self):
        assert uniform_relation("R", 100, 500, seed=7).tuples == uniform_relation(
            "R", 100, 500, seed=7
        ).tuples

    def test_seed_changes_content(self):
        a = uniform_relation("R", 100, 500, seed=1).tuples
        b = uniform_relation("R", 100, 500, seed=2).tuples
        assert a != b

    def test_impossible_cardinality_rejected(self):
        with pytest.raises(GeneratorError):
            uniform_relation("R", 100, 4, arity=1)

    def test_arity_one(self):
        rel = uniform_relation("R", 10, 100, arity=1, seed=1)
        assert all(len(t) == 1 for t in rel.tuples)


def _per_randrange_uniform(name, cardinality, domain_size, arity=2, seed=0):
    """The generator up to ISSUE 20, kept as the reference: one
    ``rng.randrange`` per value, one ``add`` per tuple."""
    rng = random.Random(f"uniform:{name}:{seed}")
    tuples = set()
    while len(tuples) < cardinality:
        tuples.add(tuple(rng.randrange(domain_size) for _ in range(arity)))
    return frozenset(tuples)


class TestUniformIdentity:
    """Drawing through a bound ``getrandbits`` consumes the random stream
    exactly as ``randrange`` does, so every database is the one it was —
    and a CPython that changes ``randrange`` fails here instead of moving
    data."""

    @pytest.mark.parametrize("cardinality, domain, arity, seed", [
        (1, 1, 0, 0),    # the empty tuple
        (1, 1, 1, 0),    # bit_length 1, every other draw rejected
        (1, 1, 3, 4),
        (40, 40, 1, 3),  # the whole space: duplicate redraws until full
        (200, 800, 2, 0),
        (300, 513, 2, 11),  # just over a power of two: half rejected
        (500, 23, 2, 5),    # most of a small space: many duplicates
        (150, 90, 3, 2),
        (64, 4, 3, 7),      # the whole space, arity 3
    ])
    def test_tuple_for_tuple(self, cardinality, domain, arity, seed):
        relation = uniform_relation(
            "R", cardinality, domain, arity=arity, seed=seed
        )
        reference = _per_randrange_uniform(
            "R", cardinality, domain, arity=arity, seed=seed
        )
        assert relation.tuples == reference
        # Same set built by the same insertions: same iteration order,
        # which heavy-hitter dicts and routing batches inherit.
        assert list(relation.tuples) == list(reference)
        assert (relation.arity, relation.domain_size) == (arity, domain)

    def test_workload_spec_databases(self):
        query = parse_query("C3(x,y,z) :- R(x,y), S(y,z), T(z,x)")
        db = WorkloadSpec(kind="uniform", m=400, seed=7).build(query)
        for i, relation in enumerate(db):
            assert relation.tuples == _per_randrange_uniform(
                relation.name, 400, relation.domain_size, seed=7 + i
            )


class TestMatching:
    def test_each_value_once_per_column(self):
        rel = matching_relation("R", 300, 1000, seed=2)
        for position in range(rel.arity):
            freq = rel.frequencies([position])
            assert all(count == 1 for count in freq.values())

    def test_needs_large_domain(self):
        with pytest.raises(GeneratorError):
            matching_relation("R", 100, 50)


class TestZipf:
    def test_zero_skew_is_uniform_like(self):
        rel = zipf_relation("R", 200, 1000, skew=0.0, seed=3)
        assert rel.cardinality == 200

    def test_high_skew_concentrates(self):
        rel = zipf_relation("R", 500, 1000, skew=1.5, seed=4)
        freq = rel.frequencies([1])
        top = max(freq.values())
        assert top > 50  # rank-1 value dominates

    def test_skewed_position_respected(self):
        rel = zipf_relation(
            "R", 300, 600, skew=1.5, skewed_positions=(0,), seed=5
        )
        freq0 = rel.frequencies([0])
        freq1 = rel.frequencies([1])
        assert max(freq0.values()) > max(freq1.values())

    def test_bad_position_rejected(self):
        with pytest.raises(GeneratorError):
            zipf_relation("R", 10, 100, skewed_positions=(5,))

    def test_unrealizable_rejected(self):
        # Extreme skew on both positions of a tiny domain cannot produce
        # many distinct tuples.
        with pytest.raises(GeneratorError):
            zipf_relation(
                "R", 90, 10, skew=30.0, skewed_positions=(0, 1), seed=6
            )


    def test_more_tuples_than_the_space_holds_fails_at_once(self):
        """Used to burn ``50 m + 1000`` draws, then blame the skew."""
        started = time.perf_counter()
        with pytest.raises(GeneratorError, match="2000 distinct tuples from "
                                                 "a space of 1600"):
            zipf_relation("R", 2000, 40)
        assert time.perf_counter() - started < 0.05
        with pytest.raises(GeneratorError, match="a space of 7"):
            zipf_relation("R", 8, 7, arity=1, skewed_positions=(0,))
        # A full space is still drawable.
        assert zipf_relation("R", 49, 7, skew=0.5).cardinality == 49


def _per_draw_zipf(name, cardinality, domain_size, arity=2, skew=1.0,
                   skewed_positions=(1,), seed=0):
    """The generator up to ISSUE 16, kept as the reference: a full
    ``rng.choices`` (O(domain) for its cumulative weights) per value."""
    rng = random.Random(f"zipf:{name}:{seed}")
    weights = [1.0 / (rank + 1) ** skew for rank in range(domain_size)]
    tuples = set()
    while len(tuples) < cardinality:
        tuples.add(tuple(
            rng.choices(range(domain_size), weights)[0]
            if position in skewed_positions else rng.randrange(domain_size)
            for position in range(arity)
        ))
    return frozenset(tuples)


class TestZipfIdentity:
    """One cumulative table bisected per draw consumes the random stream
    exactly as the per-draw ``rng.choices`` did: the same tuples, not just
    the same distribution — which is why no pinned record had to move."""

    @pytest.mark.parametrize("skew", [0.0, 0.8, 1.2, 2.0])
    @pytest.mark.parametrize("cardinality, domain, arity, positions, seed", [
        (1, 1, 1, (0,), 0),
        (30, 40, 1, (0,), 3),
        (200, 800, 2, (1,), 0),
        (200, 800, 2, (0,), 11),
        (60, 25, 2, (0, 1), 5),
        (150, 90, 3, (1,), 2),
        (150, 90, 3, (0, 2), 7),
        (120, 400, 3, (), 1),
    ])
    def test_tuple_for_tuple(self, cardinality, domain, arity, positions,
                             seed, skew):
        arguments = dict(arity=arity, skew=skew, skewed_positions=positions,
                         seed=seed)
        relation = zipf_relation("R", cardinality, domain, **arguments)
        assert relation.tuples == _per_draw_zipf(
            "R", cardinality, domain, **arguments)
        assert (relation.arity, relation.domain_size) == (arity, domain)

    @pytest.mark.parametrize("text", [
        "q(x,y,z) :- S1(x,z), S2(y,z)",
        "C3(x,y,z) :- R(x,y), S(y,z), T(z,x)",
    ])
    @pytest.mark.parametrize("skew, seed", [(0.0, 0), (1.2, 7)])
    def test_workload_spec_databases(self, text, skew, seed):
        query = parse_query(text)
        spec = WorkloadSpec("zipf", m=150, skew=skew, seed=seed)
        db = spec.build(query)
        for i, atom in enumerate(query.atoms):
            assert db.relation(atom.name).tuples == _per_draw_zipf(
                atom.name, 150, 600, skew=skew, seed=seed + i)

    def test_unary_atoms_are_skewed_on_their_only_position(self):
        """``--workload zipf`` used to fail every cell of such a query:
        ``skewed position 1 outside arity 1``."""
        query = parse_query("q(x,y) :- R(x), S(x,y)")
        db = WorkloadSpec("zipf", m=60, skew=1.2, seed=3).build(query)
        assert db.relation("R").tuples == _per_draw_zipf(
            "R", 60, 240, arity=1, skew=1.2, skewed_positions=(0,), seed=3)
        assert db.relation("S").tuples == _per_draw_zipf(
            "S", 60, 240, skew=1.2, seed=4)


class TestZipfScaling:
    def test_a_draw_costs_a_bisection_not_a_pass_over_the_domain(self):
        """O(m log n), not O(m n): about 0.05 s here, about 39 s when every
        draw rebuilt the cumulative weights of all 80000 values."""
        started = time.perf_counter()
        relation = zipf_relation("S", 20000, 80000, skew=1.2)
        assert time.perf_counter() - started < 4.0
        assert relation.cardinality == 20000


class TestSingleValue:
    def test_pinned_column(self):
        rel = single_value_relation("R", 50, 200, fixed_position=1,
                                    fixed_value=9, seed=7)
        assert all(t[1] == 9 for t in rel.tuples)
        assert rel.cardinality == 50

    def test_too_many_rejected(self):
        with pytest.raises(GeneratorError):
            single_value_relation("R", 100, 10, arity=2)


class TestDegreeRelation:
    def test_exact_degrees(self):
        degrees = {3: 10, 5: 4, 7: 1}
        rel = degree_relation("R", degrees, 64, seed=8)
        freq = rel.frequencies([1])
        assert freq[(3,)] == 10
        assert freq[(5,)] == 4
        assert freq[(7,)] == 1
        assert rel.cardinality == 15

    def test_degree_position_zero(self):
        rel = degree_relation("R", {2: 5}, 64, degree_position=0, seed=9)
        assert rel.frequencies([0])[(2,)] == 5

    def test_validation(self):
        with pytest.raises(GeneratorError):
            degree_relation("R", {100: 1}, 64)
        with pytest.raises(GeneratorError):
            degree_relation("R", {1: 100}, 64)


class TestPlantedHeavy:
    def test_heavy_values_dominate(self):
        rel = planted_heavy_relation(
            "R", 400, 800, heavy_values=[0, 1], heavy_fraction=0.5, seed=10
        )
        freq = rel.frequencies([1])
        heavy_mass = freq.get((0,), 0) + freq.get((1,), 0)
        assert heavy_mass >= 0.4 * 400
        assert rel.cardinality == 400

    def test_zero_fraction_is_uniform(self):
        rel = planted_heavy_relation(
            "R", 100, 500, heavy_values=[0], heavy_fraction=0.0, seed=11
        )
        assert rel.cardinality == 100

    def test_validation(self):
        with pytest.raises(GeneratorError):
            planted_heavy_relation("R", 10, 100, heavy_values=[])
        with pytest.raises(GeneratorError):
            planted_heavy_relation(
                "R", 10, 100, heavy_values=[0], heavy_fraction=1.5
            )


class TestGraphEdges:
    def test_cardinality(self):
        rel = graph_edges("E", 100, 400, seed=12)
        assert rel.cardinality == 400
        assert rel.domain_size == 100

    def test_hubs_attract_edges(self):
        rel = graph_edges(
            "E", 200, 600, hub_count=2, hub_fraction=0.5, seed=13
        )
        out_deg = rel.frequencies([0])
        in_deg = rel.frequencies([1])
        hub_mass = sum(
            out_deg.get((h,), 0) + in_deg.get((h,), 0) for h in (0, 1)
        )
        assert hub_mass >= 0.4 * 600

    def test_too_many_edges_rejected(self):
        with pytest.raises(GeneratorError):
            graph_edges("E", 3, 100)

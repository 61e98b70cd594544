"""Unit tests for the workload generators."""

import random
import time
from bisect import bisect
from itertools import accumulate

import numpy as np
import pytest

from repro.api import WorkloadSpec
from repro.data import (
    GeneratorError,
    degree_relation,
    generators,
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
    """The per-draw loop, kept as the reference: one ``rng.randrange``
    per value, one insertion per tuple — into a dict, so the tuples come
    back in first-draw order."""
    rng = random.Random(f"uniform:{name}:{seed}")
    tuples = {}
    while len(tuples) < cardinality:
        tuples.setdefault(tuple(
            rng.randrange(domain_size) for _ in range(arity)
        ))
    return list(tuples)


class TestUniformIdentity:
    """Cutting ``getrandbits(32 * n)`` words into draws consumes the random
    stream exactly as ``randrange`` does, so every database is the one it
    was — and a CPython that changes ``randrange`` fails here instead of
    moving data."""

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
        (300, 2**32 - 1, 2, 1),  # the widest one-word draw
        (300, 2**32, 2, 2),      # the narrowest two-word draw
        (100, 2**33 + 5, 3, 3),
        (50, 2**63, 2, 4),       # the widest domain a column holds
        (0, 10, 2, 0),
    ])
    def test_tuple_for_tuple(self, cardinality, domain, arity, seed):
        relation = uniform_relation(
            "R", cardinality, domain, arity=arity, seed=seed
        )
        reference = _per_randrange_uniform(
            "R", cardinality, domain, arity=arity, seed=seed
        )
        assert relation.tuples == frozenset(reference)
        # Laid out in first-draw order, which heavy-hitter dicts and
        # routing batches inherit: the order a dict fed draw by draw keeps.
        assert list(relation.tuples) == reference
        assert (relation.arity, relation.domain_size) == (arity, domain)

    def test_workload_spec_databases(self):
        query = parse_query("C3(x,y,z) :- R(x,y), S(y,z), T(z,x)")
        db = WorkloadSpec(kind="uniform", m=400, seed=7).build(query)
        for i, relation in enumerate(db):
            assert list(relation.tuples) == _per_randrange_uniform(
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
    """The per-draw loop, kept as the reference: per value an
    ``rng.choices`` over the cumulative weights or an ``rng.randrange``,
    one insertion per tuple (into a dict: first-draw order), at most
    ``50 m + 1000`` tuples."""
    rng = random.Random(f"zipf:{name}:{seed}")
    table = list(accumulate(1.0 / (rank + 1) ** skew
                            for rank in range(domain_size)))
    tuples = {}
    attempts = 0
    while len(tuples) < cardinality:
        attempts += 1
        if attempts > 50 * cardinality + 1000:
            raise GeneratorError("could not realize")
        tuples.setdefault(tuple(
            rng.choices(range(domain_size), cum_weights=table)[0]
            if position in skewed_positions else rng.randrange(domain_size)
            for position in range(arity)
        ))
    return list(tuples)


class TestZipfIdentity:
    """Word blocks parsed tuple by tuple consume the random stream exactly
    as the per-draw ``rng.choices``/``rng.randrange`` loop did: the same
    tuples in the same order, not just the same distribution — which is
    why no pinned record had to move."""

    @pytest.mark.parametrize("skew", [0.0, 0.8, 1.2, 2.0])
    @pytest.mark.parametrize("cardinality, domain, arity, positions, seed", [
        (1, 1, 1, (0,), 0),
        (1, 5, 0, (), 0),     # the empty tuple
        (30, 40, 1, (0,), 3),
        (200, 800, 2, (1,), 0),
        (200, 800, 2, (0,), 11),
        (60, 25, 2, (0, 1), 5),
        (49, 7, 2, (1,), 4),  # the whole space
        (150, 90, 3, (1,), 2),
        (150, 90, 3, (0, 2), 7),
        (120, 400, 3, (), 1),
        (3000, 12000, 2, (1,), 7),
    ])
    def test_tuple_for_tuple(self, cardinality, domain, arity, positions,
                             seed, skew):
        arguments = dict(arity=arity, skew=skew, skewed_positions=positions,
                         seed=seed)
        relation = zipf_relation("R", cardinality, domain, **arguments)
        assert list(relation.tuples) == _per_draw_zipf(
            "R", cardinality, domain, **arguments)
        assert (relation.arity, relation.domain_size) == (arity, domain)

    def test_unrealizable_skew_fails_where_the_loop_failed(self):
        arguments = dict(skew=30.0, skewed_positions=(0, 1), seed=6)
        with pytest.raises(GeneratorError):
            _per_draw_zipf("R", 90, 10, **arguments)
        with pytest.raises(GeneratorError, match="skew=30.0"):
            zipf_relation("R", 90, 10, **arguments)

    @pytest.mark.parametrize("domain", [2**32 + 1, 2**40 + 3, 2**63])
    def test_two_word_draws_between_skewed_ones(self, domain):
        """A uniform draw past 32 bits takes two words per attempt (no
        zipf table that wide fits in memory, so a small one stands in)."""
        table = np.array(list(accumulate(1.0 / (rank + 1) for rank in
                                         range(50))))
        rng = random.Random(9)
        reference = [
            (rng.randrange(domain), bisect(table, rng.random() * table[-1]),
             rng.randrange(domain))
            for _ in range(400)
        ]
        source = generators._Words(random.Random(9))
        drawn = np.concatenate([
            generators._zipf_draws(source, 3, frozenset({1}), domain, table,
                                   count)
            for count in (1, 150, 249)
        ], axis=1)
        assert list(zip(*drawn.tolist())) == reference

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
            assert list(db.relation(atom.name).tuples) == _per_draw_zipf(
                atom.name, 150, 600, skew=skew, seed=seed + i)

    def test_unary_atoms_are_skewed_on_their_only_position(self):
        """``--workload zipf`` used to fail every cell of such a query:
        ``skewed position 1 outside arity 1``."""
        query = parse_query("q(x,y) :- R(x), S(x,y)")
        db = WorkloadSpec("zipf", m=60, skew=1.2, seed=3).build(query)
        assert list(db.relation("R").tuples) == _per_draw_zipf(
            "R", 60, 240, arity=1, skew=1.2, skewed_positions=(0,), seed=3)
        assert list(db.relation("S").tuples) == _per_draw_zipf(
            "S", 60, 240, skew=1.2, seed=4)


class TestZipfTable:
    """The cumulative weights are the loop's, bit for bit."""

    @pytest.mark.parametrize("skew", [0.0, 0.3, 0.5, 0.8, 1.0, 1.2, 1.5,
                                      2.0, 30.0])
    @pytest.mark.parametrize("domain", [1, 2, 8000, 400_000])
    def test_equals_the_python_running_sum(self, domain, skew):
        table = generators._zipf_table(domain, skew)
        loop = list(accumulate(1.0 / (rank + 1) ** skew
                               for rank in range(domain)))
        assert table.dtype == np.float64
        assert table.tolist() == loop


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


def _per_draw_single_value(name, cardinality, domain_size, fixed_position=1,
                           fixed_value=0, arity=2, seed=0):
    """The per-draw loop, kept as the reference: ``arity`` values of
    ``rng.randrange`` a tuple, the pinned one overwritten, one
    insertion per tuple (into a dict: first-draw order)."""
    rng = random.Random(f"single:{name}:{seed}")
    tuples = {}
    while len(tuples) < cardinality:
        values = [rng.randrange(domain_size) for _ in range(arity)]
        values[fixed_position] = fixed_value
        tuples.setdefault(tuple(values))
    return list(tuples)


class TestSingleValueIdentity:
    @pytest.mark.parametrize("cardinality, domain, position, arity, seed", [
        (50, 200, 1, 2, 7),
        (400, 401, 0, 2, 3),    # nearly the whole space
        (20, 20, 1, 2, 0),      # the whole space
        (1, 9, 0, 1, 2),        # arity 1: one tuple, the pinned value
        (100, 30, 2, 3, 1),
        (60, 2**40, 0, 2, 5),   # two words a draw
    ])
    def test_tuple_for_tuple(self, cardinality, domain, position, arity,
                             seed):
        arguments = dict(fixed_position=position, fixed_value=domain // 3,
                         arity=arity, seed=seed)
        relation = single_value_relation("R", cardinality, domain,
                                         **arguments)
        assert list(relation.tuples) == _per_draw_single_value(
            "R", cardinality, domain, **arguments)

    def test_workload_spec_databases(self):
        query = parse_query("q(x,y,z) :- S1(x,z), S2(y,z)")
        db = WorkloadSpec("worst", m=300, seed=4).build(query)
        for i, atom in enumerate(query.atoms):
            relation = db.relation(atom.name)
            assert list(relation.tuples) == _per_draw_single_value(
                atom.name, 300, relation.domain_size, seed=4 + i)


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


def _documented_relation(kind, atom, m, skew, domain, seed):
    """The generator call :class:`WorkloadSpec`'s docstring names for one
    atom of a ``kind`` workload."""
    if kind == "uniform":
        return uniform_relation(atom.name, m, domain, arity=atom.arity,
                                seed=seed)
    if kind == "zipf":
        return zipf_relation(atom.name, m, domain, arity=atom.arity,
                             skew=skew, seed=seed,
                             skewed_positions=(min(1, atom.arity - 1),))
    if kind == "worst":
        return single_value_relation(atom.name, m, domain, arity=atom.arity,
                                     fixed_position=atom.arity - 1,
                                     seed=seed)
    return matching_relation(atom.name, m, domain, arity=atom.arity,
                             seed=seed)


def _tuples_or_error(build):
    try:
        return list(build().tuples)
    except GeneratorError as exc:
        return f"GeneratorError: {exc}"


class TestWorkloadSpecBuild:
    """``WorkloadSpec(kind, ...).build(q)`` is, atom ``i`` by atom, the
    generator call its docstring names at seed ``seed + i``, over the
    kind's default domain: ``4 m`` for zipf, ``8 m`` for the others."""

    @pytest.mark.parametrize("arity", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["uniform", "zipf", "worst",
                                      "matching"])
    def test_each_atom_is_the_documented_call(self, kind, arity):
        variables = ", ".join("xyz"[:arity])
        query = parse_query(
            f"q({variables}) :- R({variables}), S({variables})")
        spec = WorkloadSpec(kind, m=40, skew=1.3, seed=5)
        for i, atom in enumerate(query.atoms):
            expected = _tuples_or_error(lambda: _documented_relation(
                kind, atom, 40, 1.3, spec.domain_size, 5 + i))
            built = _tuples_or_error(
                lambda: spec.build(query).relation(atom.name))
            assert built == expected

    @pytest.mark.parametrize("kind, per_tuple", [
        ("uniform", 8), ("zipf", 4), ("worst", 8), ("matching", 8),
    ])
    def test_default_domain(self, kind, per_tuple):
        assert WorkloadSpec(kind, m=50).domain_size == per_tuple * 50
        assert WorkloadSpec(kind, m=50, domain=7).domain_size == 7

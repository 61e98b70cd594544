"""The routing contract every in-tree :class:`RoutingPlan` honours.

A plan states its deliveries twice — scalar ``destinations`` and batch
``claims`` — and the engines consume what ``RoutingPlan`` derives from the
claims: ``deliveries`` and ``destination_counts``.  For each relation of
each plan all of them must describe the same set of (tuple, server)
deliveries::

    deliveries == {(i, s) : s in union of table[key] over claims of i}
               == {(i, s) : s in destinations(t_i)}
    destination_counts == bincount(servers of deliveries)

Every claim is well-formed (an integer ``ndarray`` of routing keys, one per
covered index, every key in its table, table rows duplicate-free and inside
``[0, p)``), and no plan built
by a registered algorithm inherits the scalar-loop default of
``RoutingPlan.claims`` — that exists for user-defined plans only
(``tests/test_mpc.py`` covers the fallback).

The matrix is every registered one-round algorithm x the queries it
applies to x {uniform, zipf 1.2, worst, planted-heavy} x p in {1, 7, 64}.
Multi-round registry keys own no routing plan: each of their rounds runs
one of the one-round algorithms covered here.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import WorkloadSpec, algorithm_specs, get_spec
from repro.core import BinHyperCubeAlgorithm
from repro.core.hypercube import (
    Block, Family, HyperCubePlan, Layout, layout_load_bits,
)
from repro.data import planted_heavy_relation, uniform_relation
from repro.mpc import HashFamily, OneRoundAlgorithm, RoutingPlan, run_one_round
from repro.query import parse_query
from repro.seq import Database, Relation
from repro.seq.relation import Batch
from repro.sketch import SketchedHeavyHitterStatistics
from repro.stats import HeavyHitterStatistics, SimpleStatistics

M = 150
QUERIES = {
    "join": parse_query("q(x, y, z) :- S1(x, z), S2(y, z)"),
    "triangle": parse_query("q(x, y, z) :- R(x, y), S(y, z), T(z, x)"),
    "product": parse_query("q(x, y, u, v) :- A(x, y), B(u, v)"),
}
WORKLOADS = ("uniform", "zipf", "worst", "planted")
SERVERS = (1, 7, 64)

ONE_ROUND = tuple(
    spec for spec in algorithm_specs()
    if issubclass(spec.algorithm_class, OneRoundAlgorithm)
)
CASES = [
    pytest.param(spec, name, id=f"{spec.key}-{name}")
    for spec in ONE_ROUND
    for name, query in QUERIES.items()
    if spec.is_applicable(query)
]


def _database(query, workload: str) -> Database:
    if workload == "planted":
        return Database.from_relations([
            planted_heavy_relation(
                atom.name, M, 8 * M, heavy_values=(0, 1, 2),
                heavy_position=atom.arity - 1, arity=atom.arity, seed=7 + i,
            )
            for i, atom in enumerate(query.atoms)
        ])
    return WorkloadSpec(kind=workload, m=M, skew=1.2, seed=5).build(query)


def _assert_contract(plan: RoutingPlan, query, db: Database, p: int) -> None:
    for atom in query.atoms:
        batch = db.relation(atom.name).batch
        tuples = batch.rows
        scalar = [
            set(plan.destinations(atom.name, tup)) for tup in tuples
        ]

        claimed: list[set[int]] = [set() for _ in tuples]
        for indices, keys, table in plan.claims(atom.name, batch):
            assert isinstance(keys, np.ndarray)
            assert np.issubdtype(keys.dtype, np.integer)
            assert keys.shape == (len(indices),)
            for dests in table.values():
                assert len(set(dests)) == len(dests), "duplicate destination"
                assert all(0 <= server < p for server in dests)
            for i, key in zip(indices.tolist(), keys.tolist()):
                assert 0 <= i < len(tuples)
                assert key in table
                claimed[i].update(table[key])
        assert claimed == scalar, atom.name

        # ``deliveries`` — what the engines route through when answers are
        # wanted — against the scalar definition, pair for pair.
        indices, servers = plan.deliveries(atom.name, batch)
        assert indices.dtype == servers.dtype == np.int64
        pairs = list(zip(indices.tolist(), servers.tolist()))
        assert len(set(pairs)) == len(pairs), "a delivery listed twice"
        assert sorted(pairs) == [
            (i, server)
            for i, dests in enumerate(scalar) for server in sorted(dests)
        ], atom.name

        counted = Counter(dict(plan.destination_counts(atom.name, batch)))
        assert +counted == Counter(
            server for dests in scalar for server in dests
        ), atom.name
        assert np.bincount(servers, minlength=p).tolist() == [
            counted[server] for server in range(p)
        ], atom.name


def test_every_applicable_key_is_exercised():
    assert {case.values[0].key for case in CASES} == {
        spec.key for spec in ONE_ROUND
    }


@pytest.mark.parametrize("p", SERVERS)
@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("spec, query_name", CASES)
def test_routing_contract(spec, query_name, workload, p):
    query = QUERIES[query_name]
    db = _database(query, workload)
    stats = HeavyHitterStatistics.of(query, db, p)
    plan = spec.build(query, stats, p).routing_plan(db, p, HashFamily(3))

    # No registered algorithm reaches the scalar-loop default, and the
    # batch path reads columns only: it runs with no rows to read.
    assert type(plan).claims is not RoutingPlan.claims
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Batch, "rows", property(_no_rows))
        for atom in query.atoms:
            plan.claims(atom.name, db.relation(atom.name).batch)
    _assert_contract(plan, query, db, p)


def _no_rows(batch: Batch):
    raise AssertionError("the batch path read Batch.rows")


PAIR_QUERY = parse_query("q(x, y, z, w) :- S1(x, y, z), S2(y, z, w)")


def _planted_pairs() -> Database:
    """Heavy *pairs* of join values: (1, 2) and (3, 4) carry 40 tuples
    each in both relations; (1, 4), (3, 2) and (5, 2) share a value with
    them column by column but are light (2 <= 150/64), and the rest is
    uniform."""
    relations = []
    for shift, atom in enumerate(PAIR_QUERY.atoms):
        private = atom.variables.index("x" if "x" in atom.variables else "w")
        rows = set(
            uniform_relation(atom.name, M - 86, 8 * M, arity=3, seed=shift).tuples
        )
        for pair, count in {(1, 2): 40, (3, 4): 40, (1, 4): 2, (3, 2): 2,
                            (5, 2): 2}.items():
            for value in range(count):
                row = list(pair)
                row.insert(private, 10 * value + shift)
                rows.add(tuple(row))
        relations.append(Relation.build(atom.name, rows, domain_size=8 * M))
    return Database.from_relations(relations)


@pytest.mark.parametrize("p", [7, 64])
@pytest.mark.parametrize("spec", [
    pytest.param(spec, id=spec.key)
    for spec in ONE_ROUND if spec.is_applicable(PAIR_QUERY)
])
def test_two_variable_join_key(spec, p):
    """The heavy assignments bind two columns at once: the multi-position
    branch of ``Batch.codes`` under skew-join's heavy blocks and under
    bin-hypercube's heavy slots and overweight filters."""
    db = _planted_pairs()
    stats = HeavyHitterStatistics.of(PAIR_QUERY, db, p)
    for atom in PAIR_QUERY.atoms:
        assert set(stats.heavy_hitters(atom.name, ("y", "z"))) == {
            (1, 2), (3, 4)
        }
    plan = spec.build(PAIR_QUERY, stats, p).routing_plan(db, p, HashFamily(3))
    if spec.key == "skew-join":
        assert set(plan.families[0].filters["S1"].accepted) == {(1, 2), (3, 4)}
    if spec.key == "bin-hypercube":
        assert any(
            len(positions) == 2
            for family in plan.families
            for positions in (f.positions for f in family.filters.values())
        )
    _assert_contract(plan, PAIR_QUERY, db, p)


@pytest.mark.parametrize("provider", ["exact", "sketch"])
@pytest.mark.parametrize(
    "query_name, workload, p", [("join", "zipf", 16), ("triangle", "worst", 7)]
)
def test_tuples_claimed_by_several_bin_combinations(
    query_name, workload, p, provider
):
    """Under skew a tuple can be handled by more than one bin combination;
    the batch paths must union (not add) the combinations' destinations."""
    query = QUERIES[query_name]
    db = _database(query, workload)
    if provider == "exact":
        stats = HeavyHitterStatistics.of(query, db, p)
    else:
        stats = SketchedHeavyHitterStatistics.of(query, db, p)
    plan = BinHyperCubeAlgorithm(query, stats=stats).routing_plan(
        db, p, HashFamily(3)
    )

    def owners(name, tup):
        return sum(
            1 for family in plan.families
            if family.reach(name, tup)
        )

    assert any(
        owners(atom.name, tup) >= 2
        for atom in query.atoms
        for tup in db.relation(atom.name).tuples
    ), "fixture no longer produces a multiply-claimed tuple"
    _assert_contract(plan, query, db, p)


LIGHT_QUERY = parse_query("q(x, y, z) :- light(x, z), S2(y, z)")

#: The batched engine's ``(max_load_bits, total delivered bits)`` under
#: ``HashFamily(3)`` — the reference engine's too.  bin-hypercube's are
#: those of the plans the block lists of ``HyperCubePlan`` replaced;
#: skew-join's moved when a one-column key became the column itself (no
#: ``+ 1``: hash noise), then when its heavy blocks were sized rounded
#: down and each tier laid out inside ``[0, p)``.  A change of load here
#: is a change of plan, made on purpose.
PINNED_LOADS = {
    ("zipf", "skew-join"): (6431.029005192395, 289007.33170511795),
    ("zipf", "bin-hypercube"): (8349.965079322385, 366101.8850617185),
    ("pairs", "skew-join"): (2577.662310004962, 14115.769792884315),
    ("pairs", "bin-hypercube"): (3160.7049753632273, 9205.936821446294),
    ("light", "skew-join"): (961.5089569066129, 38992.256848170306),
    ("light", "bin-hypercube"): (1513.8651661933905, 58979.36856939928),
}


def _pinned_input(name: str):
    if name == "zipf":
        query = QUERIES["join"]
        spec = WorkloadSpec(kind="zipf", m=2000, skew=1.2, seed=5)
        return query, spec.build(query), 64
    if name == "pairs":
        return PAIR_QUERY, _planted_pairs(), 7
    spec = WorkloadSpec(kind="zipf", m=300, skew=1.3, seed=5)
    return LIGHT_QUERY, spec.build(LIGHT_QUERY), 64


@pytest.mark.parametrize("name, key", [
    pytest.param(name, key, id=f"{key}-{name}") for name, key in PINNED_LOADS
])
def test_pinned_skew_aware_loads(name, key):
    query, db, p = _pinned_input(name)
    stats = HeavyHitterStatistics.of(query, db, p)
    algorithm = get_spec(key).build(query, stats, p)
    result = run_one_round(
        algorithm, db, p, seed=3, compute_answers=False, engine="batched"
    )
    assert (result.max_load_bits, result.report.total_bits) \
        == PINNED_LOADS[name, key]


#: The skew-aware predictions on the pinned zipf instance, read off each
#: plan's own blocks (``layout_load_bits``).
PINNED_PREDICTIONS = {
    "skew-join": 4764.9257246133175,
    "bin-hypercube": 7639.756878207129,
}


def _pinned_zipf(key: str):
    query, db, p = _pinned_input("zipf")
    stats = HeavyHitterStatistics.of(query, db, p)
    return query, db, p, stats, get_spec(key).build(query, stats, p)


@pytest.mark.parametrize("key", sorted(PINNED_PREDICTIONS))
def test_pinned_skew_aware_predictions(key):
    _, _, p, stats, algorithm = _pinned_zipf(key)
    assert algorithm.predicted_load_bits(stats, p) == PINNED_PREDICTIONS[key]


@pytest.mark.parametrize("key", sorted(PINNED_PREDICTIONS))
def test_skew_aware_predictions_track_the_measured_load(key):
    """Measured / predicted is 1.35 (skew-join) and 1.09 (bin-hypercube)
    under ``HashFamily(3)``."""
    _, db, p, stats, algorithm = _pinned_zipf(key)
    result = run_one_round(
        algorithm, db, p, seed=3, compute_answers=False, engine="batched"
    )
    assert result.max_load_bits / algorithm.predicted_load_bits(stats, p) \
        <= 1.5


def test_the_prediction_counts_stacked_tiers():
    """Each tier (H12, H1, H2) is laid out from server 0, largest block
    first, so server 0 holds the largest block of every tier, and the
    prediction is at least what their cells expect together: ``m1(h) / p1
    + m2(h) / p2`` each, in bits, ``m_j(h)`` 0 where ``h`` is light in
    ``S_j``."""
    query, db, p, stats, algorithm = _pinned_zipf("skew-join")
    family = algorithm.routing_plan(db, p, HashFamily(3)).families[0]
    hitters = [stats.heavy_hitters(atom.name, ("z",)) for atom in query.atoms]
    tuple_bits = [stats.simple.bits(atom.name) / len(db.relation(atom.name))
                  for atom in query.atoms]
    largest = {}  # tier -> (cells, start, what each cell expects)
    for h, (number,) in family.filters["S1"].accepted.items():
        block = family.blocks[number]
        tier = tuple(h in found for found in hitters)
        expected = sum(
            found.get(h, 0) * bits / share
            for found, bits, share in zip(hitters, tuple_bits, block.shares[1:])
        )
        cells = math.prod(block.shares)
        if cells > largest.get(tier, (0,))[0]:
            largest[tier] = (cells, block.start, expected)
    assert len(largest) >= 2
    assert all(start == 0 for _, start, _ in largest.values())
    assert algorithm.predicted_load_bits(stats, p) >= sum(
        expected for _, _, expected in largest.values()
    )


def _assert_blocks_inside(query, db: Database, stats, p: int) -> None:
    """Every registered one-round algorithm built with ``stats`` lays
    every block, to route ``db`` and to predict, inside ``[0, p)``."""
    for spec in ONE_ROUND:
        if not spec.is_applicable(query):
            continue
        algorithm = spec.build(query, stats, p)
        for layout_stats in (algorithm.routing_statistics(db, p),
                             algorithm.statistics(stats, p)):
            for family in algorithm.layout(layout_stats, p).families:
                for block in family.blocks:
                    cells = math.prod(block.shares)
                    assert 0 <= block.start <= p - cells, (spec.key, block)


@pytest.mark.parametrize("start, shares", [(5, (4,)), (-1, (2,)), (0, (9,))])
def test_a_block_outside_the_servers_is_refused(start, shares):
    """Where a layout meets ``p`` — routing and the prediction — a block
    that leaves ``[0, p)`` is a :class:`ValueError`, never a wrap."""
    query = QUERIES["join"]
    keys = {atom.name: {0: (atom.positions_of("z")[0],)}
            for atom in query.atoms}
    layout = Layout((Family(("z",), keys, (Block("b", shares, start),)),))
    with pytest.raises(ValueError, match="leaves the 8 servers"):
        HyperCubePlan(layout, HashFamily(3), 8)
    db = _database(query, "uniform")
    with pytest.raises(ValueError, match="leaves the 8 servers"):
        layout_load_bits(query, layout, SimpleStatistics.of(db), 8)


STATISTICS = {
    "exact": HeavyHitterStatistics.of,
    "sketch": SketchedHeavyHitterStatistics.of,
}


@pytest.mark.parametrize("provider", sorted(STATISTICS))
@pytest.mark.parametrize("name", ["zipf", "pairs", "light"])
def test_every_block_lies_inside_the_servers(name, provider):
    """On the pinned instances; the zipf one's sketch holds more heavy
    join values (141 and 136) than there are servers (64)."""
    query, db, p = _pinned_input(name)
    stats = STATISTICS[provider](query, db, p)
    if (name, provider) == ("zipf", "sketch"):
        assert min(len(stats.heavy_hitters(atom.name, ("z",)))
                   for atom in query.atoms) > p
    _assert_blocks_inside(query, db, stats, p)


@given(
    query_name=st.sampled_from(sorted(QUERIES)),
    m=st.integers(1, 120),
    skew=st.floats(0.0, 2.5),
    seed=st.integers(0, 2**16),
    p=st.integers(1, 64),
    provider=st.sampled_from(sorted(STATISTICS)),
)
@settings(max_examples=40, deadline=None)
def test_every_block_lies_inside_the_servers_on_any_instance(
    query_name, m, skew, seed, p, provider
):
    query = QUERIES[query_name]
    db = WorkloadSpec(kind="zipf", m=m, skew=skew, seed=seed).build(query)
    _assert_blocks_inside(query, db, STATISTICS[provider](query, db, p), p)


@pytest.mark.parametrize("key", ["skew-join", "bin-hypercube"])
def test_a_relation_named_like_a_dimension(key):
    """Skew-join's dimensions are ``light`` (salted ``skewjoin:light``)
    and one per atom (salted ``skewjoin:<relation>``): a relation named
    ``light`` shares the light dimension's salt but stays a dimension of
    its own."""
    query, db, p = _pinned_input("light")
    stats = HeavyHitterStatistics.of(query, db, p)
    plan = get_spec(key).build(query, stats, p).routing_plan(
        db, p, HashFamily(3)
    )
    if key == "skew-join":  # a heavy block hashes the private values
        assert plan.describe()["h12"] > 0
    _assert_contract(plan, query, db, p)

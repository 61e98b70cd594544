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

from collections import Counter

import numpy as np
import pytest

from repro.api import WorkloadSpec, algorithm_specs
from repro.core import BinHyperCubeAlgorithm
from repro.data import planted_heavy_relation, uniform_relation
from repro.mpc import HashFamily, OneRoundAlgorithm, RoutingPlan
from repro.query import parse_query
from repro.seq import Database, Relation
from repro.sketch import SketchedHeavyHitterStatistics
from repro.stats import HeavyHitterStatistics

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

    # No registered algorithm reaches the scalar-loop default.
    assert type(plan).claims is not RoutingPlan.claims
    _assert_contract(plan, query, db, p)


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
        assert set(plan.grid_blocks) == {(1, 2), (3, 4)}
    if spec.key == "bin-hypercube":
        assert any(
            len(positions) == 2
            for combo in plan.combo_plans
            for positions in combo.heavy_positions.values()
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
            1 for combo in plan.combo_plans
            if tuple(combo.destinations_for(name, tup))
        )

    assert any(
        owners(atom.name, tup) >= 2
        for atom in query.atoms
        for tup in db.relation(atom.name).tuples
    ), "fixture no longer produces a multiply-claimed tuple"
    _assert_contract(plan, query, db, p)

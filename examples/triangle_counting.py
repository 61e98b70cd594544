#!/usr/bin/env python
"""Distributed triangle listing on a hub-heavy graph.

The workload of Suri & Vassilvitskii's 'last reducer' problem, cited by the
paper [11]: counting/listing triangles of a graph whose degree distribution
has hubs.  One round of HyperCube over ``C3 = S1(x1,x2), S2(x2,x3),
S3(x3,x1)`` lists every triangle; the share choice determines whether hubs
hurt.

The script compares on a hub-heavy edge set:

* HyperCube with LP-optimal shares (p^(1/3) each for equal sizes) — the
  Afrati-Ullman/[11] one-round triangle algorithm;
* the bin-combination algorithm of Section 4.2, which isolates the hubs;
* Example 3.7's closed-form load table for the triangle query.

Run:  python examples/triangle_counting.py [--engine {reference,batched}]
"""

from __future__ import annotations

import argparse

from repro import (
    Database,
    SimpleStatistics,
    available_engines,
    lower_bound,
    plan,
    vertex_loads,
)
from repro.data import graph_edges
from repro.query import triangle_query
from repro.rounds import run_rounds

P = 27
NODES = 1200
EDGES = 3600


def edge_db(hub_fraction: float) -> Database:
    """Three copies of a directed edge relation, one per C3 atom."""
    relations = []
    for j in (1, 2, 3):
        relations.append(
            graph_edges(
                f"S{j}", NODES, EDGES, hub_count=3,
                hub_fraction=hub_fraction, seed=40 + j,
            )
        )
    return Database.from_relations(relations)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--engine", choices=available_engines(),
                        default="batched",
                        help="execution engine for the simulated rounds")
    args = parser.parse_args()

    query = triangle_query()
    print(f"query: {query}")
    print(f"graph: {NODES} nodes, {EDGES} edges per relation, p = {P}, "
          f"{args.engine} engine\n")

    db = edge_db(hub_fraction=0.0)
    stats = SimpleStatistics.of(db)
    bits = stats.bits_vector(query)

    print("-- Example 3.7: the four packing-vertex load expressions --")
    for packing, value in vertex_loads(query, bits, P):
        label = tuple(float(v) for v in packing.values())
        print(f"  u = {label}: L(u, M, p) = {value:,.0f} bits")
    bound = lower_bound(query, bits, P)
    print(f"  optimal load (max of the above): {bound.bits:,.0f} bits\n")

    print("-- triangle listing, uniform vs hub-heavy edges --")
    print(f"{'hubs':>6} {'algorithm':>14} {'max load':>10} {'triangles':>10} "
          f"{'complete':>9}")
    for hub_fraction in (0.0, 0.4):
        db = edge_db(hub_fraction)
        query_plan = plan(query, db=db, p=P)
        for key in ("hypercube-lp", "bin-hypercube"):
            algorithm = query_plan.instantiate(key)
            result = run_rounds(algorithm, db, P, compute_answers=False,
                                verify=True, engine=args.engine)
            print(
                f"{hub_fraction:>6.1f} {algorithm.name:>14} "
                f"{result.max_load_tuples:>10} {result.answer_count:>10} "
                f"{str(result.is_complete):>9}"
            )
            assert result.is_complete

    print(
        "\nNote the honest takeaway: for C3 with equal cardinalities the\n"
        "LP-optimal shares are already the skew-resilient p^(1/3) cube\n"
        "(Corollary 3.2(ii)), so hubs cost HyperCube only its worst-case\n"
        "guarantee and the bin algorithm matches it within constants.\n"
        "The bin algorithm's big wins appear when the skew-free optimum\n"
        "is lopsided — e.g. the hash join of examples/skewed_join.py —\n"
        "and Theorem 4.6 is about matching the *lower bound*, which both\n"
        "do here."
    )


if __name__ == "__main__":
    main()

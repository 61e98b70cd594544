#!/usr/bin/env python
"""Reducer-size vs replication-rate trade-off (Section 5).

In the MapReduce model of Afrati et al. the knob is the reducer size ``L``;
the cost is the replication rate ``r``.  Theorem 5.1 lower-bounds ``r`` by
``max_u c^u K(u, M) / (L^(u-1) sum_j M_j)``; for triangles with equal sizes
this is the familiar ``Omega(sqrt(M/L))`` curve, matched by HyperCube run
as the map phase.

The script sweeps ``L`` and prints measured-vs-bound, plus the implied
minimum reducer counts (Example 5.2).  It asserts that every measured rate
is at least Theorem 5.1's bound, and that the smallest reducers compute
every answer.

Run:  python examples/mapreduce_replication.py
"""

from __future__ import annotations

from repro import Database, SimpleStatistics, replication_rate_lower_bound
from repro.core import minimum_reducers, triangle_replication_shape
from repro.data import uniform_relation
from repro.mr import hypercube_mapreduce
from repro.query import triangle_query

M_TUPLES = 4000
DOMAIN = 12_000


def main() -> None:
    query = triangle_query()
    db = Database.from_relations(
        [
            uniform_relation("S1", M_TUPLES, DOMAIN, seed=91),
            uniform_relation("S2", M_TUPLES, DOMAIN, seed=92),
            uniform_relation("S3", M_TUPLES, DOMAIN, seed=93),
        ]
    )
    stats = SimpleStatistics.of(db)
    bits = stats.bits_vector(query)
    m_bits = bits["S1"]
    input_bits = sum(bits.values())

    print(f"query: {query}")
    print(f"input: 3 x {M_TUPLES} tuples = {input_bits:,.0f} bits\n")
    header = (
        f"{'L (bits)':>12} {'reducers':>9} {'measured r':>11} "
        f"{'bound r':>9} {'sqrt(M/L)':>10} {'min reducers':>13}"
    )
    print(header)
    print("-" * len(header))

    divisors = (2, 8, 32, 128)
    for divisor in divisors:
        reducer_bits = m_bits / divisor
        verify = divisor == divisors[-1]
        run = hypercube_mapreduce(
            query, db, reducer_bits=reducer_bits, verify=verify
        )
        bound, _packing = replication_rate_lower_bound(query, bits, reducer_bits)
        shape = triangle_replication_shape(m_bits, reducer_bits)
        needed = minimum_reducers(bound, input_bits, reducer_bits)
        print(
            f"{reducer_bits:>12,.0f} {run.p:>9} "
            f"{run.replication_rate:>11.2f} {bound:>9.2f} "
            f"{shape:>10.2f} {needed:>13.1f}"
        )
        assert bound <= run.replication_rate, (divisor, bound)
        assert run.is_complete or not verify, divisor

    print(
        "\nThe measured rate tracks the sqrt(M/L) shape: every 4x cut in\n"
        "reducer size roughly doubles the replication, and the reducer\n"
        "count grows like (M/L)^(3/2) — Example 5.2's 'curse of the last\n"
        "reducer' quantified."
    )


if __name__ == "__main__":
    main()

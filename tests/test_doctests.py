"""Execute the doctest examples embedded in module docstrings, so the
documentation can never drift from the code."""

import doctest

import repro.query.parser
import repro.query.residual


def test_parser_doctests():
    results = doctest.testmod(repro.query.parser)
    assert results.failed == 0
    assert results.attempted > 0


def test_residual_doctests():
    results = doctest.testmod(repro.query.residual)
    assert results.failed == 0
    assert results.attempted > 0


def test_package_quickstart_docstring_runs():
    """The __init__ docstring's quickstart must actually work."""
    from repro import (
        Database,
        HyperCubeAlgorithm,
        SimpleStatistics,
        lower_bound,
        parse_query,
    )
    from repro.data import uniform_relation
    from repro.rounds import run_rounds

    q = parse_query("q(x, y, z) :- S1(x, z), S2(y, z)")
    db = Database.from_relations(
        [
            uniform_relation("S1", 512, 10_000, seed=1),
            uniform_relation("S2", 512, 10_000, seed=2),
        ]
    )
    stats = SimpleStatistics.of(db)
    algo = HyperCubeAlgorithm.with_optimal_shares(q, stats, p=16)
    result = run_rounds(algo, db, p=16, verify=True)
    assert result.is_complete
    assert lower_bound(q, stats.bits_vector(q), 16).bits > 0

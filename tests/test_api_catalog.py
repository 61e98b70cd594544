"""One catalog value: the spec round trip, one source of defaults, and
the same (database, statistics, plan) from the CLI, the service and a
sweep cell."""

import json

import pytest

from repro.api import Catalog, ExperimentError, Sweep, WorkloadSpec
from repro.cli import build_parser, _catalog, main
from repro.service import JobQueue

JOIN = "q(x,y,z) :- S1(x,z), S2(y,z)"
TRIANGLE = "C3(x,y,z) :- R(x,y), S(y,z), T(z,x)"

#: (query, workload, m, skew, seed, p)
CATALOGS = [
    (JOIN, "zipf", 120, 1.2, 0, 8),
    (JOIN, "worst", 60, 1.0, 3, 4),
    (TRIANGLE, "uniform", 90, 1.0, 1, 8),
]


class TestSpec:
    @pytest.mark.parametrize("catalog", [
        Catalog(JOIN),
        Catalog(JOIN, WorkloadSpec("zipf", m=70, skew=0.5, seed=4, domain=99),
                p=27, stats="sketch"),
    ])
    def test_round_trip(self, catalog):
        assert Catalog.from_spec(catalog.to_spec()) == catalog
        # JSON-safe: what ``repro submit`` sends survives the wire.
        assert Catalog.from_spec(
            json.loads(json.dumps(catalog.to_spec()))) == catalog

    @pytest.mark.parametrize("argv", [
        ["plan", JOIN], ["race", JOIN], ["stats", JOIN],
        ["submit", "plan", JOIN], ["submit", "stats", JOIN],
    ])
    def test_argv_and_spec_share_their_defaults(self, argv):
        args = build_parser().parse_args(argv)
        assert _catalog(args) == Catalog.from_spec({"query": JOIN})

    def test_integer_skew_is_the_same_catalog(self):
        one = Catalog.from_spec({"query": JOIN, "skew": 1})
        assert one == Catalog.from_spec({"query": JOIN, "skew": 1.0})
        assert isinstance(one.to_spec()["skew"], float)

    @pytest.mark.parametrize("field, value", [
        ("p", 0), ("stats", "psychic"), ("m", 0), ("domain", 0),
        ("workload", "nope"), ("skew", -0.5), ("skew", float("nan")),
        ("P", 4), ("kind", "worst"),      # no such field: not the defaults
    ])
    def test_ranges_checked_with_the_workload(self, field, value):
        with pytest.raises(ExperimentError, match=field):
            Catalog.from_spec({"query": JOIN, field: value})

    def test_whitespace_variants_are_one_canonical_catalog(self):
        spaced = Catalog("q(x, y,z)  :-  S1(x,z),S2(y,  z)")
        assert spaced != Catalog(JOIN)
        assert spaced.canonical() == Catalog(JOIN).canonical()


class TestCrossPathParity:
    """``repro plan --json``, a served plan job and the ``auto`` cell of a
    one-point sweep are one computation."""

    @pytest.mark.parametrize("stats", ["exact", "sketch"])
    @pytest.mark.parametrize("query, workload, m, skew, seed, p", CATALOGS)
    def test_plan_cli_service_and_sweep_agree(
        self, capsys, query, workload, m, skew, seed, p, stats
    ):
        queue = JobQueue(workers=1)
        job = queue.submit("plan", {
            "query": query, "workload": workload, "m": m, "skew": skew,
            "seed": seed, "p": p, "stats": stats,
        })
        assert queue.join(timeout=120)
        served = queue.result(job.id)
        queue.shutdown()

        (record,) = Sweep(
            query, workload=workload, m_values=(m,), skews=(skew,),
            seeds=(seed,), p_values=(p,), stats=stats, algorithms="auto",
        ).run().records
        assert record.algorithm == served["chosen"]
        chosen = next(pr for pr in served["predictions"]
                      if pr["key"] == served["chosen"])
        assert record.predicted_load_bits == chosen["predicted_load_bits"]
        assert record.lower_bound_bits == served["lower_bound_bits"]

        if stats == "exact":  # the only method ``repro plan`` has a flag for
            assert main([
                "plan", query, "--workload", workload, "-m", str(m),
                "--skew", str(skew), "--seed", str(seed), "-p", str(p),
                "--json",
            ]) == 0
            assert json.loads(capsys.readouterr().out) == served


class TestCrossKindSharing:
    def test_plan_sweep_and_stats_jobs_build_one_catalog_once(self):
        """Three job kinds and a respaced query text, one catalog: one
        generation, one statistics pass."""
        queue = JobQueue(workers=1)
        flat = {"workload": "zipf", "m": 60, "skew": 1.2, "seed": 2, "p": 8}
        jobs = [
            queue.submit("plan", {"query": JOIN, **flat}),
            queue.submit("sweep", {
                "query": JOIN, "workload": "zipf", "m_values": [60],
                "skews": [1.2], "seeds": [2], "p_values": [8],
                "algorithms": "auto",
            }),
            queue.submit("stats", {"query": JOIN, **flat}),
            queue.submit("plan", {"query": "q(x, y,z)  :-  S1(x,z),S2(y,z)",
                                  **flat}),
        ]
        assert queue.join(timeout=120)
        assert [queue.status(job.id)["state"] for job in jobs] == ["done"] * 4
        histogram = queue.obs.metrics.histogram
        assert histogram("stats.build.seconds").count == 1
        assert histogram("data.generate.seconds").count == 1
        counters = queue.obs.metrics.counters
        assert counters["service.cache.stats.miss"].value == 1
        assert counters["service.cache.stats.hit"].value == 3
        # A plan job's plan is the ``auto`` cell's at a round budget of 1.
        assert counters["service.cache.plan.miss"].value == 1
        assert counters["service.cache.plan.hit"].value == 2
        (record,) = queue.result(jobs[1].id)["records"]
        assert record["algorithm"] == queue.result(jobs[0].id)["chosen"]
        assert queue.result(jobs[0].id) == queue.result(jobs[3].id)
        queue.shutdown()

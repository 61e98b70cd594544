"""One catalog value: the spec round trip, one source of defaults, and
the same (database, statistics, plan) from the CLI, the service and a
sweep cell."""

import argparse
import dataclasses
import json

import pytest

from repro.api import Catalog, ExperimentError, Sweep, WorkloadSpec
from repro.api.experiment import _CATALOG_FIELDS, _SPEC_FIELDS
from repro.cli import _SWEEP, _catalog, _spec, build_parser, main
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

    @pytest.mark.parametrize("argv", [["sweep", JOIN],
                                      ["submit", "sweep", JOIN]])
    def test_argv_and_sweep_spec_share_their_defaults(self, argv):
        args = build_parser().parse_args(argv)
        assert Sweep.from_spec(_spec(args, _SWEEP)) == Sweep(JOIN)

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


def _flags(*path: str) -> dict:
    """Flag -> default of the subcommand at ``path`` of the CLI."""
    parser = build_parser()
    for name in path:
        (subcommands,) = [action for action in parser._actions if
                          isinstance(action, argparse._SubParsersAction)]
        parser = subcommands.choices[name]
    return {flag: action.default for action in parser._actions
            for flag in action.option_strings}


#: What each field defaults to: the dataclasses' values (the executor
#: settings ``workers`` and ``cell_timeout`` are unset).
CATALOG_DEFAULTS = {
    "workload": WorkloadSpec.kind, "m": WorkloadSpec.m,
    "skew": WorkloadSpec.skew, "seed": WorkloadSpec.seed,
    "domain": WorkloadSpec.domain, "p": Catalog.p, "stats": Catalog.stats,
}
SWEEP_DEFAULTS = {"workers": None, "cell_timeout": None, **{
    field.name: field.default for field in dataclasses.fields(Sweep)
    if field.name in _SPEC_FIELDS}}


class TestOneSchema:
    """The spec tables are the CLI's flags: each catalog and sweep
    subcommand has a flag for every field it takes, defaulting to the
    dataclass's value, and ``--domain`` reaches the catalog everywhere."""

    @pytest.mark.parametrize("path, table, defaults, flagless", [
        (("plan",), _CATALOG_FIELDS, CATALOG_DEFAULTS, {"stats"}),
        (("race",), _CATALOG_FIELDS, CATALOG_DEFAULTS, {"stats"}),
        (("stats",), _CATALOG_FIELDS, CATALOG_DEFAULTS, {"stats"}),
        (("submit", "plan"), _CATALOG_FIELDS, CATALOG_DEFAULTS, set()),
        (("submit", "stats"), _CATALOG_FIELDS, CATALOG_DEFAULTS, set()),
        (("sweep",), _SPEC_FIELDS, SWEEP_DEFAULTS, set()),
        (("submit", "sweep"), _SPEC_FIELDS, SWEEP_DEFAULTS, set()),
    ])
    def test_every_field_is_a_flag_with_the_dataclass_default(
            self, path, table, defaults, flagless):
        """``plan``, ``race`` and ``stats`` take no ``--stats``, as before."""
        assert set(table) == set(defaults)
        flags = _flags(*path)
        for name in set(table) - flagless:
            assert flags[table[name].flag] == defaults[name], name
        assert not {table[name].flag for name in flagless} & set(flags)

    @pytest.mark.parametrize("command", ["plan", "race", "stats"])
    def test_domain_reaches_every_database(self, command, monkeypatch):
        """One database, generated over the declared domain: ``race``'s
        cells run on the catalog its plan was built on."""
        domains = []
        generate = Catalog.generate

        def recorded(self, obs=None):
            domains.append(self.workload.domain_size)
            return generate(self, obs)

        monkeypatch.setattr(Catalog, "generate", recorded)
        main([command, JOIN, "--workload", "zipf", "-m", "60", "-p", "4",
              "--domain", "50", "-q" if command != "plan" else "--json"])
        assert domains == [50]

    def test_plan_domain_changes_the_plan(self, capsys):
        argv = ["plan", JOIN, "--workload", "zipf", "-m", "400", "-p", "8",
                "--json"]
        assert main(argv) == 0
        default = json.loads(capsys.readouterr().out)
        assert main(argv + ["--domain", "50"]) == 0
        narrow = json.loads(capsys.readouterr().out)
        assert narrow != default

    def test_stats_json_reports_a_given_domain(self, capsys):
        """Without ``--domain`` the report is what it always was."""
        argv = ["stats", JOIN, "--workload", "zipf", "-m", "60", "-p", "4",
                "--json"]
        main(argv)
        default = json.loads(capsys.readouterr().out)["workload"]
        assert default == {"kind": "zipf", "m": 60, "skew": 1.0, "seed": 0}
        main(argv + ["--domain", "50"])
        narrow = json.loads(capsys.readouterr().out)["workload"]
        assert narrow == {**default, "domain": 50}

    @pytest.mark.parametrize("command, header", [
        ("plan", "statistics: zipf workload (m=60, skew=1.0, seed=0"),
        ("race", "workload: zipf (m=60, skew=1.0"),
        ("stats", "workload: zipf (m=60, skew=1.0, seed=0"),
    ])
    def test_text_headers_name_a_given_domain(self, command, header, capsys):
        argv = [command, JOIN, "--workload", "zipf", "-m", "60", "-p", "4"]
        main(argv)
        assert f"{header})" in capsys.readouterr().out
        main(argv + ["--domain", "50"])
        assert f"{header}, domain=50)" in capsys.readouterr().out


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

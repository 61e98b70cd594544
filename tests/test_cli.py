"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.api import validate_record
from repro.cli import main


class TestPackingsCommand:
    def test_triangle(self, capsys):
        assert main(["packings", "C3(x,y,z) :- R(x,y), S(y,z), T(z,x)"]) == 0
        out = capsys.readouterr().out
        assert "tau*" in out and "3/2" in out
        assert "4 non-dominated vertices" in out

    def test_bad_query_errors(self):
        with pytest.raises(Exception):
            main(["packings", "not a query"])


class TestBoundsCommand:
    def test_join_bounds(self, capsys):
        assert main([
            "bounds", "q(x,y,z) :- S1(x,z), S2(y,z)",
            "--cardinality", "S1=4096", "--cardinality", "S2=1024",
            "--domain", "100000", "-p", "64",
        ]) == 0
        out = capsys.readouterr().out
        assert "optimal load" in out
        assert "share exponents" in out
        assert "space exponent" in out

    def test_missing_cardinality_errors(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["bounds", "q(x) :- S(x)", "-p", "4"])
        assert "missing cardinalities" in str(excinfo.value)

    def test_plan_missing_cardinality_is_a_clean_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "plan", "q(x,y,z) :- S1(x,z), S2(y,z)",
                "--cardinality", "S1=100", "-p", "8",
            ])
        assert "missing cardinalities" in str(excinfo.value)

    def test_malformed_cardinality(self):
        with pytest.raises(SystemExit):
            main(["bounds", "q(x) :- S(x)", "--cardinality", "S1"])

    def test_non_integer_cardinality_is_a_clean_error(self):
        """A bad count exits with a message, not a ValueError traceback."""
        with pytest.raises(SystemExit) as excinfo:
            main(["bounds", "q(x) :- S(x)", "--cardinality", "S=many"])
        assert "integer" in str(excinfo.value)
        assert "many" in str(excinfo.value)

    def test_float_cardinality_rejected(self):
        with pytest.raises(SystemExit):
            main(["bounds", "q(x) :- S(x)", "--cardinality", "S=12.5"])


class TestRaceCommand:
    def test_join_race_with_verification(self, capsys):
        assert main([
            "race", "q(x,y,z) :- S1(x,z), S2(y,z)",
            "--workload", "zipf", "--skew", "1.2",
            "-m", "200", "-p", "8", "--verify",
        ]) == 0
        out = capsys.readouterr().out
        assert "skew-join" in out
        assert "hashjoin" in out
        assert "False" not in out  # every algorithm complete

    def test_triangle_race_skips_binary_join_algorithms(self, capsys):
        assert main([
            "race", "C3(x,y,z) :- R(x,y), S(y,z), T(z,x)",
            "--workload", "uniform", "-m", "150", "-p", "8",
        ]) == 0
        out = capsys.readouterr().out
        assert "hypercube-lp" in out
        # skew-join is declared inapplicable (3 atoms): it must not appear
        # as a result row, only in the not-applicable footer with a reason.
        table_rows = [
            line for line in out.splitlines()
            if line.strip().startswith("skew-join")
        ]
        assert table_rows == []
        assert "not applicable:" in out
        assert "skew-join (the skew-aware join handles exactly two atoms" in out

    def test_worst_case_workload(self, capsys):
        assert main([
            "race", "q(x,y,z) :- S1(x,z), S2(y,z)",
            "--workload", "worst", "-m", "80", "-p", "8", "--verify",
        ]) == 0
        out = capsys.readouterr().out
        assert "False" not in out

    WORST = ["race", "q(x,y,z) :- S1(x,z), S2(y,z)",
             "--workload", "worst", "-m", "40", "-p", "4", "--metrics"]

    @staticmethod
    def _table_and_metrics(out):
        """The result rows and the metrics (name -> the first column of
        its value) of a ``race --metrics`` printout."""
        table, _, metrics = out.partition("not applicable:")
        rows = [line.split() for line in
                table.partition("complete\n")[2].splitlines() if line.strip()]
        return rows, dict(line.split()[:2] for line in
                          metrics.splitlines()[1:] if line.strip())

    def test_race_without_verify_only_measures_loads(self, capsys):
        """No --verify, no answers: nothing is joined to be thrown away,
        and the table reads the same apart from the ``complete`` column."""
        assert main(self.WORST) == 0
        plain_rows, plain = self._table_and_metrics(capsys.readouterr().out)
        assert main(self.WORST + ["--verify"]) == 0
        verified_rows, verified = self._table_and_metrics(
            capsys.readouterr().out)
        assert len(plain_rows) == 6
        assert [row[-1] for row in plain_rows] == ["-"] * 6
        assert [row[-1] for row in verified_rows] == ["True"] * 6
        assert [row[:-1] for row in plain_rows] == \
            [row[:-1] for row in verified_rows]
        # Six local joins and comparisons, one sequential join for all.
        assert {name: verified[name] for name in verified.keys() - plain} == {
            "engine.answers": "9,600",
            "engine.local_join.seconds": "n=6",
            "rounds.compare.seconds": "n=6",
            "rounds.verify.seconds": "n=1",
        }

    def test_unknown_workload(self):
        with pytest.raises(SystemExit):
            main([
                "race", "q(x) :- S(x)", "--workload", "nope",
            ])

    @pytest.mark.parametrize("command", ["plan", "race", "stats"])
    @pytest.mark.parametrize("flag, message", [
        ("-p", "p must be >= 1"), ("-m", "m >= 1"),
    ])
    def test_catalog_out_of_range_is_a_clean_error(
        self, command, flag, message
    ):
        """``-p 0`` used to escape as a StatisticsError traceback."""
        with pytest.raises(SystemExit) as excinfo:
            main([command, "q(x,y,z) :- S1(x,z), S2(y,z)", flag, "0"])
        assert message in str(excinfo.value)


class TestEngineFlag:
    def test_engine_flag_in_help(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["race", "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "--engine" in out
        assert "reference" in out and "batched" in out and "mp" in out

    @pytest.mark.parametrize("engine", ["reference", "batched", "mp"])
    def test_race_with_each_engine(self, capsys, engine):
        assert main([
            "race", "q(x,y,z) :- S1(x,z), S2(y,z)",
            "--workload", "zipf", "--skew", "1.2",
            "-m", "120", "-p", "8", "--verify", "--engine", engine,
        ]) == 0
        out = capsys.readouterr().out
        assert f"engine={engine}" in out
        assert "False" not in out  # every algorithm complete

    def test_engines_report_identical_loads(self, capsys):
        """The race table (loads, replication) is engine-independent."""
        tables = {}
        for engine in ("reference", "batched"):
            assert main([
                "race", "q(x,y,z) :- S1(x,z), S2(y,z)",
                "--workload", "worst", "-m", "60", "-p", "8",
                "--engine", engine,
            ]) == 0
            out = capsys.readouterr().out
            tables[engine] = [
                line for line in out.splitlines() if "engine=" not in line
            ]
        assert tables["reference"] == tables["batched"]

    def test_unknown_engine_rejected(self):
        with pytest.raises(SystemExit):
            main([
                "race", "q(x) :- S(x)", "--engine", "warp-drive",
            ])


class TestPlanCommand:
    def test_plan_from_workload(self, capsys):
        assert main([
            "plan", "q(x,y,z) :- S1(x,z), S2(y,z)",
            "--workload", "zipf", "--skew", "1.5", "-m", "200", "-p", "8",
        ]) == 0
        out = capsys.readouterr().out
        assert "Theorem 3.6 lower bound" in out
        assert "skew-join" in out
        assert "not applicable" in out  # cartesian-grid on a join query

    def test_plan_from_cardinalities(self, capsys):
        assert main([
            "plan", "q(x,y,z) :- S1(x,z), S2(y,z)",
            "--cardinality", "S1=4096", "--cardinality", "S2=1024",
            "--domain", "100000", "-p", "64",
        ]) == 0
        out = capsys.readouterr().out
        assert "declared cardinalities" in out
        assert "predicted" in out

    def test_plan_json(self, capsys):
        assert main([
            "plan", "q(x,y,z) :- S1(x,z), S2(y,z)",
            "--workload", "uniform", "-m", "150", "-p", "8", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["p"] == 8
        assert payload["lower_bound_bits"] > 0
        keys = {entry["key"] for entry in payload["predictions"]}
        assert "hypercube-lp" in keys
        chosen = payload["chosen"]
        applicable = [
            entry for entry in payload["predictions"] if entry["applicable"]
        ]
        best = min(applicable, key=lambda e: e["predicted_load_bits"])
        assert chosen == best["key"]


class TestSweepCommand:
    GRID = [
        "sweep", "q(x,y,z) :- S1(x,z), S2(y,z)",
        "--workload", "zipf", "--skew", "0.0,1.2", "--p", "4,8",
        "--m", "100",
    ]

    def test_sweep_json_records_validate(self, capsys):
        """A >= 24-cell p x skew x algorithm grid emits schema-valid JSON."""
        assert main(self.GRID + ["--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        # 2 p-values x 2 skews x 6 applicable algorithms = 24 cells.
        assert len(payload) >= 24
        for entry in payload:
            validate_record(entry)
            assert entry["engine"] == "batched"
            assert entry["predicted_load_bits"] > 0
            assert entry["max_load_bits"] > 0
            assert entry["lower_bound_bits"] > 0
            assert entry["optimality_gap"] >= 1.0

    def test_sweep_csv(self, capsys):
        assert main(self.GRID + ["--format", "csv"]) == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if line.strip()]
        assert lines[0].startswith("query,workload,m,skew")
        assert len(lines) >= 25  # header + 24 cells

    def test_sweep_auto_picks_one_algorithm_per_cell(self, capsys):
        assert main([
            "sweep", "q(x,y,z) :- S1(x,z), S2(y,z)",
            "--workload", "zipf", "--skew", "0.0", "--p", "4",
            "--m", "80", "--algorithms", "auto", "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 1

    def test_sweep_output_file(self, capsys, tmp_path):
        target = tmp_path / "records.json"
        assert main([
            "sweep", "q(x,y,z) :- S1(x,z), S2(y,z)",
            "--workload", "uniform", "--skew", "0.0", "--p", "4",
            "--m", "60", "--algorithms", "hypercube-lp",
            "--format", "json", "--output", str(target),
        ]) == 0
        payload = json.loads(target.read_text())
        assert len(payload) == 1
        validate_record(payload[0])

    def test_sweep_rejects_bad_grid(self):
        with pytest.raises(SystemExit):
            main([
                "sweep", "q(x) :- S(x)", "--p", "four",
            ])

    @pytest.mark.parametrize("skew", ["-1", "0.5,nan", "inf"])
    def test_sweep_rejects_a_skew_that_is_not_finite_and_nonnegative(
        self, skew
    ):
        with pytest.raises(SystemExit, match="skews.*finite numbers >= 0"):
            main(["sweep", "q(x,y,z) :- S1(x,z), S2(y,z)", "--m", "50",
                  "--p", "4", "--skew", skew])

    def test_sweep_rejects_inapplicable_algorithm(self):
        with pytest.raises(SystemExit):
            main([
                "sweep", "C3(x,y,z) :- R(x,y), S(y,z), T(z,x)",
                "--algorithms", "skew-join",
            ])

    def test_sweep_stats_axis(self, capsys):
        assert main([
            "sweep", "q(x,y,z) :- S1(x,z), S2(y,z)",
            "--workload", "zipf", "--skew", "1.2", "--p", "8",
            "--m", "100", "--algorithms", "skew-join",
            "--stats", "exact,sketch", "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert sorted(entry["stats"] for entry in payload) == [
            "exact", "sketch",
        ]
        for entry in payload:
            validate_record(entry)
            assert entry["max_load_bits"] > 0

    def test_sweep_rejects_unknown_stats_method(self):
        with pytest.raises(SystemExit):
            main(self.GRID + ["--stats", "psychic"])


class TestStatsCommand:
    WORKLOAD = [
        "stats", "q(x,y,z) :- S1(x,z), S2(y,z)",
        "--workload", "zipf", "--skew", "1.5", "-m", "400", "-p", "8",
    ]

    def test_fidelity_report(self, capsys):
        assert main(self.WORKLOAD) == 0
        out = capsys.readouterr().out
        assert "recall 1.000" in out
        assert "statistics pass" in out
        assert "WARNING" not in out

    def test_json_report(self, capsys):
        assert main(self.WORKLOAD + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["recall"] == 1.0
        assert payload["false_negatives"] == 0
        assert payload["sketch"]["width"] == 2048
        assert payload["sketch"]["updates"] > 0
        assert payload["pairs"]

    def test_undersized_sketch_exits_nonzero(self, capsys):
        """A sketch far too narrow for the workload misses hitters and
        reports it through the exit code."""
        result = main(self.WORKLOAD + ["--width", "4", "--depth", "1"])
        out = capsys.readouterr().out
        if result == 1:
            assert "WARNING" in out
        else:
            # A tiny sketch *can* get lucky; the contract is only that
            # exit 1 <=> missed hitters.
            assert "WARNING" not in out

    def test_invalid_sketch_parameters_are_a_clean_error(self):
        with pytest.raises(SystemExit):
            main(self.WORKLOAD + ["--width", "0"])


class TestCatalogErrorsExitCleanly:
    """A query that does not parse and a workload the generator cannot
    realize surface in ``Catalog.build``; ``plan``, ``race`` and ``stats``
    used to let them out as tracebacks (``sweep`` never did)."""

    UNARY = "q(x,y) :- R(x), S(x,y)"

    @staticmethod
    def _repro(*argv):
        source = os.path.dirname(os.path.dirname(repro.__file__))
        return subprocess.run(
            [sys.executable, "-m", "repro", *argv], text=True,
            capture_output=True, timeout=120,
            env={**os.environ, "PYTHONPATH": source},
        )

    @pytest.mark.parametrize("argv, message", [
        (("garbage",), "cannot parse query"),
        ((UNARY, "--workload", "worst", "-m", "50"),
         "not enough distinct tuples with one pinned column"),
    ])
    @pytest.mark.parametrize("command", ["plan", "race", "stats"])
    def test_one_line_on_stderr(self, command, argv, message):
        done = self._repro(command, *argv)
        assert done.returncode == 1
        assert done.stdout == ""
        assert "Traceback" not in done.stderr
        (line,) = done.stderr.splitlines()
        assert message in line

    def test_sweep_reports_the_same_error_per_cell(self, capsys):
        assert main(["sweep", self.UNARY, "--workload", "worst", "--m", "50",
                     "--p", "4", "--format", "json"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert records and all(
            record["status"].startswith("failed:GeneratorError")
            for record in records)

    def test_zipf_workload_on_a_unary_atom(self, capsys):
        """Every cell used to be ``failed:GeneratorError: skewed position
        1 outside arity 1``."""
        assert main(["sweep", self.UNARY, "--workload", "zipf", "--m", "50",
                     "--p", "4", "--format", "json"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert len(records) == 6
        for record in records:
            validate_record(record)
            assert record["status"] == "ok"
        assert main(["race", self.UNARY, "--workload", "zipf", "-m", "50",
                     "-p", "4", "--verify"]) == 0
        assert "False" not in capsys.readouterr().out


class TestUnwritableDestinations:
    """An ``--output``/``--trace`` that cannot be written used to cost the
    whole run: the grid executed, then the write raised."""

    QUERY = "q(x,y,z) :- S1(x,z), S2(y,z)"

    @pytest.mark.parametrize("argv, flag", [
        (("sweep", QUERY, "--m", "60"), "--output"),
        (("sweep", QUERY, "--m", "60"), "--trace"),
        (("bench", "--quick"), "--output"),
        (("bench", "--quick", "--output", "-"), "--trace"),
        (("race", QUERY, "-m", "60"), "--trace"),
        (("stats", QUERY, "-m", "60"), "--trace"),
        (("submit", "sweep", QUERY, "--m", "60"), "--output"),
    ])
    def test_one_line_before_any_work(self, monkeypatch, tmp_path, argv, flag):
        from repro.api import Catalog
        from repro.service.client import ServiceClient

        def started(*args, **kwargs):
            pytest.fail("work started before the destination was checked")

        monkeypatch.setattr(Catalog, "generate", started)
        monkeypatch.setattr(ServiceClient, "submit", started)
        target = str(tmp_path / "no" / "such" / "dir" / "out.json")
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, flag, target, "-q"])
        message = str(excinfo.value)
        assert message.startswith(f"cannot write {target}: ")
        assert "\n" not in message

    def test_the_check_leaves_no_file_behind(self, tmp_path):
        target = tmp_path / "records.json"
        with pytest.raises(SystemExit, match="cannot parse query"):
            main(["sweep", "garbage", "--output", str(target), "-q"])
        assert not target.exists()
        target.write_text("kept")
        with pytest.raises(SystemExit, match="cannot parse query"):
            main(["sweep", "garbage", "--output", str(target), "-q"])
        assert target.read_text() == "kept"

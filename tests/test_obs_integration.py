"""End-to-end observability: engines, planner, sweeps, records, CLI."""

import json

import pytest

from repro.api import (
    Cell,
    RunRecord,
    Sweep,
    WorkloadSpec,
    plan,
    records_from_json,
    run_cell,
)
from repro.cli import main
from repro.mpc import run_one_round
from repro.obs import Observation
from repro.query import parse_query

QUERY = "q(x, y, z) :- S1(x, z), S2(y, z)"

PARITY_KEYS = (
    "engine.input_tuples",
    "engine.input_bits",
    "engine.routed_tuples",
    "engine.routed_tuples.S1",
    "engine.routed_tuples.S2",
    "engine.shipped_bits",
    "engine.shipped_bits.S1",
    "engine.shipped_bits.S2",
    "engine.answers",
)


def _observed_run(engine: str) -> Observation:
    query = parse_query(QUERY)
    db = WorkloadSpec(kind="zipf", m=200, skew=1.2, seed=0).build(query)
    query_plan = plan(query, db=db, p=4)
    algorithm = query_plan.instantiate("hashjoin")
    obs = Observation.create()
    run_one_round(algorithm, db, 4, seed=0, engine=engine, obs=obs)
    return obs


class TestEngineMetricsParity:
    """Both engines must report bit-identical routing metrics."""

    @pytest.fixture(scope="class")
    def observations(self):
        return {
            engine: _observed_run(engine)
            for engine in ("reference", "batched")
        }

    @pytest.mark.parametrize("key", PARITY_KEYS)
    def test_counters_match(self, observations, key):
        values = {
            engine: obs.metrics.counter(key).value
            for engine, obs in observations.items()
        }
        assert values["reference"] == values["batched"], values
        assert values["reference"] > 0

    @pytest.mark.parametrize(
        "key", ["engine.max_load_bits", "engine.skew_ratio",
                "engine.replication_rate"]
    )
    def test_gauges_match(self, observations, key):
        values = {
            engine: obs.metrics.gauge(key).value
            for engine, obs in observations.items()
        }
        assert values["reference"] == values["batched"], values

    def test_server_load_histograms_match(self, observations):
        loads = {
            engine: sorted(obs.metrics.histogram("engine.server_load_bits").values)
            for engine, obs in observations.items()
        }
        assert loads["reference"] == loads["batched"]
        assert len(loads["reference"]) == 4  # one observation per server

    def test_phase_spans_are_present(self, observations):
        for obs in observations.values():
            names = {span.name for span in obs.tracer.spans}
            assert {"engine.run", "engine.route", "engine.local_join"} <= names


class TestDisabledObservability:
    def test_obs_none_results_match_observed_results(self):
        query = parse_query(QUERY)
        db = WorkloadSpec(kind="zipf", m=120, skew=1.0, seed=1).build(query)
        algorithm = plan(query, db=db, p=4).instantiate("hashjoin")
        plain = run_one_round(algorithm, db, 4, seed=1)
        observed = run_one_round(
            algorithm, db, 4, seed=1, obs=Observation.create()
        )
        assert plain.max_load_bits == observed.max_load_bits
        assert sorted(plain.answers) == sorted(observed.answers)


class TestRecordMetricsBlock:
    @pytest.fixture(scope="class")
    def result(self):
        return Sweep(
            query=QUERY, workload="zipf", p_values=(4,), m_values=(120,),
            skews=(0.8,), seeds=(0,), observe=True,
        ).run()

    def test_records_carry_metrics(self, result):
        for record in result.records:
            assert record.metrics is not None
            assert record.metrics["counters"]["engine.routed_tuples"] > 0
            assert "engine.server_load_bits" in record.metrics["histograms"]

    def test_json_round_trip_preserves_metrics(self, result):
        restored = records_from_json(result.to_json())
        for before, after in zip(result.records, restored):
            assert after.metrics == before.metrics

    def test_csv_embeds_metrics_as_json_cell(self, result):
        header, first = result.to_csv().splitlines()[:2]
        index = header.split(",").index("metrics")
        assert '""counters""' in first  # CSV-escaped compact JSON

    def test_unobserved_sweep_has_no_metrics(self):
        result = Sweep(
            query=QUERY, workload="uniform", p_values=(4,), m_values=(60,),
            skews=(0.0,), seeds=(0,), algorithms=("hashjoin",),
        ).run()
        assert all(record.metrics is None for record in result.records)

    def test_round_trip_without_metrics_still_validates(self):
        record = RunRecord(
            query=QUERY, workload="zipf", m=10, skew=0.0, seed=0, domain=10,
            p=2, algorithm="hashjoin", algorithm_name="HashJoin",
            engine="batched", predicted_load_bits=1.0, lower_bound_bits=1.0,
            max_load_bits=1.0, max_load_tuples=1, replication_rate=1.0,
            balance=1.0, wall_seconds=0.0,
        )
        restored = RunRecord.from_dict(json.loads(json.dumps(record.to_dict())))
        assert restored.metrics is None


class TestVerifiedSweepSpans:
    """Where verification time goes in a sweep's trace: the oracle once
    per database, the comparison in every cell."""

    @pytest.fixture(scope="class")
    def obs(self):
        obs = Observation.create()
        result = Sweep(
            query=QUERY, workload="worst", p_values=(4, 8), m_values=(30,),
            verify=True,
        ).run(obs=obs)
        assert len(result) == 12
        assert all(r.complete is True and r.answer_count == 900
                   for r in result)
        return obs

    def test_one_evaluation_twelve_comparisons(self, obs):
        assert len(obs.tracer.finished_spans("rounds.verify")) == 1
        assert len(obs.tracer.finished_spans("rounds.compare")) == 12

    def test_comparisons_are_inside_their_cells(self, obs):
        def ancestors(span):
            while span.parent is not None:
                span = span.parent
                yield span.name

        cells = obs.tracer.finished_spans("sweep.cell")
        assert len(cells) == 12
        for span in obs.tracer.finished_spans("rounds.compare"):
            assert "sweep.cell" in ancestors(span)
        # The oracle is charged to the sweep, not to whichever cell
        # happened to come first.
        (oracle,) = obs.tracer.finished_spans("rounds.verify")
        assert "sweep.cell" not in ancestors(oracle)
        assert "sweep.run" in ancestors(oracle)

    def test_a_farmed_cell_still_evaluates_for_itself(self):
        record = run_cell(Cell(
            query=QUERY, workload="worst", m=30, skew=1.0, seed=0, p=4,
            algorithm="hashjoin", verify=True, observe=True,
        ))
        assert record.complete is True
        histograms = record.metrics["histograms"]
        assert histograms["rounds.verify.seconds"]["count"] == 1
        assert histograms["rounds.compare.seconds"]["count"] == 1


class TestCliObservability:
    RACE = ["race", QUERY, "--workload", "zipf", "--skew", "1.0",
            "-m", "120", "-p", "4"]

    def test_race_metrics_flag_prints_registry(self, capsys):
        assert main(self.RACE + ["--metrics"]) == 0
        out = capsys.readouterr().out
        assert "engine.routed_tuples" in out
        assert "engine.server_load_bits" in out

    def test_race_trace_flag_writes_chrome_trace(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        assert main(self.RACE + ["--trace", str(trace)]) == 0
        data = json.loads(trace.read_text())
        names = {event["name"] for event in data["traceEvents"]}
        assert "engine.run" in names and "plan.build" in names
        # Generation and race's statistics pass are attributed too.
        assert {"data.generate", "stats.build"} <= names

    @pytest.mark.parametrize("argv", [
        ["sweep", QUERY, "--workload", "zipf", "--p", "4", "--m", "80",
         "--output", "-", "-q"],
        ["stats", QUERY, "--workload", "zipf", "-m", "80", "-p", "4"],
    ])
    def test_generation_has_a_span_in_every_trace(
        self, tmp_path, capsys, argv
    ):
        trace = tmp_path / "trace.json"
        assert main(argv + ["--trace", str(trace)]) == 0
        data = json.loads(trace.read_text())
        names = {e["name"] for e in data["traceEvents"]}
        assert "data.generate" in names
        if argv[0] == "sweep":
            # Sweep plans are built under the sweep's obs, like plan jobs.
            assert {"plan.build", "plan.cost"} <= names

    @pytest.mark.parametrize("fmt", ["json", "csv", "summary"])
    def test_sweep_trace_has_a_span_for_result_serialization(
        self, tmp_path, capsys, fmt
    ):
        """Rendering the records and writing them out is the last layer of
        a sweep; its span sits beside ``sweep.run``, not inside it."""
        trace, output = tmp_path / "trace.json", tmp_path / "records.out"
        assert main([
            "sweep", QUERY, "--workload", "zipf", "--p", "4", "--m", "80",
            "--verify", "--format", fmt, "--output", str(output), "-q",
            "--trace", str(trace),
        ]) == 0
        events = json.loads(trace.read_text())["traceEvents"]
        (serialize,) = [e for e in events if e["name"] == "records.serialize"]
        assert serialize["args"] == {"format": fmt, "records": 6}
        assert output.read_text().strip()
        (run,) = [e for e in events if e["name"] == "sweep.run"]
        assert serialize["ts"] >= run["ts"] + run["dur"]
        # The spans around the array code keep their names and nesting;
        # verifying an acyclic query by fingerprint joins no answers.
        names = {e["name"] for e in events}
        assert {"engine.route", "rounds.verify", "rounds.compare"} <= names
        assert "engine.local_join" not in names

    def test_race_without_flags_prints_no_metrics(self, capsys):
        assert main(self.RACE) == 0
        assert "engine.routed_tuples" not in capsys.readouterr().out

    def test_sweep_metrics_attach_to_records(self, tmp_path, capsys):
        output = tmp_path / "records.json"
        assert main([
            "sweep", QUERY, "--workload", "zipf", "--skew", "0.5",
            "--p", "4", "--m", "80", "--metrics", "-q",
            "--output", str(output),
        ]) == 0
        records = json.loads(output.read_text())
        assert all(record["metrics"] is not None for record in records)
        # The registry table itself lands on stdout, planner counters too.
        out = capsys.readouterr().out
        assert "engine.routed_tuples" in out
        assert "planner.algorithms_considered" in out

    def test_verbose_and_quiet_conflict(self):
        with pytest.raises(SystemExit):
            main(self.RACE + ["-v", "-q"])

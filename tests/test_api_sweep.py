"""The experiment/sweep runner and the RunRecord schema."""

import gc
import json
import weakref
from dataclasses import asdict, replace

import pytest

from repro.api import (
    Catalog,
    Cell,
    ExperimentError,
    RecordError,
    RUN_RECORD_FIELDS,
    RunRecord,
    Sweep,
    WorkloadSpec,
    execute_cells,
    records_from_json,
    records_to_csv,
    records_to_json,
    run_cell,
    validate_record,
)
from repro.api import experiment as experiment_module
from repro.api.experiment import WORKLOAD_KINDS, SharedContext
from repro.api.planner import STATS_METHODS
from repro.mpc import fingerprint as fingerprint_module
from repro.mpc import hashing
from repro.mpc.engine import EngineError, available_engines
from repro.obs import Observation
from repro.query import parse_query
from repro.rounds import executor

JOIN_TEXT = "q(x, y, z) :- S1(x, z), S2(y, z)"


def measurements(record):
    """Everything on a record that is not a timing."""
    return {**record.to_dict(), "wall_seconds": None, "metrics": None}


class TestRegistryErrorMessages:
    """Unknown engine/algorithm names must fail fast and list the valid
    registry keys, not crash mid-run with a bare KeyError."""

    def test_unknown_engine_rejected_at_cells_time(self):
        sweep = Sweep(query=JOIN_TEXT, p_values=(4,), m_values=(20,),
                      engine="turbo")
        with pytest.raises(EngineError) as excinfo:
            sweep.cells()
        message = str(excinfo.value)
        assert "turbo" in message
        for name in ("reference", "batched"):
            assert name in message

    def test_unknown_engine_rejected_by_experiment(self):
        """A one-point sweep refuses it from ``run``, before any cell."""
        sweep = Sweep(query=JOIN_TEXT, p_values=(4,), engine="turbo")
        with pytest.raises(EngineError, match="batched"):
            sweep.run()

    def test_misspelled_algorithms_keyword_lists_registry(self):
        sweep = Sweep(query=JOIN_TEXT, p_values=(4,), m_values=(20,),
                      algorithms="al")
        with pytest.raises(ExperimentError) as excinfo:
            sweep.cells()
        message = str(excinfo.value)
        assert "hashjoin" in message and "hypercube-lp" in message

    def test_unknown_algorithm_key_lists_registry(self):
        sweep = Sweep(query=JOIN_TEXT, p_values=(4,), m_values=(20,),
                      algorithms=("hashjoin-typo",))
        with pytest.raises(Exception, match="hashjoin"):
            sweep.cells()

    def test_none_algorithms_is_an_experiment_error(self):
        # Regression: this used to escape as a raw TypeError from
        # ``tuple(None)`` instead of naming the accepted forms.
        sweep = Sweep(query=JOIN_TEXT, p_values=(4,), m_values=(20,),
                      algorithms=None)
        with pytest.raises(ExperimentError) as excinfo:
            sweep.cells()
        message = str(excinfo.value)
        assert "'auto'" in message and "'applicable'" in message
        assert "None" in message and "hashjoin" in message

    def test_non_iterable_algorithms_is_an_experiment_error(self):
        sweep = Sweep(query=JOIN_TEXT, p_values=(4,), m_values=(20,),
                      algorithms=42)
        with pytest.raises(ExperimentError, match="sequence of"):
            sweep.cells()

    def test_non_string_algorithm_key_is_an_experiment_error(self):
        sweep = Sweep(query=JOIN_TEXT, p_values=(4,), m_values=(20,),
                      algorithms=("hashjoin", 7))
        with pytest.raises(ExperimentError, match="strings"):
            sweep.cells()


class TestWorkloadSpec:
    def test_build_is_deterministic(self):
        query = parse_query(JOIN_TEXT)
        spec = WorkloadSpec("zipf", m=90, skew=1.2, seed=4)
        first, second = spec.build(query), spec.build(query)
        for atom in query.atoms:
            assert first.relation(atom.name).tuples == \
                second.relation(atom.name).tuples

    def test_every_kind_builds(self):
        query = parse_query(JOIN_TEXT)
        for kind in ("uniform", "zipf", "worst", "matching"):
            db = WorkloadSpec(kind, m=40, skew=0.8, seed=1).build(query)
            assert db.relation("S1").cardinality == 40

    def test_unknown_kind_rejected(self):
        with pytest.raises(ExperimentError, match="unknown workload"):
            WorkloadSpec("gaussian", m=10)

    @pytest.mark.parametrize("skew", [-1.0, float("nan"), float("inf")])
    def test_skew_must_be_finite_and_nonnegative(self, skew):
        """-1 drew an inverse Zipf; NaN reached every record as ``NaN``,
        which is not JSON."""
        with pytest.raises(ExperimentError, match="skew"):
            WorkloadSpec(kind="zipf", skew=skew)
        with pytest.raises(ExperimentError, match="skew"):
            Sweep(query=JOIN_TEXT, skews=(0.0, skew)).cells()
        with pytest.raises(ExperimentError, match="skews"):
            Sweep.from_spec({"query": JOIN_TEXT, "skews": [skew]})

    @pytest.mark.parametrize("seed", [2**63, -(2**63) - 1, 10**20])
    def test_seed_must_be_an_int64(self, seed):
        """A seed outside int64 failed every cell at run time (``int too
        big to convert``) and the sweep exited 0."""
        with pytest.raises(ExperimentError, match="seed"):
            WorkloadSpec(seed=seed)
        with pytest.raises(ExperimentError, match="seed"):
            Sweep(query=JOIN_TEXT, seeds=(0, seed)).cells()
        with pytest.raises(ExperimentError, match="seeds"):
            Sweep.from_spec({"query": JOIN_TEXT, "seeds": [seed]})
        with pytest.raises(ExperimentError, match="seed"):
            Catalog.from_spec({"query": JOIN_TEXT, "seed": seed})

    def test_the_int64_edges_run_one_round_and_two(self):
        """Round 1 hashes under ``seed + stride``, past the top edge."""
        records = Sweep(query="q(x,y,z) :- R(x,y), S(y,z), T(z,x)",
                        workload="uniform", m_values=(30,), p_values=(8,),
                        seeds=(-(2**63), 2**63 - 1),
                        algorithms=("hypercube-lp", "two-round-triangle")).run()
        assert [(r.status, r.rounds) for r in records] == [("ok", 1),
                                                           ("ok", 2)] * 2

    def test_nonpositive_m_rejected(self):
        with pytest.raises(ExperimentError, match="m >= 1"):
            WorkloadSpec("uniform", m=0)

    def test_domain_override(self):
        query = parse_query(JOIN_TEXT)
        spec = WorkloadSpec("zipf", m=50, skew=0.5, domain=400)
        assert spec.domain_size == 400
        assert spec.build(query).domain_size == 400
        # The kind defaults survive when no override is given.
        assert WorkloadSpec("zipf", m=50).domain_size == 200
        assert WorkloadSpec("uniform", m=50).domain_size == 400


class TestRunCell:
    def test_cell_produces_valid_record(self):
        record = run_cell(Cell(
            query=JOIN_TEXT, workload="zipf", m=80, skew=1.0, seed=0,
            p=4, algorithm="hypercube-lp",
        ))
        payload = record.to_dict()
        validate_record(payload)
        assert payload["algorithm"] == "hypercube-lp"
        assert payload["max_load_bits"] > 0
        assert payload["wall_seconds"] >= 0
        assert payload["answer_count"] is None  # answers skipped by default

    def test_auto_cell_uses_planner_choice(self):
        record = run_cell(Cell(
            query=JOIN_TEXT, workload="uniform", m=80, skew=0.0, seed=0,
            p=4, algorithm="auto",
        ))
        assert record.algorithm != "auto"  # resolved to a registry key

    def test_verify_cell_checks_completeness(self):
        record = run_cell(Cell(
            query=JOIN_TEXT, workload="worst", m=40, skew=0.0, seed=0,
            p=4, algorithm="skew-join", verify=True,
        ))
        assert record.complete is True
        assert record.answer_count is not None

    @pytest.mark.parametrize("engine", ["reference", "batched"])
    def test_a_verifying_cell_round_trips_through_json(self, engine):
        """Answers are arrays inside the engines; what a record carries is
        plain Python on every one of them (``json`` refuses ``np.int64``)."""
        record = run_cell(Cell(
            query=JOIN_TEXT, workload="worst", m=40, skew=0.0, seed=0,
            p=4, algorithm="skew-join", verify=True, engine=engine,
        ))
        assert record.complete is True
        assert type(record.answer_count) is int and record.answer_count == 1600
        assert type(record.max_load_tuples) is int
        assert type(record.max_load_bits) is float
        assert records_from_json(records_to_json([record])) == [record]

    def test_inapplicable_cell_is_an_error(self):
        with pytest.raises(ExperimentError, match="not applicable"):
            run_cell(Cell(
                query="C3(x,y,z) :- R(x,y), S(y,z), T(z,x)",
                workload="uniform", m=40, skew=0.0, seed=0,
                p=4, algorithm="skew-join",
            ))


class TestExperiment:
    """One workload point: a sweep whose axes hold one value each."""

    def test_applicable_expands_to_every_algorithm(self):
        experiment = Sweep(
            JOIN_TEXT, workload="uniform", p_values=(4,), m_values=(60,),
            algorithms="applicable",
        )
        cells = experiment.cells()
        assert {cell.algorithm for cell in cells} == {
            "hypercube-lp", "hypercube-equal", "hypercube-broadcast",
            "hashjoin", "skew-join", "bin-hypercube",
        }
        records = experiment.run()
        assert len(records) == len(cells)

    def test_explicit_inapplicable_algorithm_rejected_early(self):
        experiment = Sweep(
            "C3(x,y,z) :- R(x,y), S(y,z), T(z,x)",
            algorithms=["skew-join"],
        )
        with pytest.raises(ExperimentError, match="not applicable"):
            experiment.cells()


class TestSweep:
    def _sweep(self, **overrides):
        config = dict(
            query=JOIN_TEXT,
            workload="zipf",
            p_values=(4, 8),
            m_values=(80,),
            skews=(0.0, 1.2),
            seeds=(0,),
            algorithms="applicable",
        )
        config.update(overrides)
        return Sweep(**config)

    def test_grid_size(self):
        """p x skew x algorithm: 2 x 2 x 6 = 24 cells (acceptance floor)."""
        cells = self._sweep().cells()
        assert len(cells) == 24

    def test_sequential_run_emits_valid_exports(self):
        result = self._sweep().run()
        assert len(result) == 24
        # JSON round-trips through the schema validator.
        payload = json.loads(result.to_json())
        for entry in payload:
            validate_record(entry)
        reloaded = records_from_json(result.to_json())
        assert [r.algorithm for r in reloaded] == \
            [r.algorithm for r in result.records]
        # CSV exposes the schema's column order.
        lines = result.to_csv().splitlines()
        assert lines[0] == ",".join(RUN_RECORD_FIELDS)
        assert len(lines) == 25
        # Records carry the full predicted/measured/bound/gap story.
        for record in result:
            assert record.predicted_load_bits > 0
            assert record.max_load_bits > 0
            assert record.lower_bound_bits > 0
            assert record.optimality_gap == pytest.approx(
                record.max_load_bits / record.lower_bound_bits
            )

    def test_parallel_run_matches_sequential(self):
        """Farming cells across the process pool changes nothing but time."""
        sweep = self._sweep(skews=(1.2,))
        sequential = sweep.run()
        parallel = sweep.run(max_workers=4)

        def key(record):
            return (record.p, record.skew, record.algorithm)

        left = {key(r): r for r in sequential}
        right = {key(r): r for r in parallel}
        assert left.keys() == right.keys()
        for cell_key, record in left.items():
            other = right[cell_key]
            assert record.max_load_bits == other.max_load_bits
            assert record.max_load_tuples == other.max_load_tuples
            assert record.predicted_load_bits == other.predicted_load_bits

    def test_progress_callback_sees_every_record(self):
        seen = []
        self._sweep(skews=(0.0,), p_values=(4,)).run(progress=seen.append)
        assert len(seen) == 6

    def test_summary_table(self):
        result = self._sweep(skews=(1.2,), p_values=(8,)).run()
        summary = result.summary()
        assert "predicted" in summary and "measured" in summary

    @pytest.mark.parametrize("key", ["p_value", "skew", "Workers"])
    def test_a_spec_key_that_is_no_field_is_an_error(self, key):
        """``{"p_value": [4], "skew": [2.0]}`` ran the default grid."""
        with pytest.raises(ExperimentError) as excinfo:
            Sweep.from_spec({"query": JOIN_TEXT, key: [4]})
        assert repr(key) in str(excinfo.value)
        assert "p_values" in str(excinfo.value)     # the accepted ones
        # Everything the CLI and the service send is a field.
        sweep = Sweep.from_spec({
            "query": JOIN_TEXT, "stats": ["exact", "sketch"],
            "workers": 2, "cell_timeout": None, "p_values": [4],
        })
        assert sweep.stats == ("exact", "sketch") and sweep.p_values == (4,)

    @pytest.mark.parametrize("field, value, names", [
        ("engine", "mp", "reference, batched"),
        ("workload", "nope", "uniform, zipf, worst, matching"),
        ("stats", "bogus", "exact, sketch"),
        ("stats", ["exact", "bogus"], "exact, sketch"),
        ("stats", ["bogus"], "exact, sketch"),
    ])
    def test_a_name_no_registry_knows_is_refused_by_the_spec(
        self, field, value, names
    ):
        """Such a spec used to become a sweep whose cells could only
        fail; now it is refused before any grid is expanded."""
        with pytest.raises(ExperimentError) as excinfo:
            Sweep.from_spec({"query": JOIN_TEXT, field: value})
        message = str(excinfo.value)
        assert repr(field) in message and names in message

    @pytest.mark.parametrize("field, value", [
        *(("engine", name) for name in available_engines()),
        *(("workload", kind) for kind in WORKLOAD_KINDS),
        *(("stats", method) for method in STATS_METHODS),
    ])
    def test_every_registered_name_reaches_the_cells(self, field, value):
        sweep = Sweep.from_spec({"query": JOIN_TEXT, field: value,
                                 "p_values": [4], "m_values": [20]})
        assert {getattr(cell, field) for cell in sweep.cells()} == {value}

    @pytest.mark.parametrize("verify", [False, True])
    @pytest.mark.parametrize("engine", ["reference", "batched"])
    def test_farm_workers_hash_their_own_columns_to_the_same_records(
        self, engine, verify
    ):
        """Each farm worker's context hashes the database's columns afresh;
        the records equal the in-process ones field for field."""
        sweep = Sweep(query=JOIN_TEXT, workload="uniform", m_values=(300,),
                      p_values=(16,), engine=engine, verify=verify)
        serial = [measurements(r) for r in sweep.run()]
        farmed = [measurements(r) for r in sweep.run(max_workers=2)]
        assert len(serial) == 6 and all(r["status"] == "ok" for r in serial)
        assert farmed == serial

    def test_empty_grid_rejected(self):
        with pytest.raises(ExperimentError, match="empty"):
            self._sweep(p_values=()).run()

    def test_bad_axis_values_rejected_at_cells_time(self):
        with pytest.raises(ExperimentError, match="m >= 1"):
            self._sweep(m_values=(0,)).cells()
        with pytest.raises(ExperimentError, match="p must be >= 1"):
            self._sweep(p_values=(0,)).cells()

    def test_domain_override_reaches_the_records(self):
        result = self._sweep(
            skews=(0.0,), p_values=(4,), algorithms=("hashjoin",),
            domain=500,
        ).run()
        assert result.records[0].domain == 500


class TestOneDatabasePerWorkloadSpec:
    """A database is a function of (query, workload spec) alone: the serial
    executor generates it once for the groups that differ only in p, the
    statistics method or the round budget."""

    GRID = dict(query=JOIN_TEXT, workload="zipf", m_values=(60,),
                p_values=(4, 8), stats=("exact", "sketch"), rounds=(1, 2))

    @pytest.mark.parametrize("executor", [{}, {"cell_timeout": 60}])
    def test_one_generate_per_m_skew_seed(self, executor):
        sweep = Sweep(skews=(0.0, 1.2), seeds=(0, 3), **self.GRID)
        cells = sweep.cells()
        groups = {(c.skew, c.seed, c.p, c.stats, c.rounds) for c in cells}
        assert len(groups) == 32
        obs = Observation.create()
        result = sweep.run(cells=cells, obs=obs, **executor)
        assert all(record.ok for record in result)
        count = lambda name: obs.metrics.histogram(f"{name}.seconds").count
        assert count("data.generate") == 4      # one per workload spec
        assert count("stats.build") == 16       # one per catalog
        assert count("plan.build") == 32        # one per catalog and budget
        assert not obs.tracer.finished_spans("sweep.prepare")
        # Sharing changes nothing a record can show.
        assert [measurements(r) for r in result] == \
            [measurements(run_cell(cell)) for cell in cells]

    def test_a_skew_the_kind_ignores_shares_one_database(self):
        """``uniform`` never reads the skew: three skews and two ``p`` are
        six catalogs on one database."""
        sweep = Sweep(JOIN_TEXT, workload="uniform", m_values=(60,),
                      p_values=(4, 8), skews=(0.0, 0.5, 1.2),
                      algorithms=("hashjoin",))
        cells = sweep.cells()
        obs = Observation.create()
        result = sweep.run(cells=cells, obs=obs)
        assert [record.status for record in result] == ["ok"] * 6
        count = lambda name: obs.metrics.histogram(f"{name}.seconds").count
        assert count("data.generate") == 1
        assert count("stats.build") == 6
        assert [measurements(r) for r in result] == \
            [measurements(run_cell(cell)) for cell in cells]

    def test_shuffled_groups_regenerate_but_agree(self):
        sweep = Sweep(skews=(0.0, 1.2), algorithms=("hashjoin",), **self.GRID)
        cells = sweep.cells()
        shuffled = cells[::2] + cells[1::2]
        by_cell = {cell: measurements(record) for cell, record in
                   zip(shuffled, sweep.run(cells=shuffled))}
        assert [by_cell[cell] for cell in cells] == \
            [measurements(r) for r in sweep.run(cells=cells)]

    def test_failed_generation_fails_exactly_its_own_cells(self):
        """36 tuples fit a domain of 6; 50 do not.  The failing database
        comes first, so its error must not stick to the slot."""
        sweep = Sweep(**{**self.GRID, "m_values": (50, 20), "rounds": 1},
                      skews=(0.0,), domain=6,
                      algorithms=("hashjoin", "hypercube-lp"))
        result = sweep.run()
        assert len(result) == 16
        for record in result:
            if record.m == 50:
                assert record.status.startswith("failed:GeneratorError")
                assert "a space of 36" in record.status
            else:
                assert record.ok and record.max_load_bits > 0


class TestARecordIsAFunctionOfItsCell:
    def test_auto_keeps_its_budget_beside_a_named_two_round_key(self):
        """A named two-round key used to lift the whole group's budget, so
        the in-process ``auto`` record ran two rounds and a farmed one."""
        sweep = Sweep("q(x,y,z) :- R(x,y), S(y,z), T(z,x)",
                      workload="uniform", m_values=(3000,),
                      algorithms=("auto", "two-round-triangle"), rounds=1)
        cells = sweep.cells()
        in_process = [measurements(r) for r in sweep.run(cells=cells)]
        assert [measurements(r) for r in sweep.run(
            cells=cells, max_workers=2)] == in_process
        assert [measurements(run_cell(cell)) for cell in cells] == in_process
        auto, named = in_process
        assert auto["rounds"] == 1 and named["rounds"] == 2

    @pytest.mark.parametrize("executor", [{}, {"cell_timeout": 60}])
    def test_a_group_plans_once_per_budget_in_any_key_order(self, executor):
        """Named keys of 1, 2 and 1 rounds: the context steps through the
        group by budget, so one catalog plans twice, not three times."""
        sweep = Sweep("q(x,y,z) :- R(x,y), S(y,z), T(z,x)",
                      workload="uniform", m_values=(300,), rounds=1,
                      algorithms=("hypercube-equal", "two-round-triangle",
                                  "hypercube-lp"))
        obs = Observation.create()
        result = sweep.run(obs=obs, **executor)
        assert [r.algorithm for r in result] == [
            "hypercube-equal", "two-round-triangle", "hypercube-lp"]
        assert [r.rounds for r in result] == [1, 2, 1]
        assert _builds(obs, "stats.build") == 1
        assert _builds(obs, "plan.build") == 2


def _builds(obs, name):
    """How often ``name`` was observed, workers' observations included."""
    return obs.metrics.histogram(f"{name}.seconds").count


class TestWhatAWorkerKeepsBetweenCells:
    """A farm worker runs the in-process executor's step on a context of
    its own: one database, one statistics build and one oracle answer set,
    kept from one cell to that worker's next — so isolation costs a
    database per worker, not per cell, and changes nothing on a record."""

    GRID = TestOneDatabasePerWorkloadSpec.GRID
    WORKERS = 2

    def test_a_farmed_grid_builds_per_worker_not_per_cell(self):
        sweep = Sweep(skews=(0.0, 1.2), seeds=(0, 3), **self.GRID)
        cells = sweep.cells()
        assert len(cells) > 5 * 32      # 32 groups, 4 databases
        obs = Observation.create()
        farmed = sweep.run(cells=cells, obs=obs, max_workers=self.WORKERS)
        assert 4 <= _builds(obs, "data.generate") <= self.WORKERS * 4
        assert 16 <= _builds(obs, "stats.build") <= self.WORKERS * 32
        # A cell reports its own run once, not again at the parent.
        assert _builds(obs, "sweep.cell") == len(cells)
        serial = [measurements(r) for r in sweep.run(cells=cells)]
        assert [measurements(r) for r in farmed] == serial
        assert [measurements(run_cell(cell)) for cell in cells] == serial

    def test_a_shuffled_farmed_grid_agrees_with_the_sorted_one(self):
        sweep = Sweep(skews=(0.0, 1.2), algorithms=("hashjoin",), **self.GRID)
        cells = sweep.cells()
        shuffled = cells[::2] + cells[1::2]
        by_cell = {cell: measurements(record) for cell, record in zip(
            shuffled, sweep.run(cells=shuffled, max_workers=self.WORKERS))}
        assert [by_cell[cell] for cell in cells] == [
            measurements(r)
            for r in sweep.run(cells=cells, max_workers=self.WORKERS)]

    @pytest.mark.parametrize("executor", [
        dict(max_workers=2), dict(cell_timeout=60)])
    def test_a_failed_generation_does_not_stick_to_a_workers_slot(
        self, executor
    ):
        """The grid of ``test_failed_generation_fails_exactly_its_own_
        cells``: with one worker every good cell follows a failed build."""
        sweep = Sweep(**{**self.GRID, "m_values": (50, 20), "rounds": 1},
                      skews=(0.0,), domain=6,
                      algorithms=("hashjoin", "hypercube-lp"))
        result = sweep.run(**executor)
        assert [measurements(r) for r in result] == \
            [measurements(r) for r in sweep.run()]
        assert [r.ok for r in result] == [False] * 8 + [True] * 8
        assert all("a space of 36" in r.status
                   for r in result.records[:8])

    def test_a_farmed_sweep_reports_the_layers_a_serial_one_does(self):
        """``--metrics`` of a farmed sweep used to hold the parent's own
        four histograms: a record's digest cannot be merged."""
        sweep = Sweep(query=JOIN_TEXT, workload="zipf", m_values=(100,),
                      p_values=(4,), verify=True)
        serial, farmed = Observation.create(), Observation.create()
        sweep.run(obs=serial)
        sweep.run(obs=farmed, max_workers=self.WORKERS)
        layers = set(serial.metrics.histograms)
        assert {"data.generate.seconds", "stats.build.seconds",
                "plan.build.seconds", "engine.route.seconds",
                "rounds.verify.seconds"} <= layers
        assert layers <= set(farmed.metrics.histograms)
        for name in ("engine.route.seconds", "rounds.compare.seconds"):
            assert farmed.metrics.histogram(name).count == \
                serial.metrics.histogram(name).count
        assert farmed.metrics.counters.keys() == serial.metrics.counters.keys()
        # Spans stop at the process boundary.
        assert not farmed.tracer.finished_spans("sweep.cell")


class TestOneOracleEvaluationPerDatabase:
    """A verified serial sweep evaluates the sequential oracle once per
    database and compares in every cell; the oracle lives as long as the
    database is the one in use."""

    GRID = dict(query=JOIN_TEXT, workload="worst", m_values=(30,),
                p_values=(4, 8),
                algorithms=("hashjoin", "hypercube-lp", "skew-join"))

    @pytest.fixture
    def oracle_calls(self, monkeypatch):
        """The databases the sequential oracle was evaluated on (the
        servers' fingerprints do not come this way)."""
        calls, real = [], executor.Oracle.__init__

        def counting(oracle, query, db, obs=None):
            calls.append(db)
            real(oracle, query, db, obs)

        monkeypatch.setattr(executor.Oracle, "__init__", counting)
        return calls

    @pytest.fixture
    def listed(self, monkeypatch):
        """The databases the oracle listed the answers of."""
        calls, real = [], executor.evaluate

        def counting(query, db):
            calls.append(db)
            return real(query, db)

        monkeypatch.setattr(executor, "evaluate", counting)
        return calls

    def test_one_evaluation_for_six_cells(self, oracle_calls, listed):
        result = Sweep(verify=True, **self.GRID).run()
        assert len(result) == 6
        assert all(r.ok and r.complete is True and r.answer_count == 900
                   for r in result)
        assert len(oracle_calls) == 1
        # An acyclic query is verified by fingerprint: no answer listed.
        assert listed == []

    def test_one_evaluation_per_database(self, oracle_calls):
        sweep = Sweep(verify=True, **{**self.GRID, "m_values": (20, 30)})
        assert all(r.complete is True for r in sweep.run())
        assert [db.relation("S1").cardinality for db in oracle_calls] == \
            [20, 30]

    def test_an_experiment_evaluates_once(self, oracle_calls):
        records = Sweep(JOIN_TEXT, workload="worst", m_values=(30,),
                        p_values=(4,), algorithms="applicable",
                        verify=True).run()
        assert len(records) > 1 and all(r.complete is True for r in records)
        assert len(oracle_calls) == 1

    def test_unverified_sweep_never_evaluates(self, oracle_calls):
        result = Sweep(compute_answers=True, **self.GRID).run()
        assert all(r.complete is None and r.answer_count == 900
                   for r in result)
        assert oracle_calls == []

    def test_shuffled_and_farmed_grids_agree(self):
        sweep = Sweep(verify=True, **{**self.GRID, "m_values": (20, 30)})
        cells = sweep.cells()
        serial = [measurements(r) for r in sweep.run(cells=cells)]
        shuffled = cells[::2] + cells[1::2]
        by_cell = {cell: measurements(record) for cell, record in
                   zip(shuffled, sweep.run(cells=shuffled))}
        assert [by_cell[cell] for cell in cells] == serial
        farmed = sweep.run(cells=cells, max_workers=2)
        assert [measurements(r) for r in farmed] == serial

    def test_a_farmed_grid_evaluates_once_per_worker_and_database(self):
        """Read from the merged histograms: ``oracle_calls`` cannot see
        into a worker."""
        sweep = Sweep(verify=True, **{**self.GRID, "m_values": (20, 30)})
        obs = Observation.create()
        result = sweep.run(obs=obs, max_workers=2)
        assert len(result) == 12 and all(r.complete is True for r in result)
        assert 2 <= _builds(obs, "rounds.verify") <= 2 * 2
        assert _builds(obs, "rounds.compare") == 12

    def test_a_raising_oracle_fails_the_verifying_cells_of_its_database(
        self, monkeypatch
    ):
        real = fingerprint_module.fingerprint

        def flaky(query, relations, tagged=False):
            if not tagged and relations["S1"].shape[1] == 20:
                raise RuntimeError("oracle out of memory")
            return real(query, relations, tagged)

        monkeypatch.setattr(fingerprint_module, "fingerprint", flaky)
        grid = {**self.GRID, "m_values": (20, 30)}
        cells = Sweep(verify=True, **grid).cells() + \
            Sweep(compute_answers=True, **grid).cells()
        records = execute_cells(cells)
        assert len(records) == 24
        for cell, record in zip(cells, records):
            if cell.verify and cell.m == 20:
                assert record.status == \
                    "failed:RuntimeError: oracle out of memory"
            else:
                assert record.ok and record.answer_count == cell.m ** 2
                assert record.complete is (True if cell.verify else None)

    @pytest.mark.parametrize("max_workers", [None, 2])
    def test_a_failed_oracle_is_not_tried_again_on_its_database(
        self, monkeypatch, max_workers
    ):
        """At m = 10^6 each verifying cell spent 0.75 s failing the same
        allocation; now the first failure on a database is every cell's."""
        calls = []

        def out_of_memory(query, db, obs):
            calls.append(db.relation("S1").cardinality)
            raise MemoryError("no room for the answers")

        monkeypatch.setattr(experiment_module, "Oracle", out_of_memory)
        grid = {**self.GRID, "m_values": (20, 30)}
        cells = Sweep(verify=True, **grid).cells() + \
            Sweep(compute_answers=True, **grid).cells()
        records = execute_cells(cells, max_workers=max_workers)
        for cell, record in zip(cells, records):
            if cell.verify:
                assert record.status == \
                    "failed:MemoryError: no room for the answers"
            else:
                assert record.ok and record.answer_count == cell.m ** 2
        if max_workers is None:     # a worker's calls are its own
            assert calls == [20, 30]

    def test_answers_are_held_no_longer_than_their_database(
        self, monkeypatch
    ):
        made, real = [], executor.Oracle

        def tracked(query, db, obs):
            oracle = real(query, db, obs)
            made.append(weakref.ref(oracle))
            return oracle

        monkeypatch.setattr(experiment_module, "Oracle", tracked)
        alive_at_each_record = []
        sweep = Sweep(verify=True, **{**self.GRID, "m_values": (20, 30)})
        result = sweep.run(progress=lambda record: alive_at_each_record.append(
            [ref() is not None for ref in made]))
        assert all(r.complete is True for r in result)
        # Six cells on the first database, then six on the second: the
        # first oracle is gone by the time the second is in use.
        assert alive_at_each_record == [[True]] * 6 + [[False, True]] * 6
        assert [ref() for ref in made] == [None, None]


class TestColumnHashesPerDatabase:
    """A context hashes each column of its database once per seed and
    salt, whichever cell routes it, and drops the hashes with the
    database."""

    GRID = dict(query=JOIN_TEXT, workload="uniform", m_values=(200, 300),
                p_values=(8, 27),
                algorithms=("hypercube-lp", "hypercube-equal", "hashjoin"))

    def test_a_sweep_evaluates_each_column_once(self, monkeypatch):
        evaluated, real = [], hashing.HashFamily.raw_column

        def counting(family, salt, values):
            address = values.__array_interface__["data"][0]
            evaluated.append((family.seed, salt, address, len(values)))
            return real(family, salt, values)

        monkeypatch.setattr(hashing.HashFamily, "raw_column", counting)
        result = Sweep(**self.GRID).run()
        assert len(result) == 12 and all(r.ok for r in result)
        assert len(set(evaluated)) == len(evaluated) > 0
        # Without a context every cell hashes its columns again.
        cells = Sweep(**self.GRID).cells()
        evaluated.clear()
        assert [measurements(run_cell(cell)) for cell in cells] == \
            [measurements(r) for r in result]
        assert len(set(evaluated)) < len(evaluated)

    def test_a_context_drops_its_hashes_with_its_database(self):
        context = SharedContext()
        cells = Sweep(**self.GRID).cells()
        first = [cell for cell in cells if cell.m == 200]
        context.step(first[0])
        db = context.build(first[0].catalog)[1]
        held = weakref.ref(context.using(db).hashes)
        assert len(held()) > 0
        for cell in first[1:]:
            context.step(cell)
        assert context.using(db).hashes is held()
        other = next(cell for cell in cells if cell.m == 300)
        context.step(other)
        gc.collect()
        assert held() is None
        assert len(context.using(context.build(other.catalog)[1]).hashes) > 0


class TestRecordSchema:
    def _record(self):
        return RunRecord(
            query=JOIN_TEXT, workload="zipf", m=10, skew=1.0, seed=0,
            domain=40, p=4,
            algorithm="hashjoin", algorithm_name="hashjoin", engine="batched",
            predicted_load_bits=100.0, lower_bound_bits=50.0,
            max_load_bits=120.0, max_load_tuples=12,
            replication_rate=1.0, balance=1.5, wall_seconds=0.01,
        )

    def test_roundtrip(self):
        record = self._record()
        clone = RunRecord.from_dict(record.to_dict())
        assert clone == record

    def test_to_dict_is_asdict_plus_the_ratios(self):
        """Built from the field tuple, not by ``asdict``'s recursive copy:
        same keys, same order, same values — for an observed, an unobserved
        and a failed record."""
        cell = Cell(query=JOIN_TEXT, workload="zipf", m=80, skew=1.0, seed=0,
                    p=4, algorithm="hypercube-lp")
        observed = run_cell(replace(cell, observe=True))
        two_rounds = run_cell(replace(
            cell, query="q(x,y,z) :- R(x,y), S(y,z), T(z,x)", rounds=2,
            algorithm="auto"))
        assert two_rounds.rounds == 2 and len(two_rounds.round_load_bits) == 2
        failed = Sweep(query=JOIN_TEXT, workload="uniform", m_values=(50,),
                       p_values=(4,), domain=6,
                       algorithms=("hashjoin",)).run().records[0]
        assert observed.metrics and not failed.ok
        for record in (observed, two_rounds, run_cell(cell), failed,
                       self._record()):
            payload = record.to_dict()
            expected = asdict(record) | {
                "optimality_gap": record.optimality_gap,
                "prediction_error": record.prediction_error,
            }
            assert payload == expected
            assert list(payload) == list(expected)
            assert payload["metrics"] is record.metrics
            assert payload["round_load_bits"] is record.round_load_bits
            assert json.loads(json.dumps(payload)) == \
                json.loads(json.dumps(expected))

    def test_derived_ratios(self):
        record = self._record()
        assert record.optimality_gap == pytest.approx(2.4)
        assert record.prediction_error == pytest.approx(1.2)

    def test_missing_field_rejected(self):
        payload = self._record().to_dict()
        del payload["max_load_bits"]
        with pytest.raises(RecordError, match="missing"):
            validate_record(payload)

    def test_unknown_field_rejected(self):
        payload = self._record().to_dict()
        payload["surprise"] = 1
        with pytest.raises(RecordError, match="unknown"):
            validate_record(payload)

    def test_wrong_type_rejected(self):
        payload = self._record().to_dict()
        payload["p"] = "four"
        with pytest.raises(RecordError, match="type"):
            validate_record(payload)

    def test_bool_is_not_an_int(self):
        payload = self._record().to_dict()
        payload["m"] = True
        with pytest.raises(RecordError, match="bool"):
            validate_record(payload)

    def test_null_only_where_nullable(self):
        payload = self._record().to_dict()
        payload["answer_count"] = None  # fine: nullable
        validate_record(payload)
        payload["engine"] = None
        with pytest.raises(RecordError, match="null"):
            validate_record(payload)

    def test_csv_renders_none_as_empty(self):
        text = records_to_csv([self._record()])
        row = text.splitlines()[1]
        assert row.endswith(",,,2.4,1.2") or ",," in row

"""Tests for the pinned bench suite (repro.api.bench) and ``repro bench``."""

import copy
import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.api import (
    BENCH_SUITES,
    BenchError,
    RunRecord,
    Suite,
    Sweep,
    compare_bench,
    run_suite,
    suite_gate_failures,
    validate_bench,
)
from repro.api.bench import regrets
from repro.cli import main

REPO = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def document():
    return run_suite("core", quick=True)


@pytest.fixture(scope="module")
def sketch_document():
    return run_suite("sketch", quick=True)


@pytest.fixture(scope="module")
def rounds_document():
    return run_suite("rounds", quick=True)


class TestRunBench:
    def test_document_is_schema_valid(self, document):
        validate_bench(document)

    def test_entries_cover_the_quick_grid(self, document):
        # 1 query x 1 p x 1 m x 2 skews x 1 seed, every applicable algorithm.
        assert len(document["entries"]) >= 2 * 2
        skews = {entry["skew"] for entry in document["entries"]}
        assert skews == {0.0, 1.2}
        ids = [entry["id"] for entry in document["entries"]]
        assert len(ids) == len(set(ids))

    def test_summary_ratios_are_sane(self, document):
        summary = document["summary"]
        assert summary["max_optimality_gap"] >= summary["mean_optimality_gap"] >= 1.0
        assert summary["planner_worst_regret"] >= summary["planner_mean_regret"] >= 1.0

    def test_quick_grid_is_deterministic_where_it_should_be(self, document):
        # Loads and gaps are seeded -> a rerun reproduces them exactly.
        rerun = run_suite("core", quick=True)
        first = {entry["id"]: entry for entry in document["entries"]}
        for entry in rerun["entries"]:
            assert entry["max_load_bits"] == first[entry["id"]]["max_load_bits"]
            assert entry["optimality_gap"] == first[entry["id"]]["optimality_gap"]

    def test_runs_the_grid_once_and_records_no_wall_clock(self, document):
        assert "wall_seconds" not in document["entries"][0]
        assert list(document) == ["schema_version", "suite", "quick", "query",
                                  "grid", "entries", "summary"]
        assert document["schema_version"] == 2


@pytest.mark.parametrize("fixture, suite", [
    ("document", "core"),
    ("sketch_document", "sketch"),
    ("rounds_document", "rounds"),
])
def test_quick_run_reproduces_the_committed_baseline(request, fixture, suite):
    """``BENCH_<suite>.json`` is what the code produces today: same entry
    ids, same deterministic numbers, same key order — the check ``repro
    bench --baseline`` makes, so a stale baseline fails here too."""
    fresh = json.loads(json.dumps(request.getfixturevalue(fixture)))
    committed = json.loads((REPO / f"BENCH_{suite}.json").read_text())
    assert committed["quick"] is True
    assert compare_bench(committed, fresh) == []


def test_regrets_are_per_cell_on_the_planner_cost_scale():
    def cell(algorithm, predicted, measured, p=8, rounds=1):
        return RunRecord(
            query="q", workload="zipf", m=10, skew=1.0, seed=0, domain=10,
            p=p, algorithm=algorithm, algorithm_name=algorithm,
            engine="batched", predicted_load_bits=predicted,
            lower_bound_bits=1.0, max_load_bits=measured, max_load_tuples=1,
            replication_rate=1.0, balance=1.0, wall_seconds=0.0,
            rounds=rounds,
        )

    assert regrets([
        # p=8: the pick (lowest predicted) measures 30 against a best of 20.
        cell("a", predicted=10.0, measured=30.0),
        cell("b", predicted=20.0, measured=20.0),
        # p=16: two rounds at 8 cost 16, more than one round at 12.
        cell("one", predicted=12.0, measured=12.0, p=16),
        cell("two", predicted=8.0, measured=8.0, p=16, rounds=2),
    ]) == [1.5, 1.0]


def test_planner_regret_on_a_skew_sweep():
    """E13: across m = 600, p in {8, 32}, skew in {0, 1, 2} the planner's
    pick measures within 1.59x of the best algorithm (worst cell: 1.275)."""
    result = Sweep(
        "q(x, y, z) :- S1(x, z), S2(y, z)", workload="zipf", p_values=(8, 32),
        m_values=(600,), skews=(0.0, 1.0, 2.0), algorithms="applicable",
    ).run()
    assert len(result.by_cell()) == 6 and all(r.ok for r in result)
    assert max(regrets(result.records)) <= 1.59


class TestValidateBench:
    def test_rejects_non_object(self):
        with pytest.raises(BenchError):
            validate_bench([])

    def test_rejects_missing_field(self, document):
        broken = copy.deepcopy(document)
        del broken["grid"]
        with pytest.raises(BenchError, match="grid"):
            validate_bench(broken)

    def test_rejects_empty_entries(self, document):
        broken = copy.deepcopy(document)
        broken["entries"] = []
        with pytest.raises(BenchError, match="no entries"):
            validate_bench(broken)

    def test_rejects_duplicate_entry_ids(self, document):
        broken = copy.deepcopy(document)
        broken["entries"].append(broken["entries"][0])
        with pytest.raises(BenchError, match="duplicate"):
            validate_bench(broken)

    def test_rejects_bad_entry_type(self, document):
        broken = copy.deepcopy(document)
        broken["entries"][0]["max_load_bits"] = "a lot"
        with pytest.raises(BenchError, match="max_load_bits"):
            validate_bench(broken)

    def test_rejects_incomplete_summary(self, document):
        broken = copy.deepcopy(document)
        del broken["summary"]["planner_worst_regret"]
        with pytest.raises(BenchError, match="planner_worst_regret"):
            validate_bench(broken)


    @pytest.mark.parametrize("fixture, column, number", [
        ("sketch_document", "stats", "sketch_min_recall"),
        ("rounds_document", "rounds", "two_round_min_gap"),
    ])
    def test_rejects_a_document_missing_its_suites_own_fields(
            self, request, fixture, column, number):
        document = request.getfixturevalue(fixture)
        broken = copy.deepcopy(document)
        del broken["entries"][0][column]
        with pytest.raises(BenchError, match=column):
            validate_bench(broken)
        broken = copy.deepcopy(document)
        del broken["summary"][number]
        with pytest.raises(BenchError, match=number):
            validate_bench(broken)

    def test_rejects_an_unknown_suite(self, document):
        broken = copy.deepcopy(document)
        broken["suite"] = "micro"
        with pytest.raises(BenchError, match="unknown bench suite 'micro'"):
            validate_bench(broken)


class TestCompareBench:
    def test_identical_documents_pass(self, document):
        assert compare_bench(document, document) == []

    def test_optimality_gap_regression_is_caught(self, document):
        # One in a million: no tolerance, the numbers are deterministic.
        worse = copy.deepcopy(document)
        entry = next(e for e in worse["entries"]
                     if e["optimality_gap"] is not None)
        entry["optimality_gap"] *= 1 + 1e-6
        failures = compare_bench(document, worse)
        assert len(failures) == 1
        assert f"entries[{entry['id']}].optimality_gap" in failures[0]

    def test_planner_regret_regression_is_caught(self, document):
        worse = copy.deepcopy(document)
        worse["summary"]["planner_worst_regret"] *= 1.5
        failures = compare_bench(document, worse)
        assert any("planner" in failure for failure in failures)

    def test_float_noise_below_one_in_a_billion_passes(self, document):
        noisy = copy.deepcopy(document)
        noisy["summary"]["mean_optimality_gap"] *= 1 + 1e-12
        assert compare_bench(document, noisy) == []

    def test_key_order_and_list_length_are_one_line_each(self, document):
        current = copy.deepcopy(document)
        current["summary"] = dict(reversed(current["summary"].items()))
        current["entries"].pop()
        failures = compare_bench(document, current)
        assert [line.split(":")[0] for line in failures] == [
            "document.entries", "document.summary",
        ]

    def test_an_int_must_be_equal(self, document):
        current = copy.deepcopy(document)
        current["entries"][0]["p"] += 1
        failures = compare_bench(document, current)
        assert len(failures) == 1
        assert f"entries[{document['entries'][0]['id']}].p" in failures[0]

    def test_renamed_entries_are_differences(self, document):
        current = copy.deepcopy(document)
        for entry in current["entries"]:
            entry["id"] = "other-" + entry["id"]
        failures = compare_bench(document, current)
        assert len(failures) == len(document["entries"])
        assert all(".id: 'other-" in failure for failure in failures)

    def test_a_bool_is_not_an_int(self, document):
        current = copy.deepcopy(document)
        current["quick"] = int(current["quick"])
        assert compare_bench(document, current) == [
            "document.quick: 1 vs baseline True",
        ]

    def test_none_and_a_number_differ(self, document):
        baseline = copy.deepcopy(document)
        entry = next(e for e in baseline["entries"]
                     if e["optimality_gap"] is not None)
        current = copy.deepcopy(baseline)
        next(e for e in current["entries"]
             if e["id"] == entry["id"])["optimality_gap"] = None
        failures = compare_bench(baseline, current)
        assert failures == [
            f"document.entries[{entry['id']}].optimality_gap: None "
            f"vs baseline {entry['optimality_gap']!r}",
        ]

    def test_suite_mismatch_is_an_error(self, document):
        other = copy.deepcopy(document)
        other["suite"] = "micro"
        with pytest.raises(BenchError, match="suite"):
            compare_bench(document, other)


    def test_grid_mismatch_is_an_error(self, document):
        full = run_suite("core")
        with pytest.raises(BenchError) as excinfo:
            compare_bench(document, full)
        message = str(excinfo.value)
        assert "grid" in message
        assert repr(document["grid"]) in message
        assert repr(full["grid"]) in message

    def test_query_mismatch_is_an_error(self, document):
        other = copy.deepcopy(document)
        other["query"] = "q(x, y) :- R(x, y)"
        with pytest.raises(BenchError, match="query"):
            compare_bench(document, other)


class TestSketchBench:
    def test_document_is_schema_valid(self, sketch_document):
        validate_bench(sketch_document)
        assert sketch_document["suite"] == "sketch"

    def test_entries_cover_both_stats_methods(self, sketch_document):
        methods = {entry["stats"] for entry in sketch_document["entries"]}
        assert methods == {"exact", "sketch"}
        # Same grid for both, so the split is exactly half and half.
        exact = [e for e in sketch_document["entries"]
                 if e["stats"] == "exact"]
        assert len(exact) * 2 == len(sketch_document["entries"])

    def test_sketch_entries_get_an_id_suffix(self, sketch_document):
        for entry in sketch_document["entries"]:
            assert entry["id"].endswith("-sketch") == (
                entry["stats"] == "sketch"
            )

    def test_fidelity_points_cover_the_grid(self, sketch_document):
        grid = sketch_document["grid"]
        expected = (
            len(grid["m_values"]) * len(grid["skews"])
            * len(grid["seeds"]) * len(grid["p_values"])
        )
        assert len(sketch_document["fidelity"]) == expected

    def test_gates_pass_on_a_real_run(self, sketch_document):
        assert suite_gate_failures(sketch_document) == []
        summary = sketch_document["summary"]
        assert summary["sketch_min_recall"] == 1.0
        assert summary["merge_bit_identical"] == 1.0
        assert summary["regret_ratio"] <= 1.10

    def test_recall_gate_triggers(self, sketch_document):
        doctored = copy.deepcopy(sketch_document)
        doctored["summary"]["sketch_min_recall"] = 0.9
        failures = suite_gate_failures(doctored)
        assert any("missed true heavy hitters" in f for f in failures)

    def test_merge_gate_triggers(self, sketch_document):
        doctored = copy.deepcopy(sketch_document)
        doctored["summary"]["merge_bit_identical"] = 0.0
        failures = suite_gate_failures(doctored)
        assert any("bit-identical" in f for f in failures)

    def test_regret_gate_triggers(self, sketch_document):
        doctored = copy.deepcopy(sketch_document)
        doctored["summary"]["regret_ratio"] = 1.5
        failures = suite_gate_failures(doctored)
        assert any("regret ratio" in f for f in failures)

    def test_self_compare_passes(self, sketch_document):
        assert compare_bench(sketch_document, sketch_document) == []

    def test_core_baseline_is_rejected(self, document, sketch_document):
        with pytest.raises(BenchError, match="suite"):
            compare_bench(document, sketch_document)


class TestRoundsBench:
    def test_document_is_schema_valid(self, rounds_document):
        validate_bench(rounds_document)
        assert rounds_document["suite"] == "rounds"

    def test_entries_carry_round_fields(self, rounds_document):
        seen_rounds = set()
        for entry in rounds_document["entries"]:
            seen_rounds.add(entry["rounds"])
            if entry["rounds"] > 1:
                assert len(entry["round_load_bits"]) == entry["rounds"]
            else:
                assert entry["round_load_bits"] is None
        # The suite runs the one-round field and the two-round triangle
        # side by side on every cell.
        assert seen_rounds == {1, 2}

    def test_gates_pass_on_a_real_run(self, rounds_document):
        assert suite_gate_failures(rounds_document) == []
        summary = rounds_document["summary"]
        assert summary["two_round_min_speedup_predicted"] > 1.0
        assert summary["two_round_min_speedup_measured"] > 1.0
        assert summary["two_round_min_gap"] >= 1.0
        assert summary["planner_worst_regret"] == pytest.approx(1.0)

    def test_speedup_gate_triggers(self, rounds_document):
        doctored = copy.deepcopy(rounds_document)
        doctored["summary"]["two_round_min_speedup_measured"] = 0.8
        failures = suite_gate_failures(doctored)
        assert any("measured" in f for f in failures)

    def test_gap_gate_triggers(self, rounds_document):
        doctored = copy.deepcopy(rounds_document)
        doctored["summary"]["two_round_min_gap"] = 0.5
        failures = suite_gate_failures(doctored)
        assert any("lower bound" in f for f in failures)

    def test_self_compare_passes(self, rounds_document):
        assert compare_bench(rounds_document, rounds_document) == []

    def test_sketch_baseline_is_rejected(self, sketch_document,
                                         rounds_document):
        with pytest.raises(BenchError, match="suite"):
            compare_bench(rounds_document, sketch_document)


class TestSuiteDispatch:
    def test_registry_names_the_three_suites(self):
        assert list(BENCH_SUITES) == ["core", "sketch", "rounds"]

    def test_unknown_suite_lists_choices(self):
        with pytest.raises(BenchError) as excinfo:
            run_suite("quantum")
        message = str(excinfo.value)
        for name in BENCH_SUITES:
            assert name in message

    def test_gate_dispatch_by_document_suite(self, document, sketch_document,
                                             rounds_document):
        assert suite_gate_failures(document) == []
        assert suite_gate_failures(sketch_document) == []
        assert suite_gate_failures(rounds_document) == []
        doctored = copy.deepcopy(rounds_document)
        doctored["summary"]["two_round_min_speedup_predicted"] = 0.5
        assert suite_gate_failures(doctored) != []


    def test_a_new_suite_is_one_more_row(self, monkeypatch, tmp_path):
        def count_entries(document, records, grid, obs):
            document["summary"]["entry_count"] = len(records)

        monkeypatch.setitem(BENCH_SUITES, "toy", replace(
            BENCH_SUITES["core"],
            name="toy",
            quick_grid=dict(workload="uniform", p_values=(4,),
                            m_values=(60,), skews=(0.0,), seeds=(1,)),
            entry_columns={"engine": ((str,), False)},
            summary_numbers=("entry_count",),
            extend=count_entries,
            gates=(("entry_count", lambda count: count >= 2,
                    "only {value!r} entries"),),
        ))
        document = run_suite("toy", quick=True)
        validate_bench(document)
        assert document["suite"] == "toy"
        assert {entry["engine"] for entry in document["entries"]} == {"batched"}
        assert document["summary"]["entry_count"] == len(document["entries"])
        assert suite_gate_failures(document) == []
        assert compare_bench(document, document) == []

        doctored = copy.deepcopy(document)
        doctored["summary"]["entry_count"] = 1
        assert suite_gate_failures(doctored) == ["only 1 entries"]
        del doctored["summary"]["entry_count"]
        with pytest.raises(BenchError, match="entry_count"):
            validate_bench(doctored)

        output = tmp_path / "BENCH_toy.json"
        assert main(["bench", "--suite", "toy", "--quick",
                     "--output", str(output), "-q"]) == 0
        assert json.loads(output.read_text())["suite"] == "toy"


class TestBenchCommand:
    def test_emits_schema_valid_document(self, tmp_path, capsys):
        output = tmp_path / "BENCH_core.json"
        assert main(["bench", "--quick", "--output", str(output), "-q"]) == 0
        validate_bench(json.loads(output.read_text()))

    def test_passes_against_its_own_baseline(self, tmp_path):
        output = tmp_path / "BENCH_core.json"
        assert main(["bench", "--quick", "--output", str(output), "-q"]) == 0
        assert main([
            "bench", "--quick", "--output", str(tmp_path / "second.json"),
            "--baseline", str(output), "-q",
        ]) == 0

    def test_exits_nonzero_on_regression(self, tmp_path, capsys):
        # A drift the old 20 % tolerance let through: one in a million.
        baseline = json.loads((REPO / "BENCH_core.json").read_text())
        entry = next(e for e in baseline["entries"]
                     if e["optimality_gap"] is not None)
        entry["optimality_gap"] *= 1 + 1e-6
        doctored = tmp_path / "doctored.json"
        doctored.write_text(json.dumps(baseline))
        assert main([
            "bench", "--quick", "--output", str(tmp_path / "out.json"),
            "--baseline", str(doctored), "-q",
        ]) == 1
        err = capsys.readouterr().err
        assert "REGRESSION" in err
        assert f"entries[{entry['id']}].optimality_gap" in err

    def test_missing_baseline_is_a_clean_error(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot read baseline"):
            main([
                "bench", "--quick", "--output", str(tmp_path / "o.json"),
                "--baseline", str(tmp_path / "missing.json"), "-q",
            ])

    def test_stdout_output(self, capsys):
        assert main(["bench", "--quick", "--output", "-", "-q"]) == 0
        validate_bench(json.loads(capsys.readouterr().out))

    def test_sketch_suite_emits_gated_document(self, tmp_path):
        output = tmp_path / "BENCH_sketch.json"
        assert main([
            "bench", "--suite", "sketch", "--quick",
            "--output", str(output), "-q",
        ]) == 0
        payload = json.loads(output.read_text())
        validate_bench(payload)
        assert payload["suite"] == "sketch"
        assert suite_gate_failures(payload) == []

    def test_sketch_suite_fails_on_doctored_baseline(self, tmp_path, capsys):
        output = tmp_path / "BENCH_sketch.json"
        assert main([
            "bench", "--suite", "sketch", "--quick",
            "--output", str(output), "-q",
        ]) == 0
        baseline = json.loads(output.read_text())
        baseline["fidelity"][0]["max_rel_error"] += 1e-3
        doctored = tmp_path / "doctored.json"
        doctored.write_text(json.dumps(baseline))
        assert main([
            "bench", "--suite", "sketch", "--quick",
            "--output", str(tmp_path / "second.json"),
            "--baseline", str(doctored), "-q",
        ]) == 1
        assert "REGRESSION" in capsys.readouterr().err

    def test_rounds_suite_emits_gated_document(self, tmp_path):
        output = tmp_path / "BENCH_rounds.json"
        assert main([
            "bench", "--suite", "rounds", "--quick",
            "--output", str(output), "-q",
        ]) == 0
        payload = json.loads(output.read_text())
        validate_bench(payload)
        assert payload["suite"] == "rounds"
        assert suite_gate_failures(payload) == []

    def test_unknown_suite_rejected(self):
        with pytest.raises(SystemExit):
            main(["bench", "--suite", "quantum", "--quick", "-q"])

    def test_baseline_from_another_grid_is_a_clean_error(self, tmp_path,
                                                         document):
        full = run_suite("core")
        baseline = tmp_path / "full.json"
        baseline.write_text(json.dumps(full))
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "--quick", "--output", str(tmp_path / "o.json"),
                  "--baseline", str(baseline), "-q"])
        message = str(excinfo.value)
        assert "\n" not in message and "grid" in message
        assert repr(full["grid"]) in message
        assert repr(document["grid"]) in message

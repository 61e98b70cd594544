"""Self-test of the benchmark harness (collected by the root ``pytest``).

Not a measurement: ``--quick`` sizes, one unit per run.  It pins what
later PRs rely on — every declared metric is reported for the workloads
it applies to, the checker refuses wrong outputs, and the comparer tells
a regression from an unresolved difference.
"""

from __future__ import annotations

import copy
import json

import pytest

from repro.api import Sweep

from perf import REPO, check, compare, harness, run
from perf.sweeps import JOIN

SHELL = {"uniform-scale", "zipf-skew", "worst-answers"}

#: Per-layer metrics that must be non-zero exactly on these workloads.
APPLIES = {
    "engine.route_s": SHELL,
    "data.generate_s": SHELL,
    "planner.plan_s": SHELL,
    "records.serialize_s": SHELL,
    "trace.coverage": SHELL,
    "rounds.run_s": {"uniform-scale"},
    "sketch.build_s": {"zipf-skew"},
    "seq.oracle_s": {"worst-answers"},
    "engine.local_join_s": {"worst-answers"},
    "service.job_latency_p50_s": {"serve-mixed"},
    "service.sweep_run_p50_s": {"serve-mixed"},
}


def test_quick_set_reports_every_declared_metric(tmp_path):
    declared = run.declaration()
    before = (REPO / "BENCHMARK.json").read_bytes()
    out = tmp_path / "set.json"
    assert run.main(["--quick", "--seed", "0", "--out", str(out)]) == 0
    assert (REPO / "BENCHMARK.json").read_bytes() == before
    document = json.loads(out.read_text())
    assert document["quick"] is True
    layer_names = {metric["name"] for metric in declared["per_layer"]}
    for workload in declared["workloads"]:
        block = document["workloads"][workload["name"]]
        assert block["failed_share"] == 0, block["failures"]
        for metric in declared["end_to_end"]:
            assert block["end_to_end"][metric["name"]]["median"] > 0
        assert set(block["per_layer"]) == layer_names
        for name, where in APPLIES.items():
            value = block["per_layer"][name]["value"]
            assert (value > 0) == (workload["name"] in where), (workload, name, value)
    # A set compared with itself: nothing regresses.
    lines, regressed = compare.compare(document, document, declared)
    assert lines and not regressed


def test_driver_line_has_exactly_the_contract_keys(capsys):
    declared = run.declaration()
    assert run.main(["--workload", "serve-mixed", "--seed", "1", "--quick",
                     "--trace", "0"]) == 0
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 < line["attempted"]
    assert list(line["metrics"]) == [m["name"] for m in declared["end_to_end"]]
    assert all(entry["value"] > 0 for entry in line["metrics"].values())


def test_calibration_kernel_runs():
    assert harness.run_kernel() > 0


@pytest.fixture(scope="module")
def records():
    result = Sweep(query=JOIN, workload="worst", m_values=(20,),
                   p_values=(4,), verify=True).run()
    return [record.to_dict() for record in result]


def test_checker_accepts_what_the_program_wrote(records):
    assert check.check_records(records, verify=True,
                               expected_count=len(records)) == []


@pytest.mark.parametrize("doctor, complaint", [
    (lambda r: r.update(status="failed:boom"), "status"),
    (lambda r: r.update(max_load_bits=r["lower_bound_bits"] / 2), "lower bound"),
    (lambda r: r.update(answer_count=r["answer_count"] + 1), "answer_count"),
    (lambda r: r.update(complete=False), "complete"),
    (lambda r: r.pop("engine"), "schema"),
])
def test_checker_rejects_a_doctored_record(records, doctor, complaint):
    doctored = copy.deepcopy(records)
    doctor(doctored[1])
    failures = check.check_records(doctored, verify=True)
    assert len(failures) == 1 and complaint in failures[0], failures


def test_checker_counts_missing_records_and_wrong_oracle_count(records):
    assert len(check.check_records(records[:-2], verify=True,
                                   expected_count=len(records))) == 2
    oracle = {check.data_key(records[0]): records[0]["answer_count"] + 1}
    assert len(check.check_records(records, verify=True,
                                   expected_answers=oracle)) == len(records)


def test_checker_rejects_a_served_sweep_with_failures(records):
    spec = {"p": 4, "m": 20}
    good = {"count": len(records), "failed": 0, "records": records}
    assert check.payload_problem("sweep", good, spec) is None
    assert check.payload_problem("sweep", {**good, "failed": 1}, spec)
    assert check.payload_problem("plan", {"chosen": "x"}, spec).startswith("malformed")


def test_comparer_tells_regression_from_unresolved():
    assert compare.classify([10.0, 10.1, 9.9], [12.0, 12.1, 11.9],
                            "lower", 0.10)[0] == "regression"
    # The same +20% median, but the runs overlap: not settled.
    assert compare.classify([10.0, 12.5, 9.0], [12.0, 9.5, 13.0],
                            "lower", 0.10)[0] == "unresolved"
    # ... or the machine itself ran at another speed.
    assert compare.classify([10.0, 10.1, 9.9], [12.0, 12.1, 11.9],
                            "lower", 0.10, calibration_gap=0.2)[0] == "unresolved"
    assert compare.classify([10.0, 10.1, 9.9], [10.2, 10.0, 10.3],
                            "lower", 0.10)[0] == "ok"
    assert compare.classify([10.0, 10.1, 9.9], [8.0, 8.1, 7.9],
                            "lower", 0.10)[0] == "improved"
    assert compare.classify([10.0, 10.1, 9.9], [8.0, 8.1, 7.9],
                            "higher", 0.10)[0] == "regression"

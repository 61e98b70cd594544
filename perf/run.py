"""Run the timing benchmark: ``python perf/run.py --seed 0``.

Two ways in, one measurement underneath:

* ``--workload NAME --seed N --seconds S --trace 0|1`` — one run of one
  workload, as the PR driver calls it.  The last line of standard output
  is one JSON object ``{"correct", "attempted", "failed", "metrics"}``
  holding every end-to-end metric (``--trace 0``) or every per-layer
  metric (``--trace 1``) that ``BENCHMARK.json`` declares.
* without ``--workload`` — a full *set*: ``--reps`` end-to-end runs of
  each workload, round-robin across workloads, then one traced run each;
  medians with min/max go to standard output and the whole set to
  ``--out`` for ``perf/compare.py``.

Exit status is non-zero when any output failed its check.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

if __package__ in (None, ""):  # run as a script: make ``perf`` importable
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perf import OUT, REPO, SRC  # noqa: E402
from perf.harness import RunResult, environment  # noqa: E402


def declaration() -> dict:
    """``BENCHMARK.json``: the one place workloads and metrics are named."""
    with open(REPO / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def run_once(name: str, seed: int, seconds: float, trace: bool,
             quick: bool = False) -> RunResult:
    # Imported here so that a checkout without the program fails the
    # pre-flight in main() with a message, not these imports with a trace.
    from perf import service, sweeps

    if name == "serve-mixed":
        return service.run(seed, seconds, quick, trace)
    if trace:
        return sweeps.run_traced(name, seed, seconds, quick)
    return sweeps.run_end_to_end(name, seed, seconds, quick)


def declared_metrics(result: RunResult, declared: list[dict],
                     applies_everywhere: bool) -> dict[str, dict]:
    """The run's value for every declared metric, by name.

    Every end-to-end metric applies to every workload.  A per-layer
    metric of a layer the workload never enters reads 0 (no work, no
    time); one that could not be measured reads ``null`` here and 0 on
    the driver's line, with the reason on standard error.
    """
    out = {}
    for metric in declared:
        name = metric["name"]
        if applies_everywhere and result.metrics.get(name) is None:
            raise KeyError(f"end-to-end metric {name} was not measured")
        out[name] = {"value": result.metrics.get(name, 0.0), "unit": metric["unit"]}
    return out


def print_metrics(workload: str, metrics: dict[str, dict]) -> None:
    for name, entry in metrics.items():
        value = "null" if entry["value"] is None else f"{entry['value']:.6g}"
        print(f"{workload:14s} {name:36s} {value:>14s} {entry['unit']}")


def single_run(args: argparse.Namespace, declared: dict) -> int:
    result = run_once(args.workload, args.seed, args.seconds, bool(args.trace),
                      args.quick)
    section = "per_layer" if args.trace else "end_to_end"
    metrics = declared_metrics(result, declared[section], not args.trace)
    print_metrics(args.workload, metrics)
    for key, value in result.notes.items():
        print(f"{args.workload:14s} {key}: {value}")
    for prefix, reason in result.reasons.items():
        print(f"perf: metrics {prefix}* not measured: {reason}", file=sys.stderr)
    for failure in result.failures:
        print(f"perf: FAILED {failure}", file=sys.stderr)
    if result.failures:
        print(f"perf: children's stderr ended:\n{result.stderr}", file=sys.stderr)
    for entry in metrics.values():
        if entry["value"] is None:
            entry["value"] = 0.0
    print(json.dumps({
        "correct": not result.failures,
        "attempted": result.attempted,
        "failed": min(len(result.failures), result.attempted),
        "metrics": metrics,
    }))
    return 1 if result.failures else 0


#: Full set: a run is repeated (at most MAX_RETRIES times per workload)
#: when its kernel time sits further than this from the median of the
#: workload's runs — the machine was another machine for that run.
DRIFT_TOLERANCE, MAX_RETRIES = 0.10, 2


def full_set(args: argparse.Namespace, declared: dict) -> int:
    names = [w["name"] for w in declared["workloads"]]
    if args.workloads:
        chosen = args.workloads.split(",")
        if set(chosen) - set(names):
            raise SystemExit(f"unknown workloads in {chosen}; choose from {names}")
        names = [name for name in names if name in chosen]
    env = environment()
    if env["noisy"]:
        print(f"perf: 1-min load {env['loadavg']} exceeds nproc {env['nproc']}: "
              f"this set is marked noisy", file=sys.stderr)

    def end_to_end_run(name: str) -> dict:
        result = run_once(name, args.seed, args.seconds, False, args.quick)
        return {
            "metrics": declared_metrics(result, declared["end_to_end"], True),
            "attempted": result.attempted, "failures": result.failures,
            "notes": result.notes, "stderr": result.stderr,
        }

    runs = {name: [] for name in names}
    for _ in range(args.reps):
        for name in names:
            runs[name].append(end_to_end_run(name))

    document = {
        "seed": args.seed, "seconds": args.seconds, "reps": args.reps,
        "quick": args.quick, "environment": env, "workloads": {},
    }
    failed = False
    for name in names:
        retries = 0
        while retries < MAX_RETRIES and not args.quick:
            kernel = [run["notes"]["calibration_s"] for run in runs[name]]
            middle = statistics.median(kernel)
            off = [i for i, k in enumerate(kernel)
                   if abs(k - middle) > DRIFT_TOLERANCE * middle]
            if not off:
                break
            runs[name][off[0]] = end_to_end_run(name)
            retries += 1
        block = document["workloads"][name] = {"end_to_end": {}}
        for metric in declared["end_to_end"]:
            samples = [run["metrics"][metric["name"]]["value"] for run in runs[name]]
            block["end_to_end"][metric["name"]] = {
                "unit": metric["unit"], "median": statistics.median(samples),
                "min": min(samples), "max": max(samples), "n": len(samples),
                "samples": samples,
            }
        attempted = sum(run["attempted"] for run in runs[name])
        failures = [f for run in runs[name] for f in run["failures"]]
        block.update({
            "attempted": attempted, "failures": failures,
            "failed_share": min(len(failures), attempted) / attempted,
            "calibration_s": statistics.median(
                run["notes"]["calibration_s"] for run in runs[name]),
            "retries": retries, "noisy": env["noisy"],
            "runs": [run["notes"] for run in runs[name]],
        })

        traced = run_once(name, args.seed, args.seconds, True, args.quick)
        block["per_layer"] = declared_metrics(traced, declared["per_layer"], False)
        block["per_layer_reasons"] = traced.reasons
        block["failures"] += traced.failures

        for key, entry in block["end_to_end"].items():
            print(f"{name:14s} {key:36s} {entry['median']:14.6g} {entry['unit']:6s}"
                  f" [{entry['min']:.6g} .. {entry['max']:.6g}] n={entry['n']}")
        print(f"{name:14s} {'failed_share':36s} {block['failed_share']:14.6g}"
              f"        ({len(block['failures'])} of {attempted})")
        print(f"{name:14s} {'calibration_s':36s} {block['calibration_s']:14.6g} s     "
              f" retries={retries}{' NOISY' if block['noisy'] else ''}")
        print_metrics(name, block["per_layer"])
        for failure in block["failures"]:
            failed = True
            print(f"perf: FAILED {name}: {failure}", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    out = Path(args.out) if args.out else OUT / f"set-seed{args.seed}.json"
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)
    print(f"perf: wrote {out}")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    declared = declaration()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0,
                        help="seeds the inputs: --seeds of every sweep, the job list")
    parser.add_argument("--seconds", type=float, default=declared["run_seconds"],
                        help="how long one run measures (default: run_seconds "
                             "of BENCHMARK.json)")
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes, one unit per run: a smoke test of the "
                             "harness, never a measurement")
    parser.add_argument("--workload", choices=[w["name"] for w in declared["workloads"]],
                        help="one run of this workload (the driver's entry)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 reports the per-layer metrics")
    parser.add_argument("--workloads", help="full set: comma-separated subset")
    parser.add_argument("--reps", type=int, default=3,
                        help="full set: end-to-end runs per workload")
    parser.add_argument("--out", help="full set: where to write it "
                                      "(default perf/out/set-seed<N>.json)")
    args = parser.parse_args(argv)
    if args.quick:
        args.seconds, args.reps = 0.0, 1
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perf: no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    return single_run(args, declared) if args.workload else full_set(args, declared)


if __name__ == "__main__":
    sys.exit(main())

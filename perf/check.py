"""The benchmark's correctness checker: every timed output is checked.

A fast wrong answer is not a result.  Each record a sweep wrote and each
payload the service returned goes through here; an output that fails
counts as a failed operation and makes the run exit non-zero.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.api import RecordError, validate_record


def data_key(record: Mapping[str, object]) -> tuple:
    """What determines a record's database, hence its answer count."""
    return tuple(record[name] for name in
                 ("query", "workload", "m", "skew", "seed", "domain"))


def record_problem(record: Mapping[str, object], verify: bool) -> str | None:
    """Why one record is not acceptable on its own, or ``None``."""
    try:
        validate_record(record)
    except RecordError as exc:
        return f"schema: {exc}"
    if record["status"] != "ok":
        return f"status {record['status']!r}"
    if record["max_load_bits"] < record["lower_bound_bits"]:
        return (f"max_load_bits {record['max_load_bits']} below the lower "
                f"bound {record['lower_bound_bits']}")
    if verify and record["complete"] is not True:
        return f"complete is {record['complete']!r} under --verify"
    if verify and record["answer_count"] is None:
        return "no answer_count under --verify"
    return None


def check_records(
    records: Sequence[Mapping[str, object]],
    verify: bool = False,
    expected_count: int | None = None,
    expected_answers: Mapping[tuple, int] | None = None,
) -> list[str]:
    """One message per failed operation (a bad or a missing record).

    Beyond :func:`record_problem`: ``answer_count`` must agree across the
    algorithms run on the same data, and equal the sequential oracle's
    count where ``expected_answers`` (by :func:`data_key`) has one.
    """
    failures: list[str] = []
    if expected_count is not None and len(records) < expected_count:
        failures += [f"record {i} missing"
                     for i in range(len(records), expected_count)]
    counts: dict[tuple, int] = dict(expected_answers or {})
    for i, record in enumerate(records):
        problem = record_problem(record, verify)
        if problem is None and record["answer_count"] is not None:
            agreed = counts.setdefault(data_key(record), record["answer_count"])
            if agreed != record["answer_count"]:
                problem = (f"answer_count {record['answer_count']} where "
                           f"the same data gave {agreed}")
        if problem is not None:
            failures.append(
                f"record {i} ({record.get('algorithm')}, p={record.get('p')}): "
                f"{problem}"
            )
    return failures


def payload_problem(kind: str, payload: object, spec: Mapping[str, object]) -> str | None:
    """Why a served ``plan``/``stats``/``sweep`` result is not acceptable."""
    if not isinstance(payload, dict):
        return f"{kind} payload is {type(payload).__name__}, not an object"
    try:
        if kind == "plan":
            keys = [p["key"] for p in payload["predictions"] if p["applicable"]]
            if payload["chosen"] not in keys:
                return f"chosen {payload['chosen']!r} is not an applicable prediction"
            if not payload["lower_bound_bits"] > 0:
                return f"lower_bound_bits {payload['lower_bound_bits']!r}"
            if payload["p"] != spec["p"]:
                return f"planned for p={payload['p']}, asked p={spec['p']}"
        elif kind == "stats":
            sizes = payload["relations"]
            if not sizes or not all(0 < n <= spec["m"] for n in sizes.values()):
                return f"relation sizes {sizes!r} for m={spec['m']}"
            if payload["total_heavy_count"] != sum(payload["heavy_hitters"].values()):
                return "total_heavy_count disagrees with heavy_hitters"
        else:
            records = payload["records"]
            if payload["failed"] != 0 or payload["count"] != len(records) or not records:
                return (f"sweep count={payload['count']} failed={payload['failed']} "
                        f"with {len(records)} records")
            failures = check_records(records)
            if failures:
                return failures[0]
    except (KeyError, TypeError, AttributeError) as exc:
        return f"malformed {kind} payload: {type(exc).__name__}: {exc}"
    return None

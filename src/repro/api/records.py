"""Structured experiment results: :class:`RunRecord` plus JSON/CSV export.

One :class:`RunRecord` per executed sweep cell — flat, schema-checked, and
serializable, so large sweeps can stream to disk and be re-loaded by any
tooling.  :data:`RUN_RECORD_SCHEMA` is the single source of truth for the
field set; :func:`validate_record` is what the CI smoke test runs over
``repro sweep`` output.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, fields
from typing import Iterable, Mapping, Sequence


class RecordError(ValueError):
    """Raised when a serialized record does not match the schema."""


@dataclass(frozen=True)
class RunRecord:
    """Everything measured (and predicted) for one experiment cell."""

    # --- the cell coordinates -----------------------------------------
    query: str                    # textual conjunctive query
    workload: str                 # generator kind (uniform/zipf/worst/...)
    m: int                        # tuples per relation
    skew: float                   # generator skew parameter
    seed: int                     # generator + hashing seed
    domain: int                   # realized generator domain size
    p: int                        # number of servers
    algorithm: str                # registry key
    algorithm_name: str           # instance display name
    engine: str                   # execution engine
    # --- predictions and bounds ---------------------------------------
    predicted_load_bits: float    # the planner's cost-hook estimate
    lower_bound_bits: float       # Theorem 3.6 L_lower
    # --- measurements -------------------------------------------------
    max_load_bits: float
    max_load_tuples: int
    replication_rate: float
    balance: float                # max/mean server load
    wall_seconds: float
    answer_count: int | None = None   # None when answers were skipped
    complete: bool | None = None      # None without verification
    # --- statistics method (a cell coordinate; declared after the
    # defaulted measurement fields only for dataclass ordering) ---------
    stats: str = "exact"              # "exact" or "sketch"
    # --- multi-round shape ---------------------------------------------
    #: communication rounds the executed algorithm used (1 = one-round).
    rounds: int = 1
    #: max per-server bits of every round, in round order; None for
    #: one-round cells (whose single round is ``max_load_bits`` itself).
    round_load_bits: Sequence[float] | None = None
    # --- execution status ----------------------------------------------
    #: ``"ok"``, ``"failed:<reason>"``, or ``"timeout"``.  Non-``ok``
    #: rows carry zeroed measurements: they exist so a sweep with a
    #: poisoned cell still returns every healthy record *and* a
    #: structured account of what went wrong, instead of losing the
    #: whole grid to one exception.
    status: str = "ok"
    # --- observability -------------------------------------------------
    #: a :meth:`repro.obs.MetricsRegistry.to_dict` digest for this cell
    #: (tuples routed, bits shipped per relation, per-server load
    #: histogram, phase timings); None when the cell ran unobserved.
    metrics: Mapping[str, object] | None = None

    @property
    def ok(self) -> bool:
        """True when the cell executed to completion."""
        return self.status == "ok"

    @property
    def optimality_gap(self) -> float | None:
        """Measured load over the lower bound (>= ~1 for real algorithms)."""
        if self.lower_bound_bits <= 0:
            return None
        return self.max_load_bits / self.lower_bound_bits

    @property
    def prediction_error(self) -> float | None:
        """Measured over predicted load — how honest the cost hook was."""
        if self.predicted_load_bits <= 0:
            return None
        return self.max_load_bits / self.predicted_load_bits

    def to_dict(self) -> dict:
        """A flat, JSON-ready mapping including the derived ratios (values
        passed through: ``asdict`` would copy the metrics digest key by key)."""
        out = {field.name: getattr(self, field.name) for field in fields(self)}
        out["optimality_gap"] = self.optimality_gap
        out["prediction_error"] = self.prediction_error
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "RunRecord":
        validate_record(data)
        fields = {name: data[name] for name in _DATACLASS_FIELDS if name in data}
        return cls(**fields)  # type: ignore[arg-type]


#: field -> (types accepted, nullable)
Schema = Mapping[str, tuple[tuple[type, ...], bool]]

#: Derived ratio fields are nullable because degenerate cells (empty
#: inputs) have no meaningful denominator.
RUN_RECORD_SCHEMA: Schema = {
    "query": ((str,), False),
    "workload": ((str,), False),
    "m": ((int,), False),
    "skew": ((int, float), False),
    "seed": ((int,), False),
    "domain": ((int,), False),
    "p": ((int,), False),
    "algorithm": ((str,), False),
    "algorithm_name": ((str,), False),
    "engine": ((str,), False),
    "stats": ((str,), False),
    "status": ((str,), False),
    "predicted_load_bits": ((int, float), False),
    "lower_bound_bits": ((int, float), False),
    "max_load_bits": ((int, float), False),
    "max_load_tuples": ((int,), False),
    "replication_rate": ((int, float), False),
    "balance": ((int, float), False),
    "wall_seconds": ((int, float), False),
    "answer_count": ((int,), True),
    "complete": ((bool,), True),
    "rounds": ((int,), False),
    "round_load_bits": ((list, tuple), True),
    "metrics": ((dict,), True),
    "optimality_gap": ((int, float), True),
    "prediction_error": ((int, float), True),
}

_DATACLASS_FIELDS = tuple(
    name for name in RUN_RECORD_SCHEMA
    if name not in ("optimality_gap", "prediction_error")
)

#: CSV column order == schema order.
RUN_RECORD_FIELDS: tuple[str, ...] = tuple(RUN_RECORD_SCHEMA)


def check_fields(
    data: Mapping[str, object], schema: Schema, error: type[Exception],
    what: str,
) -> None:
    """Check that ``data`` (a ``what``) has every field of ``schema``,
    typed as declared; raise ``error`` on the first violation."""
    if not isinstance(data, Mapping):
        raise error(f"{what} must be an object")
    missing = [name for name in schema if name not in data]
    if missing:
        raise error(f"{what} is missing fields {missing}")
    for name, (types, nullable) in schema.items():
        value = data[name]
        if value is None:
            if not nullable:
                raise error(f"{what} field {name!r} must not be null")
            continue
        # bool is an int subclass; keep the two apart for schema honesty.
        if not isinstance(value, types) or (
            isinstance(value, bool) and bool not in types
        ):
            raise error(
                f"{what} field {name!r} has type {type(value).__name__}, "
                f"wants one of {[t.__name__ for t in types]}"
            )


def validate_record(data: Mapping[str, object]) -> None:
    """Check one serialized record against :data:`RUN_RECORD_SCHEMA`."""
    check_fields(data, RUN_RECORD_SCHEMA, RecordError, "record")
    unknown = [name for name in data if name not in RUN_RECORD_SCHEMA]
    if unknown:
        raise RecordError(f"record has unknown fields {unknown}")
    status = data["status"]
    if status not in ("ok", "timeout") and not (
        isinstance(status, str) and status.startswith("failed:")
    ):
        raise RecordError(
            f"field 'status' must be 'ok', 'timeout', or 'failed:<reason>'; "
            f"got {status!r}"
        )
    if data["rounds"] < 1:
        raise RecordError(f"field 'rounds' must be >= 1, got {data['rounds']}")
    round_loads = data["round_load_bits"]
    if round_loads is not None:
        for entry in round_loads:
            if isinstance(entry, bool) or not isinstance(entry, (int, float)):
                raise RecordError(
                    f"field 'round_load_bits' entries must be numeric; "
                    f"got {entry!r}"
                )


def records_to_json(records: Iterable[RunRecord], indent: int = 2) -> str:
    """A JSON array of :meth:`RunRecord.to_dict` mappings."""
    return json.dumps([record.to_dict() for record in records], indent=indent)


def records_from_json(text: str) -> list[RunRecord]:
    """Parse and validate a :func:`records_to_json` payload."""
    payload = json.loads(text)
    if not isinstance(payload, list):
        raise RecordError("expected a JSON array of records")
    return [RunRecord.from_dict(item) for item in payload]


def records_to_csv(records: Sequence[RunRecord]) -> str:
    """CSV with the schema's column order; ``None`` renders empty.

    The nested ``metrics`` and ``round_load_bits`` values are embedded as
    compact-JSON cells so the CSV stays flat yet lossless.
    """
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=RUN_RECORD_FIELDS)
    writer.writeheader()
    for record in records:
        row = record.to_dict()
        for nested in ("metrics", "round_load_bits"):
            if row.get(nested) is not None:
                row[nested] = json.dumps(row[nested],
                                         separators=(",", ":"))
        writer.writerow({
            name: ("" if row[name] is None else row[name])
            for name in RUN_RECORD_FIELDS
        })
    return buffer.getvalue()

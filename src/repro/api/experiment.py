"""Declarative experiments: a cell, one workload point, or a full sweep.

The runner closes the loop the paper draws between theory and execution:
each cell generates a workload, asks the planner for predictions and the
Theorem 3.6 lower bound, runs the algorithm through a pluggable execution
engine, and lands everything in a structured :class:`RunRecord`.

* :class:`Catalog` — the one input every bound and algorithm of the paper
  is a function of (the query, what is known about the instance, ``p``)
  as a frozen, hashable value: the only way from argv or JSON to ``(query,
  database, statistics)``, and what the service's cache keys on.
* :class:`Cell` — one fully-resolved grid point, a frozen dataclass of
  primitives (so it can be generated on one machine and executed on
  another).  There is one way from a cell to a record:
  :class:`SharedContext` holds what cells at the same grid coordinates
  share (their catalog's database and statistics, the plan, the oracle's
  answers) and says under which key, and :func:`_execute` runs one cell's
  algorithm through :func:`repro.rounds.run_rounds`, for one round or many.
* :func:`execute_cells` — the *cell executor* the library and the service
  (``repro serve``) share: a cell that raises, loses its worker process or
  outruns ``cell_timeout`` becomes a structured ``failed:<reason>`` /
  ``timeout`` record, and every healthy record is returned in grid order
  regardless of what its neighbors did.  In-process it prepares once per
  coordinate group; on :class:`repro.mpc.farm.Farm`, the one process
  fan-out of the repo, each worker runs :meth:`SharedContext.step` on a
  context of its own — isolation costs a database per worker, not per cell.
* :class:`Experiment` — one workload × one ``p`` × some algorithms.
* :class:`Sweep` — the full grid ``p x m x skew x seed x stats x
  rounds x algorithm`` (the ``stats`` axis switches the statistics pass
  between exact frequencies and the one-pass Count-Sketch estimates;
  the ``rounds`` axis varies the planner's round budget, admitting the
  multi-round algorithms of :mod:`repro.rounds` when it exceeds 1);
  ``run(max_workers=N)`` farms the cells through :func:`execute_cells`.
  :meth:`Sweep.from_spec` builds one from the JSON-shaped mapping the CLI
  and the service exchange.

Observability: generation under ``data.generate``; the executor's
``sweep.queue_wait.seconds`` / ``sweep.cell.seconds`` histograms and
``sweep.cells.{ok,failed,timeout}`` counters; per-cell progress is logged
on the ``repro.api.experiment`` logger.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, replace
from itertools import product
from typing import Callable, Hashable, Mapping, Protocol, Sequence

from ..core.registry import (
    Statistics,
    algorithm_keys,
    applicable_specs,
    get_spec,
)
from ..data.generators import (
    matching_relation,
    single_value_relation,
    uniform_relation,
    zipf_relation,
)
from ..mpc.engine.base import resolve_engine
from ..mpc.farm import Farm, FarmUnavailable, Outcome, check_workers
from ..obs import MetricsRegistry, Observation, Tracer, maybe_timed
from ..query.atoms import ConjunctiveQuery
from ..query.parser import parse_query
from ..rounds import oracle_answers, run_rounds
from ..seq.join import Answers
from ..seq.relation import Database
from .planner import STATS_METHODS, plan, resolve_statistics
from .records import RunRecord, records_to_csv, records_to_json

_LOG = logging.getLogger("repro.api.experiment")


class ExperimentError(ValueError):
    """Raised for unsatisfiable experiment/sweep specifications."""


WORKLOAD_KINDS = ("uniform", "zipf", "worst", "matching")


@dataclass(frozen=True)
class WorkloadSpec:
    """A deterministic workload for a query: one relation per atom.

    ``kind`` selects the generator family (mirroring the CLI):

    * ``uniform`` — distinct uniform tuples over a domain of ``8 m``;
    * ``zipf`` — Zipf(``skew``) values on position ``min(1, arity - 1)``
      over a domain of ``4 m`` (the skewed workloads of experiment E6);
    * ``worst`` — every tuple shares one join value (Example 3.3);
    * ``matching`` — every value occurs at most once per attribute (the
      skew-free instances of Lemma 3.1).

    ``domain`` overrides the kind's default domain size.
    """

    kind: str = "uniform"
    m: int = 1000
    skew: float = 1.0
    seed: int = 0
    domain: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in WORKLOAD_KINDS:
            raise ExperimentError(
                f"unknown workload kind {self.kind!r}; "
                f"choose from {', '.join(WORKLOAD_KINDS)}"
            )
        if self.m < 1:
            raise ExperimentError("workloads need m >= 1 tuples per relation")
        if self.domain is not None and self.domain < 1:
            raise ExperimentError("domain must be >= 1 when given")
        if not 0 <= self.skew < math.inf:       # NaN fails both
            raise ExperimentError(
                f"skew must be a finite number >= 0, got {self.skew}"
            )

    @property
    def domain_size(self) -> int:
        if self.domain is not None:
            return self.domain
        return 4 * self.m if self.kind == "zipf" else 8 * self.m

    def build(self, query: ConjunctiveQuery) -> Database:
        """Generate the database (deterministic in the spec + query)."""
        domain = self.domain_size
        relations = []
        for i, atom in enumerate(query.atoms):
            seed = self.seed + i
            if self.kind == "uniform":
                relations.append(uniform_relation(
                    atom.name, self.m, domain, arity=atom.arity, seed=seed
                ))
            elif self.kind == "zipf":
                relations.append(zipf_relation(
                    atom.name, self.m, domain, arity=atom.arity,
                    skew=self.skew, seed=seed,
                    skewed_positions=(min(1, atom.arity - 1),),
                ))
            elif self.kind == "worst":
                relations.append(single_value_relation(
                    atom.name, self.m, domain, arity=atom.arity,
                    fixed_position=atom.arity - 1, seed=seed,
                ))
            else:  # matching
                relations.append(matching_relation(
                    atom.name, self.m, domain, arity=atom.arity, seed=seed
                ))
        return Database.from_relations(relations)


def _spec_fields(
    spec: object, table: Mapping[str, tuple], what: str
) -> dict[str, object]:
    """The fields of ``table`` — key -> (value types, list? — None when
    either will do, what the field must be[, a range check]) — present in
    a JSON-shaped ``spec``, shape- and type-checked; lists come back as
    tuples.  A key outside the table is an error, not a default."""
    if not isinstance(spec, Mapping) or not spec.get("query") \
            or not isinstance(spec["query"], str):
        raise ExperimentError(
            f"a {what} spec must be an object with a 'query' string"
        )
    for name in spec:
        if name != "query" and name not in table:
            raise ExperimentError(
                f"a {what} spec has no field {name!r}; "
                f"the fields are query, {', '.join(table)}"
            )
    fields: dict[str, object] = {"query": spec["query"]}
    for name, (kinds, listed, wanted, *in_range) in table.items():
        if name not in spec:
            continue
        value = spec[name]
        is_list = isinstance(value, (list, tuple))
        well_typed = all(
            # bool is an int to isinstance; JSON true is not a number.
            isinstance(item, kinds)
            and (kinds is bool or not isinstance(item, bool))
            and all(check(item) for check in in_range)
            for item in (value if is_list else (value,))
        )
        if not well_typed or (listed is not None and is_list != listed):
            raise ExperimentError(
                f"{what} spec field {name!r} must be {wanted}, "
                f"got {value!r}"
            )
        fields[name] = tuple(value) if is_list else value
    return fields


#: The catalog spec, for :func:`_spec_fields`; the first five keys are the
#: :class:`WorkloadSpec`'s (``workload`` is its ``kind``).
_CATALOG_FIELDS: Mapping[str, tuple] = {
    "workload": (str, False, "a string"),
    "m": (int, False, "an integer"),
    "skew": ((int, float), False, "a number"),
    "seed": (int, False, "an integer"),
    "domain": ((int, type(None)), False, "an integer or null"),
    "p": (int, False, "an integer"),
    "stats": (str, False, "a string"),
}
_WORKLOAD_KEYS = ("workload", "m", "skew", "seed", "domain")


@dataclass(frozen=True)
class Catalog:
    """Query text x workload x ``p`` x statistics method.  Equal catalogs
    build equal databases and statistics, so the value is its own cache
    key (once :meth:`canonical`)."""

    query: str
    workload: WorkloadSpec = WorkloadSpec()
    p: int = 16
    stats: str = "exact"       # statistics method: "exact" or "sketch"

    def __post_init__(self) -> None:
        if self.p < 1:
            raise ExperimentError(f"p must be >= 1, got {self.p}")
        if self.stats not in STATS_METHODS:
            raise ExperimentError(
                f"unknown stats method {self.stats!r}; "
                f"choose from {', '.join(STATS_METHODS)}"
            )

    @classmethod
    def from_spec(cls, spec: Mapping[str, object]) -> "Catalog":
        """A catalog from the flat mapping plan/stats jobs carry: ``query,
        workload, m, skew, seed, domain, p, stats``; absent keys keep the
        field defaults.  Types and ranges are checked, the query is not
        parsed — cheap enough for the service's request thread."""
        fields = _spec_fields(spec, _CATALOG_FIELDS, "catalog")
        workload = {
            "kind" if name == "workload" else name: fields.pop(name)
            for name in _WORKLOAD_KEYS if name in fields
        }
        if "skew" in workload:
            workload["skew"] = float(workload["skew"])
        return cls(workload=WorkloadSpec(**workload), **fields)

    def to_spec(self) -> dict:
        """The inverse of :meth:`from_spec`."""
        w = self.workload
        return {"query": self.query, "workload": w.kind, "m": w.m,
                "skew": w.skew, "seed": w.seed, "domain": w.domain,
                "p": self.p, "stats": self.stats}

    def canonical(self) -> "Catalog":
        """This catalog with its query text as the parser prints it (what
        :meth:`repro.api.Sweep.cells` puts on every cell)."""
        return replace(self, query=str(parse_query(self.query)))

    def generate(
        self, obs: Observation | None = None
    ) -> tuple[ConjunctiveQuery, Database]:
        """Parse the query and generate its database: ``(query, db)``."""
        query = parse_query(self.query)
        with maybe_timed(obs, "data.generate",
                         workload=self.workload.kind, m=self.workload.m):
            return query, self.workload.build(query)

    def build(
        self, obs: Observation | None = None
    ) -> tuple[ConjunctiveQuery, Database, Statistics]:
        """``(query, db, stats)``: :meth:`generate`, then the statistics."""
        return SharedContext().build(self, obs)


@dataclass(frozen=True)
class Cell:
    """One fully-resolved sweep cell — primitives only, hence picklable."""

    query: str
    workload: str
    m: int
    skew: float
    seed: int
    p: int
    algorithm: str            # a registry key, or "auto" for the planner pick
    engine: str = "batched"
    compute_answers: bool = False
    verify: bool = False
    domain: int | None = None  # generator domain override (kind default else)
    observe: bool = False      # collect a per-cell metrics block on the record
    stats: str = "exact"       # statistics method: "exact" or "sketch"
    rounds: int = 1            # the plan's round budget (max_rounds)

    @property
    def catalog(self) -> Catalog:
        """What determines the cell's database and statistics; raises
        :class:`ExperimentError` when no catalog can have its values."""
        return Catalog(
            self.query,
            WorkloadSpec(self.workload, self.m, self.skew, self.seed,
                         self.domain),
            self.p, self.stats,
        )


def _coordinates(cell: Cell) -> tuple:
    """The part of a cell that determines its database, stats and plan."""
    return (cell.query, cell.workload, cell.m, cell.skew, cell.seed,
            cell.domain, cell.p, cell.stats, cell.rounds)


def _cell_columns(cell: Cell) -> dict:
    """The record columns every cell — finished or failed — copies over."""
    return dict(query=cell.query, workload=cell.workload, m=cell.m,
                skew=cell.skew, seed=cell.seed, p=cell.p,
                engine=cell.engine, stats=cell.stats)


class PreparedCache(Protocol):
    """The cache a :class:`SharedContext` can keep its builds in; the
    service passes its :class:`repro.service.CatalogCache`."""

    def get_or_build(self, section: str, key: Hashable,
                     builder: Callable[[], object]) -> object: ...


class _Slots(dict):
    """A :class:`PreparedCache` of one entry, ``(key, value)``, per
    section: the newest (a build that raises leaves what was there)."""

    def get_or_build(self, section, key, builder):
        if self.get(section, (None,))[0] != key:
            self[section] = key, builder()
        return self[section][1]


class SharedContext:
    """What cells at equal coordinates share, and under which key — decided
    here and nowhere else.  The database, under (query, workload), has one
    slot of this context: grid order puts the groups that share one side by
    side.  The catalog's ``(query, db, stats)``, under the catalog, and the
    plan, under the catalog plus the round budget and the algorithm keys, go
    through ``cache`` when there is one (the service's three job kinds all
    pass its ``CatalogCache``: the second request on a catalog is a hit) and
    are built for the asking otherwise — the serial executor asks once per
    coordinate group.  The sequential oracle's answers on the database in
    use have one slot, never ``cache``, whose entries outlive the sweep.

    :meth:`step` is one cell end to end — :func:`run_cell`, and the task of
    every farm worker: each owns a copy that starts empty, with
    :class:`_Slots` for a ``cache`` (the server-wide one holds a lock
    another thread may hold at fork), so it keeps from one cell to its next
    what the serial executor keeps within a group, and a replacement keeps
    nothing.
    """

    def __init__(self, cache: PreparedCache | None = None) -> None:
        self.cache = cache
        self._data = _Slots()
        self._oracle = (None, None)     # (database, its answers or None)

    def _cached(self, section, key, builder):
        if self.cache is None:
            return builder()
        return self.cache.get_or_build(section, key, builder)

    def build(self, catalog: Catalog, obs: Observation | None = None):
        """``(query, db, stats)`` of ``catalog``."""
        def make():
            query, db = self._data.get_or_build(
                "data", (catalog.query, catalog.workload),
                lambda: catalog.generate(obs))
            return query, db, resolve_statistics(
                query, None, catalog.p, db, stats_method=catalog.stats,
                obs=obs)

        return self._cached("stats", catalog, make)

    def plan(
        self, catalog: Catalog, obs: Observation | None = None,
        rounds: int = 1, keys: tuple[str, ...] = ("auto",),
    ):
        """``(db, plan)`` on ``catalog``.  Plans only the algorithms in
        ``keys`` ("auto" needs the full registry), so a single-algorithm
        cell never pays for cost-estimating the ones it is not running."""
        query, db, stats = self.build(catalog, obs)

        def build_plan():
            # ``rounds`` is the planner's budget.  Explicitly requesting a
            # multi-round algorithm opts into its round count, so the budget
            # lifts to admit every named key; only the "auto" pick is gated.
            max_rounds = rounds
            for key in keys:
                if key == "auto":
                    continue
                spec = get_spec(key)
                reason = spec.applicability(query)
                if reason is not None:
                    raise ExperimentError(
                        f"algorithm {key!r} is not applicable to "
                        f"{catalog.query!r}: {reason}"
                    )
                max_rounds = max(max_rounds, spec.rounds(query))
            return plan(query, stats, catalog.p, max_rounds=max_rounds,
                        algorithms=None if "auto" in keys else keys, obs=obs)

        return db, self._cached("plan", (catalog, rounds, keys), build_plan)

    def expected(self, cell: Cell, query, db, obs) -> Answers | None:
        """What a verifying ``cell`` compares its answers with (None for
        any other): evaluated by the first one on ``db``, shared by the
        rest, dropped by the first cell of another database."""
        if self._oracle[0] is not db:
            self._oracle = db, None
        if cell.verify and self._oracle[1] is None:
            self._oracle = db, oracle_answers(query, db, obs)
        return self._oracle[1] if cell.verify else None

    def step(self, cell: Cell) -> tuple[RunRecord, dict | None]:
        """One cell end to end — generate, plan, run, record, whatever of
        that the cell before it left to do — and, when the cell is observed,
        the :meth:`~repro.obs.MetricsRegistry.snapshot` of all it caused,
        generation, statistics and planning included: a farm worker's
        channel to the sweep's registry (spans stop at the process)."""
        obs = Observation.create() if cell.observe else None
        db, query_plan = _prepare([cell], obs, self)
        record = _execute(cell, db, query_plan, obs, self)
        return record, obs.metrics.snapshot() if obs is not None else None


def _prepare(
    cells: Sequence[Cell],
    obs: Observation | None = None,
    cache: SharedContext | None = None,
):
    """Shared ``(db, plan)`` for cells at the same grid coordinates."""
    first = cells[0]
    keys = tuple(sorted({cell.algorithm for cell in cells}))
    return (cache or SharedContext()).plan(
        first.catalog, obs, first.rounds, keys)


def _execute(
    cell: Cell, db: Database, query_plan,
    obs: Observation | None, shared: SharedContext,
) -> RunRecord:
    """Run one cell's algorithm in a prepared context; build the record.

    One call into :func:`repro.rounds.run_rounds`, whatever the round
    count.  A verifying cell compares with the oracle answers ``shared``
    holds for ``db`` and, when it is the first to ask, evaluates them —
    beside its own ``sweep.cell`` span, not inside.

    Observability: when the cell asks for it (``cell.observe``) or a
    sweep-level ``obs`` is supplied, the cell runs against a *fresh*
    per-cell :class:`~repro.obs.MetricsRegistry` whose digest becomes the
    record's ``metrics`` block and which is then folded into the sweep's
    (counters add, histograms concatenate), so both granularities stay
    exact.  Spans share the sweep tracer if there is one.
    """
    key = query_plan.chosen.key if cell.algorithm == "auto" else cell.algorithm
    prediction = query_plan.prediction(key)
    algorithm = query_plan.instantiate(key)
    cell_obs: Observation | None = None
    if cell.observe or obs is not None:
        cell_obs = Observation(
            tracer=obs.tracer if obs is not None else Tracer(),
            metrics=MetricsRegistry(),
        )
    expected = shared.expected(cell, query_plan.query, db, cell_obs)
    started = time.perf_counter()
    with maybe_timed(
        cell_obs, "sweep.cell",
        algorithm=key, engine=cell.engine, p=cell.p, m=cell.m,
        skew=cell.skew, seed=cell.seed, workload=cell.workload,
    ):
        result = run_rounds(
            algorithm,
            db,
            cell.p,
            seed=cell.seed,
            compute_answers=cell.compute_answers or cell.verify,
            verify=cell.verify,
            engine=cell.engine,
            obs=cell_obs,
            expected=expected,
        )
    wall = time.perf_counter() - started
    metrics_block = None
    if cell_obs is not None:
        metrics_block = cell_obs.metrics.to_dict()
        if obs is not None:
            obs.metrics.merge(cell_obs.metrics)
    return RunRecord(
        **_cell_columns(cell),
        domain=db.domain_size,
        algorithm=key,
        algorithm_name=algorithm.name,
        predicted_load_bits=float(prediction.predicted_load_bits or 0.0),
        # Per-algorithm bound: Theorem 3.6 for one-round predictions, the
        # repartition bound for multi-round ones — the one-round bound
        # does not gate algorithms that reshuffle intermediates.
        lower_bound_bits=float(prediction.lower_bound_bits),
        max_load_bits=result.max_load_bits,
        max_load_tuples=result.max_load_tuples,
        replication_rate=result.replication_rate,
        balance=result.balance,
        wall_seconds=wall,
        answer_count=result.answer_count,
        complete=result.is_complete,
        rounds=result.round_count,
        # The schema keeps this null for one-round cells, whose single
        # round is ``max_load_bits`` itself.
        round_load_bits=([float(x) for x in result.round_load_bits]
                         if result.round_count > 1 else None),
        metrics=metrics_block,
    )


def failure_record(
    cell: Cell, status: str, wall_seconds: float = 0.0
) -> RunRecord:
    """A structured record for a cell that could not produce measurements.

    ``status`` is ``"failed:<reason>"`` or ``"timeout"``.  Measurements
    are zeroed (the schema keeps them non-null so exports stay flat);
    the cell coordinates survive, so a failed cell is still addressable
    in the exported grid.
    """
    try:
        domain = cell.catalog.workload.domain_size
    except ExperimentError:
        domain = cell.domain if cell.domain is not None else 0
    return RunRecord(
        **_cell_columns(cell),
        domain=domain,
        algorithm=cell.algorithm,
        algorithm_name=cell.algorithm,
        status=status,
        predicted_load_bits=0.0,
        lower_bound_bits=0.0,
        max_load_bits=0.0,
        max_load_tuples=0,
        replication_rate=0.0,
        balance=0.0,
        wall_seconds=wall_seconds,
    )


def run_cell(cell: Cell) -> RunRecord:
    """One cell end to end, sharing nothing: :meth:`SharedContext.step` on
    a fresh context (``observe=True`` puts a metrics digest on the record)."""
    return SharedContext().step(cell)[0]


# ----------------------------------------------------------------------
# The cell executor: serial and farmed, both fault-isolated.
# ----------------------------------------------------------------------

def _failure_status(exc: BaseException) -> str:
    """The ``failed:<reason>`` status string for an exception."""
    reason = str(exc) or type(exc).__name__
    return f"failed:{type(exc).__name__}: {reason}"


def _execute_serial(
    cells: Sequence[Cell],
    finish: Callable[[int, RunRecord], None],
    obs: Observation | None,
    cache: PreparedCache | None,
) -> None:
    """In-process execution: one ``_prepare`` per distinct coordinate
    group (order-independent — shuffled grids do not re-prepare), with
    per-cell and per-group fault isolation (an oracle that raises fails
    the verifying cells of its database).  Timeouts need process
    isolation, so they are the farm's job."""
    shared = SharedContext(cache)
    groups: dict[tuple, list[int]] = {}
    for index, cell in enumerate(cells):
        groups.setdefault(_coordinates(cell), []).append(index)
    with maybe_timed(obs, "sweep.run", cells=len(cells), workers=1):
        for indexes in groups.values():
            group = [cells[i] for i in indexes]
            try:
                with maybe_timed(obs, "sweep.prepare", cells=len(group)):
                    db, query_plan = _prepare(group, obs, shared)
            except Exception as exc:
                _LOG.warning("sweep: preparing %d cell(s) failed: %s",
                             len(group), exc)
                for i in indexes:
                    finish(i, failure_record(cells[i], _failure_status(exc)))
                continue
            for i in indexes:
                started = time.perf_counter()
                try:
                    record = _execute(cells[i], db, query_plan, obs, shared)
                except Exception as exc:
                    _LOG.warning("sweep: cell %d failed: %s", i, exc)
                    record = failure_record(
                        cells[i], _failure_status(exc),
                        wall_seconds=time.perf_counter() - started,
                    )
                finish(i, record)


def _execute_farmed(
    cells: Sequence[Cell],
    farm: Farm,
    workers: int,
    finish: Callable[[int, RunRecord], None],
    obs: Observation | None,
) -> None:
    """Run the cells on ``farm`` (:meth:`SharedContext.step` in each of
    its ``workers`` processes): every outcome becomes a record — the
    cell's own, or a ``failed:<reason>`` / ``timeout`` one for a cell that
    raised, whose worker died, or that outran the farm's deadline."""
    if obs is not None:
        # Workers cannot write to this process' registry; ship the
        # request with each cell and fold in the snapshot it answers with.
        cells = [replace(cell, observe=True) for cell in cells]
    busy_seconds = 0.0
    started = time.perf_counter()

    def land(index: int, outcome: Outcome) -> None:
        nonlocal busy_seconds
        if outcome.ok:
            record, snapshot = outcome.value
        else:
            _LOG.warning("sweep: cell %d %s (%s)",
                         index, outcome.status, outcome.value)
            status = ("timeout" if outcome.status == "timeout"
                      else "failed:worker-died" if outcome.status == "died"
                      else f"failed:{outcome.value}")
            record = failure_record(cells[index], status, outcome.seconds)
            snapshot = {"histograms":
                        {"sweep.cell.seconds": [outcome.seconds]}}
        if obs is not None:
            turnaround = time.perf_counter() - started
            obs.observe("sweep.queue_wait.seconds",
                        max(0.0, turnaround - record.wall_seconds))
            busy_seconds += record.wall_seconds
            obs.metrics.merge_snapshot(snapshot)
        finish(index, record)

    with maybe_timed(obs, "sweep.run", cells=len(cells), workers=workers), \
            farm:
        farm.map(cells, land)
    if obs is not None:
        elapsed = time.perf_counter() - started
        obs.set_gauge("sweep.pool_workers", workers)
        obs.set_gauge(
            "sweep.pool_utilization", busy_seconds / (workers * elapsed)
        )


def execute_cells(
    cells: Sequence[Cell],
    max_workers: int | None = None,
    cell_timeout: float | None = None,
    progress: Callable[[RunRecord], None] | None = None,
    obs: Observation | None = None,
    cache: PreparedCache | None = None,
) -> list[RunRecord]:
    """Execute sweep cells with per-cell fault isolation.

    The single executor behind both :meth:`repro.api.experiment.Sweep.run`
    and the service's sweep jobs (``repro.service.execute_cells`` is this
    function).  Records come back in grid (input) order; a raising cell
    yields a ``failed:<reason>`` record, a cell whose worker process dies
    ``failed:worker-died``, and a cell past ``cell_timeout`` seconds a
    ``timeout`` record — none disturbs its neighbors.

    ``None``/1 workers run in-process, preparing once per distinct
    coordinate group in any input order — through ``cache`` when given:
    the service's sweep jobs pass the server-wide
    :class:`~repro.service.cache.CatalogCache`.  More run the cells on a
    :class:`repro.mpc.farm.Farm` — the process fan-out the ``mp`` engine
    and the sketch pass use too — whose workers each keep a database,
    statistics and oracle answers from one cell to their next
    (:class:`SharedContext`; never ``cache``).  ``cell_timeout``
    requires process isolation, so setting it forces the farm even for a
    single worker.  If no worker process can be started the grid runs
    in-process — unless ``cell_timeout`` is set, which in-process
    execution cannot honour: then every cell gets a ``failed:`` record.
    ``obs`` collects every layer's metrics and, in-process, its spans (a
    worker answers with a snapshot of its registry; spans stay behind).
    """
    workers = 1 if max_workers is None else check_workers(max_workers)
    if cell_timeout is not None and cell_timeout <= 0:
        raise ExperimentError(
            f"cell_timeout must be positive, got {cell_timeout}"
        )
    if not cells:
        return []
    workers = min(workers, len(cells))
    slots: list[RunRecord | None] = [None] * len(cells)
    done = 0

    def finish(index: int, record: RunRecord) -> None:
        nonlocal done
        done += 1
        slots[index] = record
        _LOG.info(
            "cell %d/%d: %s p=%d m=%d skew=%.2f seed=%d -> "
            "%.0f bits (%s) in %.3fs",
            done, len(cells), record.algorithm, record.p, record.m,
            record.skew, record.seed, record.max_load_bits,
            record.status if not record.ok
            else "gap " + ("-" if record.optimality_gap is None
                           else format(record.optimality_gap, ".2f")),
            record.wall_seconds,
        )
        if obs is not None:
            obs.count("sweep.cells." + (
                "ok" if record.ok
                else "timeout" if record.status == "timeout" else "failed"
            ))
        if progress is not None:
            progress(record)

    farm = None
    if cell_timeout is not None or workers > 1:
        try:
            farm = Farm(SharedContext(_Slots()).step, workers, cell_timeout)
        except FarmUnavailable as exc:
            if cell_timeout is not None:
                for index, cell in enumerate(cells):
                    finish(index, failure_record(cell, _failure_status(exc)))
                return slots
    if farm is None:
        _execute_serial(cells, finish, obs, cache)
    else:
        _execute_farmed(cells, farm, workers, finish, obs)
    return slots


# ----------------------------------------------------------------------
# Grids: Experiment and Sweep.
# ----------------------------------------------------------------------

def _resolve_algorithms(
    query: ConjunctiveQuery, algorithms: str | Sequence[str],
    max_rounds: int = 1,
) -> tuple[str, ...]:
    """Algorithm keys for a cell grid.

    ``"auto"`` keeps the single planner-chosen cell; ``"applicable"``
    expands to every registered algorithm that declares itself applicable
    *within the round budget* (``max_rounds``); an explicit sequence is
    validated (requesting an inapplicable algorithm is an error, not a
    silent skip — and naming a multi-round algorithm opts into its round
    count regardless of the budget).
    """
    if algorithms == "auto":
        return ("auto",)
    if algorithms == "applicable":
        return tuple(
            spec.key for spec in applicable_specs(query, max_rounds=max_rounds)
        )
    if isinstance(algorithms, str):
        raise ExperimentError(
            f"algorithms must be 'auto', 'applicable', or a list of keys; "
            f"got {algorithms!r}; registered: {', '.join(algorithm_keys())}"
        )
    try:
        keys = tuple(algorithms)
    except TypeError:
        # e.g. algorithms=None, or a bare int — a raw "'NoneType' object
        # is not iterable" here used to escape to the caller.
        raise ExperimentError(
            f"algorithms must be 'auto', 'applicable', or a sequence of "
            f"registry keys; got {algorithms!r}; "
            f"registered: {', '.join(algorithm_keys())}"
        ) from None
    for key in keys:
        if not isinstance(key, str):
            raise ExperimentError(
                f"algorithm keys must be strings ('auto', 'applicable', "
                f"or registry keys); got {key!r} in {algorithms!r}"
            )
        if key == "auto":
            continue
        reason = get_spec(key).applicability(query)
        if reason is not None:
            raise ExperimentError(
                f"algorithm {key!r} is not applicable to "
                f"{query.name!r}: {reason}"
            )
    return keys


@dataclass(frozen=True)
class SweepResult:
    """The records of an executed grid, with export and rollup helpers."""

    records: tuple[RunRecord, ...]

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def to_json(self, indent: int = 2) -> str:
        return records_to_json(self.records, indent=indent)

    def to_csv(self) -> str:
        return records_to_csv(self.records)

    def by_cell(self) -> dict[tuple, list[RunRecord]]:
        """The records of each (workload, m, skew, seed, p, stats) cell —
        every axis but the algorithm."""
        cells: dict[tuple, list[RunRecord]] = {}
        for r in self.records:
            cell = (r.workload, r.m, r.skew, r.seed, r.p, r.stats)
            cells.setdefault(cell, []).append(r)
        return cells

    def best_per_cell(self) -> dict[tuple, RunRecord]:
        """Minimum measured load per cell."""
        return {cell: min(records, key=lambda r: r.max_load_bits)
                for cell, records in self.by_cell().items()}

    def summary(self) -> str:
        """A compact table: one row per record, sorted like the grid."""
        header = (
            f"{'workload':>9} {'m':>6} {'skew':>5} {'p':>4} {'stats':>7} "
            f"{'algorithm':>20} {'predicted':>12} {'measured':>12} "
            f"{'bound':>12} {'gap':>6}"
        )
        lines = [header, "-" * len(header)]
        for r in self.records:
            gap = r.optimality_gap
            lines.append(
                f"{r.workload:>9} {r.m:>6} {r.skew:>5.2f} {r.p:>4} "
                f"{r.stats:>7} "
                f"{r.algorithm:>20} {r.predicted_load_bits:>12,.0f} "
                f"{r.max_load_bits:>12,.0f} {r.lower_bound_bits:>12,.0f} "
                f"{'     -' if gap is None else format(gap, '6.2f')}"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class Experiment:
    """One workload × one ``p`` × a set of algorithms.

    The smallest unit of the experiment API::

        records = Experiment(
            "q(x, y, z) :- S1(x, z), S2(y, z)",
            workload=WorkloadSpec("zipf", m=2000, skew=1.4),
            p=32,
            algorithms="applicable",
        ).run()
    """

    query: str | ConjunctiveQuery
    workload: WorkloadSpec = WorkloadSpec()
    p: int = 16
    algorithms: str | Sequence[str] = "auto"
    engine: str = "batched"
    compute_answers: bool = False
    verify: bool = False
    observe: bool = False      # attach a metrics block to every record
    stats: str = "exact"       # statistics method: "exact" or "sketch"
    rounds: int = 1            # the planner's round budget (max_rounds)

    def cells(self) -> list[Cell]:
        """The one-point grid, validated exactly as a :class:`Sweep` is."""
        return Sweep(
            query=self.query,
            workload=self.workload.kind,
            p_values=(self.p,),
            m_values=(self.workload.m,),
            skews=(self.workload.skew,),
            seeds=(self.workload.seed,),
            algorithms=self.algorithms,
            engine=self.engine,
            compute_answers=self.compute_answers,
            verify=self.verify,
            domain=self.workload.domain,
            observe=self.observe,
            stats=self.stats,
            rounds=self.rounds,
        ).cells()

    def run(self, obs: Observation | None = None) -> list[RunRecord]:
        """The records of :meth:`cells`, in grid order, through
        :func:`execute_cells` — fault isolation included, so check
        :attr:`RunRecord.status`."""
        return execute_cells(self.cells(), obs=obs)


#: The sweep spec, for :func:`_spec_fields`.
_SPEC_FIELDS: Mapping[str, tuple] = {
    "workload": (str, False, "a string"),
    "p_values": (int, True, "a list of integers"),
    "m_values": (int, True, "a list of integers"),
    "skews": ((int, float), True, "a list of finite numbers >= 0",
              lambda value: 0 <= value < math.inf),
    "seeds": (int, True, "a list of integers"),
    "algorithms": (str, None, "a string or a list of strings"),
    "engine": (str, False, "a string"),
    "verify": (bool, False, "a boolean"),
    "domain": ((int, type(None)), False, "an integer or null"),
    "stats": (str, None, "a string or a list of strings"),
    "stats_axis": (str, None, "a string or a list of strings"),
    "rounds": (int, None, "an integer or a list of integers"),
    # Not the sweep's: the executor settings a job's spec may carry beside
    # the grid (:func:`execute_cells`' ``max_workers``, ``cell_timeout``).
    "workers": ((int, type(None)), False, "an integer >= 1 or null",
                lambda value: value is None or value >= 1),
    "cell_timeout": ((int, float, type(None)), False,
                     "a positive number or null",
                     lambda value: value is None or value > 0),
}


@dataclass(frozen=True)
class Sweep:
    """The full grid: ``p_values x m_values x skews x seeds x rounds x
    algorithms``, executed by :func:`execute_cells`."""

    query: str | ConjunctiveQuery
    workload: str = "zipf"
    p_values: Sequence[int] = (16,)
    m_values: Sequence[int] = (1000,)
    skews: Sequence[float] = (1.0,)
    seeds: Sequence[int] = (0,)
    algorithms: str | Sequence[str] = "applicable"
    engine: str = "batched"
    compute_answers: bool = False
    verify: bool = False
    domain: int | None = None
    observe: bool = False      # attach a metrics block to every record
    stats: str | Sequence[str] = "exact"   # one method, or an axis of them
    rounds: int | Sequence[int] = 1        # one round budget, or an axis

    @classmethod
    def from_spec(cls, spec: Mapping[str, object]) -> "Sweep":
        """A sweep from the JSON-shaped mapping ``repro sweep``, ``repro
        submit sweep`` and the service's sweep jobs all describe it by.

        Keys are the field names (``stats_axis`` is accepted for
        ``stats``); absent keys keep the field defaults and an unknown key
        is an error.  Only shapes and types are checked — no query parse,
        no grid expansion — so the service can run this on the request
        thread and answer a malformed spec with 400 instead of accepting a
        job that can only fail; grid values are validated where they
        always were, in :meth:`cells`.  The executor settings a job spec
        may carry (``workers``, ``cell_timeout``) are not the sweep's, but
        they are checked here, type and range, for the same reason.
        """
        fields = _spec_fields(spec, _SPEC_FIELDS, "sweep")
        if "stats_axis" in fields:
            fields["stats"] = fields.pop("stats_axis")
        for name in ("workers", "cell_timeout"):
            fields.pop(name, None)
        return cls(**fields)

    def _stats_axis(self) -> tuple[str, ...]:
        methods = ((self.stats,) if isinstance(self.stats, str)
                   else tuple(self.stats))
        if not methods:
            raise ExperimentError("the stats axis is empty")
        return methods

    def _rounds_axis(self) -> tuple[int, ...]:
        budgets = ((self.rounds,) if isinstance(self.rounds, int)
                   else tuple(self.rounds))
        if not budgets:
            raise ExperimentError("the rounds axis is empty")
        for budget in budgets:
            if not isinstance(budget, int) or budget < 1:
                raise ExperimentError(
                    f"round budgets must be integers >= 1, got {budget!r}"
                )
        return budgets

    def cells(self) -> list[Cell]:
        query = (parse_query(self.query) if isinstance(self.query, str)
                 else self.query)
        # Reject an unknown engine name before any cell runs, with the
        # list of valid names — not from the middle of a grid.
        resolve_engine(self.engine)
        stats_methods = self._stats_axis()
        rounds_axis = self._rounds_axis()
        # The "applicable" expansion depends on the round budget, so the
        # key set is per-budget (an explicit list is budget-independent).
        keys_by_budget = {
            budget: _resolve_algorithms(query, self.algorithms,
                                        max_rounds=budget)
            for budget in rounds_axis
        }
        # Validate the grid axes up front: a bad value must fail here,
        # not as a traceback from the middle of a half-finished run.
        text = str(query)
        for m, skew, p, method in product(self.m_values, self.skews,
                                          self.p_values, stats_methods):
            Catalog(text, WorkloadSpec(self.workload, m, skew,
                                       domain=self.domain), p, method)
        return [
            Cell(
                query=text,
                workload=self.workload,
                m=m,
                skew=skew,
                seed=seed,
                p=p,
                algorithm=key,
                engine=self.engine,
                compute_answers=self.compute_answers,
                verify=self.verify,
                domain=self.domain,
                observe=self.observe,
                stats=stats_method,
                rounds=budget,
            )
            for m, skew, seed, p, stats_method, budget in product(
                self.m_values, self.skews, self.seeds, self.p_values,
                stats_methods, rounds_axis
            )
            for key in keys_by_budget[budget]
        ]

    def run(
        self,
        max_workers: int | None = None,
        progress: Callable[[RunRecord], None] | None = None,
        cells: Sequence[Cell] | None = None,
        obs: Observation | None = None,
        cell_timeout: float | None = None,
    ) -> SweepResult:
        """Execute every cell through :func:`execute_cells` — the executor
        ``repro serve`` runs sweep jobs on too; ``max_workers``,
        ``cell_timeout`` and ``obs`` mean what they mean there, and so does
        fault isolation: a cell that raises, loses its worker or hangs past
        ``cell_timeout`` comes back as a ``failed:<reason>`` / ``timeout``
        record in its place in the grid, so check :attr:`RunRecord.status`
        before trusting a row's measurements.

        ``progress`` (if given) is called with each finished record, in
        completion order — handy for long sweeps.  ``cells`` accepts a
        precomputed :meth:`cells` result (callers that already built the
        list to inspect it need not rebuild it).
        """
        if cells is None:
            cells = self.cells()
        if not cells:
            raise ExperimentError("the sweep grid is empty")
        records = execute_cells(
            cells, max_workers=max_workers, cell_timeout=cell_timeout,
            progress=progress, obs=obs,
        )
        return SweepResult(records=tuple(records))


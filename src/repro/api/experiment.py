"""Declarative experiments: a cell, or a sweep of them.

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
* :func:`execute_cells` — the *cell executor* the library, the service
  (``repro serve``) and ``repro race`` share.  Every cell runs
  :meth:`SharedContext.step`, in-process (a farm of none: one context for
  the grid) or on :class:`repro.mpc.farm.Farm`, the one process fan-out
  of the repo, whose workers each own a context — isolation costs a
  database per worker, not per cell.  One function lands every outcome: a cell that raises, loses
  its worker process or outruns ``cell_timeout`` becomes a structured
  ``failed:<reason>`` / ``timeout`` record, and every healthy record is
  returned in grid order regardless of what its neighbors did.
* :class:`Sweep` — the full grid ``p x m x skew x seed x stats x
  rounds x algorithm`` (the ``stats`` axis switches the statistics pass
  between exact frequencies and the one-pass Count-Sketch estimates;
  the ``rounds`` axis varies the planner's round budget, admitting the
  multi-round algorithms of :mod:`repro.rounds` when it exceeds 1);
  ``run(max_workers=N)`` farms the cells through :func:`execute_cells`.
  One workload point is a sweep whose axes hold one value each.
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
from functools import partial
from itertools import product
from typing import Callable, Hashable, Mapping, Protocol, Sequence

from ..core.registry import (
    RegistryError,
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
from ..mpc.engine.base import available_engines, resolve_engine
from ..mpc.farm import (
    Farm,
    FarmUnavailable,
    Outcome,
    attempt,
    check_workers,
)
from ..mpc.hashing import ColumnHashes
from ..obs import MetricsRegistry, Observation, Tracer, maybe_timed
from ..query.atoms import ConjunctiveQuery, QueryError
from ..query.parser import parse_query
from ..rounds import Oracle, run_rounds
from ..seq.relation import Database
from .planner import STATS_METHODS, plan, resolve_statistics
from .records import RunRecord, records_to_csv, records_to_json

_LOG = logging.getLogger("repro.api.experiment")


class ExperimentError(ValueError):
    """Raised for unsatisfiable experiment/sweep specifications."""


#: Workload kind -> (default domain per tuple of ``m``, whether ``skew`` is
#: read, one atom's relation: ``(atom, spec, domain, seed) -> Relation``).
_WORKLOADS: Mapping[str, tuple[int, bool, Callable]] = {
    "uniform": (8, False, lambda atom, spec, domain, seed: uniform_relation(
        atom.name, spec.m, domain, arity=atom.arity, seed=seed)),
    "zipf": (4, True, lambda atom, spec, domain, seed: zipf_relation(
        atom.name, spec.m, domain, arity=atom.arity, skew=spec.skew,
        seed=seed, skewed_positions=(min(1, atom.arity - 1),))),
    "worst": (8, False, lambda atom, spec, domain, seed: single_value_relation(
        atom.name, spec.m, domain, arity=atom.arity,
        fixed_position=atom.arity - 1, seed=seed)),
    "matching": (8, False, lambda atom, spec, domain, seed: matching_relation(
        atom.name, spec.m, domain, arity=atom.arity, seed=seed)),
}
WORKLOAD_KINDS = tuple(_WORKLOADS)


def _in_int64(value: int) -> bool:
    """Whether a seed is an int64: a hash family is keyed by 64 bits, so a
    seed outside would silently alias one inside."""
    return -2**63 <= value < 2**63


@dataclass(frozen=True)
class WorkloadSpec:
    """A deterministic workload for a query: one relation per atom.

    ``kind`` selects a row of the kinds table, a generator family and its
    default domain (mirroring the CLI):

    * ``uniform`` — distinct uniform tuples over a domain of ``8 m``;
    * ``zipf`` — Zipf(``skew``) values on position ``min(1, arity - 1)``
      over a domain of ``4 m`` (the skewed workloads of experiment E6);
    * ``worst`` — every tuple shares one join value, on its last position,
      over a domain of ``8 m`` (Example 3.3);
    * ``matching`` — every value occurs at most once per attribute, over a
      domain of ``8 m`` (the skew-free instances of Lemma 3.1).

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
        if not _in_int64(self.seed):
            raise ExperimentError(
                f"seed must lie in [-2**63, 2**63), got {self.seed}"
            )

    @property
    def domain_size(self) -> int:
        if self.domain is not None:
            return self.domain
        return _WORKLOADS[self.kind][0] * self.m

    def build(self, query: ConjunctiveQuery) -> Database:
        """Generate the database (deterministic in the spec + query)."""
        generate, domain = _WORKLOADS[self.kind][2], self.domain_size
        return Database.from_relations([
            generate(atom, self, domain, self.seed + i)
            for i, atom in enumerate(query.atoms)
        ])


@dataclass(frozen=True)
class _Field:
    """A spec field: its flag; its JSON value's types (the first converts
    flag text), list or not (None: either), description and check on each
    value; the words a list flag passes on unsplit; the flag's help."""

    flag: str
    kinds: tuple[type, ...]
    listed: bool | None
    wanted: str
    check: Callable[[object], bool] = lambda value: True
    words: tuple[str, ...] = ()
    help: str | None = None


def _spec_fields(
    spec: object, table: Mapping[str, _Field], what: str
) -> dict[str, object]:
    """The fields of ``table`` present in a JSON-shaped ``spec``, checked,
    its query parsed; lists, never empty, come back as tuples.  A key
    outside the table is an error, not a default."""
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
    for name, field in table.items():
        if name not in spec:
            continue
        value = spec[name]
        is_list = isinstance(value, (list, tuple))
        well_typed = all(
            # bool is an int to isinstance; JSON true is not a number.
            isinstance(item, field.kinds)
            and (bool in field.kinds or not isinstance(item, bool))
            and field.check(item)
            for item in (value if is_list else (value,))
        )
        if not well_typed or field.listed not in (None, is_list) \
                or (is_list and not value):
            raise ExperimentError(
                f"{what} spec field {name!r} must be {field.wanted}, "
                f"got {value!r}"
            )
        fields[name] = tuple(value) if is_list else value
    try:
        parse_query(spec["query"])
    except QueryError as exc:
        raise ExperimentError(f"{what} spec field 'query': {exc}") from None
    return fields


def _one_of(names: Sequence[str]) -> str:
    return f"one of {', '.join(names)}"


#: The two fields a catalog and a sweep spec share.
_WORKLOAD = _Field("--workload", (str,), False, _one_of(WORKLOAD_KINDS),
                   WORKLOAD_KINDS.__contains__,
                   help=f"workload kind, {_one_of(WORKLOAD_KINDS)} "
                        "(default %(default)s)")
_DOMAIN = _Field("--domain", (int, type(None)), False,
                 "an integer >= 1 or null",
                 lambda value: value is None or value >= 1,
                 help="domain size of every generated relation (default: "
                      "the workload's, 4 m for zipf and 8 m for the others)")
#: The catalog spec, for :func:`_spec_fields`; the first five keys are the
#: :class:`WorkloadSpec`'s (``workload`` is its ``kind``).
_CATALOG_FIELDS: Mapping[str, _Field] = {
    "workload": _WORKLOAD,
    "m": _Field("-m", (int,), False, "an integer"),
    "skew": _Field("--skew", (float, int), False, "a number"),
    "seed": _Field("--seed", (int,), False, "an integer in [-2**63, 2**63)",
                   _in_int64),
    "domain": _DOMAIN,
    "p": _Field("-p", (int,), False, "an integer"),
    "stats": _Field("--stats", (str,), False, "a string",
                    help=f"statistics method, {_one_of(STATS_METHODS)} "
                         "(default %(default)s)"),
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
        field defaults.  Types and ranges are checked and the query is
        parsed, no more — cheap enough for the service's request thread."""
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

    @classmethod
    def of(cls, catalog: Catalog, algorithm: str, **settings) -> "Cell":
        """The cell running ``algorithm`` on ``catalog``, with ``settings``."""
        w = catalog.workload
        return cls(catalog.query, w.kind, w.m, w.skew, w.seed, catalog.p,
                   algorithm, domain=w.domain, stats=catalog.stats,
                   **settings)

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


@dataclass
class _InUse:
    """What a context keeps for the database in use, and drops with it:
    the raw hashes of its columns and the sequential oracle — or the
    exception evaluating it raised."""

    db: Database | None
    hashes: ColumnHashes | None = None
    oracle: Oracle | None = None
    failure: BaseException | None = None


class SharedContext:
    """What cells at equal coordinates share, and under which key — decided
    here and nowhere else, in the sections of ``cache``: ``data``, the
    database, under what its generator reads (catalogs differing only in
    ``p``, statistics method or a skew their kind ignores share one);
    ``stats``, the catalog's ``(query, db, stats)``, under the catalog;
    ``plan``, every registered algorithm ranked within a round budget,
    under the catalog plus the budget.  One slot per section (grid order
    puts the cells that share one side by side) unless a cache is passed:
    the service's three job kinds pass its ``CatalogCache``.  The database
    a cell runs on has one more slot, kept here and never in ``cache``
    (whose entries outlive the sweep): the raw hashes of its columns (each
    hashed once per seed and salt, whichever algorithm and share vector
    routes it) and the sequential oracle (an answer fingerprint, and the
    answers only when a comparison needs them); the first cell on another
    database drops both.

    :meth:`step` is one cell end to end, wherever it runs: on a fresh
    context in :func:`run_cell`, on one context for the whole grid in the
    in-process executor, and in every farm worker on a copy of its own that
    starts empty (never the caller's ``cache``: the server-wide one holds a
    lock another thread may hold at fork) and keeps what it built from one
    cell to its next; a replacement keeps nothing.  One thread uses a
    context.
    """

    def __init__(self, cache: PreparedCache | None = None) -> None:
        self.cache = _Slots() if cache is None else cache
        self._in_use = _InUse(None)

    def build(self, catalog: Catalog, obs: Observation | None = None):
        """``(query, db, stats)`` of ``catalog``."""
        w = catalog.workload
        query, db = self.cache.get_or_build(
            "data", (catalog.query, w.kind, w.m, w.seed, w.domain_size,
                     w.skew if _WORKLOADS[w.kind][1] else None),
            lambda: catalog.generate(obs))
        return self.cache.get_or_build(
            "stats", catalog, lambda: (query, db, resolve_statistics(
                query, None, catalog.p, db, stats_method=catalog.stats,
                obs=obs)))

    def plan(
        self, catalog: Catalog, obs: Observation | None = None,
        rounds: int = 1,
    ):
        """``(db, plan)`` on ``catalog``: every registered algorithm ranked
        within the round budget ``rounds``."""
        return self._plan(catalog, self.build(catalog, obs), rounds, obs)

    def _plan(self, catalog: Catalog, built: tuple, rounds: int,
              obs: Observation | None):
        query, db, stats = built
        return db, self.cache.get_or_build(
            "plan", (catalog, rounds),
            lambda: plan(query, stats, catalog.p, max_rounds=rounds,
                         obs=obs))

    def using(self, db: Database) -> _InUse:
        """The slot of ``db``, made afresh — the last database's column
        hashes and oracle dropped — when it is another one."""
        if self._in_use.db is not db:
            self._in_use = _InUse(
                db, ColumnHashes(relation.batch.columns for relation in db)
            )
        return self._in_use

    def expected(self, cell: Cell, query, db, obs) -> Oracle | None:
        """What a verifying ``cell`` compares its run with (None for any
        other): evaluated by the first one on ``db``, shared by the rest,
        dropped by the first cell of another database.  An evaluation that
        raised is not tried again: the rest of the verifying cells on
        ``db`` raise the same exception."""
        if not cell.verify:
            return None
        in_use = self.using(db)
        if in_use.failure is not None:
            raise in_use.failure.with_traceback(None)
        if in_use.oracle is None:
            try:
                in_use.oracle = Oracle(query, db, obs)
            except Exception as exc:
                in_use.failure = exc
                raise
        return in_use.oracle

    def step(
        self, cell: Cell, tracer: Tracer | None = None
    ) -> tuple[RunRecord, dict | None]:
        """One cell end to end — generate, plan, run, record, whatever of
        that the cell before it left to do — and, when the cell is observed,
        the :meth:`~repro.obs.MetricsRegistry.snapshot` of all it caused,
        generation, statistics and planning included: how a cell's metrics
        reach the sweep's registry, in-process or from a worker.  Spans go
        to ``tracer`` (the in-process executor passes the sweep's).

        The plan is the catalog's at the cell's round budget
        (:func:`_budget`)."""
        obs = None
        if cell.observe:
            obs = Observation() if tracer is None else Observation(tracer)
        catalog = cell.catalog
        built = self.build(catalog, obs)
        if cell.algorithm != "auto":
            reason = get_spec(cell.algorithm).applicability(built[0])
            if reason is not None:
                raise ExperimentError(
                    f"algorithm {cell.algorithm!r} is not applicable to "
                    f"{cell.query!r}: {reason}"
                )
        db, query_plan = self._plan(catalog, built, _budget(cell, built[0]),
                                    obs)
        record = _execute(cell, db, query_plan, obs, self)
        return record, obs.metrics.snapshot() if obs is not None else None


def _execute(
    cell: Cell, db: Database, query_plan,
    obs: Observation | None, shared: SharedContext,
) -> RunRecord:
    """Run one cell's algorithm in a prepared context; build the record.

    One call into :func:`repro.rounds.run_rounds`, whatever the round
    count, on the column hashes ``shared`` holds for ``db``.  A verifying
    cell compares with the oracle ``shared`` holds for ``db`` and, when it
    is the first to ask, evaluates it — beside its own ``sweep.cell``
    span, not inside.  The oracle is a fingerprint: the first cell on
    ``db`` whose fingerprint differs evaluates the oracle's answer set
    inside its ``sweep.cell`` span (as ``rounds.verify.answers``), and its
    ``wall_seconds`` pays for it.

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
            compute_answers=cell.compute_answers,
            verify=cell.verify,
            engine=cell.engine,
            obs=cell_obs,
            expected=expected,
            column_hashes=shared.using(db).hashes,
        )
    wall = time.perf_counter() - started
    metrics_block = None
    if cell_obs is not None:
        metrics_block = cell_obs.metrics.to_dict()
        if obs is not None:
            obs.metrics.merge_snapshot(cell_obs.metrics.snapshot())
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
# The cell executor: one step per cell, in-process or farmed, one landing.
# ----------------------------------------------------------------------

def _budget(cell: Cell, query: ConjunctiveQuery) -> int:
    """The round budget ``cell`` is planned at: naming a multi-round
    algorithm opts into its round count, the ``auto`` pick keeps the
    cell's."""
    if cell.algorithm == "auto":
        return cell.rounds
    return max(cell.rounds, get_spec(cell.algorithm).rounds(query))


def _grouped(cells: Sequence[Cell]) -> list[int]:
    """The indexes of ``cells``, each coordinate group's one after another
    in order of first appearance, and within a group by round budget: the
    order a context steps through them, so a shuffled grid builds once per
    group and a plan once per budget, as a sorted one does."""
    groups: dict[tuple, list[int]] = {}
    for index, cell in enumerate(cells):
        groups.setdefault(_coordinates(cell), []).append(index)

    def budget(index: int) -> int:
        try:
            return _budget(cells[index], parse_query(cells[index].query))
        except (QueryError, RegistryError):
            return cells[index].rounds      # its step fails and says why

    return [index for indexes in groups.values()
            for index in sorted(indexes, key=budget)]


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
    function).  Every cell runs :meth:`SharedContext.step`, and one
    function lands each :class:`~repro.mpc.farm.Outcome` as a record,
    wherever the cell ran.  Records come back in grid (input) order; a
    raising cell yields a ``failed:<reason>`` record, a cell whose worker
    process dies ``failed:worker-died``, and a cell past ``cell_timeout``
    seconds a ``timeout`` record — none disturbs its neighbors.

    ``None``/1 workers run in-process, a farm of none: one context steps
    through the cells, each coordinate group's one after another in any
    input order, keeping its builds in ``cache`` when given (a service's
    sweep job passes its job worker's
    :class:`~repro.service.cache.CatalogCache`).  More run the cells on a
    :class:`repro.mpc.farm.Farm` — the process fan-out the sketch pass
    uses too — whose workers each step on a context of
    their own (never ``cache``), kept from one cell to their next.
    ``cell_timeout`` requires process isolation, so setting it forces the
    farm even for a single worker.  If no worker process can be started
    the grid runs in-process — unless ``cell_timeout`` is set, which
    in-process execution cannot honour: then every cell gets a ``failed:``
    record.  ``obs`` collects every layer's metrics (each step answers
    with a snapshot of its registry) and, in-process, its spans.  A step
    that raises answers with no snapshot, in-process as on a worker: its
    cell counts only ``sweep.cell.seconds``, and what it built before
    raising (a database, statistics, a plan) is not counted in ``obs``.
    """
    workers = 1 if max_workers is None else check_workers(max_workers)
    if cell_timeout is not None and cell_timeout <= 0:
        raise ExperimentError(
            f"cell_timeout must be positive, got {cell_timeout}"
        )
    if not cells:
        return []
    if obs is not None:
        # A step reports to ``obs`` through the snapshot it answers with:
        # the one channel a worker process has.
        cells = [replace(cell, observe=True) for cell in cells]
    workers = min(workers, len(cells))
    slots: list[RunRecord | None] = [None] * len(cells)
    done, busy_seconds = 0, 0.0
    started = time.perf_counter()

    def land(index: int, outcome: Outcome) -> None:
        """Cell ``index``'s record, from how its step ended."""
        nonlocal done, busy_seconds
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
            turnaround = time.perf_counter() - started
            obs.observe("sweep.queue_wait.seconds",
                        max(0.0, turnaround - record.wall_seconds))
            busy_seconds += record.wall_seconds
            obs.metrics.merge_snapshot(snapshot)
            obs.count("sweep.cells." + (
                "ok" if record.ok
                else "timeout" if record.status == "timeout" else "failed"
            ))
        if progress is not None:
            progress(record)

    farm = None
    if cell_timeout is not None or workers > 1:
        try:
            farm = Farm(SharedContext().step, workers, cell_timeout)
        except FarmUnavailable as exc:
            if cell_timeout is not None:
                failed = Outcome("error", f"{type(exc).__name__}: {exc}")
                for index in range(len(cells)):
                    land(index, failed)
                return slots
            workers = 1
    order = _grouped(cells)
    with maybe_timed(obs, "sweep.run", cells=len(cells), workers=workers):
        if farm is None:
            step = partial(SharedContext(cache).step,
                           tracer=None if obs is None else obs.tracer)
            for index in order:
                land(index, attempt(step, cells[index]))
        else:
            with farm:
                farm.map([cells[index] for index in order],
                         lambda k, outcome: land(order[k], outcome))
    if obs is not None:
        obs.set_gauge("sweep.pool_workers", workers)
        obs.set_gauge("sweep.pool_utilization", busy_seconds / (
            workers * (time.perf_counter() - started)))
    return slots


# ----------------------------------------------------------------------
# Grids: Sweep.
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


_ENGINES = available_engines()
#: The sweep spec, for :func:`_spec_fields`.  The engine, the workload kind
#: and the statistics methods must be names their registries know.
_SPEC_FIELDS: Mapping[str, _Field] = {
    "workload": _WORKLOAD,
    "p_values": _Field("--p", (int,), True,
                       "a non-empty list of integers >= 1",
                       lambda value: value >= 1,
                       help="comma-separated server counts (e.g. 8,16,64)"),
    "m_values": _Field("--m", (int,), True,
                       "a non-empty list of integers >= 1",
                       lambda value: value >= 1,
                       help="comma-separated relation cardinalities"),
    "skews": _Field("--skew", (float, int), True,
                    "a non-empty list of finite numbers >= 0",
                    lambda value: 0 <= value < math.inf,
                    help="comma-separated skew parameters"),
    "seeds": _Field("--seeds", (int,), True,
                    "a non-empty list of integers in [-2**63, 2**63)",
                    _in_int64, help="comma-separated generator seeds"),
    "domain": _DOMAIN,
    "algorithms": _Field("--algorithms", (str,), None,
                         "'applicable', 'auto' or registered keys, "
                         + _one_of(algorithm_keys()),
                         lambda value: value in ("applicable", "auto")
                         or value in algorithm_keys(),
                         words=("applicable", "auto"),
                         help="'applicable' (default), 'auto' (planner pick "
                              "per cell), or comma-separated registry keys"),
    "stats": _Field("--stats", (str,), None,
                    f"{_one_of(STATS_METHODS)}, or a non-empty list of them",
                    STATS_METHODS.__contains__, words=STATS_METHODS,
                    help="comma-separated statistics methods per cell: "
                         "exact, sketch (e.g. 'exact,sketch' runs every "
                         "cell under both)"),
    "rounds": _Field("--rounds", (int,), None,
                     "an integer >= 1 or a non-empty list of them",
                     lambda value: value >= 1,
                     help="comma-separated planner round budgets per cell "
                          "(e.g. '1,2' ranks one- and two-round algorithms "
                          "side by side)"),
    "engine": _Field("--engine", (str,), False, _one_of(_ENGINES),
                     _ENGINES.__contains__,
                     help="execution engine simulating a round: batched "
                          "(vectorized, default) or reference (tuple-at-a-"
                          "time parity oracle); both return identical "
                          "answers and loads"),
    "verify": _Field("--verify", (bool,), False, "a boolean",
                     help="check completeness against the sequential "
                          "oracle, once per database: answer fingerprints, "
                          "in O(input) for an acyclic query; the servers' "
                          "joins and a set comparison only on a mismatch"),
    # Not the sweep's: the executor settings a job's spec may carry beside
    # the grid (:func:`execute_cells`' ``max_workers``, ``cell_timeout``).
    "workers": _Field("--workers", (int, type(None)), False,
                      "a worker count (an integer >= 1) or null",
                      lambda value: value is None or value >= 1,
                      help="farm cells across N worker processes (on "
                           "submit: instead of the server's setting)"),
    "cell_timeout": _Field("--cell-timeout", (float, int, type(None)),
                           False,
                           "a positive number or null",
                           lambda value: value is None or value > 0,
                           help="kill any cell running longer than this "
                                "many seconds and record it with status "
                                "'timeout' (forces process isolation; on "
                                "submit: instead of the server's setting)"),
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

        Keys are the field names; absent keys keep the field defaults and
        an unknown key is an error.  Shapes, types, the ranges of the grid
        axes and ``domain``, the engine, workload and statistics names and
        the query's parse are checked — no grid expansion — so the service
        can run this on the request thread and answer a malformed spec (an
        empty axis or an unparsable query too) with 400 instead of
        accepting a job that can only fail or finish with no records; grid
        values are validated where they always were, in :meth:`cells`.
        The executor settings a job spec may carry (``workers``,
        ``cell_timeout``) are not the sweep's, but are checked here too.
        """
        fields = _spec_fields(spec, _SPEC_FIELDS, "sweep")
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
        catalogs = [
            Catalog(text, WorkloadSpec(self.workload, m, skew, seed,
                                       self.domain), p, method)
            for m, skew, seed, p, method in product(
                self.m_values, self.skews, self.seeds, self.p_values,
                stats_methods)
        ]
        return [
            Cell.of(catalog, key, engine=self.engine,
                    compute_answers=self.compute_answers, verify=self.verify,
                    observe=self.observe, rounds=budget)
            for catalog in catalogs
            for budget in rounds_axis
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


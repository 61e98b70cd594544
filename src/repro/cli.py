"""Command-line interface: bounds, planning, racing, sweeping, serving.

Nine subcommands::

    python -m repro bounds "q(x,y,z) :- S1(x,z), S2(y,z)" \
        --cardinality S1=4096 --cardinality S2=1024 --domain 100000 -p 64

    python -m repro plan "q(x,y,z) :- S1(x,z), S2(y,z)" \
        --workload zipf --skew 1.5 -m 2000 -p 32 [--json]

    python -m repro race "q(x,y,z) :- S1(x,z), S2(y,z)" \
        --workload zipf --skew 1.5 -m 2000 -p 32

    python -m repro sweep "q(x,y,z) :- S1(x,z), S2(y,z)" \
        --workload zipf --skew 0.0,1.5 --p 8,32 --stats exact,sketch

    python -m repro stats "q(x,y,z) :- S1(x,z), S2(y,z)" \
        --workload zipf --skew 1.5 -m 2000 -p 32

    python -m repro bench --quick --baseline BENCH_core.json
    python -m repro bench --suite sketch --quick --baseline BENCH_sketch.json
    python -m repro bench --suite rounds --quick --baseline BENCH_rounds.json

    python -m repro packings "C3(x,y,z) :- R(x,y), S(y,z), T(z,x)"

    python -m repro serve --port 8765 --queue-size 32 --job-workers 2

    python -m repro submit plan "q(x,y,z) :- S1(x,z), S2(y,z)" \
        --server http://127.0.0.1:8765 --workload zipf -m 2000 -p 32

``bounds`` prints the share LP solution, the packing-vertex table and the
optimal load; ``plan`` ranks every registered algorithm by predicted load
(the :mod:`repro.api` planner) without running anything; ``race`` runs the
applicable algorithms on a generated workload, predicted next to measured;
``sweep`` executes a full ``p x skew x m x stats x algorithm`` grid
through the execution engines and emits schema-checked JSON/CSV records
(``--stats exact,sketch`` runs every cell under both statistics methods);
``stats`` compares the one-pass Count-Sketch statistics against the exact
heavy hitters on one workload (recall/precision, frequency error, pass
times); ``bench`` runs a pinned quality suite (``--suite``: a row of
:data:`repro.api.bench.BENCH_SUITES`: loads, gaps, regret, recall) into
``BENCH_<suite>.json`` and gates it, absolutely and by equality with a
``--baseline``;
``packings`` prints ``pk(q)``, ``tau*`` and the cover numbers;
``serve`` runs the long-lived plan/sweep service (async job queue with
backpressure, per-catalog plan/statistics cache, fault-isolated sweep
cells) and ``submit`` is its client — submit a ``plan``, ``stats`` or
``sweep`` job, wait for it to finish, print the result.

Observability: ``race``, ``sweep``, ``stats`` and ``bench`` accept
``--trace FILE`` (write a Chrome-trace JSON of the run's nested spans —
open it at ``chrome://tracing``) and ``--metrics`` (print the metrics registry:
tuples routed, bits shipped per relation, per-server load histogram,
skew ratio, per-cell timings).  Progress and status go through stdlib
``logging`` on the ``repro.*`` loggers — ``-v/--verbose`` for debug
detail, ``-q/--quiet`` for warnings only; payload output stays on stdout.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from dataclasses import replace
from typing import Callable, Sequence

from ._lazy import lazy_exports
from .api import (
    Catalog,
    Cell,
    RunRecord,
    Sweep,
    SweepResult,
    execute_cells,
    plan as build_plan,
)
from .api.experiment import _CATALOG_FIELDS, _SPEC_FIELDS, SharedContext
from .obs import Observation, maybe_timed
from .mpc import available_engines
from .query import ConjunctiveQuery, QueryError, parse_query
from .stats import HeavyHitterStatistics, SimpleStatistics

_LOG = logging.getLogger("repro.cli")

#: What ``repro bench`` uses of :mod:`repro.api.bench`, which no other
#: subcommand imports: attributes of this module resolved on first access,
#: so ``repro.cli.run_suite`` is still the name to patch.
_, __getattr__, __dir__ = lazy_exports(globals(), {".api.bench": (
    "BENCH_SUITES", "compare_bench", "run_suite", "suite_gate_failures",
    "validate_bench",
)})


class _StderrHandler(logging.StreamHandler):
    """A stream handler on whatever ``sys.stderr`` is when a record is
    emitted, not on the stream it was when the handler was made (a test's
    capture, closed by the time a later test logs)."""

    @property
    def stream(self):
        return sys.stderr

    @stream.setter
    def stream(self, value) -> None:
        pass


def _configure_logging(args: argparse.Namespace) -> None:
    """Wire the ``repro`` logger hierarchy to stderr.

    ``-q`` shows warnings only, ``-v`` adds debug detail, the default is
    progress at INFO.  Idempotent: re-invocations (tests calling
    :func:`main` repeatedly) reuse the handler and just adjust levels.
    """
    if getattr(args, "quiet", False):
        level = logging.WARNING
    elif getattr(args, "verbose", False):
        level = logging.DEBUG
    else:
        level = logging.INFO
    root = logging.getLogger("repro")
    if not root.handlers:
        handler = _StderrHandler()
        handler.setFormatter(logging.Formatter("%(message)s"))
        root.addHandler(handler)
    root.setLevel(level)
    root.propagate = False


def _make_observation(args: argparse.Namespace) -> Observation | None:
    """An :class:`Observation` when ``--trace``/``--metrics`` asked for one."""
    if getattr(args, "trace", None) or getattr(args, "metrics", False):
        return Observation.create()
    return None


def _finish_observation(
    args: argparse.Namespace, obs: Observation | None
) -> None:
    """Print the metrics table and/or write the Chrome trace file."""
    if obs is None:
        return
    if getattr(args, "metrics", False):
        print()
        print(obs.metrics.render())
    trace_path = getattr(args, "trace", None)
    if trace_path:
        _write_payload(obs.tracer.to_json(), trace_path,
                       f"{len(obs.tracer.spans)} trace spans")


def _parse_cardinalities(pairs: Sequence[str]) -> dict[str, int]:
    out: dict[str, int] = {}
    for pair in pairs:
        name, _, value = pair.partition("=")
        if not name or not value:
            raise SystemExit(f"--cardinality expects NAME=COUNT, got {pair!r}")
        try:
            count = int(value)
        except ValueError:
            raise SystemExit(
                f"--cardinality expects an integer count, got {value!r} "
                f"for {name!r}"
            ) from None
        if count < 1:
            raise SystemExit(
                f"--cardinality expects a count >= 1, got {count} "
                f"for {name!r}"
            )
        out[name] = count
    return out


#: The domain ``--cardinality`` declares unless ``--domain`` is given.
_DECLARED_DOMAIN = 1_000_000


def _declared_statistics(
    args: argparse.Namespace,
) -> tuple[ConjunctiveQuery, SimpleStatistics]:
    """The query and the statistics ``--cardinality``/``--domain`` declare,
    for ``-p`` servers; a query that does not parse and bad values exit
    with one line, as a catalog's do."""
    cardinalities = _parse_cardinalities(args.cardinality)
    domain = _DECLARED_DOMAIN if args.domain is None else args.domain
    for flag, value in (("-p", args.p), ("--domain", domain)):
        if value < 1:
            raise SystemExit(f"{flag} must be >= 1, got {value}")
    try:
        query = parse_query(args.query)
        return query, SimpleStatistics.from_cardinalities(
            query, cardinalities, domain_size=domain
        )
    except ValueError as exc:  # e.g. missing relations
        raise SystemExit(str(exc)) from None


def cmd_bounds(args: argparse.Namespace) -> int:
    from .core.bounds import lower_bound, space_exponent, vertex_loads
    from .core.shares import optimal_share_exponents

    query, stats = _declared_statistics(args)
    bits = stats.bits_vector(query)
    try:  # e.g. share optimization at p = 1
        loads = vertex_loads(query, bits, args.p)
        bound = lower_bound(query, bits, args.p)
        solution = optimal_share_exponents(query, bits, args.p)
        exponent = space_exponent(query, bits, args.p)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    print(f"query: {query}")
    print(f"p = {args.p}, domain = {stats.domain_size}")
    print("\npacking-vertex load table (pk(q)):")
    for packing, value in loads:
        label = {k: str(v) for k, v in packing.items() if v != 0}
        print(f"  u = {label}: {value:,.0f} bits")
    print(f"\noptimal load (Theorem 3.6): {bound.bits:,.0f} bits")
    print(f"share exponents: "
          + ", ".join(f"{v}={float(e):.3f}" for v, e in solution.exponents.items()))
    print(f"space exponent: {exponent:.4f}")
    return 0


def cmd_packings(args: argparse.Namespace) -> int:
    from .core.packing import (
        fractional_edge_cover_number,
        fractional_vertex_cover_number,
        maximum_packing_value,
        non_dominated_packing_vertices,
    )

    try:
        query = parse_query(args.query)
    except QueryError as exc:
        raise SystemExit(str(exc)) from None
    print(f"query: {query}")
    print(f"tau* (max fractional edge packing)   : {maximum_packing_value(query)}")
    print(f"fractional vertex cover number (dual): "
          f"{fractional_vertex_cover_number(query)}")
    print(f"rho* (min fractional edge cover)     : "
          f"{fractional_edge_cover_number(query)}")
    vertices = non_dominated_packing_vertices(query)
    print(f"\npk(q): {len(vertices)} non-dominated vertices")
    for vertex in vertices:
        print("  " + ", ".join(
            f"{name}={value}" for name, value in sorted(vertex.items())
        ))
    return 0


#: The two schemas: a spec table and the defaults of the dataclass it builds
#: (``workers``/``cell_timeout`` are the executor's, unset by default).
_CATALOG = _CATALOG_FIELDS, Catalog("").to_spec()
_SWEEP = _SPEC_FIELDS, {name: getattr(Sweep, name, None)
                        for name in _SPEC_FIELDS}


def _add_spec_arguments(
    parser: argparse.ArgumentParser, schema: tuple, skip: Sequence[str] = ()
) -> None:
    """The query and a flag for each field of ``schema`` (:data:`_CATALOG`
    or :data:`_SWEEP`) but ``skip``, defaulting to the dataclass's value: a
    list field takes comma-separated values (:func:`_spec` splits them)."""
    table, defaults = schema
    parser.add_argument("query")
    for name, field in table.items():
        flag = {"action": "store_true"} if field.kinds == (bool,) else {
            "default": defaults[name],
            "type": field.kinds[0] if field.listed is False else str}
        if name not in skip:
            parser.add_argument(field.flag, help=field.help, **flag)


def _spec(args: argparse.Namespace, schema: tuple) -> dict:
    """The JSON-shaped spec ``from_spec`` checks, of the flags
    :func:`_add_spec_arguments` added: an unset (None) flag left out, a list
    flag's comma-separated text converted (a bad token exits with a line)."""
    table, _ = schema
    fields = {"query": args.query}
    for name, field in table.items():
        value = getattr(args, field.flag.lstrip("-").replace("-", "_"), None)
        if isinstance(value, str) and field.listed is not False \
                and value not in field.words:
            text, convert, value = value, field.kinds[0], []
            for token in filter(None, map(str.strip, text.split(","))):
                try:
                    value.append(convert(token))
                except ValueError:
                    raise SystemExit(
                        f"{field.flag} expects comma-separated "
                        f"{convert.__name__} values, got {token!r}"
                    ) from None
        if value is not None:
            fields[name] = value
    return fields


def _domain_note(args: argparse.Namespace) -> str:
    """``, domain=N`` for a report when ``--domain`` set the domain."""
    return "" if args.domain is None else f", domain={args.domain}"


def _catalog(args: argparse.Namespace, step: Callable = lambda catalog: catalog):
    """``step`` of the catalog those flags describe; a bad ``-m``/``-p``, a
    query that does not parse or an unrealizable workload exits cleanly."""
    try:
        return step(Catalog.from_spec(_spec(args, _CATALOG)))
    except ValueError as exc:
        raise SystemExit(str(exc)) from None


def cmd_plan(args: argparse.Namespace) -> int:
    if args.max_rounds < 1:
        raise SystemExit(f"--max-rounds must be >= 1, got {args.max_rounds}")
    if args.cardinality:  # explicit cardinalities beat a workload
        query, stats = _declared_statistics(args)
        try:
            query_plan = build_plan(query, stats, args.p,
                                    max_rounds=args.max_rounds)
        except ValueError as exc:
            raise SystemExit(str(exc)) from None
    else:
        _, query_plan = _catalog(args, lambda catalog: SharedContext().plan(
            catalog, rounds=args.max_rounds))
    curve = query_plan.tradeoff() if args.max_rounds > 1 else None
    if args.json:
        document = query_plan.to_dict()
        if curve is not None:
            document["tradeoff"] = [point.to_dict() for point in curve]
        print(json.dumps(document, indent=2))
        return 0
    if args.cardinality:
        print("statistics: declared cardinalities (skew-free predictions)")
    else:
        print(f"statistics: {args.workload} workload "
              f"(m={args.m}, skew={args.skew}, seed={args.seed}"
              f"{_domain_note(args)})")
    print(query_plan.explain())
    if curve is not None:
        print("\nround/load tradeoff (cost = max per-round load x rounds):")
        for point in curve:
            if point.key is None:
                print(f"  {point.rounds} round(s): no applicable algorithm")
            else:
                print(
                    f"  {point.rounds} round(s): {point.key} — "
                    f"max load {point.predicted_load_bits:,.0f} bits, "
                    f"cost {point.cost_bits:,.0f} bits"
                )
    return 0


def cmd_race(args: argparse.Namespace) -> int:
    """Every applicable algorithm of the catalog's plan as one cell of a
    sweep, on the context the plan was built in: one database, statistics
    pass and (with ``--verify``) sequential join for all of them."""
    obs = _make_observation(args)
    context = SharedContext()
    catalog, (_, query_plan) = _catalog(
        args, lambda catalog: (catalog, context.plan(catalog, obs)))
    records = execute_cells([
        Cell.of(catalog, prediction.key, engine=args.engine,
                verify=args.verify)
        for prediction in query_plan.applicable
    ], obs=obs, cache=context.cache)

    print(f"query: {query_plan.query}")
    print(f"workload: {args.workload} (m={args.m}, skew={args.skew}"
          f"{_domain_note(args)}), p={args.p}, engine={args.engine}")
    print(f"Theorem 3.6 skew-free optimum: "
          f"{query_plan.lower_bound_bits:,.0f} bits\n")
    print(f"{'algorithm':>20} {'predicted':>12} {'max load bits':>14} "
          f"{'tuples':>7} {'repl.':>6} {'complete':>9}")
    for record in records:
        if not record.ok:
            print(f"{record.algorithm_name:>20} {record.status}")
            continue
        complete = "-" if record.complete is None else str(record.complete)
        print(
            f"{record.algorithm_name:>20} "
            f"{record.predicted_load_bits:>12,.0f} "
            f"{record.max_load_bits:>14,.0f} "
            f"{record.max_load_tuples:>7} "
            f"{record.replication_rate:>6.2f} {complete:>9}"
        )
    skipped = [pr for pr in query_plan.predictions if not pr.applicable]
    if skipped:
        print("\nnot applicable: "
              + "; ".join(f"{pr.key} ({pr.reason})" for pr in skipped))
    _finish_observation(args, obs)
    return 0 if all(record.ok for record in records) else 1


def cmd_stats(args: argparse.Namespace) -> int:
    """Exact-vs-sketched statistics fidelity report on one workload."""
    from .sketch import (
        SketchConfig,
        SketchedHeavyHitterStatistics,
        sketch_fidelity,
    )

    obs = _make_observation(args)
    query, db = _catalog(args, lambda catalog: catalog.generate(obs))
    try:
        config = SketchConfig(
            width=args.width, depth=args.depth, base=args.base
        )
    except ValueError as exc:
        raise SystemExit(str(exc)) from None

    started = time.perf_counter()
    exact = HeavyHitterStatistics.of(query, db, args.p)
    exact_seconds = time.perf_counter() - started
    started = time.perf_counter()
    try:
        sketched = SketchedHeavyHitterStatistics.of(
            query, db, args.p, config=config, obs=obs
        )
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    sketch_seconds = time.perf_counter() - started
    report = sketch_fidelity(exact, sketched)

    if args.json:
        print(json.dumps({
            "query": str(query),
            "workload": {"kind": args.workload, "m": args.m,
                         "skew": args.skew, "seed": args.seed,
                         **({} if args.domain is None
                            else {"domain": args.domain})},
            "p": args.p,
            "sketch": {"width": config.width, "depth": config.depth,
                       "base": config.base,
                       "updates": sketched.update_count},
            "exact_seconds": exact_seconds,
            "sketch_seconds": sketch_seconds,
            **report,
        }, indent=2))
    else:
        print(f"query: {query}")
        print(f"workload: {args.workload} (m={args.m}, skew={args.skew}, "
              f"seed={args.seed}{_domain_note(args)}), p={args.p}")
        print(f"sketch: width={config.width} depth={config.depth} "
              f"base={config.base} ({sketched.update_count} updates)")
        print(f"statistics pass: exact {exact_seconds:.3f}s, "
              f"sketch {sketch_seconds:.3f}s\n")
        print(f"{'atom':>6} {'subset':>12} {'true':>5} {'sketched':>9} "
              f"{'missed':>7} {'spurious':>9} {'max err':>8}")
        for row in report["pairs"]:
            print(
                f"{row['atom']:>6} {','.join(row['subset']):>12} "
                f"{row['true_heavy']:>5} {row['sketched_heavy']:>9} "
                f"{row['false_negatives']:>7} {row['false_positives']:>9} "
                f"{row['max_rel_error']:>8.3f}"
            )
        print(
            f"\nrecall {report['recall']:.3f}  "
            f"precision {report['precision']:.3f}  "
            f"max frequency error {report['max_rel_error']:.3f}"
        )
        if report["false_negatives"]:
            print(f"WARNING: {report['false_negatives']} true heavy "
                  f"hitters were missed — raise --width")
    _finish_observation(args, obs)
    return 0 if report["false_negatives"] == 0 else 1


def _check_writable(*paths: str | None) -> None:
    """Exit now if a destination cannot be written — not after the run it
    would lose.  Leaves no file behind."""
    for path in paths:
        if path in (None, "-"):
            continue
        created = not os.path.exists(path)
        try:
            open(path, "a", encoding="utf-8").close()
        except OSError as exc:
            raise SystemExit(
                f"cannot write {path}: {exc.strerror or exc}"
            ) from None
        if created:
            os.remove(path)


def _write_payload(payload: str, output: str | None, what: str) -> None:
    """Print ``payload``, or write it (newline-terminated) to ``output``."""
    if output in (None, "-"):
        print(payload)
        return
    with open(output, "w", encoding="utf-8") as handle:
        handle.write(payload)
        if not payload.endswith("\n"):
            handle.write("\n")
    _LOG.info("wrote %s to %s", what, output)


def cmd_sweep(args: argparse.Namespace) -> int:
    obs = _make_observation(args)
    try:  # a cell's error is its record's; these are the spec's
        sweep = replace(Sweep.from_spec(_spec(args, _SWEEP)),
                        observe=args.metrics)
        cells = sweep.cells()
        _LOG.info("sweep: %d cells, engine=%s, workers=%s",
                  len(cells), args.engine, args.workers)
        result = sweep.run(max_workers=args.workers, cells=cells, obs=obs,
                           cell_timeout=args.cell_timeout)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    failed = sum(1 for record in result if not record.ok)
    if failed:
        _LOG.warning("sweep: %d of %d cells did not finish cleanly "
                     "(see the 'status' column)", failed, len(result))
    with maybe_timed(obs, "records.serialize",
                     format=args.format, records=len(result)):
        render = {"json": result.to_json, "csv": result.to_csv}
        payload = render.get(args.format, result.summary)()
        _write_payload(payload, args.output, f"{len(result)} records")
    _finish_observation(args, obs)
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    cli = sys.modules[__name__]  # the bench names, patched or not
    if args.suite not in cli.BENCH_SUITES:
        raise SystemExit(
            f"--suite: unknown suite {args.suite!r} (choose from "
            f"{', '.join(cli.BENCH_SUITES)})"
        )
    output = args.output
    if output is None:
        output = f"BENCH_{args.suite}.json"
        _check_writable(output)
    # Read before the run: the default output is the committed baseline.
    baseline = None
    if args.baseline:
        try:
            with open(args.baseline, "r", encoding="utf-8") as handle:
                baseline = json.load(handle)
            cli.validate_bench(baseline)
        except (OSError, ValueError) as exc:
            raise SystemExit(
                f"cannot read baseline {args.baseline}: {exc}"
            ) from None

    obs = _make_observation(args)
    _LOG.info("bench: running the pinned %s suite%s", args.suite,
              " (quick grid)" if args.quick else "")
    document = cli.run_suite(args.suite, quick=args.quick, obs=obs)
    cli.validate_bench(document)
    summary = document["summary"]
    _LOG.info(
        "bench: %d entries, max optimality gap %.3f, "
        "planner worst regret %.3f",
        len(document["entries"]), summary["max_optimality_gap"],
        summary["planner_worst_regret"],
    )
    _write_payload(json.dumps(document, indent=2), output, "bench document")
    _finish_observation(args, obs)

    # The suite's absolute acceptance gates (sketch recall/merge identity,
    # two-round-beats-one-round) apply with or without a baseline.
    failures = cli.suite_gate_failures(document)
    if baseline is not None:
        try:
            failures.extend(cli.compare_bench(baseline, document))
        except ValueError as exc:
            raise SystemExit(str(exc)) from None
    if failures:
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        return 1
    if baseline is not None:
        _LOG.info("bench: equal to %s", args.baseline)
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the long-lived plan/sweep service until interrupted."""
    from .service import ReproService

    service = ReproService(
        host=args.host,
        port=args.port,
        queue_size=args.queue_size,
        job_workers=args.job_workers,
        cell_workers=args.workers,
        cell_timeout=args.cell_timeout,
        cache_capacity=args.cache_size,
    )
    host, port = service.address
    # The bound address goes to stdout so scripts (and CI) can discover
    # an ephemeral --port 0 assignment.
    print(f"http://{host}:{port}", flush=True)
    _LOG.info(
        "repro service on http://%s:%d (queue %d, %d job workers, "
        "cell workers %s, cell timeout %s)",
        host, port, args.queue_size, args.job_workers,
        args.workers or "serial",
        f"{args.cell_timeout}s" if args.cell_timeout else "none",
    )
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        _LOG.info("interrupted; shutting down")
        service.shutdown()
    return 0


def cmd_submit(args: argparse.Namespace) -> int:
    """Submit one job to a running service, wait for it, print the result."""
    from .service.client import (
        ServiceBusyError,
        ServiceClient,
        ServiceClientError,
    )

    kind = args.job_kind
    spec = _spec(args, _SWEEP if kind == "sweep" else _CATALOG)
    client = ServiceClient(args.server)
    try:
        status = client.submit(kind, spec)
        job_id = status["id"]
        _LOG.info("submitted %s job %s to %s", kind, job_id, args.server)
        if status["state"] in ("queued", "running"):
            status = client.wait(job_id, timeout=args.timeout)
        if status["state"] != "done":
            raise SystemExit(
                f"job {job_id} {status['state']}: {status.get('error')}"
            )
        result = client.result(job_id)["result"]
    except ServiceBusyError as exc:
        raise SystemExit(
            f"server rejected the job (backpressure): {exc}"
        ) from None
    except ServiceClientError as exc:
        raise SystemExit(str(exc)) from None
    finally:
        client.close()

    if kind == "sweep" and args.format != "json":
        records = tuple(
            RunRecord.from_dict(entry) for entry in result["records"]
        )
        sweep_result = SweepResult(records=records)
        payload = (sweep_result.to_csv() if args.format == "csv"
                   else sweep_result.summary())
    else:
        payload = json.dumps(result, indent=2)
    _write_payload(payload, getattr(args, "output", None),
                   f"the {kind} result")
    return 0


def _add_sweep_arguments(parser: argparse.ArgumentParser) -> None:
    """The flags ``repro sweep`` and ``repro submit sweep`` share."""
    _add_spec_arguments(parser, _SWEEP)
    parser.add_argument("--format", choices=["json", "csv", "summary"],
                        default="json")
    parser.add_argument("--output", default=None,
                        help="write the result to this file instead of "
                             "stdout")


def _add_logging_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument("-v", "--verbose", action="store_true",
                       help="debug-level progress on stderr")
    group.add_argument("-q", "--quiet", action="store_true",
                       help="warnings only on stderr")


def _add_observability_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace", metavar="FILE", default=None,
                        help="write a Chrome-trace JSON of the run's spans "
                             "(open at chrome://tracing)")
    parser.add_argument("--metrics", action="store_true",
                        help="collect and print the metrics registry "
                             "(tuples routed, bits shipped, load histogram)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Skew in Parallel Query Processing (PODS 2014) toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    bounds = sub.add_parser("bounds", help="share LP + load bounds")
    bounds.add_argument("query")
    bounds.add_argument("--cardinality", action="append", default=[],
                        help="NAME=COUNT (repeatable)")
    bounds.add_argument("--domain", type=int, default=None)
    bounds.add_argument("-p", type=int, default=64)
    bounds.set_defaults(func=cmd_bounds)

    packings = sub.add_parser("packings", help="pk(q), tau*, cover numbers")
    packings.add_argument("query")
    packings.set_defaults(func=cmd_packings)

    plan_cmd = sub.add_parser(
        "plan",
        help="rank registered algorithms by predicted load (no execution)",
    )
    _add_spec_arguments(plan_cmd, _CATALOG, skip=("stats",))
    plan_cmd.add_argument("--cardinality", action="append", default=[],
                          help="NAME=COUNT (repeatable); skew-free "
                               "predictions from declared statistics "
                               f"(--domain: {_DECLARED_DOMAIN:,} unless "
                               "given)")
    plan_cmd.add_argument("--max-rounds", type=int, default=1,
                          dest="max_rounds", metavar="R",
                          help="round budget: rank multi-round algorithms "
                               "too and print the round/load tradeoff "
                               "curve (default 1 = one-round only)")
    plan_cmd.add_argument("--json", action="store_true",
                          help="emit the plan as JSON")
    plan_cmd.set_defaults(func=cmd_plan)

    race = sub.add_parser(
        "race",
        help="run every applicable one-round algorithm on a workload "
             "(planned at a round budget of 1; 'sweep --rounds' runs "
             "multi-round plans)",
    )
    _add_spec_arguments(race, _CATALOG, skip=("stats",))
    race.add_argument("--verify", action="store_true",
                      help=_SPEC_FIELDS["verify"].help)
    race.add_argument("--engine", choices=available_engines(),
                      default=Sweep.engine, help=_SPEC_FIELDS["engine"].help)
    _add_observability_arguments(race)
    _add_logging_arguments(race)
    race.set_defaults(func=cmd_race)

    sweep = sub.add_parser(
        "sweep",
        help="run a p x skew x m x algorithm grid; emit JSON/CSV records",
    )
    _add_sweep_arguments(sweep)
    _add_observability_arguments(sweep)
    _add_logging_arguments(sweep)
    sweep.set_defaults(func=cmd_sweep)

    stats_cmd = sub.add_parser(
        "stats",
        help="compare sketched statistics against exact heavy hitters",
    )
    _add_spec_arguments(stats_cmd, _CATALOG, skip=("stats",))
    stats_cmd.add_argument("--width", type=int, default=2048,
                           help="count-sketch columns per row "
                                "(default %(default)s)")
    stats_cmd.add_argument("--depth", type=int, default=5,
                           help="count-sketch rows (default %(default)s)")
    stats_cmd.add_argument("--base", type=int, default=16,
                           help="hierarchical digit base (default %(default)s)")
    stats_cmd.add_argument("--json", action="store_true",
                           help="emit the fidelity report as JSON")
    _add_observability_arguments(stats_cmd)
    _add_logging_arguments(stats_cmd)
    stats_cmd.set_defaults(func=cmd_stats)

    bench = sub.add_parser(
        "bench",
        help="run a pinned quality suite; emit/gate BENCH_<suite>.json",
    )
    bench.add_argument("--suite", default="core",
                       help="the BENCH_SUITES row to run — core: the quality "
                            "trajectory grid; sketch: the "
                            "same grid under exact and sketched statistics "
                            "plus fidelity/regret gates; rounds: two- vs "
                            "one-round triangle (default %(default)s)")
    bench.add_argument("--quick", action="store_true",
                       help="run the reduced grid (what CI runs)")
    bench.add_argument("--output", default=None,
                       help="bench document destination ('-' for stdout; "
                            "default BENCH_<suite>.json)")
    bench.add_argument("--baseline", default=None,
                       help="compare against this committed bench document "
                            "and exit 1 on any difference")
    _add_observability_arguments(bench)
    _add_logging_arguments(bench)
    bench.set_defaults(func=cmd_bench)

    serve = sub.add_parser(
        "serve",
        help="run the long-lived plan/sweep service (async job queue "
             "with backpressure + per-catalog plan/statistics cache)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8765,
                       help="TCP port (0 binds an ephemeral port; the "
                            "bound URL is printed to stdout)")
    serve.add_argument("--queue-size", type=int, default=32,
                       help="max queued jobs before submissions are "
                            "rejected with HTTP 429 (default %(default)s)")
    serve.add_argument("--job-workers", type=int, default=2,
                       help="concurrent job workers, each a process with "
                            "its own catalog cache (default %(default)s)")
    serve.add_argument("--workers", type=int, default=None,
                       help="farm each sweep job's cells across N worker "
                            "processes (default: in the job worker, "
                            "cached)")
    serve.add_argument("--cell-timeout", type=float, default=None,
                       help="per-cell deadline in seconds for sweep jobs; "
                            "late cells are recorded as 'timeout' and "
                            "their worker replaced")
    serve.add_argument("--cache-size", type=int, default=64,
                       help="per-section catalog cache capacity, split "
                            "evenly over the job workers "
                            "(default %(default)s)")
    _add_logging_arguments(serve)
    serve.set_defaults(func=cmd_serve)

    submit = sub.add_parser(
        "submit",
        help="submit a plan/stats/sweep job to a running 'repro serve' "
             "instance, wait for it to finish, print the result",
    )
    submit_sub = submit.add_subparsers(dest="job_kind", required=True)

    for kind, blurb in (
        ("plan", "rank algorithms for one catalog (served, cached)"),
        ("stats", "build one catalog's statistics (served, cached)"),
        ("sweep", "run a full grid on the server with fault isolation"),
    ):
        job = submit_sub.add_parser(kind, help=blurb)
        if kind == "sweep":
            _add_sweep_arguments(job)
        else:
            _add_spec_arguments(job, _CATALOG)
        job.add_argument("--server", default="http://127.0.0.1:8765",
                         help="service base URL (default %(default)s)")
        job.add_argument("--timeout", type=float, default=300.0,
                         help="give up waiting for the job after this "
                              "many seconds (default %(default)s)")
        _add_logging_arguments(job)
        job.set_defaults(func=cmd_submit)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _configure_logging(args)
    _check_writable(getattr(args, "output", None),
                    getattr(args, "trace", None))
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())

"""``serve-mixed``: a closed-loop mixed job load against ``repro serve``.

The same layers as the sweeps at the opposite operating point: hundreds
of small plan/stats/sweep requests where parsing, planning, JSON, HTTP,
queueing and the catalog cache decide latency.  Two client threads each
submit a job, poll its status, fetch and check its result, and only then
take the next — closed loop, because ``repro submit`` callers wait for
their reply.  The working set (256 catalogs, 16 of them hot) exceeds the
server's default cache (64 per section), so hits, misses and evictions
all carry weight.
"""

from __future__ import annotations

import math
import os
import queue
import random
import subprocess
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Iterator

from repro.service.client import (
    ServiceBusyError, ServiceClient, ServiceClientError,
)

from . import OUT, check
from .harness import (
    CHILD_TIMEOUT_S, SETUP_SAMPLES, RunResult, end_to_end_result, is_seconds,
    measure_units, peak_rss_mb, reap, scratch_dir, spawn_repro, tail,
    wait_or_kill,
)
from .spans import Tracer
from .sweeps import JOIN, TRIANGLE

PATH3 = "q(x,y,z,w) :- R(x,y), S(y,z), T(z,w)"

QUERIES = (JOIN, TRIANGLE, PATH3)
KINDS = ("uniform", "zipf", "worst", "matching")
SIZES = {"zipf": (300, 450, 600)}          # the zipf generator is O(m · domain)
DEFAULT_SIZES = (1000, 2000, 3000)
SKEWS = (0.0, 0.8, 1.2)
P_VALUES = (8, 16, 27, 64)

HOT, COLD = 16, 240
CLIENTS = 2
POLL_INTERVAL_S = 0.005

#: Jobs per block (the unit that is timed) as ``(plan, stats, sweep)`` and
#: how many of them address a hot catalog: kinds 5:2:3, hot share 0.6.
BLOCK = ((20, 8, 12), 24)
QUICK_BLOCK = ((10, 4, 6), 12)

#: Blocks run before the timed ones, to bring the cache to steady state.
WARMUP_BLOCKS = 2


@dataclass(frozen=True)
class Job:
    kind: str
    spec: dict
    hot: bool


def catalogs(quick: bool) -> tuple[list[dict], list[dict]]:
    """``(hot, cold)``: 16 + 240 of the 432 catalogs of the full product,
    each an even spread over every axis of it (a stride coprime to the
    axis lengths, then 240 of the rest at equal distances)."""
    everything = [
        {"query": query, "workload": kind, "m": m // 10 if quick else m,
         "skew": skew, "p": p}
        for p in P_VALUES for skew in SKEWS
        for m_index in range(3) for kind in KINDS for query in QUERIES
        for m in [SIZES.get(kind, DEFAULT_SIZES)[m_index]]
    ]
    hot = [everything[i * 29 % len(everything)] for i in range(HOT)]
    rest = [c for c in everything if c not in hot]
    return hot, [rest[k * len(rest) // COLD] for k in range(COLD)]


def job_blocks(seed: int, quick: bool) -> Iterator[list[Job]]:
    """The endless job list, a block at a time.

    The traffic mix is part of the workload, not of the seed: which
    catalogs block ``b`` addresses with which job kinds is the same for
    every seed, so two seeds time the same work.  The seed draws the data
    (every catalog's generator seed) and the order within each block.
    """
    hot, cold = catalogs(quick)
    (plans, stats, sweeps), hot_jobs = QUICK_BLOCK if quick else BLOCK
    kinds = ["plan"] * plans + ["stats"] * stats + ["sweep"] * sweeps
    heat = [True] * hot_jobs + [False] * (len(kinds) - hot_jobs)
    mix, order = random.Random(0), random.Random(seed)
    while True:
        mix.shuffle(kinds)
        mix.shuffle(heat)
        block = []
        for kind, is_hot in zip(kinds, heat):
            c = mix.choice(hot if is_hot else cold)
            if kind == "sweep":
                spec = {"query": c["query"], "workload": c["workload"],
                        "m_values": [c["m"]], "skews": [c["skew"]],
                        "p_values": [c["p"]], "seeds": [seed]}
            else:
                spec = {**c, "seed": seed, "stats": "exact"}
            block.append(Job(kind, spec, is_hot))
        order.shuffle(block)
        yield block


# ----------------------------------------------------------------------
# The server process.
# ----------------------------------------------------------------------

class Server:
    """One ``repro serve --port 0 --job-workers 2`` child (default cache
    and queue sizes); ``setup_s`` is spawn → first 200 from ``/v1/health``."""

    def __init__(self, log) -> None:
        started = time.perf_counter()
        self.proc = spawn_repro(
            ["serve", "--port", "0", "--job-workers", "2", "-q"],
            stdout=subprocess.PIPE, stderr=log, text=True,
        )
        guard = threading.Timer(30.0, self.proc.kill)
        guard.start()
        try:
            url = self.proc.stdout.readline().strip()
            if not url.startswith("http"):
                raise RuntimeError(f"repro serve printed {url!r}, not its URL")
            self.client = ServiceClient(url)
            self.client.wait_until_healthy(timeout=30.0, interval=0.01)
        except BaseException:
            reap(self.proc)
            raise
        finally:
            guard.cancel()
        self.setup_s = time.perf_counter() - started

    def stop(self) -> None:
        """Shut down over HTTP and reap."""
        try:
            self.client.shutdown()
        except ServiceClientError:
            self.proc.kill()
        try:
            wait_or_kill(self.proc, timeout=10.0)
        finally:
            reap(self.proc)


# ----------------------------------------------------------------------
# The clients.
# ----------------------------------------------------------------------

@dataclass
class Sample:
    """One job as its client saw it (seconds on the client's clock, plus
    the durations the job's final status document reports)."""

    job: Job
    client: int
    submitted: float
    finished: float = 0.0
    submit_rtt_s: float = 0.0
    polls: int = 0
    queue_wait_s: float = 0.0
    run_s: float = 0.0
    refused: bool = False
    failure: str | None = None

    @property
    def latency_s(self) -> float:
        return self.finished - self.submitted


def do_job(client: ServiceClient, job: Job, index: int) -> Sample:
    sample = Sample(job, index, submitted=time.perf_counter())
    try:
        status = client.submit(job.kind, job.spec)
        sample.submit_rtt_s = time.perf_counter() - sample.submitted
        # The server flips ``state`` before it stamps ``finished_at``, so a
        # poll can see a done job without its end time: poll once more.
        while (status["state"] not in ("done", "failed", "cancelled")
               or status["finished_at"] is None):
            if time.perf_counter() - sample.submitted > CHILD_TIMEOUT_S:
                raise ServiceClientError(0, f"job {status['id']} timed out")
            time.sleep(POLL_INTERVAL_S)
            status = client.status(status["id"])
            sample.polls += 1
        if status["state"] != "done":
            raise ServiceClientError(0, f"job {status['state']}: {status['error']}")
        payload = client.result(status["id"])["result"]
        sample.finished = time.perf_counter()
        sample.queue_wait_s = status["started_at"] - status["submitted_at"]
        sample.run_s = status["finished_at"] - status["started_at"]
        sample.failure = check.payload_problem(job.kind, payload, job.spec)
    except ServiceClientError as exc:
        sample.finished = time.perf_counter()
        sample.refused = isinstance(exc, ServiceBusyError)
        sample.failure = str(exc)
    return sample


@dataclass
class Block:
    wall_s: float
    samples: list[Sample] = field(default_factory=list)

    @property
    def ok_ops(self) -> int:
        return sum(sample.failure is None for sample in self.samples)


def run_block(url: str, jobs: list[Job]) -> Block:
    """Drain ``jobs`` with :data:`CLIENTS` closed-loop client threads."""
    pending: queue.SimpleQueue = queue.SimpleQueue()
    for job in jobs:
        pending.put(job)

    def drain(index: int) -> list[Sample]:
        client, samples = ServiceClient(url), []
        while True:
            try:
                job = pending.get_nowait()
            except queue.Empty:
                return samples
            samples.append(do_job(client, job, index))

    started = time.perf_counter()
    with ThreadPoolExecutor(CLIENTS) as pool:
        drained = [pool.submit(drain, i) for i in range(CLIENTS)]
        samples = [s for future in drained for s in future.result()]
    return Block(time.perf_counter() - started, samples)


# ----------------------------------------------------------------------
# One run.
# ----------------------------------------------------------------------

def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 of nothing."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _hit_rate(counters: dict, section: str) -> float:
    hits = counters.get(f"service.cache.{section}.hit", 0)
    misses = counters.get(f"service.cache.{section}.miss", 0)
    return hits / (hits + misses) if hits + misses else 0.0


def layer_metrics(samples: list[Sample], counters: dict) -> dict[str, float]:
    done = [s for s in samples if s.failure is None]
    by_kind = {kind: [s.run_s for s in done if s.job.kind == kind]
               for kind in ("plan", "stats", "sweep")}
    return {
        "service.job_latency_p50_s": percentile([s.latency_s for s in done], 0.50),
        "service.job_latency_p90_s": percentile([s.latency_s for s in done], 0.90),
        "service.submit_rtt_p50_s": percentile([s.submit_rtt_s for s in done], 0.50),
        "service.queue_wait_p50_s": percentile([s.queue_wait_s for s in done], 0.50),
        "service.queue_wait_p90_s": percentile([s.queue_wait_s for s in done], 0.90),
        "service.plan_run_p50_s": percentile(by_kind["plan"], 0.50),
        "service.stats_run_p50_s": percentile(by_kind["stats"], 0.50),
        "service.sweep_run_p50_s": percentile(by_kind["sweep"], 0.50),
        "service.cache_hit_rate.stats": _hit_rate(counters, "stats"),
        "service.cache_hit_rate.plan": _hit_rate(counters, "plan"),
        "service.rejected_429": sum(s.refused for s in samples),
        "service.poll_requests": sum(s.polls for s in samples),
    }


def write_trace(samples: list[Sample]) -> None:
    """Each job as a span on its client's lane, with the queue wait and
    the run the server reported placed inside it, ending at the fetch."""
    tracer = Tracer("serve-mixed")
    for s in samples:
        job = tracer.add(f"service.job.{s.job.kind}", s.submitted, s.finished,
                         lane=s.client, hot=s.job.hot, failure=s.failure)
        run_start = max(s.submitted, s.finished - s.run_s)
        tracer.add("service.run", run_start, s.finished, job, lane=s.client)
        tracer.add("service.queue_wait", max(s.submitted, run_start - s.queue_wait_s),
                   run_start, job, lane=s.client)
    OUT.mkdir(exist_ok=True)
    tracer.write_chrome_trace(str(OUT / "trace-serve-mixed.json"))


def run(seed: int, seconds: float, quick: bool, trace: bool) -> RunResult:
    """Warm the server up, then time blocks until ``seconds`` (warm-up
    included) have passed.

    Blocks are only comparable once the cache is in its steady state —
    the first block misses on everything, the second on half — so the
    first :data:`WARMUP_BLOCKS` are run and checked but not timed: a
    service is long-lived, and a median over "however many blocks fit"
    would otherwise depend on whether that number is 3 or 5.
    """
    blocks = job_blocks(seed, quick)
    setups: list[float] = []
    before: dict = {}
    after: dict = {}
    with scratch_dir() as tmp, open(os.path.join(tmp, "stderr.log"), "w+") as log:

        def spare_servers() -> None:
            for _ in range(0 if quick else SETUP_SAMPLES - 1):
                spare = Server(log)
                setups.append(spare.setup_s)
                spare.stop()

        server = Server(log)
        setups.append(server.setup_s)
        try:
            url = server.client.base_url
            started = time.monotonic()
            warmup = [run_block(url, next(blocks))
                      for _ in range(0 if quick else WARMUP_BLOCKS)]
            if trace:
                before = server.client.metrics()["counters"]
            measured = measure_units(
                lambda: run_block(url, next(blocks)),
                max(0.0, seconds - (time.monotonic() - started)),
                spare_servers, quick,
            )
            if trace:
                after = server.client.metrics()["counters"]
            server_rss_mb = peak_rss_mb(server.proc.pid)
        finally:
            server.stop()
        samples = [s for block in measured.units for s in block.samples]
        checked = [s for block in warmup for s in block.samples] + samples
        stderr = tail(log)
    result = end_to_end_result(
        measured, setups, server_rss_mb, attempted=len(checked),
        failures=[f"{s.job.kind} job: {s.failure}" for s in checked if s.failure],
    )
    result.stderr = stderr
    if trace:
        counters = {key: value - before.get(key, 0) for key, value in after.items()}
        result.metrics.update(
            (key, measured.reference_seconds(value) if is_seconds(key) else value)
            for key, value in layer_metrics(samples, counters).items())
        result.metrics["harness.calibration_s"] = measured.kernel_s
        write_trace(samples)
    return result

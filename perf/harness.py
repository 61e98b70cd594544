"""Child processes, drift control and environment capture.

Everything the workloads share that is not about the program under
test: spawning ``python -m repro`` children, watching their memory and
reaping them; the calibration kernel that brackets every timed unit and
the arithmetic that turns raw seconds into reference seconds; and the
loop that measures units for a time budget.
"""

from __future__ import annotations

import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

from . import OUT, PERF, SRC

#: A child that has not exited after this long is killed and counted as
#: failed; the whole run must end well inside the driver's 180 s.
CHILD_TIMEOUT_S = 100.0

#: Samples of set-up per end-to-end run (``setup_s`` is their median).
SETUP_SAMPLES = 5

#: What the calibration kernel takes on the reference machine (2 cores,
#: Xeon 2.1 GHz) at its fastest; reported timings are scaled to it.
REFERENCE_KERNEL_S = 1.00


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + inherited if inherited else "")
    return env


def spawn_repro(args: list[str], **popen_kwargs) -> subprocess.Popen:
    """Start ``python -m repro ARGS`` on this checkout's sources."""
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *args], env=child_env(), **popen_kwargs
    )


def wait_or_kill(proc: subprocess.Popen, timeout: float) -> None:
    """Block until ``proc`` exits, killing it once ``timeout`` has passed.
    (``Popen.wait(timeout)`` polls with sleeps; this returns on exit.)"""
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        proc.wait()
    finally:
        timer.cancel()


def reap(proc: subprocess.Popen) -> None:
    """Make sure ``proc`` is gone; safe to call on a reaped process."""
    if proc.returncode is None:
        proc.kill()
        proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


def peak_rss_mb(pid: int) -> float:
    """The process's resident high-water mark so far (``VmHWM``), 0 once
    it has exited.  Not ``ru_maxrss``: a child's starts from the RSS it
    had between fork and exec, which is the *harness's*, so a program
    smaller than the harness would read as the harness."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class PeakRssWatcher(threading.Thread):
    """Samples :func:`peak_rss_mb` of a short-lived child every 20 ms
    (a high-water mark, so only growth in the last interval is missed)."""

    def __init__(self, pid: int) -> None:
        super().__init__(daemon=True)
        self.pid, self.peak_mb = pid, 0.0
        self._done = threading.Event()

    def run(self) -> None:
        while not self._done.is_set():
            self.peak_mb = max(self.peak_mb, peak_rss_mb(self.pid))
            self._done.wait(0.02)

    def stop(self) -> float:
        self._done.set()
        self.join()
        return self.peak_mb


@dataclass(frozen=True)
class ChildRun:
    wall_s: float
    rss_mb: float
    returncode: int


def run_repro(args: list[str], log, timeout: float = CHILD_TIMEOUT_S) -> ChildRun:
    """Run one CLI command to completion: spawn → exit, stderr to ``log``."""
    started = time.perf_counter()
    proc = spawn_repro(args, stdout=subprocess.DEVNULL, stderr=log)
    watcher = PeakRssWatcher(proc.pid)
    watcher.start()
    try:
        wait_or_kill(proc, timeout)
        wall = time.perf_counter() - started
    finally:
        reap(proc)
        rss_mb = watcher.stop()
    return ChildRun(wall, rss_mb, proc.returncode)


@contextmanager
def scratch_dir() -> Iterator[str]:
    """A temporary directory under ``perf/out`` (the benchmark writes
    nowhere outside its checkout), removed on exit."""
    OUT.mkdir(exist_ok=True)
    path = tempfile.mkdtemp(prefix="tmp-", dir=OUT)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def tail(log) -> str:
    """The end of a children's stderr log opened ``w+``."""
    log.seek(0)
    return log.read()[-2000:]


# ----------------------------------------------------------------------
# Drift control.
# ----------------------------------------------------------------------

def run_kernel(quick: bool = False) -> float:
    """Seconds for one run of the calibration kernel (``perf/kernel.py``).
    ``--quick`` does not calibrate: its seconds are raw."""
    if quick:
        return REFERENCE_KERNEL_S
    started = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(PERF / "kernel.py")])
    try:
        wait_or_kill(proc, CHILD_TIMEOUT_S)
        elapsed = time.perf_counter() - started
    finally:
        reap(proc)
    if proc.returncode != 0:
        raise RuntimeError(f"calibration kernel exited with {proc.returncode}")
    return elapsed


@dataclass
class Measured:
    """The units of one run and the kernel times around them:
    ``kernels[0]`` and ``kernels[1]`` bracket the set-up sampling,
    ``kernels[i + 1]`` and ``kernels[i + 2]`` bracket ``units[i]``.

    This machine's speed wanders by up to 2x over minutes and by a third
    from one second to the next, so raw seconds of the same work spread
    by 0.2-0.3 of their median between runs.  Every timing is therefore
    divided by the kernel time taken next to it and reported in
    *reference seconds*: what it would have taken with the kernel at
    :data:`REFERENCE_KERNEL_S`.  Measured here, that brings the spread
    between runs to 0.04-0.10; a shorter or in-process kernel, or scaling
    minimum by minimum, did worse (see README, "Reference seconds").
    """

    units: list = field(default_factory=list)
    kernels: list[float] = field(default_factory=list)

    @property
    def kernel_s(self) -> float:
        return statistics.fmean(self.kernels)

    def reference_seconds(self, raw_seconds: float) -> float:
        """``raw_seconds`` of the run as a whole, in reference seconds."""
        return raw_seconds * REFERENCE_KERNEL_S / self.kernel_s

    def setup_s(self, raw_samples: list[float]) -> float:
        around = (self.kernels[0] + self.kernels[1]) / 2
        return statistics.median(raw_samples) * REFERENCE_KERNEL_S / around

    def wall_s(self) -> float:
        """The median unit, each held against its own two kernels."""
        return REFERENCE_KERNEL_S * statistics.median(
            unit.wall_s / ((self.kernels[i + 1] + self.kernels[i + 2]) / 2)
            for i, unit in enumerate(self.units)
        )


def measure_units(run_unit: Callable[[], object], seconds: float,
                  sample_setup: Callable[[], object],
                  quick: bool = False) -> Measured:
    """Sample set-up, then run units back to back for ``seconds`` (at
    least one), the kernel before, between and after."""
    measured = Measured(kernels=[run_kernel(quick)])
    sample_setup()
    measured.kernels.append(run_kernel(quick))
    started = time.monotonic()
    # Stop when the next unit would overshoot ``seconds`` by more than it
    # undershoots now: the 92 runs of the driver share one time cap.
    while (not measured.units or time.monotonic() - started
           < seconds - 0.5 * (time.monotonic() - started) / len(measured.units)):
        measured.units.append(run_unit())
        measured.kernels.append(run_kernel(quick))
    return measured


# ----------------------------------------------------------------------
# Environment.
# ----------------------------------------------------------------------

def environment() -> dict[str, object]:
    """What the numbers were taken on; ``noisy`` when the machine was
    already busier than it has cores."""
    import numpy

    nproc = os.cpu_count() or 1
    try:
        with open("/proc/loadavg", encoding="ascii") as handle:
            loadavg = handle.read().strip()
        load_1min = float(loadavg.split()[0])
    except (OSError, ValueError):
        loadavg, load_1min = None, 0.0
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg": loadavg,
        "noisy": load_1min > nproc,
    }


# ----------------------------------------------------------------------
# What one run of one workload reports.
# ----------------------------------------------------------------------

@dataclass
class RunResult:
    """``metrics`` maps a declared metric name to its value, or to
    ``None`` when it could not be measured (``reasons`` says why, by
    metric-name prefix).  ``failures`` has one message per failed
    operation out of ``attempted``; ``notes`` is free-form context
    (raw unit walls, kernel times) for the set document; ``stderr`` is
    the end of what the children wrote there, shown when something failed."""

    attempted: int
    failures: list[str]
    metrics: dict[str, float | None]
    notes: dict[str, object] = field(default_factory=dict)
    reasons: dict[str, str] = field(default_factory=dict)
    stderr: str = ""


def is_seconds(metric: str) -> bool:
    """Whether a declared metric is a duration (``..._s``, ``..._s.<key>``)."""
    return metric.endswith("_s") or "_s." in metric


def end_to_end_result(measured: Measured, setup_raw_s: list[float],
                      peak_rss_mb: float, attempted: int,
                      failures: list[str]) -> RunResult:
    """The end-to-end metrics of a run whose units have ``wall_s`` and
    ``ok_ops``; the raw seconds stay in the notes."""
    wall = measured.wall_s()
    return RunResult(
        attempted=attempted, failures=failures,
        metrics={
            "setup_s": measured.setup_s(setup_raw_s),
            "wall_s": wall,
            "ops_per_s": statistics.median(u.ok_ops for u in measured.units) / wall,
            "peak_rss_mb": peak_rss_mb,
        },
        notes={
            "raw_wall_s": [unit.wall_s for unit in measured.units],
            "raw_setup_s": setup_raw_s,
            "kernels_s": measured.kernels,
            "calibration_s": measured.kernel_s,
        },
    )

"""A subcommand imports only what it runs.

``repro``, ``repro.api`` and ``repro.core`` resolve their re-exports on
first access (PEP 562), ``repro.cli`` imports the bench, the sketch and the
bound functions inside the subcommands that use them, and the farm imports
``multiprocessing`` when a farm is made, and the answer fingerprint is
loaded by the first verifying run.  A process that sweeps with exact
statistics therefore never loads any of them.  Every hash coefficient, the
sketch's included, comes from :mod:`repro.mpc.hashing`'s keyed BLAKE2b
(CPython's builtin ``_blake2``), so no sweep loads ``hashlib`` — whose
import loads OpenSSL's ``_hashlib`` — or ``numpy.random``.
"""

import json
import os
import subprocess
import sys

import pytest

import repro
import repro.api
import repro.core

JOIN = "q(x,y,z) :- S1(x,z), S2(y,z)"
NEVER_FOR_A_SWEEP = ("multiprocessing", "numpy.random", "numpy.ma",
                     "hashlib", "_hashlib",
                     "repro.sketch", "repro.api.bench", "repro.core.friedgut",
                     "repro.core.counting", "repro.core.mr_bounds",
                     "repro.core.residual_bounds", "repro.mpc.fingerprint",
                     "repro.seq.acyclic")


def _loaded(argv, tmp_path):
    """Which of :data:`NEVER_FOR_A_SWEEP` a fresh process running
    ``repro <argv>`` has loaded when it is done."""
    program = (
        "import json, sys; from repro.cli import main; "
        f"code = main({argv!r}); "
        f"print(json.dumps([code, [m for m in {NEVER_FOR_A_SWEEP!r} "
        "if m in sys.modules]]))"
    )
    source = os.path.dirname(os.path.dirname(repro.__file__))
    done = subprocess.run(
        [sys.executable, "-c", program], text=True, capture_output=True,
        timeout=120, check=True, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": source},
    )
    code, loaded = json.loads(done.stdout.splitlines()[-1])
    assert code == 0
    return set(loaded)


def _sweep(tmp_path, *flags):
    return ["sweep", JOIN, "--workload", "uniform", "--m", "8", "--p", "2",
            "--output", str(tmp_path / "records.json"), "-q", *flags]


def test_an_exact_sweep_loads_no_farm_sketch_bench_or_extra_bound(tmp_path):
    assert _loaded(_sweep(tmp_path), tmp_path) == set()
    records = json.loads((tmp_path / "records.json").read_text())
    assert records and all(record["status"] == "ok" for record in records)


def test_a_sketched_sweep_loads_the_sketch_and_still_no_farm(tmp_path):
    loaded = _loaded(_sweep(tmp_path, "--stats", "sketch"), tmp_path)
    assert "repro.sketch" in loaded
    assert not loaded & {"multiprocessing", "hashlib", "_hashlib",
                         "numpy.random"}


@pytest.mark.parametrize("package", [repro, repro.api, repro.core])
def test_every_exported_name_resolves(package):
    for name in package.__all__:
        assert getattr(package, name) is not None, name
    assert set(package.__all__) <= set(dir(package))
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        package.nonexistent  # noqa: B018


def test_star_import_binds_every_name():
    namespace = {}
    exec("from repro import *", namespace)
    assert set(repro.__all__) <= set(namespace)
    assert namespace["Sweep"] is repro.api.Sweep
    assert namespace["lower_bound"] is repro.core.lower_bound


def test_bench_names_stay_attributes_of_the_cli():
    import repro.cli
    from repro.api import bench

    assert repro.cli.run_suite is bench.run_suite
    assert repro.cli.BENCH_SUITES is bench.BENCH_SUITES
    with pytest.raises(AttributeError):
        repro.cli.not_a_bench_name  # noqa: B018

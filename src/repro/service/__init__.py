"""Serving plans and sweeps from one long-lived process.

Today's other entry points are cold one-shot processes; this package is
the ROADMAP's "planner-as-a-service" first step.  Three layers:

1. :mod:`repro.service.jobs` — :class:`JobQueue`, a bounded
   submit/status/result/cancel queue with explicit
   :class:`BackpressureError` rejection, drained by job workers that each
   run their jobs in a process of their own.  Its sweep jobs run through the
   library's fault-isolated executor, :func:`repro.api.execute_cells`
   (structured ``failed:``/``timeout`` records, per-cell deadlines,
   worker replacement), re-exported here.
2. :mod:`repro.service.cache` — :class:`CatalogCache`, LRU sections for
   catalog builds (database + heavy-hitter/sketch statistics) and ranked
   plans, keyed on the :class:`repro.api.Catalog` value and instrumented
   through :mod:`repro.obs`; one per job worker.
3. :mod:`repro.service.server` / :mod:`repro.service.client` —
   :class:`ReproService` (the stdlib HTTP server behind ``repro serve``)
   and :class:`ServiceClient` (behind ``repro submit``).

Typical in-process use::

    from repro.service import ReproService, ServiceClient

    service = ReproService(port=0, job_workers=2)
    service.serve_in_background()
    client = ServiceClient(service.url)
    job = client.submit("plan", {"query": "q(x,y,z) :- S1(x,z), S2(y,z)",
                                 "p": 16, "workload": "zipf", "m": 2000})
    if job["state"] in ("queued", "running"):  # not finished at the reply
        job = client.wait(job["id"])           # long-polls, never sleeps
    print(client.result(job["id"])["result"]["chosen"])
    service.shutdown()

A submit is answered with the job's status document once the job is
terminal or :data:`repro.service.server.REPLY_WAIT_S` has passed: a plan
or stats job on a warm catalog comes back ``done``, and its result is one
more request away.
"""

from ..api.experiment import execute_cells
from .cache import CatalogCache
from .client import ServiceBusyError, ServiceClient, ServiceClientError
from .jobs import (
    JOB_KINDS,
    JOB_STATES,
    BackpressureError,
    Job,
    JobQueue,
    ServiceError,
)
from .server import ReproService

__all__ = [
    "BackpressureError",
    "CatalogCache",
    "Job",
    "JobQueue",
    "JOB_KINDS",
    "JOB_STATES",
    "ReproService",
    "ServiceBusyError",
    "ServiceClient",
    "ServiceClientError",
    "ServiceError",
    "execute_cells",
]

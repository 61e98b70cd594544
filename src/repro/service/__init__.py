"""Serving plans and sweeps from one long-lived process.

Today's other entry points are cold one-shot processes; this package is
the ROADMAP's "planner-as-a-service" first step.  Three layers:

1. :mod:`repro.service.jobs` — :class:`JobQueue`, a bounded
   submit/status/result/cancel queue with explicit
   :class:`BackpressureError` rejection.  Its sweep jobs run through the
   library's fault-isolated executor, :func:`repro.api.execute_cells`
   (structured ``failed:``/``timeout`` records, per-cell deadlines,
   worker replacement), re-exported here.
2. :mod:`repro.service.cache` — :class:`CatalogCache`, LRU sections for
   catalog builds (database + heavy-hitter/sketch statistics) and ranked
   plans, keyed on the :class:`repro.api.Catalog` value and instrumented
   through :mod:`repro.obs`.
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
    client.wait(job["id"])
    print(client.result(job["id"])["result"]["chosen"])
    service.shutdown()
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

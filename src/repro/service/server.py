"""The long-lived plan/sweep server behind ``repro serve``.

A thin stdlib-only HTTP façade over :class:`~repro.service.jobs.JobQueue`
— no new dependencies, JSON in and out:

===========  =========================  =====================================
method       path                       semantics
===========  =========================  =====================================
``GET``      ``/v1/health``             liveness + job-state counts
``GET``      ``/v1/metrics``            the server's metrics registry digest
``POST``     ``/v1/jobs``               submit ``{"kind": ..., "spec": ...}``
                                        → 202 with the job id, or **429**
                                        when the bounded queue rejects
``GET``      ``/v1/jobs``               every known job's status document
``GET``      ``/v1/jobs/<id>``          one job's status document
``GET``      ``/v1/jobs/<id>/result``   the result payload (**409** until
                                        the job is ``done``)
``DELETE``   ``/v1/jobs/<id>``          cancel a queued job
``POST``     ``/v1/shutdown``           stop the server (CI teardown)
===========  =========================  =====================================

The server is threaded (``ThreadingHTTPServer``): handlers only touch the
job table, so many concurrent clients can poll while the queue's worker
threads grind through jobs.  Heavy work never runs in a handler.

Connections are persistent (HTTP/1.1 keep-alive, what
:class:`~repro.service.client.ServiceClient` uses): a handler thread serves
one connection, request after request, until the client closes it.  So
every response leaves in one write with Nagle's algorithm off — sent as
headers, then body, the body waits for the client's delayed ACK of the
headers, ≈44 ms on loopback against 0.2 ms — and
:meth:`ReproService.shutdown` closes every accepted socket, or the daemon
handler threads would go on answering for a service that has shut down.
``service.http.{connections,requests}`` count both sides of the reuse.
"""

from __future__ import annotations

import json
import logging
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from ..lp import enumerate_vertices, maximize
from ..obs import Observation
from .cache import CatalogCache
from .jobs import BackpressureError, JobQueue, ServiceError

_LOG = logging.getLogger("repro.service.server")


class _Handler(BaseHTTPRequestHandler):
    """Routes requests to the owning :class:`ReproService`."""

    # The service instance, installed by ReproService on the handler class
    # the ThreadingHTTPServer instantiates per request.
    service: "ReproService"
    protocol_version = "HTTP/1.1"
    # One segment per response, and no wait for an ACK when a large body
    # overflows the buffer into a second one.
    wbufsize = -1
    disable_nagle_algorithm = True

    # -- plumbing --------------------------------------------------------
    def handle(self) -> None:
        try:
            super().handle()
        except ConnectionError:  # dropped by the client or by shutdown()
            _LOG.debug("%s dropped its connection", self.address_string())

    def log_message(self, format: str, *args: object) -> None:
        _LOG.debug("%s %s", self.address_string(), format % args)

    def _send_json(self, code: int, payload: object,
                   close: bool = False) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.service.obs.count("service.http.requests")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if close:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)
        self.wfile.flush()

    def _read_json(self) -> object:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            raise ValueError("request needs a JSON body")
        return json.loads(self.rfile.read(length).decode("utf-8"))

    def _segments(self) -> list[str]:
        return [part for part in self.path.split("?")[0].split("/") if part]

    # -- verbs -----------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server naming
        queue = self.service.queue
        segments = self._segments()
        try:
            if segments == ["v1", "health"]:
                self._send_json(200, self.service.health())
            elif segments == ["v1", "metrics"]:
                self._send_json(200, self.service.metrics())
            elif segments == ["v1", "jobs"]:
                self._send_json(200, {"jobs": queue.jobs()})
            elif len(segments) == 3 and segments[:2] == ["v1", "jobs"]:
                self._send_json(200, queue.status(segments[2]))
            elif (len(segments) == 4 and segments[:2] == ["v1", "jobs"]
                    and segments[3] == "result"):
                job = queue.get(segments[2])
                if job.state == "done":
                    self._send_json(200, {
                        "id": job.id, "kind": job.kind, "result": job.result,
                    })
                elif job.terminal:
                    self._send_json(410, {
                        "id": job.id, "state": job.state, "error": job.error,
                    })
                else:
                    self._send_json(409, {
                        "id": job.id, "state": job.state,
                        "error": "result not ready",
                    })
            else:
                self._send_json(404, {"error": f"unknown path {self.path}"})
        except ServiceError as exc:
            self._send_json(404, {"error": str(exc)})

    def do_POST(self) -> None:  # noqa: N802
        segments = self._segments()
        if segments == ["v1", "shutdown"]:
            self._send_json(200, {"state": "shutting-down"}, close=True)
            self.service.shutdown_async()
            return
        if segments != ["v1", "jobs"]:  # body unread, so close after it
            self._send_json(404, {"error": f"unknown path {self.path}"},
                            close=True)
            return
        try:
            payload = self._read_json()
            if not isinstance(payload, dict):
                raise ValueError("request body must be a JSON object")
            kind = payload.get("kind")
            spec = payload.get("spec")
            job = self.service.queue.submit(str(kind), spec)
        except BackpressureError as exc:
            self._send_json(429, {
                "error": str(exc), "capacity": exc.capacity,
            })
        except (ValueError, ServiceError) as exc:
            self._send_json(400, {"error": str(exc)})
        else:
            self._send_json(202, job.describe())

    def do_DELETE(self) -> None:  # noqa: N802
        segments = self._segments()
        if len(segments) != 3 or segments[:2] != ["v1", "jobs"]:
            self._send_json(404, {"error": f"unknown path {self.path}"})
            return
        try:
            cancelled = self.service.queue.cancel(segments[2])
        except ServiceError as exc:
            self._send_json(404, {"error": str(exc)})
        else:
            self._send_json(200, {"id": segments[2], "cancelled": cancelled})


class _Server(ThreadingHTTPServer):
    """A threading server that knows its accepted sockets, so that shutting
    down can close them (handler threads are daemons: nothing else would)."""

    daemon_threads = True

    def __init__(self, address: tuple, handler: type,
                 obs: Observation) -> None:
        super().__init__(address, handler)
        self._obs = obs
        self._connections: set[socket.socket] = set()
        self._lock = threading.Lock()

    def process_request(self, request, client_address) -> None:
        with self._lock:
            self._connections.add(request)
        self._obs.count("service.http.connections")
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def close_connections(self) -> None:
        """Shut every open connection down (a blocked handler reads EOF)."""
        with self._lock:
            connections = list(self._connections)
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:  # the client closed it first
                pass


class ReproService:
    """One server process: a job queue, a catalog cache, an HTTP front.

    ``port=0`` binds an ephemeral port (read it back from
    :attr:`address`) — what the tests use to avoid collisions.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8765,
        queue_size: int = 32,
        job_workers: int = 2,
        cell_workers: int | None = None,
        cell_timeout: float | None = None,
        cache_capacity: int = 64,
        obs: Observation | None = None,
    ) -> None:
        self.obs = obs if obs is not None else Observation.create()
        self.cache = CatalogCache(capacity=cache_capacity, obs=self.obs)
        self.queue = JobQueue(
            queue_size=queue_size,
            workers=job_workers,
            cache=self.cache,
            obs=self.obs,
            cell_workers=cell_workers,
            cell_timeout=cell_timeout,
        )
        handler = type("_BoundHandler", (_Handler,), {"service": self})
        self._server = _Server((host, port), handler, self.obs)
        self._shutdown_started = False

    @property
    def address(self) -> tuple[str, int]:
        """``(host, port)`` actually bound (resolves ``port=0``)."""
        return self._server.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def health(self) -> dict:
        states: dict[str, int] = {}
        for job in self.queue.jobs():
            states[job["state"]] = states.get(job["state"], 0) + 1
        return {
            "state": "ok",
            "jobs": states,
            "cache_entries": len(self.cache),
            "cache_hit_rate": self.cache.hit_rate,
        }

    def metrics(self) -> dict:
        """The registry's digest, the LP memo's gauges read as it is made."""
        memos = (maximize.cache_info(), enumerate_vertices.cache_info())
        for gauge, field in (("hits", "hits"), ("misses", "misses"),
                             ("entries", "currsize")):
            self.obs.set_gauge(f"lp.cache.{gauge}",
                               sum(getattr(memo, field) for memo in memos))
        return self.obs.metrics.to_dict()

    def serve_forever(self) -> None:
        """Block serving requests until :meth:`shutdown` (or Ctrl-C)."""
        _LOG.info("repro service listening on %s", self.url)
        try:
            self._server.serve_forever(poll_interval=0.1)
        finally:
            self.queue.shutdown(wait=True)
            self._server.server_close()

    def serve_in_background(self) -> threading.Thread:
        """Start :meth:`serve_forever` on a daemon thread (tests)."""
        thread = threading.Thread(
            target=self.serve_forever, name="repro-service", daemon=True
        )
        thread.start()
        return thread

    def shutdown(self) -> None:
        if self._shutdown_started:
            return
        self._shutdown_started = True
        self._server.shutdown()
        self._server.close_connections()

    def shutdown_async(self) -> None:
        """Shut down from inside a request handler without deadlocking
        (``HTTPServer.shutdown`` blocks until ``serve_forever`` exits,
        which cannot happen from the handler's own thread)."""
        threading.Thread(target=self.shutdown, daemon=True).start()

    def __enter__(self) -> "ReproService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

"""A stdlib HTTP client for the repro service (used by ``repro submit``).

:class:`ServiceClient` speaks the JSON protocol of
:mod:`repro.service.server` over :mod:`http.client` — submit, poll,
fetch results, cancel, read metrics, shut the server down.  Error
responses become :class:`ServiceClientError` (with the HTTP status
attached); a 429 queue rejection becomes :class:`ServiceBusyError` so
callers can implement their own retry policy against backpressure.

A client holds one persistent connection per thread that uses it (a
submit/poll/fetch exchange is three or more requests, each cheaper than a
TCP connection and a server thread), opened on first use and dropped by
:meth:`ServiceClient.close`.  When a *reused* connection turns out dropped,
a ``GET`` or ``DELETE`` reconnects once and is sent again; a ``POST`` never
is — a submit that may have been accepted is reported as status 0, like an
unreachable server, for the caller to decide.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from urllib.parse import urlsplit


class ServiceClientError(RuntimeError):
    """An error response from the service (``.status`` holds the code)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status


class ServiceBusyError(ServiceClientError):
    """The server's bounded job queue rejected the submission (HTTP 429)."""


class ServiceClient:
    """Talk to one ``repro serve`` instance at ``base_url``."""

    def __init__(self, base_url: str, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self._local = threading.local()
        self._connections: list[http.client.HTTPConnection] = []

    # -- transport -------------------------------------------------------
    def _connection(self) -> http.client.HTTPConnection:
        """The calling thread's connection (opened by its first request)."""
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = self._local.connection = http.client.HTTPConnection(
                urlsplit(self.base_url).netloc, timeout=self.timeout
            )
            self._connections.append(connection)
        return connection

    def close(self) -> None:
        """Drop every connection; the next request opens a new one."""
        for connection in list(self._connections):
            connection.close()

    def _request(self, method: str, path: str,
                 payload: object | None = None) -> dict:
        data = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        connection = self._connection()
        # Only a connection that served a request before can have been
        # dropped since, and only an idempotent request may be sent twice.
        retry = connection.sock is not None and method in ("GET", "DELETE")
        while True:
            try:
                connection.request(method, path, body=data, headers=headers)
                response = connection.getresponse()
                body = response.read()
                break
            except (OSError, http.client.HTTPException) as exc:
                connection.close()
                if retry and isinstance(exc, ConnectionError):
                    retry = False
                    continue
                raise ServiceClientError(
                    0, f"cannot reach {self.base_url}: {exc}"
                ) from None
        status = response.status
        if 200 <= status < 300:
            return json.loads(body)
        try:
            message = json.loads(body).get("error", response.reason)
        except (ValueError, AttributeError):
            message = response.reason
        if status == 429:
            raise ServiceBusyError(status, message)
        raise ServiceClientError(status, message)

    # -- protocol --------------------------------------------------------
    def health(self) -> dict:
        return self._request("GET", "/v1/health")

    def metrics(self) -> dict:
        return self._request("GET", "/v1/metrics")

    def submit(self, kind: str, spec: dict) -> dict:
        """Submit a job; returns its status document (with the id)."""
        return self._request("POST", "/v1/jobs",
                             {"kind": kind, "spec": spec})

    def status(self, job_id: str) -> dict:
        return self._request("GET", f"/v1/jobs/{job_id}")

    def result(self, job_id: str) -> dict:
        """The result payload of a ``done`` job (409 until then)."""
        return self._request("GET", f"/v1/jobs/{job_id}/result")

    def cancel(self, job_id: str) -> bool:
        return bool(
            self._request("DELETE", f"/v1/jobs/{job_id}").get("cancelled")
        )

    def shutdown(self) -> dict:
        return self._request("POST", "/v1/shutdown")

    def wait(self, job_id: str, timeout: float = 120.0,
             interval: float = 0.05) -> dict:
        """Poll until the job is terminal; return its final status.

        Raises :class:`ServiceClientError` on timeout — never silently
        returns a non-terminal job.
        """
        deadline = time.monotonic() + timeout
        while True:
            status = self.status(job_id)
            if status["state"] in ("done", "failed", "cancelled"):
                return status
            if time.monotonic() >= deadline:
                raise ServiceClientError(
                    0, f"job {job_id} still {status['state']} "
                       f"after {timeout:.0f}s"
                )
            time.sleep(interval)

    def wait_until_healthy(self, timeout: float = 30.0,
                           interval: float = 0.1) -> dict:
        """Poll ``/v1/health`` until the server answers (startup races)."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                return self.health()
            except ServiceClientError:
                if time.monotonic() >= deadline:
                    raise
                time.sleep(interval)

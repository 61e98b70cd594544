"""The HTTP service lifecycle: ``repro serve`` / ``repro submit``."""

import http.client
import json
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api import RUN_RECORD_FIELDS, validate_record
from repro.service import (
    ReproService,
    ServiceBusyError,
    ServiceClient,
    ServiceClientError,
)

JOIN_TEXT = "q(x, y, z) :- S1(x, z), S2(y, z)"

PLAN_SPEC = {
    "query": JOIN_TEXT, "p": 8,
    "workload": "zipf", "m": 60, "skew": 1.0, "seed": 0,
}

SWEEP_SPEC = {
    "query": JOIN_TEXT, "workload": "zipf",
    "p_values": [4], "m_values": [40], "skews": [0.0, 1.5],
    "algorithms": ["hashjoin"],
}


@pytest.fixture
def service():
    """One live server on an ephemeral port, always shut down."""
    instance = ReproService(port=0, job_workers=2)
    instance.serve_in_background()
    client = ServiceClient(instance.url, timeout=30.0)
    client.wait_until_healthy()
    try:
        yield instance, client
    finally:
        instance.shutdown()


@pytest.fixture
def paused_service():
    """A server whose queue never drains — deterministic backpressure."""
    instance = ReproService(port=0, job_workers=0, queue_size=2)
    instance.serve_in_background()
    client = ServiceClient(instance.url, timeout=30.0)
    client.wait_until_healthy()
    try:
        yield instance, client
    finally:
        instance.shutdown()


class TestLifecycle:
    def test_health_and_metrics(self, service):
        _, client = service
        health = client.health()
        assert health["state"] == "ok"
        assert "counters" in client.metrics()

    def test_plan_job_submit_poll_result(self, service):
        _, client = service
        job = client.submit("plan", PLAN_SPEC)
        assert job["state"] in ("queued", "running")
        final = client.wait(job["id"])
        assert final["state"] == "done"
        plan = client.result(job["id"])["result"]
        assert plan["p"] == 8
        assert plan["chosen"] in {
            prediction["key"] for prediction in plan["predictions"]
        }

    def test_stats_job(self, service):
        _, client = service
        job = client.submit("stats", PLAN_SPEC)
        client.wait(job["id"])
        stats = client.result(job["id"])["result"]
        assert stats["relations"] == {"S1": 60, "S2": 60}
        assert stats["total_heavy_count"] >= 0

    def test_sweep_job_returns_schema_valid_records(self, service):
        _, client = service
        job = client.submit("sweep", SWEEP_SPEC)
        final = client.wait(job["id"], timeout=180)
        assert final["state"] == "done"
        result = client.result(job["id"])["result"]
        assert result["count"] == 2
        assert result["failed"] == 0
        for entry in result["records"]:
            validate_record(entry)
            assert set(entry) == set(RUN_RECORD_FIELDS)
            assert entry["status"] == "ok"

    def test_result_before_done_is_409(self, paused_service):
        _, client = paused_service
        job = client.submit("plan", PLAN_SPEC)
        with pytest.raises(ServiceClientError) as excinfo:
            client.result(job["id"])
        assert excinfo.value.status == 409

    def test_unknown_job_is_404(self, service):
        _, client = service
        with pytest.raises(ServiceClientError) as excinfo:
            client.status("job-999999")
        assert excinfo.value.status == 404

    def test_bad_submission_is_400(self, service):
        _, client = service
        with pytest.raises(ServiceClientError) as excinfo:
            client.submit("race", PLAN_SPEC)
        assert excinfo.value.status == 400
        with pytest.raises(ServiceClientError) as excinfo:
            client.submit("plan", {})
        assert excinfo.value.status == 400

    @pytest.mark.parametrize("field, value", [
        ("p_values", "16"), ("skews", 1.0), ("seeds", ["a"]),
        ("workers", "4"), ("workers", 0), ("cell_timeout", "soon"),
        ("p_value", [4]), ("skew", [2.0]), ("skews", [-1.0]),
    ])
    def test_malformed_sweep_spec_is_400_naming_the_field(
            self, service, field, value):
        _, client = service
        with pytest.raises(ServiceClientError) as excinfo:
            client.submit("sweep", {**SWEEP_SPEC, field: value})
        assert excinfo.value.status == 400
        assert field in str(excinfo.value)

    @pytest.mark.parametrize("kind", ["plan", "stats"])
    @pytest.mark.parametrize("field, value", [
        ("m", 2.7), ("seed", True), ("skew", "hot"), ("p", 0),
        ("stats", "bogus"), ("workload", "nope"),
        ("P", 4), ("kind", "worst"), ("skew", -1),
    ])
    def test_malformed_catalog_spec_is_400_naming_the_field(
            self, service, kind, field, value):
        _, client = service
        with pytest.raises(ServiceClientError) as excinfo:
            client.submit(kind, {**PLAN_SPEC, field: value})
        assert excinfo.value.status == 400
        assert field in str(excinfo.value)

    def test_failed_job_reports_error(self, service):
        _, client = service
        job = client.submit("plan", {"query": "not a query at all"})
        final = client.wait(job["id"])
        assert final["state"] == "failed"
        assert final["error"]
        with pytest.raises(ServiceClientError) as excinfo:
            client.result(job["id"])
        assert excinfo.value.status == 410


class TestBackpressure:
    def test_full_queue_rejects_with_429(self, paused_service):
        _, client = paused_service
        client.submit("plan", PLAN_SPEC)
        client.submit("plan", PLAN_SPEC)
        with pytest.raises(ServiceBusyError) as excinfo:
            client.submit("plan", PLAN_SPEC)
        assert excinfo.value.status == 429
        # The rejection is observable and the queue is undamaged.
        counters = client.metrics()["counters"]
        assert counters["service.jobs.rejected"] == 1
        assert counters["service.jobs.submitted"] == 2

    def test_cancel_queued_job(self, paused_service):
        _, client = paused_service
        job = client.submit("plan", PLAN_SPEC)
        assert client.cancel(job["id"]) is True
        assert client.status(job["id"])["state"] == "cancelled"
        # A cancelled slot frees queue capacity only once a worker drains
        # it, so the job table still lists the job.
        assert client.cancel(job["id"]) is False


class TestCatalogCache:
    def test_repeated_catalog_hits_the_cache(self, service):
        instance, client = service
        first = client.submit("plan", PLAN_SPEC)
        client.wait(first["id"])
        cold = client.metrics()["counters"]
        assert cold.get("service.cache.hit", 0) == 0
        assert cold["service.cache.miss"] >= 2  # stats, plan

        second = client.submit("plan", PLAN_SPEC)
        client.wait(second["id"])
        warm = client.metrics()["counters"]
        assert warm["service.cache.hit"] >= 2
        assert warm["service.cache.miss"] == cold["service.cache.miss"]
        assert client.result(second["id"])["result"] == \
            client.result(first["id"])["result"]
        assert instance.queue.cache.hit_rate > 0

    def test_health_exposes_cache_occupancy(self, service):
        _, client = service
        job = client.submit("plan", PLAN_SPEC)
        client.wait(job["id"])
        health = client.health()
        assert health["cache_entries"] >= 2


class TestConcurrentClients:
    def test_two_clients_submit_against_one_server(self, service):
        """The acceptance scenario: two concurrent submitters both
        complete, and the second catalog-identical request hits the
        cache."""
        instance, client = service
        outcomes = {}

        def _submit(name):
            own_client = ServiceClient(instance.url, timeout=30.0)
            job = own_client.submit("plan", PLAN_SPEC)
            final = own_client.wait(job["id"])
            outcomes[name] = (
                final["state"],
                own_client.result(job["id"])["result"]["chosen"],
            )

        threads = [
            threading.Thread(target=_submit, args=(name,))
            for name in ("first", "second")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert outcomes["first"][0] == "done"
        assert outcomes["second"][0] == "done"
        assert outcomes["first"][1] == outcomes["second"][1]
        counters = client.metrics()["counters"]
        assert counters["service.jobs.done"] == 2
        # Identical catalogs: at least one side was served from cache.
        # (Both may build if they race the first lookup; the cache
        # documents that as deterministic duplicate work — and then no
        # hit was ever counted, so the counter does not exist.)
        assert counters.get("service.cache.hit", 0) + \
            counters["service.cache.miss"] >= 4

    def test_shutdown_endpoint_stops_the_server(self):
        instance = ReproService(port=0, job_workers=1)
        thread = instance.serve_in_background()
        client = ServiceClient(instance.url, timeout=30.0)
        client.wait_until_healthy()
        assert client.shutdown()["state"] == "shutting-down"
        # The listener goes away; subsequent requests fail to connect.
        thread.join(timeout=30)
        assert not thread.is_alive()
        with pytest.raises(ServiceClientError):
            client.health()


def _http_counters(client):
    counters = client.metrics()["counters"]
    return (counters["service.http.connections"],
            counters["service.http.requests"])


class TestPersistentConnections:
    """One connection per (client, thread); one segment per response."""

    def test_sequential_calls_share_one_connection(self, service):
        _, client = service
        job = client.submit("plan", PLAN_SPEC)
        client.wait(job["id"])
        client.result(job["id"])
        for _ in range(10):
            client.health()
        connections, requests = _http_counters(client)
        assert connections == 1
        # (This metrics request is counted once its digest is rendered.)
        assert requests >= 14

    def test_threads_sharing_a_client_hold_a_connection_each(self, service):
        _, client = service
        job = client.submit("plan", PLAN_SPEC)
        before, _ = _http_counters(client)
        arrived = threading.Barrier(4, timeout=30)

        def poll(_):
            arrived.wait()  # so that no thread is reused for two of them
            return [client.status(job["id"])["id"] for _ in range(50)]

        with ThreadPoolExecutor(4) as pool:
            answers = list(pool.map(poll, range(4)))
        assert answers == [[job["id"]] * 50] * 4
        after, _ = _http_counters(client)
        assert after - before == 4

    def test_a_dropped_connection_reconnects_a_get_but_never_a_post(
            self, service):
        instance, client = service
        job = client.submit("plan", PLAN_SPEC)
        client.wait(job["id"])
        before, _ = _http_counters(client)

        instance._server.close_connections()
        assert client.status(job["id"])["state"] == "done"
        after, _ = _http_counters(client)
        assert after - before == 1  # one reconnect, no more

        jobs = instance.queue.jobs()
        instance._server.close_connections()
        with pytest.raises(ServiceClientError) as excinfo:
            client.submit("plan", PLAN_SPEC)
        assert excinfo.value.status == 0
        assert not isinstance(excinfo.value, ServiceBusyError)
        assert instance.queue.jobs() == jobs  # nothing was sent twice
        # The client is not wedged: the next call opens a new connection.
        assert client.submit("plan", PLAN_SPEC)["state"] in ("queued", "running")

    def test_close_drops_the_connections_and_the_client_stays_usable(
            self, service):
        _, client = service
        before, _ = _http_counters(client)
        client.close()
        assert client.health()["state"] == "ok"
        after, _ = _http_counters(client)
        assert after - before == 1

    def test_wait_until_healthy_rides_out_a_server_not_listening_yet(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        client = ServiceClient(f"http://127.0.0.1:{port}", timeout=30.0)
        with pytest.raises(ServiceClientError) as excinfo:
            client.health()
        assert excinfo.value.status == 0
        assert "cannot reach" in str(excinfo.value)

        started = []

        def start_late():
            time.sleep(0.3)
            started.append(ReproService(port=port, job_workers=0))
            started[0].serve_in_background()

        starter = threading.Thread(target=start_late)
        starter.start()
        try:
            assert client.wait_until_healthy(
                timeout=30.0, interval=0.02)["state"] == "ok"
        finally:
            starter.join(timeout=30)
            for instance in started:
                instance.shutdown()

    def test_a_keep_alive_response_is_not_held_back_by_nagle(self, service):
        """Headers and body in two segments cost a persistent client the
        delayed ACK of the first: 44 ms a response, 0.88 s for these."""
        instance, _ = service
        connection = http.client.HTTPConnection(*instance.address, timeout=30)
        try:
            started = time.perf_counter()
            for _ in range(20):
                connection.request("GET", "/v1/health")
                response = connection.getresponse()
                assert response.status == 200
                assert json.loads(response.read())["state"] == "ok"
            assert time.perf_counter() - started < 0.4
        finally:
            connection.close()


class TestShutdownClosesOpenConnections:
    def test_an_unread_body_is_never_parsed_as_the_next_request(self, service):
        instance, _ = service
        connection = http.client.HTTPConnection(*instance.address, timeout=30)
        try:
            connection.request("POST", "/v1/nowhere", body=b"GET /v1/jobs")
            response = connection.getresponse()
            assert response.status == 404
            assert response.getheader("Connection") == "close"
            response.read()
            connection.request("GET", "/v1/health")  # reconnects
            assert connection.getresponse().status == 200
        finally:
            connection.close()

    def test_a_shut_down_service_stops_answering_on_open_connections(self):
        instance = ReproService(port=0, job_workers=1)
        thread = instance.serve_in_background()
        early = http.client.HTTPConnection(*instance.address, timeout=30)
        other = http.client.HTTPConnection(*instance.address, timeout=30)
        try:
            early.request("GET", "/v1/health")
            assert json.loads(early.getresponse().read())["state"] == "ok"

            other.request("POST", "/v1/shutdown")
            response = other.getresponse()
            assert response.status == 200
            assert response.getheader("Connection") == "close"
            assert json.loads(response.read())["state"] == "shutting-down"
            thread.join(timeout=30)
            assert not thread.is_alive()

            # The connection opened before the shutdown is gone too: no
            # ``200 ok`` from a service whose queue and listener are closed.
            with pytest.raises((ConnectionError, http.client.HTTPException)):
                early.request("GET", "/v1/health")
                early.getresponse()
        finally:
            early.close()
            other.close()
            instance.shutdown()

"""The HTTP service lifecycle: ``repro serve`` / ``repro submit``."""

import threading

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

"""The HTTP round trip: long-poll status, kept-alive connections and
the per-connection / per-route request counters."""

from __future__ import annotations

import http.client
import json
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.obs.metrics import REGISTRY
from repro.service import ReproService, ServiceClient, ServiceError, server

#: a sweep long enough to keep a one-worker engine busy
BLOCKER = dict(workload="adpcm", latencies="12",
               clocks_ps=",".join(str(900 + 7 * i) for i in range(40)))


def _get(url: str) -> dict:
    with urllib.request.urlopen(url, timeout=60) as resp:
        return json.loads(resp.read().decode())


def _counter(name: str) -> int:
    return REGISTRY.counters.get(name, 0)


def _cancel_and_drain(client, *job_ids):
    for job_id in job_ids:
        try:
            client.cancel(job_id)
        except ServiceError as err:
            assert err.status == 409  # already terminal is fine
        client.wait(job_id, timeout=120)


@pytest.fixture
def busy_service():
    """A one-worker service whose worker runs BLOCKER, and a job queued
    behind it."""
    with ReproService(port=0, workers=1, mode="inline") as svc:
        client = ServiceClient(svc.url)
        blocker = client.submit("sweep", **BLOCKER)
        queued = client.submit("schedule", workload="fir")
        yield svc, client, queued["id"]
        _cancel_and_drain(client, queued["id"], blocker["id"])


# ----------------------------------------------------------------------
# long-poll
# ----------------------------------------------------------------------
def test_long_poll_returns_at_once_for_a_terminal_job(service):
    svc, client = service
    job = client.submit("schedule", workload="fir")
    svc.engine.wait(job["id"], timeout=60)
    start = time.monotonic()
    status = _get(f"{svc.url}/jobs/{job['id']}?wait=30")
    assert status["state"] == "done"
    assert time.monotonic() - start < 10  # far below the 30 s slice


def test_long_poll_slice_ends_with_the_job_still_queued(busy_service):
    svc, _, job_id = busy_service
    start = time.monotonic()
    status = _get(f"{svc.url}/jobs/{job_id}?wait=0.2")
    assert status["state"] == "queued"
    assert time.monotonic() - start >= 0.2


@pytest.mark.parametrize("value", ["abc", "-1", "nan", "inf", ""])
def test_long_poll_rejects_a_malformed_wait(service, value):
    svc, client = service
    job = client.submit("schedule", workload="fir")
    with pytest.raises(urllib.error.HTTPError) as err:
        _get(f"{svc.url}/jobs/{job['id']}?wait={value}")
    assert err.value.code == 400
    error = json.loads(err.value.read().decode())["error"]
    assert (error["code"], error["reason"]) == (3, "bad-input")
    assert "wait" in error["message"]


def test_closing_the_queue_releases_a_parked_long_poll(busy_service):
    svc, _, job_id = busy_service
    polled = []
    poller = threading.Thread(target=lambda: polled.append(
        _get(f"{svc.url}/jobs/{job_id}?wait=30")))
    poller.start()
    time.sleep(0.2)  # let it park
    svc.engine.queue.close()  # what ReproService.stop() does first
    poller.join(timeout=10)
    assert not poller.is_alive()
    assert polled[0]["state"] == "queued"
    svc.engine.queue.reopen()


def test_client_wait_raises_timeout_on_a_live_job(busy_service):
    _, client, job_id = busy_service
    with pytest.raises(TimeoutError, match="still queued"):
        client.wait(job_id, timeout=0.2, poll_s=0.01)


# ----------------------------------------------------------------------
# keep-alive
# ----------------------------------------------------------------------
def test_submit_wait_result_is_one_connection_one_status_request(service):
    svc, _ = service
    client = ServiceClient(svc.url)
    connections = _counter("service.http.connections")
    statuses = _counter("service.http.requests.status")
    job = client.submit("schedule", workload="fir", clock_ps=1600)
    assert client.wait(job["id"], timeout=60)["state"] == "done"
    assert client.result(job["id"])["result"]["schedule"]
    assert _counter("service.http.connections") - connections == 1
    assert _counter("service.http.requests.status") - statuses == 1
    metrics = client.metrics()
    assert "service_http_connections_total" in metrics
    assert "service_http_requests_status_total" in metrics


def test_client_reconnects_after_the_server_drops_an_idle_connection(
        service):
    svc, _ = service
    client = ServiceClient(svc.url)
    connections = _counter("service.http.connections")
    assert client.healthz()["ok"] is True
    svc._httpd.drop_connections()
    assert client.healthz()["ok"] is True
    assert _counter("service.http.connections") - connections == 2


def test_two_threads_share_one_client(service):
    svc, _ = service
    client = ServiceClient(svc.url)
    connections = _counter("service.http.connections")
    results, errors = {}, []

    def drive(clock):
        try:
            job = client.submit("schedule", workload="fir",
                                clock_ps=clock)
            client.wait(job["id"], timeout=60)
            results[clock] = client.result(job["id"])["result"]
        except Exception as exc:  # surfaced by the assert below
            errors.append(exc)

    threads = [threading.Thread(target=drive, args=(clock,))
               for clock in (1600.0, 2000.0)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not errors
    assert sorted(results) == [1600.0, 2000.0]
    # one connection per thread
    assert _counter("service.http.connections") - connections == 2


def test_http_counters_lose_no_update_under_concurrent_clients(service):
    svc, _ = service
    clients, requests = 8, 40
    connections = _counter("service.http.connections")
    healthz = _counter("service.http.requests.healthz")
    errors = []

    def drive():
        client = ServiceClient(svc.url)
        try:
            for _ in range(requests):
                client.healthz()
        except Exception as exc:  # surfaced by the assert below
            errors.append(exc)
        finally:
            client.close()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=drive) for _ in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert _counter("service.http.connections") - connections == clients
    assert _counter("service.http.requests.healthz") - healthz == \
        clients * requests


def test_oversized_submit_is_a_400_and_the_connection_stays_usable(
        service):
    svc, _ = service
    client = ServiceClient(svc.url)
    assert client.healthz()["ok"] is True
    connections = _counter("service.http.connections")
    with pytest.raises(ServiceError) as err:
        client.submit("schedule", source="#" * server.MAX_BODY)
    assert err.value.status == 400
    assert "over" in str(err.value)
    assert client.healthz()["ok"] is True
    assert _counter("service.http.connections") == connections


@pytest.mark.parametrize("body,reason,fragment", [
    ({"kind": "schedule", "workload": "fir", "clock_ps": "fast"},
     "bad-clock", "bad clock_ps"),
    ({"kind": "schedule", "workload": "fir", "ii": 0},
     "bad-microarch", "bad ii"),
    ({"kind": "sweep", "workload": "fir", "latencies": "3:0"},
     "bad-microarch", "bad microarch"),
    ({"kind": "stream", "pipeline": "matmul_relu_stream",
      "clock_ps": -1}, "bad-clock", "bad clock_ps"),
], ids=["malformed-clock", "zero-ii", "zero-ii-spec", "negative-clock"])
def test_a_bad_number_is_a_400_on_a_connection_that_stays_usable(
        service, body, reason, fragment):
    svc, _ = service
    conn = http.client.HTTPConnection(f"127.0.0.1:{svc.port}", timeout=30)
    connections = _counter("service.http.connections")
    try:
        conn.request("POST", "/jobs", body=json.dumps(body).encode(),
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        assert response.status == 400
        error = json.loads(response.read().decode())["error"]
        assert (error["code"], error["reason"]) == (3, reason)
        assert fragment in error["message"]
        conn.request("GET", "/healthz")
        response = conn.getresponse()
        assert response.status == 200
        assert json.loads(response.read().decode())["ok"] is True
    finally:
        conn.close()
    assert _counter("service.http.connections") - connections == 1


def test_post_to_an_unknown_path_keeps_the_connection_in_step(service):
    svc, _ = service
    conn = http.client.HTTPConnection(f"127.0.0.1:{svc.port}", timeout=30)
    try:
        conn.request("POST", "/nope", body=b'{"kind": "schedule"}',
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        assert response.status == 404
        response.read()
        conn.request("GET", "/healthz")
        response = conn.getresponse()
        assert response.status == 200
        assert json.loads(response.read().decode())["ok"] is True
    finally:
        conn.close()


def test_a_body_too_large_to_drain_closes_the_connection(
        service, monkeypatch):
    svc, _ = service
    monkeypatch.setattr(server, "MAX_DRAIN", 8)
    client = ServiceClient(svc.url)
    assert client.healthz()["ok"] is True
    connections = _counter("service.http.connections")
    conn = client._local.conn
    conn.request("POST", "/nope", body=b"x" * 64)
    response = conn.getresponse()
    assert response.status == 404
    assert response.getheader("Connection") == "close"
    response.read()
    assert client.healthz()["ok"] is True  # on a fresh connection
    assert _counter("service.http.connections") - connections == 1


def test_unreachable_service_raises_oserror():
    with ReproService(port=0, workers=1, mode="inline") as svc:
        client = ServiceClient(svc.url)
        assert client.healthz()["ok"] is True
    with pytest.raises(OSError):
        client.healthz()

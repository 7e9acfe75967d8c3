"""HTTP endpoint tests against a live (inline-engine) service.

The status mapping under test is the contract documented in
docs/SERVICE.md: 202 accepted/pending, 200 done, 410 cancelled, 500
failed, 404 unknown, 400 rejected, 409 cancel-after-terminal.
"""

from __future__ import annotations

import json
import urllib.request

import pytest

from repro.service import ServiceError


def _cancel_if_active(client, job_id):
    """Cancel a cleanup job, tolerating one that already finished."""
    try:
        client.cancel(job_id)
    except ServiceError as err:
        assert err.status == 409  # already terminal is fine


def test_healthz_and_stats(service):
    _, client = service
    health = client.healthz()
    assert health["ok"] is True
    assert health["degraded"] is False
    stats = client.stats()
    for field in ("queue_depth", "dedup_hits", "cache_hit_rate",
                  "jobs_per_sec", "served_jobs", "jobs"):
        assert field in stats


def test_job_lifecycle_over_http(service):
    _, client = service
    job = client.submit("schedule", workload="fir", clock_ps=1600)
    assert job["state"] in ("queued", "running")
    assert job["deduplicated"] is False
    final = client.wait(job["id"], timeout=60)
    assert final["state"] == "done"
    payload = client.result(job["id"])
    assert payload["result"]["schedule"]["region"] == "fir"


def test_duplicate_submission_dedups_over_http(service):
    _, client = service
    body = dict(workload="fir", clocks_ps="1600,2400", latencies="3,4")
    first = client.submit("sweep", **body)
    second = client.submit("sweep", **body)
    assert second["deduplicated"] is True
    assert second["dedup_of"] == first["id"]
    client.wait(first["id"], timeout=60)
    result_first = client.result(first["id"])["result"]
    result_second = client.result(second["id"])["result"]
    assert result_first == result_second  # bit-equal across the wire
    assert client.stats()["dedup_hits"] == 1


def test_result_status_codes(service):
    _, client = service
    # unknown job: 404 everywhere
    for method in (client.status, client.result, client.cancel):
        with pytest.raises(ServiceError) as err:
            method("doesnotexist")
        assert err.value.status == 404
    # bad submission: 400 with a message
    with pytest.raises(ServiceError) as err:
        client.submit("schedule", workload="nope")
    assert err.value.status == 400
    assert "unknown workload" in str(err.value)
    # failed job: result is 500 with the error record
    job = client.submit("schedule", workload="fft8", clock_ps=400, ii=1)
    client.wait(job["id"], timeout=60)
    with pytest.raises(ServiceError) as err:
        client.result(job["id"])
    assert err.value.status == 500
    assert err.value.payload["error"]["reason"] == "unsatisfied"


def test_unknown_strategy_rejected_at_submit(service):
    _, client = service
    with pytest.raises(ServiceError) as err:
        client.submit("tune", workload="fir", strategy="halving")
    assert err.value.status == 400
    assert "unknown strategy" in str(err.value)
    assert client.stats()["queue_depth"] == 0


def test_cancel_status_codes(service):
    svc, client = service
    # saturate both workers so the target job stays queued
    blockers = [client.submit("sweep", workload="adpcm",
                              clocks_ps=",".join(
                                  str(900 + 7 * i) for i in range(40)),
                              latencies=f"1{j}")
                for j in range(2)]
    target = client.submit("schedule", workload="fft8")
    cancelled = client.cancel(target["id"])
    assert cancelled["state"] == "cancelled"
    # result of a cancelled job: 410 gone
    with pytest.raises(ServiceError) as err:
        client.result(target["id"])
    assert err.value.status == 410
    # cancelling a terminal job: 409 conflict
    with pytest.raises(ServiceError) as err:
        client.cancel(target["id"])
    assert err.value.status == 409
    for blocker in blockers:
        _cancel_if_active(client, blocker["id"])
        client.wait(blocker["id"], timeout=60)


def test_unknown_endpoints_404(service):
    svc, _ = service
    for path in ("/nope", "/jobs/x/y/z", "/jobs/x/notresult"):
        req = urllib.request.Request(svc.url + path)
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=10)
        assert err.value.code == 404


def test_malformed_bodies_400(service):
    svc, _ = service
    for body in (b"not json", b"[1, 2]", b'{"kind": "schedule"}'):
        req = urllib.request.Request(
            svc.url + "/jobs", data=body, method="POST",
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=10)
        assert err.value.code == 400
        payload = json.loads(err.value.read().decode())
        assert payload["error"]["message"]


def test_priority_ordering_observable_over_http(tmp_path):
    """With one worker busy, a high-priority job overtakes the queue."""
    from repro.service import ReproService, ServiceClient

    with ReproService(port=0, workers=1, mode="inline") as svc:
        client = ServiceClient(svc.url)
        clocks = ",".join(str(900 + 7 * i) for i in range(40))
        blocker = client.submit("sweep", workload="adpcm",
                                clocks_ps=clocks, latencies="12")
        low = client.submit("schedule", workload="fir", priority=0)
        high = client.submit("schedule", workload="fft8", priority=5)
        client.wait(high["id"], timeout=120)
        low_after_high = client.status(low["id"])
        # the high-priority job finished while the low one still waits
        # (the blocker may or may not have finished; low must not have
        # run before high)
        assert low_after_high["state"] in ("queued", "running") or (
            low_after_high.get("started_at", 0)
            >= client.status(high["id"])["started_at"])
        _cancel_if_active(client, blocker["id"])
        client.wait(low["id"], timeout=120)

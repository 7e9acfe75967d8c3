#!/usr/bin/env python
"""Live-service smoke: mixed clients against a booted job server.

Boots a process-mode :class:`repro.service.ReproService`, fires 20
concurrent clients at it -- submits across every job kind, a duplicate
pair that must dedup, polls, and a few cancels -- then asserts the
terminal picture:

* every job reached a terminal state (nothing hung, queue drained);
* the duplicate pair shared one execution (``/stats`` counts the hit)
  and returned bit-equal results;
* cancelled jobs answer 410 on ``/jobs/<id>/result``;
* done jobs serve a Chrome trace on ``/jobs/<id>/trace`` whose spans
  carry the worker process's pid (cross-process collection);
* ``/metrics`` serves Prometheus text with the job-latency histogram
  and ``/stats`` carries hit rates + per-kind latency percentiles;
* a submit with a malformed number answers 400 with the error
  taxonomy's body, on a connection that stays alive;
* every ``ServiceClient`` kept one connection alive for all its
  requests (``service.http.connections`` == clients + 1);
* the engine never degraded.

Throughput figures land in ``SERVICE_smoke.json`` (override with
``REPRO_SMOKE_JSON``) for CI artifact upload.  Dependency-free by
design -- same constraint as the service itself.
"""

from __future__ import annotations

import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.obs.metrics import REGISTRY
from repro.service import ReproService, ServiceClient, ServiceError

DUPLICATE = {"kind": "sweep", "workload": "fir",
             "clocks_ps": "1600,2400", "latencies": "3,4"}

#: 20 clients: 2 duplicates, 3 cancels, and 15 distinct submissions.
CLIENTS = (
    [("dup", DUPLICATE)] * 2
    + [("cancel", {"kind": "sweep", "workload": "adpcm",
                   "clocks_ps": ",".join(str(900 + 7 * i)
                                         for i in range(40)),
                   "latencies": f"1{j}"}) for j in range(3)]
    + [("run", {"kind": "schedule", "workload": w})
       for w in ("fir", "adpcm", "fft8", "idct", "mips")]
    + [("run", {"kind": "sweep", "workload": "fir",
                "clocks_ps": f"{1500 + 40 * j},{2300 + 40 * j}",
                "latencies": "3,4"}) for j in range(5)]
    + [("run", {"kind": "tune", "workload": "fir",
                "objective": "area", "delay_ps": 9000.0 + 500 * j,
                "strategy": "greedy", "clocks_ps": "1600,2400",
                "latencies": "3,4"}) for j in range(4)]
    + [("run", {"kind": "stream", "pipeline": "fir_decimate_stream"})]
)


def drive(client: ServiceClient, role: str, body: dict) -> dict:
    body = dict(body)
    kind = body.pop("kind")
    job = client.submit(kind, **body)
    if role == "cancel":
        # poll a moment (mixing poll traffic in), then cancel
        for _ in range(3):
            client.status(job["id"])
        try:
            client.cancel(job["id"])
        except ServiceError as err:
            assert err.status == 409, err  # finished first: fine
    final = client.wait(job["id"], timeout=600)
    return {"role": role, "id": job["id"], "state": final["state"],
            "deduplicated": job.get("deduplicated", False)}


def main() -> int:
    with ReproService(port=0, workers=2, mode="process",
                      job_timeout_s=600) as service:
        client = ServiceClient(service.url)
        assert client.healthz()["ok"] is True
        # a malformed number is a 400 with the taxonomy's body, and
        # this client's connection stays alive (counted below)
        try:
            client.submit("schedule", workload="fir", clock_ps="fast")
            raise AssertionError("malformed clock_ps accepted")
        except ServiceError as err:
            assert err.status == 400, err
            error = err.payload["error"]
            assert (error["code"], error["reason"]) == (3, "bad-clock"), \
                error
            assert "bad clock_ps" in error["message"], error
        t0 = time.perf_counter()
        with ThreadPoolExecutor(max_workers=len(CLIENTS)) as pool:
            outcomes = list(pool.map(
                lambda rb: drive(ServiceClient(service.url), *rb),
                CLIENTS))
        elapsed = time.perf_counter() - t0
        stats = client.stats()

        # every client reached a terminal state -- nothing hung
        terminal = {"done", "failed", "cancelled"}
        assert all(o["state"] in terminal for o in outcomes), outcomes
        assert stats["queue_depth"] == 0, stats

        # the duplicate pair shared one execution, bit-equal results
        dups = [o for o in outcomes if o["role"] == "dup"]
        assert len(dups) == 2 and all(o["state"] == "done"
                                      for o in dups), dups
        assert any(o["deduplicated"] for o in dups), dups
        assert stats["dedup_hits"] >= 1, stats
        first, second = (client.result(o["id"])["result"] for o in dups)
        assert first == second, "duplicate results diverged"

        # cancelled jobs answer 410 on the result endpoint
        for o in outcomes:
            if o["state"] != "cancelled":
                continue
            try:
                client.result(o["id"])
                raise AssertionError(f"{o['id']}: result after cancel")
            except ServiceError as err:
                assert err.status == 410, err

        # done jobs serve a Chrome trace; process-mode spans carry the
        # worker pid, not the server's (cross-process collection)
        done_jobs = [o for o in outcomes if o["state"] == "done"]
        trace = client.trace(done_jobs[0]["id"])
        events = trace["traceEvents"]
        assert events, "empty trace for a done job"
        names = {e["name"] for e in events}
        assert "service.job" in names, sorted(names)
        assert all(e["pid"] != os.getpid() for e in events), \
            "job spans carry the server pid -- not from the worker"

        # /metrics is scrape-ready Prometheus text
        metrics = client.metrics()
        assert "# TYPE" in metrics, metrics[:200]
        assert "service_job_seconds_" in metrics, metrics[:200]
        assert "service_queue_depth" in metrics, metrics[:200]

        # /stats carries hit rates + per-kind latency percentiles
        assert "store_hit_rate" in stats, sorted(stats)
        latency = client.stats()["job_latency"]
        assert latency and all("p90_s" in v for v in latency.values()), \
            latency

        assert client.healthz()["degraded"] is False, "pool died"

        # one kept-alive connection per ServiceClient: the 20 clients
        # plus this one
        connections = REGISTRY.counters.get("service.http.connections", 0)
        assert connections == len(CLIENTS) + 1, connections
        status_requests = REGISTRY.counters.get(
            "service.http.requests.status", 0)

    done = sum(o["state"] == "done" for o in outcomes)
    record = {
        "clients": len(CLIENTS),
        "done": done,
        "cancelled": sum(o["state"] == "cancelled" for o in outcomes),
        "failed": sum(o["state"] == "failed" for o in outcomes),
        "dedup_hits": stats["dedup_hits"],
        "elapsed_s": round(elapsed, 3),
        "jobs_per_sec": round(len(CLIENTS) / elapsed, 2),
        "cache_hit_rate": stats.get("cache_hit_rate"),
        "http_connections": connections,
        "status_requests": status_requests,
    }
    out = Path(os.environ.get("REPRO_SMOKE_JSON", "SERVICE_smoke.json"))
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print("service smoke ok:", json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

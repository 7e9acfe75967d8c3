"""service_mix: two closed-loop clients against a process-mode service.

Each pass boots ``ReproService(port=0, workers=2)`` on an empty result
store (boot is outside the timed window).  Two ``ServiceClient``
threads each submit their next job only after the previous one is
terminal.  A client's list mixes ``schedule``, ``sweep``, ``tune`` and
``stream`` jobs over small registry workloads; about half of it
repeats an earlier job of the same client (deduplicated, served from
the completed result) or overlaps an earlier sweep (half of its points
served from the store).  The rest is fresh synthesis.

The two clients draw clocks from disjoint sets, and a client only
repeats or overlaps its own jobs, which are terminal by then; so
dedup hits, store hits and fresh points are the same in every pass
and for every seed.  The seed orders each client's fresh jobs and
picks which earlier job each repeat names.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import tempfile
import threading
import time

from harness import Op, PassResult, chrome_to_spans, median, percentile

NAME = "service_mix"
WORKERS = 2
#: a traced pass must hold spans from the forked job workers
TRACE_MIN_PIDS = 2
#: client poll interval; finer than the client's 50 ms default so the
#: latency figures resolve the jobs, most of which take 5-60 ms.
POLL_S = 0.005
SCHEDULE_WORKLOADS = ("example1", "fir", "idct8", "matmul", "sobel",
                      "conv3x3", "matmul_mem", "synthetic")
PIPELINES = ("matmul_relu_stream", "sobel_threshold_stream",
             "fir_decimate_stream")


def _client_plan(client: int, rng: random.Random, tiny: bool):
    """(kind, params, role) list for one client; role is fresh, repeat
    or overlap."""
    base = 1600.0 + 50.0 * client  # client 0: x00 clocks, client 1: x50
    clocks = [base + 200.0 * i for i in range(8)]
    fresh = []
    for workload in SCHEDULE_WORKLOADS[:2 if tiny else None]:
        # every schedule workload is feasible at these clocks
        for clock in (base, base + 100.0)[:1 if tiny else 2]:
            fresh.append(("schedule", {"workload": workload,
                                       "clock_ps": clock}))
    # disjoint clock pairs, so fresh sweeps share no point.  The store
    # fsyncs every fresh point; two sweeps keep its write path in the
    # mix without disk latency ruling the pass.
    fresh += [("sweep", {"workload": "fir", "latencies": "3,4",
                         "clocks_ps": clocks[2 * i:2 * i + 2]})
              for i in range(1 if tiny else 2)]
    fresh += [("tune", {"workload": "example1", "latencies": "2,3",
                        "clocks_ps": clocks[3 * i:3 * i + 3]})
              for i in range(1 if tiny else 2)]
    fresh += [("stream", {"pipeline": p, "clock_ps": base})
              for p in PIPELINES[:1 if tiny else None]]
    rng.shuffle(fresh)
    plan, done = [], []
    for kind, params in fresh:
        plan.append((kind, params, "fresh"))
        done.append((kind, params))
        if kind == "sweep":
            # shares its first clock column with the sweep just run
            last = params["clocks_ps"][1]
            plan.append((kind, dict(params, clocks_ps=[last, last + 100.0]),
                         "overlap"))
        else:
            plan.append(rng.choice(done) + ("repeat",))
    return plan


class Workload:
    #: the pass's CPU time is mostly the server's and clients' threads
    #: and the forked jobs' kernel work (fork, pipes, sockets), which
    #: follow the main thread's reference walk one to one: over 25 runs
    #: an exponent of 1.0 spread 0.04-0.07, 1.5 spread 0.04-0.15
    PACE_EXPONENT = 1.0

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.seed = seed
        self.tiny = tiny
        self.scratch = None

    def setup(self) -> None:
        """Build the job plans and boot, probe and stop a service once:
        the cost every pass pays before its first job."""
        from repro.service import ReproService, ServiceClient

        rng = random.Random(self.seed)
        self.plans = [_client_plan(c, rng, self.tiny) for c in (0, 1)]
        if self.scratch is None:
            root = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "out")
            os.makedirs(root, exist_ok=True)
            self.scratch = tempfile.mkdtemp(prefix="service-", dir=root)
        with ReproService(port=0, workers=WORKERS,
                          store_path=self._store_path()) as service:
            ServiceClient(service.url).healthz()
        self._reset_store()

    def _store_path(self):
        return os.path.join(self.scratch, "store.jsonl")

    def _reset_store(self):
        for name in os.listdir(self.scratch):
            os.unlink(os.path.join(self.scratch, name))

    def interpose_targets(self):
        return {}

    def _client(self, url, plan, records, tracer):
        from repro.obs.trace import maybe_span
        from repro.service import ServiceClient, ServiceError

        client = ServiceClient(url, timeout=60.0)
        for kind, params, role in plan:
            record = {"kind": kind, "params": params, "role": role,
                      "dedup": False}
            t0 = time.perf_counter()
            try:
                with maybe_span(tracer, "bench.service.job", kind=kind,
                                role=role) as span:
                    accepted = client.submit(kind, **params)
                    status = client.wait(accepted["id"], timeout=120.0,
                                         poll_s=POLL_S)
                record["latency"] = time.perf_counter() - t0
                record["status"] = status
                record["dedup"] = accepted.get("deduplicated", False)
                if status["state"] == "done":
                    record["result"] = client.result(accepted["id"])
                    if tracer is not None and not record["dedup"]:
                        # the job's own spans, shipped home from the
                        # forked worker that ran it
                        tracer.absorb(
                            chrome_to_spans(client.trace(accepted["id"])),
                            parent_id=span.span_id)
            except (ServiceError, TimeoutError, OSError) as exc:
                record["latency"] = time.perf_counter() - t0
                record["status"] = {"state": "error", "error": repr(exc)}
            records.append(record)

    def run_pass(self, tracer=None, window=None) -> PassResult:
        from repro.service import ReproService

        self._reset_store()
        records = [[], []]
        with ReproService(port=0, workers=WORKERS,
                          store_path=self._store_path(),
                          trace_jobs=tracer is not None) as service:
            with window(tracer):
                start = time.perf_counter()
                threads = [threading.Thread(
                    target=self._client,
                    args=(service.url, plan, records[c], tracer))
                    for c, plan in enumerate(self.plans)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                seconds = time.perf_counter() - start
            stats = service.engine.stats()
        return self._result(records, seconds, stats)

    def _result(self, records, seconds, stats) -> PassResult:
        ops = []
        firsts = {}
        for c, client_records in enumerate(records):
            for i, rec in enumerate(client_records):
                op = Op(f"c{c}.{i:02d}.{rec['kind']}.{rec['role']}",
                        rec["latency"])
                status = rec["status"]
                key = json.dumps([rec["kind"], rec["params"]],
                                 sort_keys=True)
                if status["state"] != "done":
                    op.ok = False
                    op.error = f"job ended {status['state']}: " \
                               f"{status.get('error')}"
                elif key in firsts:
                    if rec["result"]["result"] != firsts[key]:
                        op.ok = False
                        op.error = "repeat result differs from the first"
                else:
                    firsts[key] = rec["result"]["result"]
                ops.append(op)
        every = [r for client_records in records for r in client_records]
        counts = {
            "jobs": len(every),
            "dedup_hits": stats["dedup_hits"],
            "store_hits": stats["store_hits"],
            "fresh_points": stats["store_misses"],
            "completed": stats["completed"],
            "retries": stats["retries"],
            "worker_crashes": stats["worker_crashes"],
        }
        extra = {"records": every,
                 "cache_hit_rate": stats["cache_hit_rate"],
                 "store_hit_rate": stats["store_hit_rate"]}
        return PassResult(ops, seconds, counts, extra)

    def layer_metrics(self, untraced, traced):
        records = [r for p in untraced for r in p.extra["records"]
                   if r["status"]["state"] == "done"]
        ran = [r for r in records if not r["dedup"]]

        def stamps(r, a, b):
            return (r["status"][b] - r["status"][a]) * 1e3

        waits = [stamps(r, "submitted_at", "started_at") for r in ran]
        runs = [stamps(r, "started_at", "finished_at") for r in ran]
        overhead = [r["latency"] * 1e3 - stamps(r, "submitted_at",
                                                "finished_at")
                    for r in ran]

        def latency_ms(rows):
            return median(r["latency"] * 1e3 for r in rows)

        first = untraced[0]
        return {
            "service.queue_wait_ms.p50": percentile(waits, 50),
            "service.queue_wait_ms.p90": percentile(waits, 90),
            "service.run_ms.p50": percentile(runs, 50),
            "service.client_overhead_ms": median(overhead),
            "service.fresh_job_ms": latency_ms(ran),
            "service.repeat_job_ms":
                latency_ms([r for r in records if r["dedup"]]),
            "service.store_hit_rate": first.extra["store_hit_rate"],
            "service.cache_hit_rate": first.extra["cache_hit_rate"],
            "service.dedup_hits": first.counts["dedup_hits"],
            "service.fresh_points": first.counts["fresh_points"],
            "service.retries": first.counts["retries"],
            "service.worker_crashes": first.counts["worker_crashes"],
            "dse.tune_job_ms":
                latency_ms([r for r in ran if r["kind"] == "tune"]),
            "dataflow.stream_job_ms":
                latency_ms([r for r in ran if r["kind"] == "stream"]),
        }

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)

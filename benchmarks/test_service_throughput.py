"""Job-service throughput: warm-store speedup and dedup zero-cost.

ISSUE 9's service-level performance contract, measured on an inline
engine (no HTTP, no process pool) so the numbers isolate the queue +
store + flow layers:

* a warm :class:`~repro.dse.ResultStore` must serve a repeated batch at
  least **5x** faster than the cold run that populated it (every point
  a store hit, zero fresh synthesis);
* a duplicate submission must cost **zero** fresh synthesis and return
  a bit-identical result -- in-flight duplicates share the execution,
  post-completion duplicates are served terminal at submit time.

Wall-clock ratios are asserted (not absolute times), so the pin holds
across machines; the measured figures land in ``BENCH_results.json``.
"""

from __future__ import annotations

import time

from repro.service import JobEngine

from benchmarks.conftest import banner

#: eight distinct sweep jobs: 3x3 grids at staggered clocks.
JOBS = [{"workload": "fir",
         "clocks_ps": [1200.0 + 40 * j, 1600.0 + 40 * j,
                       2300.0 + 40 * j],
         "latencies": "3,4,5"}
        for j in range(8)]

#: the warm run must be at least this many times faster.
WARM_SPEEDUP_FLOOR = 5.0


def _run_batch(store_path):
    """Submit every job, wait for all; returns (elapsed_s, finals)."""
    with JobEngine(workers=2, mode="inline",
                   store_path=str(store_path)) as engine:
        t0 = time.perf_counter()
        submitted = [engine.submit("sweep", dict(params))
                     for params in JOBS]
        finals = [engine.wait(job.id, timeout=300) for job in submitted]
        elapsed = time.perf_counter() - t0
    assert all(job.state == "done" for job in finals)
    return elapsed, finals


def test_warm_store_serves_every_job_without_synthesis(tmp_path):
    """The deterministic half of the warm-store contract: the cold
    batch synthesizes every point, the warm batch serves every point
    from the store and synthesizes none, and the results are equal job
    by job."""
    store = tmp_path / "counts.jsonl"
    _cold_s, cold = _run_batch(store)
    _warm_s, warm = _run_batch(store)
    points = [len(job["clocks_ps"]) * 3 for job in JOBS]
    assert [job.stats["fresh_points"] for job in cold] == points
    assert [job.stats["store_hits"] for job in cold] == [0] * len(JOBS)
    assert [job.stats["fresh_points"] for job in warm] == [0] * len(JOBS)
    assert [job.stats["store_hits"] for job in warm] == points
    assert [job.result for job in warm] == [job.result for job in cold]


def test_warm_store_serves_5x_faster(tmp_path, bench_metrics):
    store = tmp_path / "throughput.jsonl"
    cold_s, cold = _run_batch(store)
    warm_s, warm = _run_batch(store)

    # the warm run is pure store service: zero fresh synthesis anywhere
    assert all(job.stats["fresh_points"] == 0 for job in warm)
    assert all(job.stats["store_hits"] > 0 for job in warm)
    # and bit-identical to the cold results, job by job
    assert [job.result for job in warm] == [job.result for job in cold]

    speedup = cold_s / max(warm_s, 1e-9)
    cold_jps = len(JOBS) / cold_s
    warm_jps = len(JOBS) / warm_s
    bench_metrics.update(
        jobs=len(JOBS), cold_s=round(cold_s, 4),
        warm_s=round(warm_s, 4), speedup=round(speedup, 2),
        cold_jobs_per_sec=round(cold_jps, 2),
        warm_jobs_per_sec=round(warm_jps, 2))
    banner(f"service throughput: cold {cold_s:.2f}s "
           f"({cold_jps:.1f} jobs/s), warm {warm_s:.3f}s "
           f"({warm_jps:.1f} jobs/s) -- {speedup:.1f}x")
    assert speedup >= WARM_SPEEDUP_FLOOR, (
        f"warm store served only {speedup:.1f}x faster than cold "
        f"(floor {WARM_SPEEDUP_FLOOR}x); the store hit path regressed")


def test_duplicate_submission_costs_no_synthesis(tmp_path,
                                                bench_metrics):
    params = dict(JOBS[0])
    with JobEngine(workers=2, mode="inline",
                   store_path=str(tmp_path / "dedup.jsonl")) as engine:
        first = engine.submit("sweep", dict(params))
        inflight = engine.submit("sweep", dict(params))  # shares the run
        done_first = engine.wait(first.id, timeout=300)
        done_inflight = engine.wait(inflight.id, timeout=300)
        t0 = time.perf_counter()
        after = engine.submit("sweep", dict(params))  # already terminal
        served_s = time.perf_counter() - t0
        stats = engine.stats()

    assert done_first.state == after.state == "done"
    # one execution total: both duplicates share its result object
    assert done_inflight.result is done_first.result
    assert after.result is done_first.result
    assert stats["dedup_hits"] == 2
    assert stats["completed"] == 1  # a single synthesis ran
    bench_metrics.update(dedup_hits=stats["dedup_hits"],
                         served_terminal_s=round(served_s, 6))
    banner(f"dedup: 3 submissions, 1 synthesis; terminal duplicate "
           f"served in {served_s * 1e3:.2f}ms")

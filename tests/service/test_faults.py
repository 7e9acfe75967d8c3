"""Fault injection against process-mode engines.

The contracts under test (ISSUE 9 acceptance criteria):

* a SIGKILLed worker yields a terminal job state within the timeout --
  retried success, or a clean ``failed`` with diagnostics -- never a
  hung client and no orphaned queue entries;
* after the crash the shared store still loads cleanly;
* a worker crash mid-*append* leaves at most a partial trailing line,
  which survivors skip and compact() drops.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.dse.store import ResultStore
from repro.service import JobEngine
from repro.service.jobs import DONE, FAILED

pytestmark = pytest.mark.skipif(os.name != "posix",
                                reason="needs POSIX signals")

#: a grid big enough that the worker is reliably mid-job when killed.
SLOW_SWEEP = {"workload": "adpcm",
              "clocks_ps": [900.0 + 7 * i for i in range(40)],
              "latencies": "12,16"}


def _wait_for_pid(execution, timeout=20.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if execution.worker_pid is not None:
            return execution.worker_pid
        time.sleep(0.02)
    raise AssertionError("worker never started")


def test_sigkilled_worker_retries_to_success(tmp_path):
    engine = JobEngine(workers=1, mode="process", job_timeout_s=120,
                       max_retries=1,
                       store_path=str(tmp_path / "s.jsonl"))
    engine.start()
    try:
        job = engine.submit("sweep", dict(SLOW_SWEEP))
        execution = engine.queue._by_key[job.key]
        os.kill(_wait_for_pid(execution), signal.SIGKILL)
        final = engine.wait(job.id, timeout=180)
        assert final is not None and final.state == DONE
        assert final.attempts == 2  # crash + successful retry
        stats = engine.stats()
        assert stats["worker_crashes"] == 1
        assert stats["retries"] == 1
        assert engine.queue.depth() == 0  # no orphaned entries
    finally:
        engine.stop()
    # the store survived the murdered writer and loads cleanly
    survivor = ResultStore(str(tmp_path / "s.jsonl"))
    assert len(survivor) == 80


def test_sigkill_with_no_retries_fails_cleanly(tmp_path):
    engine = JobEngine(workers=1, mode="process", job_timeout_s=120,
                       max_retries=0,
                       store_path=str(tmp_path / "s.jsonl"))
    engine.start()
    try:
        job = engine.submit("sweep", dict(SLOW_SWEEP))
        execution = engine.queue._by_key[job.key]
        os.kill(_wait_for_pid(execution), signal.SIGKILL)
        final = engine.wait(job.id, timeout=60)
        assert final is not None and final.state == FAILED
        assert final.error["reason"] == "crash"
        assert final.error["attempts"] == 1
        # either the exit was observed or the pipe EOF'd first
        assert ("exited" in final.error["message"]
                or "pipe closed" in final.error["message"])
        assert engine.queue.depth() == 0
    finally:
        engine.stop()
    ResultStore(str(tmp_path / "s.jsonl"))  # loads without raising


def test_job_timeout_is_enforced(tmp_path):
    engine = JobEngine(workers=1, mode="process", job_timeout_s=0.2,
                       max_retries=0)
    engine.start()
    try:
        job = engine.submit("sweep", dict(SLOW_SWEEP))
        final = engine.wait(job.id, timeout=60)
        assert final.state == FAILED
        assert final.error["reason"] == "timeout"
        assert engine.stats()["timeouts"] == 1
    finally:
        engine.stop()


def test_cancel_running_process_job_terminates_promptly(tmp_path):
    engine = JobEngine(workers=1, mode="process", job_timeout_s=120)
    engine.start()
    try:
        job = engine.submit("sweep", dict(SLOW_SWEEP))
        execution = engine.queue._by_key[job.key]
        _wait_for_pid(execution)
        start = time.monotonic()
        engine.cancel(job.id)
        final = engine.wait(job.id, timeout=30)
        assert final.state == "cancelled"
        assert time.monotonic() - start < 10.0
        # the supervisor reaped the worker process
        deadline = time.monotonic() + 10.0
        while execution.worker_pid and time.monotonic() < deadline:
            time.sleep(0.02)
        assert execution.worker_pid is None
    finally:
        engine.stop()


def test_crash_consistency_of_store_writer(tmp_path):
    """Kill a raw writer process mid-append; survivors load cleanly.

    This is the satellite crash-consistency test: the victim appends
    entries in a tight loop and is SIGKILLed without warning.  At worst
    the shard ends in a partial line; a fresh store must skip it (not
    raise), keep every complete entry, and compact() must drop the scar
    so the next load is scar-free.
    """
    import multiprocessing

    from repro.explore.microarch import InfeasiblePoint

    store_path = tmp_path / "crash.jsonl"

    def victim():
        store = ResultStore(store_path, shard_per_process=True)
        i = 0
        while True:
            store.put(f"key-{i:06d}",
                      InfeasiblePoint(microarch=f"NP{i}",
                                      clock_ps=1000.0, reason="x" * 64))
            i += 1

    ctx = multiprocessing.get_context("fork")
    proc = ctx.Process(target=victim, daemon=True)
    proc.start()
    # let it write for a moment, then kill it mid-flight
    deadline = time.monotonic() + 10.0
    shard = tmp_path / f"crash.jsonl.{proc.pid}.shard"
    while time.monotonic() < deadline:
        if shard.exists() and shard.stat().st_size > 4096:
            break
        time.sleep(0.01)
    os.kill(proc.pid, signal.SIGKILL)
    proc.join(timeout=10)
    assert shard.exists() and shard.stat().st_size > 0
    # survivor loads every complete line, skips at most the torn tail
    survivor = ResultStore(store_path)
    complete_lines = sum(
        1 for line in shard.read_text(errors="replace").splitlines()
        if line.strip().endswith("}"))
    assert len(survivor) >= complete_lines > 0
    assert survivor.skipped_lines <= 1
    assert survivor.get("key-000000") is not None
    # compact folds the shard in and drops any scar
    survivor.compact()
    assert not shard.exists()
    clean = ResultStore(store_path)
    assert clean.skipped_lines == 0
    assert len(clean) == len(survivor)

"""JobQueue unit tests: priority, dedup identity, cancel semantics.

These run against the queue alone (no engine, no synthesis): the
parameter records are opaque here, only keys and priorities matter.
"""

from __future__ import annotations

import threading
import time

from hypothesis import given
from hypothesis import strategies as st

from repro.service.jobs import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    JobQueue,
)


def submit(queue, key="k", priority=0):
    return queue.submit("schedule", {"p": key}, key, priority=priority)


# ----------------------------------------------------------------------
# priority ordering
# ----------------------------------------------------------------------
def test_priority_ordering_pops_highest_first():
    queue = JobQueue()
    submit(queue, key="low", priority=0)
    submit(queue, key="high", priority=5)
    submit(queue, key="mid", priority=1)
    order = [queue.next_execution(timeout=0).key for _ in range(3)]
    assert order == ["high", "mid", "low"]
    assert queue.next_execution(timeout=0) is None


def test_equal_priority_is_fifo():
    queue = JobQueue()
    for key in ("a", "b", "c"):
        submit(queue, key=key, priority=2)
    assert [queue.next_execution(timeout=0).key
            for _ in range(3)] == ["a", "b", "c"]


def test_duplicate_submission_bumps_queued_priority():
    queue = JobQueue()
    submit(queue, key="dup", priority=0)
    submit(queue, key="other", priority=3)
    # a duplicate arriving with higher priority re-ranks the execution
    dup = submit(queue, key="dup", priority=9)
    assert dup.dedup_of is not None
    first = queue.next_execution(timeout=0)
    assert first.key == "dup"
    assert len(first.jobs) == 2  # both subscribers ride along
    assert queue.next_execution(timeout=0).key == "other"
    # the stale heap entry for "dup" was skipped, not served twice
    assert queue.next_execution(timeout=0) is None


@given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 6)),
                min_size=1, max_size=24))
def test_priority_order_property(entries):
    """Pops are sorted by (-priority, submission order), always."""
    queue = JobQueue()
    for idx, (priority, key_idx) in enumerate(entries):
        # unique keys: this property is about ordering, not dedup
        queue.submit("schedule", {}, f"k{idx}-{key_idx}",
                     priority=priority)
    popped = []
    while True:
        execution = queue.next_execution(timeout=0)
        if execution is None:
            break
        popped.append(execution.priority)
    assert len(popped) == len(entries)
    assert popped == sorted(popped, reverse=True)


# ----------------------------------------------------------------------
# dedup identity
# ----------------------------------------------------------------------
def test_dedup_subscribes_to_inflight_execution():
    queue = JobQueue()
    first = submit(queue)
    second = submit(queue)
    assert second.dedup_of == first.id
    assert queue.dedup_hits == 1
    execution = queue.next_execution(timeout=0)
    assert first.state == second.state == RUNNING
    result = {"answer": 42}
    queue.finish(execution, ok=True, result=result)
    assert first.state == second.state == DONE
    # the SAME object: bit-equality between subscribers is structural
    assert first.result is second.result is result


def test_dedup_serves_completed_execution_without_requeue():
    queue = JobQueue()
    first = submit(queue)
    queue.finish(queue.next_execution(timeout=0), ok=True,
                 result={"answer": 42})
    late = submit(queue)
    assert late.state == DONE
    assert late.result is first.result
    assert late.dedup_of == first.id
    assert queue.depth() == 0  # nothing was re-enqueued


def test_failed_and_cancelled_executions_never_serve_duplicates():
    queue = JobQueue()
    submit(queue)
    queue.finish(queue.next_execution(timeout=0), ok=False,
                 error={"reason": "crash"})
    retry = submit(queue)
    assert retry.state == QUEUED  # fresh execution, no dedup
    assert retry.dedup_of is None
    queue.cancel(retry.id)
    after_cancel = submit(queue)
    assert after_cancel.state == QUEUED
    assert after_cancel.dedup_of is None


# ----------------------------------------------------------------------
# cancellation
# ----------------------------------------------------------------------
def test_cancel_queued_job_cancels_execution():
    queue = JobQueue()
    job = submit(queue)
    assert queue.cancel(job.id).state == CANCELLED
    assert queue.next_execution(timeout=0) is None  # never runs


def test_cancel_running_job_sets_cancel_event():
    queue = JobQueue()
    job = submit(queue)
    execution = queue.next_execution(timeout=0)
    assert not execution.cancel_event.is_set()
    queue.cancel(job.id)
    assert job.state == CANCELLED
    assert execution.cancel_event.is_set()


def test_cancel_one_subscriber_keeps_shared_execution_alive():
    queue = JobQueue()
    keep = submit(queue)
    drop = submit(queue)
    queue.cancel(drop.id)
    assert drop.state == CANCELLED
    execution = queue.next_execution(timeout=0)
    assert execution is not None  # still queued for the survivor
    assert not execution.cancel_event.is_set()
    queue.finish(execution, ok=True, result={"x": 1})
    assert keep.state == DONE
    assert drop.state == CANCELLED  # the cancelled job stays cancelled
    assert drop.result is None


def test_cancel_terminal_job_is_a_noop():
    queue = JobQueue()
    job = submit(queue)
    queue.finish(queue.next_execution(timeout=0), ok=True, result={})
    assert queue.cancel(job.id).state == DONE  # unchanged
    assert queue.cancel("nonexistent") is None


# ----------------------------------------------------------------------
# bookkeeping
# ----------------------------------------------------------------------
def test_counts_and_depth_track_states():
    queue = JobQueue()
    submit(queue, key="a")
    submit(queue, key="b")
    submit(queue, key="c")
    assert queue.depth() == 3
    execution = queue.next_execution(timeout=0)
    assert queue.depth() == 2
    queue.finish(execution, ok=False, error={"reason": "x"})
    counts = queue.counts()
    assert counts[QUEUED] == 2
    assert counts[FAILED] == 1


def test_wait_returns_terminal_job():
    queue = JobQueue()
    job = submit(queue)
    assert queue.wait(job.id, timeout=0.01).state == QUEUED  # deadline
    queue.finish(queue.next_execution(timeout=0), ok=True, result={})
    assert queue.wait(job.id, timeout=1.0).state == DONE


def test_close_releases_parked_waits():
    queue = JobQueue()
    job = submit(queue)
    released = []
    waiter = threading.Thread(
        target=lambda: released.append(queue.wait(job.id, timeout=60)))
    waiter.start()
    queue.close()
    waiter.join(timeout=10)
    assert not waiter.is_alive()
    assert released[0].state == QUEUED
    # closed: later waits return at once; reopened: they block again
    assert queue.wait(job.id, timeout=60).state == QUEUED
    queue.reopen()
    start = time.monotonic()
    assert queue.wait(job.id, timeout=0.05).state == QUEUED
    assert time.monotonic() - start >= 0.05

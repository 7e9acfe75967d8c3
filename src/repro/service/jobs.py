"""Job model, priority queue and request-dedup index of the service.

A *job* is one client submission: a kind (``schedule`` / ``sweep`` /
``tune`` / ``stream``), a normalized parameter record, a priority and a
content key.  An *execution* is the unit of work the worker pool runs;
several jobs share one execution when their content keys collide --
that is the request dedup the ROADMAP asks for ("two users tuning the
same design hit one synthesis").  The mapping is:

* submit with a key nobody holds -> new execution, queued by priority;
* submit while an identical execution is queued/running -> the new job
  *subscribes* to it (one synthesis, every subscriber observes the
  result);
* submit after an identical execution finished successfully -> the new
  job completes immediately with the shared result object (bit-equal
  by construction);
* failed or cancelled executions never serve duplicates -- a resubmit
  re-executes.

Cancellation is per job: cancelling one subscriber detaches it; the
execution itself is only cancelled (dequeued, or its worker signalled)
when its last subscriber leaves.

Job lifecycle::

    queued -> running -> done
                     \\-> failed      (crash/timeout after retries, or
                                       a deterministic error)
    queued/running -> cancelled      (client DELETE)

Everything here is in-memory state guarded by one condition variable;
the HTTP layer and the worker threads are the only callers.
"""

from __future__ import annotations

import heapq
import threading
import time
import uuid
from typing import Dict, List, Optional, Tuple

#: job / execution states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: states a job never leaves.
TERMINAL = frozenset({DONE, FAILED, CANCELLED})


class JobError(Exception):
    """A deterministic submission/parameter problem (HTTP 400)."""


class JobCancelled(Exception):
    """Raised inside an execution when its cancel event is set."""


def new_job_id() -> str:
    """A short, collision-safe job identifier."""
    return uuid.uuid4().hex[:12]


class Job:
    """One client submission (thin view onto a shared execution)."""

    def __init__(self, job_id: str, kind: str, params: dict, key: str,
                 priority: int) -> None:
        self.id = job_id
        self.kind = kind
        self.params = params
        self.key = key
        self.priority = priority
        self.state = QUEUED
        self.submitted_at = time.time()
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.attempts = 0
        self.progress: dict = {}
        #: deterministic result payload (shared object across deduped
        #: jobs -- bit-equality between subscribers is by construction).
        self.result: Optional[dict] = None
        self.error: Optional[dict] = None
        #: id of the job whose execution this one subscribed to (dedup).
        self.dedup_of: Optional[str] = None
        #: nondeterministic accounting (wall times, cache traffic);
        #: deliberately outside ``result`` so dedup identity holds.
        self.stats: dict = {}
        #: structured span dicts recorded while the execution ran
        #: (``repro.obs.trace``); like ``stats``, observability data is
        #: kept outside ``result`` so dedup identity holds.
        self.trace: Optional[List[dict]] = None

    def status(self) -> dict:
        """The JSON the status endpoint serves."""
        out = {
            "id": self.id,
            "kind": self.kind,
            "state": self.state,
            "priority": self.priority,
            "submitted_at": self.submitted_at,
            "attempts": self.attempts,
            "progress": dict(self.progress),
        }
        if self.started_at is not None:
            out["started_at"] = self.started_at
        if self.finished_at is not None:
            out["finished_at"] = self.finished_at
        if self.dedup_of is not None:
            out["dedup_of"] = self.dedup_of
        if self.error is not None:
            out["error"] = self.error
        return out


class Execution:
    """One unit of work; every subscribed job observes its outcome."""

    def __init__(self, kind: str, params: dict, key: str,
                 priority: int) -> None:
        self.kind = kind
        self.params = params
        self.key = key
        self.priority = priority
        self.state = QUEUED
        self.jobs: List[Job] = []
        self.cancel_event = threading.Event()
        self.result: Optional[dict] = None
        self.error: Optional[dict] = None
        self.trace: Optional[List[dict]] = None
        #: pid of the worker process currently running this execution
        #: (fault-injection tests target it; None when inline/queued).
        self.worker_pid: Optional[int] = None

    @property
    def primary_id(self) -> Optional[str]:
        """The first still-subscribed job's id (dedup attribution)."""
        return self.jobs[0].id if self.jobs else None


class JobQueue:
    """Priority queue + dedup index + job registry, one lock for all.

    ``submit`` / ``next_execution`` / ``finish`` / ``cancel`` are the
    whole surface; every transition broadcasts on the condition so
    waiters (long-polling HTTP handlers, tests, the engine's drain) can
    block instead of spinning.  :meth:`close` releases every parked
    :meth:`wait` at once when the service stops.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        #: pending executions: (-priority, seq, Execution); stale
        #: entries (already running/terminal) are skipped on pop.
        self._heap: List[Tuple[int, int, Execution]] = []
        self._seq = 0
        self._jobs: Dict[str, Job] = {}
        #: newest execution per content key (any state).
        self._by_key: Dict[str, Execution] = {}
        self.dedup_hits = 0
        #: set by :meth:`close`: :meth:`wait` stops blocking.
        self._closed = False

    # ------------------------------------------------------------------
    # intake
    # ------------------------------------------------------------------
    def submit(self, kind: str, params: dict, key: str,
               priority: int = 0) -> Job:
        """Register a job; dedups against the newest same-key execution."""
        job = Job(new_job_id(), kind, params, key, priority)
        with self._cond:
            self._jobs[job.id] = job
            existing = self._by_key.get(key)
            if existing is not None and existing.state in (QUEUED, RUNNING):
                # share the in-flight execution
                self.dedup_hits += 1
                job.dedup_of = existing.primary_id
                job.state = existing.state
                if existing.state == RUNNING:
                    job.started_at = time.time()
                existing.jobs.append(job)
                if priority > existing.priority \
                        and existing.state == QUEUED:
                    # lazy reprioritization: push a higher-priority
                    # entry; the stale one is skipped when popped
                    existing.priority = priority
                    self._push(existing)
            elif existing is not None and existing.state == DONE:
                # served straight from the completed execution: the
                # *same* result object, so bit-equality is structural
                self.dedup_hits += 1
                job.dedup_of = existing.primary_id
                job.state = DONE
                job.started_at = job.finished_at = time.time()
                job.result = existing.result
                job.trace = existing.trace
            else:
                execution = Execution(kind, params, key, priority)
                execution.jobs.append(job)
                self._by_key[key] = execution
                self._push(execution)
            self._cond.notify_all()
        return job

    def _push(self, execution: Execution) -> None:
        self._seq += 1
        heapq.heappush(self._heap,
                       (-execution.priority, self._seq, execution))

    # ------------------------------------------------------------------
    # worker side
    # ------------------------------------------------------------------
    def next_execution(self,
                       timeout: Optional[float] = None
                       ) -> Optional[Execution]:
        """Pop the highest-priority queued execution and mark it
        running; ``None`` when nothing arrives within ``timeout``."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while True:
                while self._heap:
                    _, _, execution = heapq.heappop(self._heap)
                    if execution.state != QUEUED:
                        continue  # stale entry (cancelled/reprioritized)
                    execution.state = RUNNING
                    now = time.time()
                    for job in execution.jobs:
                        job.state = RUNNING
                        job.started_at = now
                    self._cond.notify_all()
                    return execution
                if deadline is None:
                    self._cond.wait()
                    continue
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return None
                self._cond.wait(remaining)

    def finish(self, execution: Execution, ok: bool,
               result: Optional[dict] = None,
               error: Optional[dict] = None,
               stats: Optional[dict] = None,
               trace: Optional[List[dict]] = None) -> None:
        """Terminal transition; propagates to every subscribed job."""
        with self._cond:
            if execution.state in TERMINAL:
                return
            execution.state = DONE if ok else FAILED
            execution.result = result
            execution.error = error
            execution.trace = trace
            execution.worker_pid = None
            now = time.time()
            for job in execution.jobs:
                job.state = execution.state
                job.finished_at = now
                job.result = result
                job.error = error
                job.trace = trace
                if stats:
                    job.stats.update(stats)
            self._cond.notify_all()

    def set_progress(self, execution: Execution, info: dict) -> None:
        """Merge a progress record into every subscribed job."""
        with self._cond:
            for job in execution.jobs:
                job.progress.update(info)

    def bump_attempts(self, execution: Execution) -> None:
        """Count one (re)try on every subscribed job."""
        with self._cond:
            for job in execution.jobs:
                job.attempts += 1

    # ------------------------------------------------------------------
    # client side
    # ------------------------------------------------------------------
    def get(self, job_id: str) -> Optional[Job]:
        """The job record, or None."""
        with self._cond:
            return self._jobs.get(job_id)

    def cancel(self, job_id: str) -> Optional[Job]:
        """Cancel one job; returns it (or None when unknown).

        A terminal job is returned unchanged.  Cancelling the last
        subscriber of an execution cancels the execution itself: a
        queued one simply never runs (its heap entry goes stale), a
        running one has its cancel event set for the supervisor to act
        on.  Other subscribers are unaffected -- their synthesis
        continues.
        """
        with self._cond:
            job = self._jobs.get(job_id)
            if job is None or job.state in TERMINAL:
                return job
            job.state = CANCELLED
            job.finished_at = time.time()
            execution = self._by_key.get(job.key)
            if execution is not None and job in execution.jobs:
                execution.jobs.remove(job)
                if not execution.jobs and execution.state in (QUEUED,
                                                              RUNNING):
                    execution.cancel_event.set()
                    if execution.state == QUEUED:
                        execution.state = CANCELLED
            self._cond.notify_all()
            return job

    def wait(self, job_id: str,
             timeout: Optional[float] = None) -> Optional[Job]:
        """Block until the job is terminal (or timeout, or the queue is
        closed); returns it."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while True:
                job = self._jobs.get(job_id)
                if job is None or job.state in TERMINAL or self._closed:
                    return job
                remaining = None if deadline is None \
                    else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return job
                self._cond.wait(remaining)

    def close(self) -> None:
        """Release every parked :meth:`wait` now, and stop later ones
        from blocking, until :meth:`reopen`."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def reopen(self) -> None:
        """Let :meth:`wait` block again (an engine restart)."""
        with self._cond:
            self._closed = False

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def depth(self) -> int:
        """Executions still queued (stale heap entries excluded)."""
        with self._cond:
            return sum(1 for _, _, e in self._heap if e.state == QUEUED)

    def counts(self) -> Dict[str, int]:
        """Job-state histogram."""
        out = {s: 0 for s in (QUEUED, RUNNING, DONE, FAILED, CANCELLED)}
        with self._cond:
            for job in self._jobs.values():
                out[job.state] += 1
        return out

    def jobs(self) -> List[Job]:
        """Every job, submission-ordered (insertion order)."""
        with self._cond:
            return list(self._jobs.values())

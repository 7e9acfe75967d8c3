"""The job engine: worker pool, process isolation, retries, stats.

A :class:`JobEngine` owns the :class:`~repro.service.jobs.JobQueue`
and ``workers`` supervisor threads.  Each supervisor pops the highest-
priority execution and runs it in a *worker process* (fork by default):
the child executes :func:`~repro.service.execution.execute_job` against
a fresh in-memory :class:`~repro.flow.cache.FlowCache` and a
per-process :class:`~repro.dse.store.ResultStore` shard, streaming
progress records
back through a pipe.  The supervisor enforces the job timeout, watches
the cancel event, and turns abnormal child exits into bounded retries
-- a SIGKILLed worker mid-job therefore ends in a retried success or a
clean ``failed`` state with diagnostics, never a hung client.

If worker processes cannot be spawned at all (fork failure, exhausted
pids -- "the pool died"), the engine degrades to serial in-process
execution: jobs still complete, cancellation still works through the
flow layer's cooperative checkpoints, and ``/healthz`` reports
``degraded: true``.

Construction knobs:

``workers``       supervisor threads (= max concurrent jobs)
``mode``          "process" (isolated, default) or "inline" (no fork)
``job_timeout_s`` per-attempt wall budget before the child is killed
``max_retries``   extra attempts after a crash/timeout (not after
                  deterministic failures -- those never retry)
``store_path``    shared JSONL result store (shards merged on load,
                  compacted on stop)
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from typing import Dict, Optional

from repro.dse.store import ResultStore
from repro.flow.cache import FlowCache
from repro.obs.metrics import REGISTRY
from repro.obs.trace import Tracer, maybe_span
from repro.service import execution as exe
from repro.service.jobs import (
    CANCELLED,
    Execution,
    Job,
    JobCancelled,
    JobError,
    JobQueue,
)

#: supervisor poll interval (pipe + cancel + deadline checks), seconds.
POLL_S = 0.02


class _Attempt:
    """Outcome of one execution attempt (supervisor bookkeeping)."""

    __slots__ = ("status", "ok", "result", "stats", "message")

    def __init__(self, status: str, ok: bool = False,
                 result: Optional[dict] = None,
                 stats: Optional[dict] = None,
                 message: str = "") -> None:
        self.status = status  # done|cancelled|job_error|crash|timeout
        self.ok = ok
        self.result = result
        self.stats = stats or {}
        self.message = message


def _run_attempt(kind: str, params: dict, cache: FlowCache,
                 store_path: Optional[str], traced: bool, progress,
                 cancel_event=None) -> _Attempt:
    """One attempt body, shared by the worker process and the inline
    path: open a store shard and a tracer, run the job under a
    ``service.job`` span, and map its outcome to an :class:`_Attempt`
    (``stats["spans"]`` carries the trace when ``traced``)."""
    store = ResultStore(store_path, shard_per_process=True) \
        if store_path else None
    tracer = Tracer() if traced else None
    try:
        with maybe_span(tracer, "service.job", kind=kind) as span:
            ok, result, stats = exe.execute_job(
                kind, params, cache=cache, store=store,
                progress=progress, cancel_event=cancel_event,
                tracer=tracer)
            if span is not None:
                span.set("ok", ok)
    except JobCancelled:
        return _Attempt("cancelled")
    except JobError as err:
        return _Attempt("job_error", message=str(err))
    except Exception as err:
        return _Attempt("crash", message=f"{type(err).__name__}: {err}")
    stats = dict(stats)
    if tracer is not None:
        stats["spans"] = tracer.export()
    return _Attempt("done", ok=ok, result=result, stats=stats)


def _child_main(conn, kind: str, params: dict,
                store_path: Optional[str],
                traced: bool = True) -> None:
    """Worker-process entry: run one job, stream messages back.

    Messages: ``("progress", dict)`` any number of times, then exactly
    one ``("attempt", _Attempt)``.  A done attempt's stats also carry
    the child's cache counters (``stats["cache"]``) and metrics
    snapshot (``stats["registry"]``); the supervisor pops the
    observability payloads before they can reach any client-facing
    result payload.
    """
    REGISTRY.reset()  # forked children inherit the parent's metrics
    cache = FlowCache()

    def progress(info: dict) -> None:
        try:
            conn.send(("progress", info))
        except Exception:
            pass

    try:
        attempt = _run_attempt(kind, params, cache, store_path, traced,
                               progress)
        if attempt.status == "done":
            attempt.stats["cache"] = cache.stats()
            attempt.stats["registry"] = REGISTRY.snapshot()
        conn.send(("attempt", attempt))
    except BaseException as err:  # crash: report, parent decides retry
        try:
            conn.send(("attempt", _Attempt(
                "crash", message=f"{type(err).__name__}: {err}")))
        except Exception:
            pass
    finally:
        conn.close()


class JobEngine:
    """Worker pool + queue + shared stores; see the module docstring."""

    def __init__(self, workers: int = 2, mode: str = "process",
                 job_timeout_s: float = 120.0, max_retries: int = 1,
                 store_path: Optional[str] = None,
                 trace_jobs: bool = True) -> None:
        if mode not in ("process", "inline"):
            raise ValueError(f"unknown engine mode {mode!r}")
        self.queue = JobQueue()
        self.mode = mode
        self.job_timeout_s = job_timeout_s
        self.max_retries = max_retries
        #: record per-job span traces (served at /jobs/<id>/trace).
        self.trace_jobs = bool(trace_jobs)
        self.store_path = store_path
        #: in-memory shared cache (inline/degraded execution path).
        self.cache = FlowCache()
        self._store = ResultStore(store_path) if store_path else None
        self.workers = max(1, int(workers))
        self.degraded = False
        self._stop = threading.Event()
        self._threads = []
        self._lock = threading.Lock()
        self._stats: Dict[str, float] = {
            "submitted": 0, "completed": 0, "failed": 0, "cancelled": 0,
            "retries": 0, "worker_crashes": 0, "timeouts": 0,
            "cache_hits": 0, "cache_misses": 0, "store_hits": 0,
            "store_misses": 0,
        }
        self.started_at = time.time()
        try:
            self._mp = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-fork platforms
            self._mp = multiprocessing.get_context()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "JobEngine":
        """Spin up the supervisor threads (idempotent)."""
        if self._threads:
            return self
        self._stop.clear()
        self.queue.reopen()
        for i in range(self.workers):
            thread = threading.Thread(target=self._worker_loop,
                                      name=f"repro-worker-{i}",
                                      daemon=True)
            thread.start()
            self._threads.append(thread)
        return self

    def stop(self, compact: bool = True) -> None:
        """Stop accepting work, release waiters, join workers, fold
        store shards."""
        self._stop.set()
        self.queue.close()
        for thread in self._threads:
            thread.join(timeout=5.0)
        self._threads = []
        if compact and self._store is not None:
            self._store.refresh()
            self._store.compact()

    def __enter__(self) -> "JobEngine":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # client surface
    # ------------------------------------------------------------------
    def submit(self, kind: str, params: dict, priority: int = 0) -> Job:
        """Validate, normalize, dedup and enqueue one submission."""
        normalized, key = exe.prepare_job(kind, params)
        with self._lock:
            self._stats["submitted"] += 1
        return self.queue.submit(kind, normalized, key,
                                 priority=int(priority))

    def cancel(self, job_id: str) -> Optional[Job]:
        """Cancel one job (see :meth:`JobQueue.cancel`)."""
        job = self.queue.cancel(job_id)
        if job is not None and job.state == CANCELLED:
            with self._lock:
                self._stats["cancelled"] += 1
        return job

    def wait(self, job_id: str,
             timeout: Optional[float] = None) -> Optional[Job]:
        """Block until a job is terminal; returns the job record."""
        return self.queue.wait(job_id, timeout)

    def stats(self) -> dict:
        """The ``/stats`` payload."""
        with self._lock:
            out = dict(self._stats)
        counts = self.queue.counts()
        elapsed = max(time.time() - self.started_at, 1e-9)
        cache = self.cache.stats()
        out.update({
            "queue_depth": self.queue.depth(),
            "jobs": counts,
            "running": counts["running"],
            "dedup_hits": self.queue.dedup_hits,
            "served_jobs": out["completed"] + out["failed"],
            "jobs_per_sec": round(
                (out["completed"] + out["failed"]) / elapsed, 4),
            "uptime_s": round(elapsed, 3),
            "workers": self.workers,
            "mode": self.mode,
            "degraded": self.degraded,
        })
        lookups = out["cache_hits"] + out["cache_misses"] \
            + cache["hits"] + cache["misses"]
        hits = out["cache_hits"] + cache["hits"]
        out["cache_hit_rate"] = round(hits / lookups, 4) if lookups \
            else 0.0
        store_lookups = out["store_hits"] + out["store_misses"]
        out["store_hit_rate"] = round(
            out["store_hits"] / store_lookups, 4) if store_lookups \
            else 0.0
        if self._store is not None:
            out["store"] = self._store.stats()
        prefix = "service.job_seconds."
        out["job_latency"] = {
            name[len(prefix):]: {
                "count": int(summary["count"]),
                "mean_s": round(summary["mean"], 6),
                "p50_s": round(summary["p50"], 6),
                "p90_s": round(summary["p90"], 6),
                "p99_s": round(summary["p99"], 6),
            }
            for name, summary in REGISTRY.histogram_summaries().items()
            if name.startswith(prefix)
        }
        return out

    def healthz(self) -> dict:
        """The ``/healthz`` payload."""
        return {"ok": True, "workers": self.workers,
                "degraded": self.degraded, "mode": self.mode,
                "queue_depth": self.queue.depth()}

    # ------------------------------------------------------------------
    # worker side
    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        while not self._stop.is_set():
            execution = self.queue.next_execution(timeout=0.1)
            if execution is None:
                continue
            t0 = time.perf_counter()
            try:
                self._run_execution(execution)
                REGISTRY.observe(
                    f"service.job_seconds.{execution.kind}",
                    time.perf_counter() - t0)
            except Exception as err:  # defensive: never kill the loop
                self.queue.finish(
                    execution, ok=False,
                    error={"reason": "engine_error",
                           "message": f"{type(err).__name__}: {err}"})
                self._bump("failed")

    def _bump(self, counter: str, amount: float = 1) -> None:
        with self._lock:
            self._stats[counter] += amount

    def _run_execution(self, execution: Execution) -> None:
        """Attempt loop: process (or inline) runs, retries, verdict."""
        attempts_allowed = 1 + max(0, int(self.max_retries))
        last = None
        for attempt in range(attempts_allowed):
            if execution.cancel_event.is_set():
                self.queue.finish(execution, ok=False,
                                  error={"reason": "cancelled"})
                return
            self.queue.bump_attempts(execution)
            if attempt > 0:
                self._bump("retries")
            if self.mode == "inline" or self.degraded:
                last = self._attempt_inline(execution)
            else:
                last = self._attempt_process(execution)
                if last.status == "spawn_failed":
                    # the pool is gone: degrade to in-process serial
                    # execution rather than failing every job
                    self.degraded = True
                    last = self._attempt_inline(execution)
            if last.status == "done":
                self._finish_done(execution, last)
                return
            if last.status == "cancelled":
                self.queue.finish(execution, ok=False,
                                  error={"reason": "cancelled"})
                return
            if last.status == "job_error":
                self.queue.finish(
                    execution, ok=False,
                    error={"reason": "bad_request",
                           "message": last.message})
                self._bump("failed")
                return
            # crash / timeout: bounded retry
            if last.status == "timeout":
                self._bump("timeouts")
            else:
                self._bump("worker_crashes")
        self.queue.finish(
            execution, ok=False,
            error={"reason": last.status,
                   "message": last.message,
                   "attempts": attempts_allowed})
        self._bump("failed")

    def _finish_done(self, execution: Execution, attempt: _Attempt) -> None:
        stats = attempt.stats
        # observability payloads ride the stats dict over the pipe;
        # pop them here so they never leak into /jobs/<id>/result
        spans = stats.pop("spans", None)
        registry_snap = stats.pop("registry", None)
        if registry_snap:
            REGISTRY.merge(registry_snap)
        cache_stats = stats.get("cache")
        if cache_stats:
            self._bump("cache_hits", cache_stats.get("hits", 0))
            self._bump("cache_misses", cache_stats.get("misses", 0))
        self._bump("store_hits", stats.get("store_hits", 0))
        self._bump("store_misses",
                   stats.get("fresh_points",
                             stats.get("fresh_evaluations", 0)))
        if self._store is not None:
            # fold worker shards into this process's warm view
            self._store.refresh()
        if attempt.ok:
            self.queue.finish(execution, ok=True, result=attempt.result,
                              stats=stats, trace=spans)
            self._bump("completed")
        else:
            self.queue.finish(
                execution, ok=False,
                error={"reason": "unsatisfied",
                       "message": "the job ran but did not meet its "
                                  "goal (infeasible/unverified)",
                       "detail": attempt.result},
                stats=stats, trace=spans)
            self._bump("failed")

    # -- process-isolated attempt --------------------------------------
    def _attempt_process(self, execution: Execution) -> _Attempt:
        try:
            parent_conn, child_conn = self._mp.Pipe()
            proc = self._mp.Process(
                target=_child_main,
                args=(child_conn, execution.kind, execution.params,
                      self.store_path, self.trace_jobs),
                daemon=True)
            proc.start()
        except (OSError, ValueError) as err:
            return _Attempt("spawn_failed", message=str(err))
        child_conn.close()
        execution.worker_pid = proc.pid
        deadline = time.monotonic() + self.job_timeout_s
        verdict: Optional[_Attempt] = None
        try:
            while verdict is None:
                if execution.cancel_event.is_set():
                    verdict = _Attempt("cancelled")
                    break
                if time.monotonic() > deadline:
                    verdict = _Attempt(
                        "timeout",
                        message=f"attempt exceeded "
                                f"{self.job_timeout_s:.1f}s")
                    break
                try:
                    ready = parent_conn.poll(POLL_S)
                except (OSError, EOFError):
                    ready = False
                if ready:
                    try:
                        msg = parent_conn.recv()
                    except (OSError, EOFError):
                        msg = None  # died mid-send: treat as crash
                    if msg is None:
                        verdict = _Attempt(
                            "crash", message="worker pipe closed")
                    elif msg[0] == "progress":
                        self.queue.set_progress(execution, msg[1])
                        continue
                    else:  # "attempt"
                        verdict = msg[1]
                elif not proc.is_alive():
                    # one last drain: the child may have sent its
                    # verdict and exited between poll and is_alive
                    try:
                        if parent_conn.poll(0):
                            continue
                    except (OSError, EOFError):
                        pass
                    verdict = _Attempt(
                        "crash",
                        message=f"worker pid {proc.pid} exited with "
                                f"code {proc.exitcode} mid-job")
        finally:
            execution.worker_pid = None
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=2.0)
                if proc.is_alive():  # pragma: no cover - stuck child
                    proc.kill()
                    proc.join(timeout=2.0)
            else:
                proc.join(timeout=2.0)
            parent_conn.close()
        return verdict

    # -- inline (degraded / mode="inline") attempt ---------------------
    def _attempt_inline(self, execution: Execution) -> _Attempt:
        # inline runs observe the global registry directly, so only the
        # spans need the stats channel
        return _run_attempt(
            execution.kind, execution.params, self.cache,
            self.store_path, self.trace_jobs,
            lambda info: self.queue.set_progress(execution, info),
            execution.cancel_event)

"""Synthesis-as-a-service: an async job server over the Flow/DSE stack.

The layers, bottom up (all stdlib, no new dependencies):

* :mod:`~repro.service.jobs` -- job/execution model, priority queue,
  request dedup by content hash;
* :mod:`~repro.service.execution` -- parameter normalization, job
  content keys, and the four job kinds (``schedule`` / ``sweep`` /
  ``tune`` / ``stream``) run against the Flow/DSE stack;
* :mod:`~repro.service.engine` -- the worker pool: process-isolated
  attempts with timeouts and bounded retries, shared FlowCache +
  sharded ResultStore, graceful degradation to in-process execution;
* :mod:`~repro.service.server` -- the HTTP endpoints
  (``POST /jobs``, ``GET /jobs/<id>[/result]``, ``DELETE /jobs/<id>``,
  ``GET /healthz``, ``GET /stats``);
* :mod:`~repro.service.client` -- a stdlib ``http.client`` client
  (keep-alive connections, long-poll waits) for CLI/benchmarks.

Quickstart::

    from repro.service import ReproService, ServiceClient

    with ReproService(port=0, workers=2) as service:
        client = ServiceClient(service.url)
        job = client.submit("schedule", workload="fir", clock_ps=1600)
        print(client.wait(job["id"])["state"])

CLI front ends: ``python -m repro serve`` and ``python -m repro
submit``.  See docs/SERVICE.md for the API reference, the job
lifecycle state machine, dedup semantics and failure modes.
"""

from repro.service.jobs import (
    CANCELLED,
    DONE,
    FAILED,
    TERMINAL,
    JobCancelled,
    JobError,
    JobQueue,
    QUEUED,
    RUNNING,
)
from repro.service.execution import (
    JOB_KINDS,
    execute_job,
    job_key,
    parse_microarchs,
)
from repro.service.engine import JobEngine
from repro.service.server import ReproService
from repro.service.client import ServiceClient, ServiceError

__all__ = [
    "CANCELLED",
    "DONE",
    "FAILED",
    "JOB_KINDS",
    "TERMINAL",
    "JobCancelled",
    "JobEngine",
    "JobError",
    "JobQueue",
    "QUEUED",
    "RUNNING",
    "ReproService",
    "ServiceClient",
    "ServiceError",
    "execute_job",
    "job_key",
    "parse_microarchs",
]

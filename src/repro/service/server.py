"""Synthesis-as-a-service: the HTTP front of the job engine.

Endpoints (all JSON)::

    POST   /jobs             submit {kind, workload|source|pipeline,
                             priority, ...}  -> 202 {id, state, ...}
    GET    /jobs/<id>        status           -> 200 (404 unknown)
    GET    /jobs/<id>?wait=s long-poll: status once the job is
                             terminal or ``s`` seconds passed
                             (clamped to LONG_POLL_CAP_S; 400 on a
                             malformed ``s``)
    GET    /jobs/<id>/result result payload   -> 200 done
                                                 202 queued/running
                                                 410 cancelled
                                                 500 failed (+error)
                                                 404 unknown
    DELETE /jobs/<id>        cancel           -> 200 (409 if terminal,
                                                 404 unknown)
    GET    /jobs/<id>/trace  Chrome trace_event JSON of the job's
                             spans -> 200 terminal-with-trace
                                      202 queued/running
                                      410 cancelled
                                      404 unknown / tracing disabled
    GET    /healthz          liveness + degradation flag
    GET    /stats            queue depth, dedup hits, cache + store
                             hit rates, per-kind job latency
                             percentiles, served jobs/sec,
                             per-state job counts
    GET    /metrics          the metrics registry in Prometheus text
                             exposition format

The result-status mapping mirrors the CLI exit codes (0 -> 200,
infeasible/failed -> 500, bad input -> 400), so a shell pipeline and an
HTTP client observe the same failure taxonomy -- see docs/SERVICE.md.
Error bodies carry the same ``{"error": {code, reason, message}}``
object the CLI prints with ``--json``: ``code`` is the CLI exit code
the condition maps to, ``reason`` a stable machine-readable slug.

Built on stdlib ``http.server.ThreadingHTTPServer``: one thread per
connection in front of the engine's own worker pool; no new
dependencies.  Connections are HTTP/1.1 keep-alive, so a client that
reuses its connection (:class:`~repro.service.client.ServiceClient`
does) costs one handler thread for all its requests.  Every
connection and every request (by route) is counted in the metrics
registry: ``service.http.connections`` and
``service.http.requests.<route>``.  :class:`ReproService` bundles
engine + server with ``start()``/``stop()`` and context-manager
support; ``port=0`` binds an ephemeral port (the bound address is in
``.url``).
"""

from __future__ import annotations

import json
import math
import socket
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Set, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.obs.metrics import REGISTRY
from repro.obs.trace import spans_to_chrome
from repro.service.engine import JobEngine
from repro.service.jobs import (
    CANCELLED,
    DONE,
    FAILED,
    JobError,
    QUEUED,
    RUNNING,
)

#: request body size cap (sources are small; grids are tiny JSON).
MAX_BODY = 1 << 20

#: largest unwanted request body the server reads and drops to keep a
#: kept-alive connection in step; a larger one closes the connection.
MAX_DRAIN = 16 * MAX_BODY

#: longest a ``GET /jobs/<id>?wait=`` long-poll parks, seconds; larger
#: requests are clamped to it.
LONG_POLL_CAP_S = 30.0

#: HTTP status -> (CLI exit code, reason slug) for error bodies; the
#: same taxonomy ``repro --json`` renders on stderr (EXIT_BAD_INPUT=3,
#: EXIT_FAILED=1).
ERROR_TAXONOMY = {
    400: (3, "bad-input"),
    404: (3, "not-found"),
    409: (1, "conflict"),
    410: (1, "cancelled"),
}

#: serializes the HTTP counters: handler threads bump them concurrently,
#: and the registry's counter table is lock-free.
_COUNTER_LOCK = threading.Lock()


def _count(name: str) -> None:
    with _COUNTER_LOCK:
        REGISTRY.inc(name)


class _Server(ThreadingHTTPServer):
    """ThreadingHTTPServer with a backlog sized for bursty clients.

    The stdlib default ``request_queue_size`` of 5 resets connections
    the moment a handful of clients connect at once; a job server's
    whole point is absorbing such bursts into its queue.
    """

    request_queue_size = 64

    def __init__(self, *args, **kwargs) -> None:
        #: open client connections, so :meth:`drop_connections` can
        #: end kept-alive ones whose handler threads idle in a read.
        self.connections: Set[socket.socket] = set()
        self.connections_lock = threading.Lock()
        super().__init__(*args, **kwargs)

    def drop_connections(self) -> None:
        """Shut every open client connection down (service stop)."""
        with self.connections_lock:
            conns = list(self.connections)
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass

    def handle_error(self, request, client_address) -> None:
        # a peer that hung up mid-request (or drop_connections) is
        # routine for a keep-alive server, not a traceback
        if isinstance(sys.exc_info()[1], ConnectionError):
            return
        super().handle_error(request, client_address)


class _Handler(BaseHTTPRequestHandler):
    """Routes requests onto ``self.server.engine``; JSON in, JSON out."""

    server_version = "repro-service/1.0"
    protocol_version = "HTTP/1.1"
    #: the handler writes headers and body separately; with Nagle on,
    #: the body waits for the client's delayed ACK (~40 ms per request
    #: on a kept-alive connection).
    disable_nagle_algorithm = True

    # -- plumbing ------------------------------------------------------
    def setup(self) -> None:
        super().setup()
        _count("service.http.connections")
        with self.server.connections_lock:
            self.server.connections.add(self.connection)

    def finish(self) -> None:
        with self.server.connections_lock:
            self.server.connections.discard(self.connection)
        super().finish()

    def log_message(self, fmt, *args):  # noqa: D102 - quiet by default
        if getattr(self.server, "verbose", False):  # pragma: no cover
            super().log_message(fmt, *args)

    @property
    def engine(self) -> JobEngine:
        return self.server.engine

    def _send(self, code: int, payload: dict) -> None:
        self._send_text(code, json.dumps(payload, sort_keys=True),
                        "application/json")

    def _error_body(self, status: int, message: str,
                    reason: Optional[str] = None, **extra) -> dict:
        """The ``{"error": {code, reason, message}}`` object for one
        HTTP status, per :data:`ERROR_TAXONOMY`; ``reason`` overrides
        the status's slug (a :class:`JobError`'s own reason)."""
        code, default = ERROR_TAXONOMY.get(status, (1, "failed"))
        return {"error": dict(extra, code=code, reason=reason or default,
                              message=message)}

    def _error(self, status: int, message: str, **extra) -> None:
        self._send(status, self._error_body(status, message, **extra))

    def _send_text(self, code: int, body: str,
                   content_type: str) -> None:
        raw = body.encode()
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(raw)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(raw)

    def _content_length(self) -> int:
        """The request's ``Content-Length``; -1 when malformed."""
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            return -1
        return length if length >= 0 else -1

    def _skip_body(self) -> None:
        """Read and drop a body the route will not use, so the next
        request on a kept-alive connection starts where it should.  A
        malformed length or one over :data:`MAX_DRAIN` closes the
        connection after the response instead."""
        length = self._content_length()
        if not 0 <= length <= MAX_DRAIN:
            self.close_connection = True
            return
        while length > 0:
            chunk = self.rfile.read(min(length, 1 << 16))
            if not chunk:
                break
            length -= len(chunk)

    def _read_body(self) -> dict:
        length = self._content_length()
        if length < 0:
            self.close_connection = True
            raise JobError("bad Content-Length "
                           f"{self.headers.get('Content-Length')!r}")
        if length > MAX_BODY:
            self._skip_body()
            raise JobError(f"request body over {MAX_BODY} bytes")
        raw = self.rfile.read(length) if length else b"{}"
        try:
            payload = json.loads(raw.decode() or "{}")
        except (ValueError, UnicodeDecodeError):
            raise JobError("request body is not valid JSON")
        if not isinstance(payload, dict):
            raise JobError("request body must be a JSON object")
        return payload

    def _wait_seconds(self) -> Optional[float]:
        """The ``?wait=`` long-poll budget, clamped to
        :data:`LONG_POLL_CAP_S`; ``None`` when absent.  Raises
        :class:`JobError` on a malformed value."""
        values = parse_qs(urlsplit(self.path).query,
                          keep_blank_values=True).get("wait")
        if not values:
            return None
        try:
            seconds = float(values[-1])
        except ValueError:
            seconds = math.nan
        if not seconds >= 0.0 or math.isinf(seconds):
            raise JobError(f"bad wait {values[-1]!r} "
                           "(want a number of seconds >= 0)")
        return min(seconds, LONG_POLL_CAP_S)

    def _job_path(self) -> Optional[Tuple[str, str]]:
        """``/jobs/<id>[/result|/trace]`` -> (id, view); else None.

        ``view`` is ``"status"``, ``"result"`` or ``"trace"``.
        """
        parts = [p for p in self.path.split("?")[0].split("/") if p]
        if len(parts) == 2 and parts[0] == "jobs":
            return parts[1], "status"
        if len(parts) == 3 and parts[0] == "jobs" \
                and parts[2] in ("result", "trace"):
            return parts[1], parts[2]
        return None

    # -- routes --------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802 - http.server API
        if self.path.split("?")[0] != "/jobs":
            _count("service.http.requests.unknown")
            self._skip_body()
            return self._error(404, f"no such endpoint {self.path!r}")
        _count("service.http.requests.submit")
        try:
            body = self._read_body()
            kind = body.pop("kind", None)
            priority = body.pop("priority", 0)
            try:
                priority = int(priority)
            except (TypeError, ValueError):
                raise JobError(f"bad priority {priority!r}")
            job = self.engine.submit(kind, body, priority=priority)
        except JobError as err:
            return self._error(400, str(err), reason=err.reason)
        payload = job.status()
        payload["deduplicated"] = job.dedup_of is not None
        self._send(202, payload)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._skip_body()
        path = self.path.split("?")[0]
        if path in ("/healthz", "/stats", "/metrics"):
            _count(f"service.http.requests.{path[1:]}")
        if path == "/healthz":
            return self._send(200, self.engine.healthz())
        if path == "/stats":
            return self._send(200, self.engine.stats())
        if path == "/metrics":
            return self._metrics()
        target = self._job_path()
        if target is None:
            _count("service.http.requests.unknown")
            return self._error(404, f"no such endpoint {self.path!r}")
        job_id, view = target
        _count(f"service.http.requests.{view}")
        wait_s = None
        if view == "status":
            try:
                wait_s = self._wait_seconds()
            except JobError as err:
                return self._error(400, str(err))
        job = self.engine.queue.get(job_id)
        if job is None:
            return self._error(404, f"unknown job {job_id!r}")
        if view == "status":
            if wait_s:
                job = self.engine.queue.wait(job_id, wait_s)
            return self._send(200, job.status())
        if view == "trace":
            return self._trace(job)
        if job.state == DONE:
            return self._send(200, {"id": job.id, "state": job.state,
                                    "result": job.result,
                                    "stats": job.stats})
        if job.state in (QUEUED, RUNNING):
            return self._send(202, job.status())
        if job.state == CANCELLED:
            payload = job.status()
            payload.update(self._error_body(
                410, f"job {job.id} was cancelled"))
            return self._send(410, payload)
        # FAILED: the error record is the payload
        return self._send(500, job.status())

    def _metrics(self) -> None:
        """``/metrics``: the registry + engine gauges as Prometheus
        text exposition (scrape-ready, no JSON wrapper)."""
        stats = self.engine.stats()
        extra = {
            "service.queue_depth": stats["queue_depth"],
            "service.jobs_running": stats["running"],
            "service.uptime_seconds": stats["uptime_s"],
            "service.workers": stats["workers"],
            "service.degraded": 1.0 if stats["degraded"] else 0.0,
            "service.cache_hit_rate": stats["cache_hit_rate"],
            "service.store_hit_rate": stats["store_hit_rate"],
        }
        for counter in ("submitted", "completed", "failed", "cancelled",
                        "retries", "worker_crashes", "timeouts"):
            extra[f"service.jobs_{counter}"] = stats[counter]
        extra["service.dedup_hits"] = stats["dedup_hits"]
        body = REGISTRY.render_prometheus(extra_gauges=extra)
        self._send_text(200, body, "text/plain; version=0.0.4")

    def _trace(self, job) -> None:
        """``/jobs/<id>/trace``: the job's spans as a Chrome trace."""
        if job.state in (QUEUED, RUNNING):
            return self._send(202, job.status())
        if job.state == CANCELLED:
            payload = job.status()
            payload.update(self._error_body(
                410, f"job {job.id} was cancelled"))
            return self._send(410, payload)
        if job.trace is None:
            return self._error(
                404, f"no trace recorded for job {job.id} "
                     "(tracing disabled on this engine)")
        return self._send(200, spans_to_chrome(job.trace))

    def do_DELETE(self) -> None:  # noqa: N802 - http.server API
        self._skip_body()
        target = self._job_path()
        if target is None or target[1] != "status":
            _count("service.http.requests.unknown")
            return self._error(404, f"no such endpoint {self.path!r}")
        _count("service.http.requests.cancel")
        job_id = target[0]
        job = self.engine.queue.get(job_id)
        if job is None:
            return self._error(404, f"unknown job {job_id!r}")
        was_terminal = job.state in (DONE, FAILED, CANCELLED)
        job = self.engine.cancel(job_id)
        if was_terminal:
            payload = job.status()
            payload.update(self._error_body(
                409, f"job {job.id} is already {job.state}"))
            return self._send(409, payload)
        return self._send(200, job.status())


class ReproService:
    """Engine + HTTP server, bundled for one-call boot.

    >>> service = ReproService(port=0, workers=1, mode="inline")
    >>> url = service.start().url            # doctest: +SKIP
    >>> service.stop()                       # doctest: +SKIP

    ``start()`` spins the engine's worker threads and a daemon thread
    running ``serve_forever``; ``stop()`` shuts both down and compacts
    the result store.  Usable as a context manager.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 engine: Optional[JobEngine] = None,
                 **engine_kwargs) -> None:
        self.host = host
        self._requested_port = port
        self.engine = engine if engine is not None \
            else JobEngine(**engine_kwargs)
        self._httpd: Optional[_Server] = None
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        """The bound port (only meaningful after :meth:`start`)."""
        if self._httpd is None:
            return self._requested_port
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        """Base URL of the running service."""
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ReproService":
        """Bind, start serving and start the engine (idempotent)."""
        if self._httpd is not None:
            return self
        self.engine.start()
        self._httpd = _Server(
            (self.host, self._requested_port), _Handler)
        self._httpd.engine = self.engine
        self._httpd.daemon_threads = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="repro-service-http", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop serving, release long-polls, close kept-alive
        connections, stop the engine, compact the store."""
        if self._httpd is not None:
            self._httpd.shutdown()
            self.engine.queue.close()
            self._httpd.drop_connections()
            self._httpd.server_close()
            self._httpd = None
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self.engine.stop()

    def __enter__(self) -> "ReproService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

"""A tiny stdlib HTTP client for the job service.

Used by ``repro submit``, the throughput benchmark, the CI smoke
driver and the test suite -- anything that talks to a running
:class:`~repro.service.server.ReproService` without pulling in a
dependency.  Every method returns the decoded JSON payload; HTTP error
statuses raise :class:`ServiceError` carrying the status code and the
decoded body, so callers branch on ``err.status`` instead of parsing
exception strings.  Transport failures raise :class:`OSError`
subclasses (``ConnectionError``, ``TimeoutError``).

A client keeps one HTTP/1.1 keep-alive connection per thread, and
:meth:`ServiceClient.wait` long-polls (``GET /jobs/<id>?wait=``), so a
submit + wait + result round trip is three requests on one connection.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from typing import Optional, Tuple
from urllib.parse import urlsplit

from repro.service.jobs import TERMINAL
from repro.service.server import LONG_POLL_CAP_S


class ServiceError(Exception):
    """An HTTP-level failure (status >= 400) from the service."""

    def __init__(self, status: int, payload: dict) -> None:
        self.status = status
        self.payload = payload
        message = payload.get("error", {}).get("message") \
            if isinstance(payload.get("error"), dict) else None
        super().__init__(message or f"HTTP {status}")


class ServiceClient:
    """Submit/status/result/cancel against one service URL.

    Safe to share between threads: each thread gets its own
    connection, freed when the thread or the client goes away.
    """

    def __init__(self, url: str, timeout: float = 30.0) -> None:
        self.url = url.rstrip("/")
        self.timeout = timeout
        parts = urlsplit(self.url)
        self._connection_class = {
            "http": http.client.HTTPConnection,
            "https": http.client.HTTPSConnection,
        }.get(parts.scheme) if parts.hostname else None
        self._netloc = parts.netloc
        self._prefix = parts.path
        self._local = threading.local()

    # ------------------------------------------------------------------
    def _roundtrip(self, method: str, path: str,
                   data: Optional[bytes] = None,
                   wait_s: float = 0.0) -> Tuple[int, bytes]:
        """One request on this thread's kept-alive connection.

        A reused connection the server has since closed fails with a
        reset or EOF before a response is read; that, and only that,
        is retried once on a fresh connection.  ``wait_s`` extends the
        read timeout for a long-poll.
        """
        conn = getattr(self._local, "conn", None)
        if conn is None:
            if self._connection_class is None:
                raise ConnectionError(
                    f"not an http(s) service URL: {self.url!r}")
            conn = self._local.conn = self._connection_class(
                self._netloc, timeout=self.timeout)
        timeout = self.timeout + wait_s
        headers = {"Content-Type": "application/json"} \
            if data is not None else {}
        for retry in (False, True):
            reused = conn.sock is not None
            if conn.timeout != timeout:
                conn.timeout = timeout
                if reused:
                    conn.sock.settimeout(timeout)
            response = None
            try:
                conn.request(method, self._prefix + path, body=data,
                             headers=headers)
                response = conn.getresponse()
                return response.status, response.read()
            except (BrokenPipeError, ConnectionAbortedError,
                    ConnectionResetError):
                # (http.client.RemoteDisconnected is a reset too)
                conn.close()
                if reused and response is None and not retry:
                    continue
                raise
            except http.client.HTTPException as err:
                conn.close()
                raise ConnectionError(
                    f"bad response from {self.url}: {err!r}") from err
            except BaseException:
                conn.close()
                raise

    def _request(self, method: str, path: str,
                 body: Optional[dict] = None,
                 wait_s: float = 0.0) -> dict:
        data = json.dumps(body).encode() if body is not None else None
        status, raw = self._roundtrip(method, path, data, wait_s)
        if status < 400:
            return json.loads(raw.decode() or "{}")
        try:
            payload = json.loads(raw.decode() or "{}")
        except ValueError:
            payload = {}
        raise ServiceError(status, payload)

    def close(self) -> None:
        """Close the calling thread's connection; its next request
        opens a fresh one."""
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            conn.close()
            self._local.conn = None

    # ------------------------------------------------------------------
    def submit(self, kind: str, priority: int = 0, **params) -> dict:
        """POST /jobs; returns the accepted job's status record."""
        body = dict(params, kind=kind, priority=priority)
        return self._request("POST", "/jobs", body)

    def status(self, job_id: str) -> dict:
        """GET /jobs/<id>."""
        return self._request("GET", f"/jobs/{job_id}")

    def result(self, job_id: str) -> dict:
        """GET /jobs/<id>/result (raises ServiceError unless done)."""
        return self._request("GET", f"/jobs/{job_id}/result")

    def cancel(self, job_id: str) -> dict:
        """DELETE /jobs/<id>."""
        return self._request("DELETE", f"/jobs/{job_id}")

    def trace(self, job_id: str) -> dict:
        """GET /jobs/<id>/trace (Chrome ``trace_event`` JSON)."""
        return self._request("GET", f"/jobs/{job_id}/trace")

    def stats(self) -> dict:
        """GET /stats."""
        return self._request("GET", "/stats")

    def metrics(self) -> str:
        """GET /metrics (Prometheus text exposition, not JSON)."""
        status, raw = self._roundtrip("GET", "/metrics")
        if status >= 400:  # pragma: no cover
            raise ServiceError(status, {})
        return raw.decode()

    def healthz(self) -> dict:
        """GET /healthz."""
        return self._request("GET", "/healthz")

    def wait(self, job_id: str, timeout: float = 60.0,
             poll_s: float = 0.05) -> dict:
        """Long-poll the status endpoint until the job is terminal.

        Each request parks server-side for ``min(time left,
        LONG_POLL_CAP_S)`` seconds at most; ``poll_s`` is the pause
        between two requests that both returned a live job.  Returns
        the final status record; raises ``TimeoutError`` when the
        deadline passes first (the job keeps running server-side).
        """
        deadline = time.monotonic() + timeout
        while True:
            wait_s = min(max(deadline - time.monotonic(), 0.0),
                         LONG_POLL_CAP_S)
            status = self._request("GET",
                                   f"/jobs/{job_id}?wait={wait_s:.3f}",
                                   wait_s=wait_s)
            if status["state"] in TERMINAL:
                return status
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {status['state']} "
                    f"after {timeout:.1f}s")
            time.sleep(poll_s)

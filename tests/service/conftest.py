"""Fixtures for the service suite: fast inline engines + live servers.

Inline mode (no fork) keeps the unit-level tests fast and
deterministic; the fault-injection tests build their own process-mode
engines because they need a worker pid to kill.
"""

from __future__ import annotations

import pytest

from repro.service import JobEngine, ReproService, ServiceClient


@pytest.fixture
def engine(tmp_path):
    """A started inline engine with a private store path."""
    eng = JobEngine(workers=2, mode="inline", job_timeout_s=60.0,
                    store_path=str(tmp_path / "store.jsonl"))
    eng.start()
    yield eng
    eng.stop()


@pytest.fixture
def service(tmp_path):
    """A live HTTP service (inline engine) and a client bound to it."""
    svc = ReproService(port=0, workers=2, mode="inline",
                       job_timeout_s=60.0,
                       store_path=str(tmp_path / "store.jsonl"))
    with svc:
        yield svc, ServiceClient(svc.url)

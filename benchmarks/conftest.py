"""Shared benchmark fixtures and reporting helpers.

Every benchmark prints the same rows the paper's table or figure reports,
so ``pytest benchmarks/ --benchmark-only -s`` regenerates the evaluation
section.  Absolute numbers depend on the calibrated library; the *shape*
(who wins, by what factor, where crossovers fall) is asserted.

The session additionally writes a machine-readable trajectory,
``BENCH_results.json`` (repo root; override with ``REPRO_BENCH_JSON``):
per-benchmark wall time, outcome, and any key metrics a test records
through the ``bench_metrics`` fixture.  CI uploads the file as an
artifact so performance regressions are visible across PRs.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path

import pytest

from repro.tech import artisan90

#: the paper's clock for the Example 1 experiments.
PAPER_CLOCK_PS = 1600.0

#: set REPRO_FULL=1 to run the full-size Figure 9/10 sweeps.
FULL = os.environ.get("REPRO_FULL", "0") == "1"


@pytest.fixture(scope="session")
def lib():
    """The calibrated artisan-90nm-typical library."""
    return artisan90()


# ----------------------------------------------------------------------
# machine-readable trajectory (BENCH_results.json)
# ----------------------------------------------------------------------
#: results accumulated over the session, keyed by test id.
_RESULTS: dict = {}
#: metrics registered by tests via the ``bench_metrics`` fixture.
_METRICS: dict = {}


def _results_path() -> Path:
    override = os.environ.get("REPRO_BENCH_JSON")
    if override:
        return Path(override)
    return Path(__file__).resolve().parent.parent / "BENCH_results.json"


@pytest.fixture()
def bench_metrics(request):
    """Dict a benchmark fills with its key figures (II, area, speedup,
    cache hit rates, ...); lands in ``BENCH_results.json``."""
    metrics = _METRICS.setdefault(request.node.nodeid, {})
    return metrics


def _peak_rss_kb() -> int:
    """Peak RSS of this process so far, in KiB (0 where unavailable)."""
    try:
        import resource
        return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    except (ImportError, OSError):  # pragma: no cover - non-POSIX
        return 0


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call":
        return
    _RESULTS[item.nodeid] = {
        "outcome": report.outcome,
        "wall_s": round(report.duration, 6),
        # environment stamp: when it ran, on how wide a host, and the
        # session's high-water memory mark at that point -- so a
        # regression in the trajectory can be told apart from a change
        # of machine
        "unix_time": int(time.time()),
        "cpus": os.cpu_count() or 1,
        "peak_rss_kb": _peak_rss_kb(),
    }


def pytest_sessionfinish(session):
    if not _RESULTS:
        return
    for nodeid, metrics in _METRICS.items():
        if nodeid in _RESULTS and metrics:
            _RESULTS[nodeid]["metrics"] = metrics
    payload = {
        "schema": 1,
        "unix_time": int(time.time()),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "benchmarks": dict(sorted(_RESULTS.items())),
    }
    path = _results_path()
    try:
        path.write_text(json.dumps(payload, indent=2, sort_keys=True)
                        + "\n")
    except OSError:  # read-only checkouts must not fail the run
        pass


def banner(title: str) -> None:
    """Print a section header for the harness output."""
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)


_SWEEP_CACHE = {}


@pytest.fixture(scope="session")
def idct_sweep(lib):
    """The Figure 10/11 sweep, computed once and shared by both benches."""
    def run(full: bool):
        key = ("idct", full)
        if key not in _SWEEP_CACHE:
            from repro.explore import PAPER_MICROARCHS
            from repro.flow import run_sweep
            from repro.workloads.idct import build_idct2d
            factory = (lambda: build_idct2d(columns=4)) if full \
                else (lambda: build_idct2d(columns=1))
            clocks = (1000.0, 1250.0, 1600.0, 2100.0, 2800.0)
            _SWEEP_CACHE[key] = run_sweep(
                factory, lib, PAPER_MICROARCHS, clocks).points
        return list(_SWEEP_CACHE[key])
    return run

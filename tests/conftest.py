"""Shared fixtures: libraries, the paper's example, and small helpers.

Also registers the ``ci`` Hypothesis profile (derandomized, so a CI
failure reproduces locally from the printed example alone); select it
with ``HYPOTHESIS_PROFILE=ci pytest ...``.  The default profile keeps
Hypothesis' normal randomized exploration for local runs, and
``REPRO_MAX_EXAMPLES=200`` raises the property-suite example counts to
the acceptance level.
"""

from __future__ import annotations

import contextlib
import os
import random

import pytest
from hypothesis import settings as hypothesis_settings

from repro.cdfg import RegionBuilder
from repro.core import scheduler
from repro.tech import artisan90, generic45
from repro.workloads import build_example1

hypothesis_settings.register_profile("ci", derandomize=True, deadline=None)
hypothesis_settings.load_profile(
    os.environ.get("HYPOTHESIS_PROFILE", "default"))


def property_examples(default: int = 25) -> int:
    """Example count for property suites; REPRO_MAX_EXAMPLES raises it
    (the acceptance runs use 200)."""
    return int(os.environ.get("REPRO_MAX_EXAMPLES", default))


@contextlib.contextmanager
def cold_fixpoint():
    """Run the relaxation loop cold: no fixpoint fast-forward fires.

    The fast-forward triggers on two consecutive failed passes with
    equal driver fingerprints; a fingerprint that is a fresh object
    never compares equal, so every pass runs.  This is the reference
    loop the fast-forward must reproduce decision for decision.  A
    plain context manager rather than a fixture, so Hypothesis tests
    and the serial leg of a benchmark can scope it."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scheduler, "driver_fingerprint", lambda *args: object())
        yield


#: the sweep engine only runs its process backend (jobs > 1) on a
#: multicore host; tests of that backend's own surfaces need one.
MULTICORE = (os.cpu_count() or 1) > 1
requires_multicore = pytest.mark.skipif(
    not MULTICORE,
    reason="jobs > 1 runs the process backend only on multicore hosts")

#: the paper's clock for the worked examples (section IV, Example 1).
PAPER_CLOCK_PS = 1600.0


@pytest.fixture(scope="session")
def lib():
    """The calibrated artisan-90nm-typical library."""
    return artisan90()


@pytest.fixture(scope="session")
def lib45():
    """The secondary 45 nm exploration library."""
    return generic45()


@pytest.fixture
def example1():
    """A fresh copy of the paper's Example 1 region."""
    return build_example1()


@pytest.fixture
def example1_inputs():
    """Deterministic input streams that exit after 9 iterations."""
    rng = random.Random(7)
    n = 9
    return {
        "mask": [rng.randrange(1, 50) for _ in range(n - 1)] + [0],
        "chrome": [rng.randrange(1, 50) for _ in range(n)],
        "scale": [rng.randrange(-3, 4) for _ in range(n)],
        "th": [rng.randrange(0, 2000) for _ in range(n)],
    }


def make_mac_region(name: str = "mac", taps: int = 1,
                    max_latency: int = 8) -> object:
    """A small multiply-accumulate loop used by many unit tests."""
    b = RegionBuilder(name, is_loop=True, max_latency=max_latency)
    x = b.read("x", 32)
    acc = b.loop_var("acc", b.const(0, 32))
    term = b.mul(x, x)
    for _ in range(taps - 1):
        term = b.add(term, b.mul(x, term))
    acc.set_next(b.add(acc, term))
    b.write("y", acc.value)
    b.set_trip_count(6)
    return b.build()

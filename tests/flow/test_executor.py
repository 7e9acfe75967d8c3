"""The sweep executor: determinism, infeasible records, backend pick."""

import os

import pytest

from tests.conftest import requires_multicore

from repro.explore import InfeasiblePoint, Microarch
from repro.flow import FlowCache, run_sweep, synthesize_design_point
from repro.flow import sweepctx
from repro.workloads import build_example1
from repro.workloads.fir import build_fir

MICROS = (Microarch("NP-3", 3), Microarch("NP-4", 4),
          Microarch("P-4", 4, ii=2))
CLOCKS = (1600.0, 2400.0)


def test_parallel_equals_serial_on_example1(lib):
    serial = run_sweep(build_example1, lib, MICROS, CLOCKS, jobs=1)
    parallel = run_sweep(build_example1, lib, MICROS, CLOCKS, jobs=4)
    # byte-identical design points, in identical (deterministic) order
    assert serial.points == parallel.points
    assert serial.infeasible == parallel.infeasible
    assert repr(serial.points) == repr(parallel.points)


def test_infeasible_points_are_recorded(lib):
    micros = (Microarch("NP-1", 1), Microarch("NP-3", 3))
    result = run_sweep(build_fir, lib, micros, (1600.0,))
    assert result.total == 2
    assert len(result.infeasible) == 1
    (bad,) = result.infeasible
    assert bad.microarch == "NP-1"
    assert bad.clock_ps == 1600.0
    assert bad.reason  # the scheduler's explanation is preserved
    assert len(result.points) == 1


def test_sweep_result_summary_roundtrips_to_json(lib):
    import json

    result = run_sweep(build_example1, lib, MICROS, CLOCKS)
    record = json.loads(json.dumps(result.summary()))
    assert record["feasible"] == len(result.points)
    assert record["infeasible"] == len(result.infeasible)
    assert len(record["points"]) == record["feasible"]


def test_cached_resweep_hits_for_every_point(lib):
    cache = FlowCache()
    first = run_sweep(build_example1, lib, MICROS, CLOCKS, cache=cache)
    second = run_sweep(build_example1, lib, MICROS, CLOCKS, cache=cache)
    assert first.points == second.points
    assert second.cache_misses == 0
    # schedule + power per feasible point; schedule miss per infeasible
    assert second.cache_hits == 2 * len(second.points)


def test_parallel_sweep_with_shared_cache(lib):
    cache = FlowCache()
    warm = run_sweep(build_example1, lib, MICROS, CLOCKS, cache=cache)
    parallel = run_sweep(build_example1, lib, MICROS, CLOCKS, jobs=3,
                         cache=cache)
    assert parallel.points == warm.points


# ----------------------------------------------------------------------
# what the removed explore shims promised, asserted through run_sweep
# ----------------------------------------------------------------------
def test_sweep_microarchitectures_shim_collects_infeasible(lib):
    micros = (Microarch("NP-1", 1), Microarch("NP-3", 3))
    result = run_sweep(build_fir, lib, micros, (1600.0,))
    assert len(result.points) == 1
    assert len(result.infeasible) == 1
    assert isinstance(result.infeasible[0], InfeasiblePoint)


def test_sweep_microarchitectures_shim_parallel_jobs(lib):
    serial = run_sweep(build_example1, lib, MICROS, CLOCKS).points
    parallel = run_sweep(build_example1, lib, MICROS, CLOCKS,
                         jobs=2).points
    assert serial == parallel


# ----------------------------------------------------------------------
# backend selection: jobs and the host's core count decide, nothing else
# ----------------------------------------------------------------------
@pytest.mark.parametrize("jobs, cpus, expected", [
    (1, None, "context"),
    (4, 1, "context"),  # a pool on one core is pure fork/pickle cost
    pytest.param(2, None, "process", marks=requires_multicore),
])
def test_backend_pick_is_automatic(lib, monkeypatch, jobs, cpus,
                                   expected):
    if cpus is not None:
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    result = run_sweep(build_fir, lib, (Microarch("NP-3", 3),),
                       (1600.0, 2400.0), jobs=jobs)
    assert result.backend == expected
    assert result.jobs == jobs
    assert len(result.points) == 2


# ----------------------------------------------------------------------
# the variant's carryover is built only when the scheduler runs
# ----------------------------------------------------------------------
def test_single_point_builds_carryover_only_when_scheduling(lib,
                                                            monkeypatch):
    built = []
    real = sweepctx._RegionCache

    def counting(region, library):
        built.append(region.name)
        return real(region, library)

    monkeypatch.setattr(sweepctx, "_RegionCache", counting)
    micro = Microarch("NP-3", 3)
    cache = FlowCache()
    cold = synthesize_design_point(build_fir, lib, micro, 1600.0,
                                   cache=cache)
    assert len(built) == 1
    # a flow-cache hit never reaches the scheduler
    hit = synthesize_design_point(build_fir, lib, micro, 1600.0,
                                  cache=cache)
    assert hit == cold
    assert len(built) == 1

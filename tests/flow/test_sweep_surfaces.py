"""PR 8 surface contracts: profile accounting and the ffwd fast path.

Two invariants the sweep engine reports but nothing previously pinned:

* the process backend's profile accounts for every grid point exactly
  once -- ``parent_served`` (cache hits served before the fan-out) plus
  the per-worker chunk ``points`` must equal the grid size;
* the relaxation fixpoint fast-forward is decision-identical to the
  cold path on a budget-exhausted region *and actually fires* (the
  existing property test only checked error-message identity, which
  holds vacuously when the counter never increments).
"""

from __future__ import annotations

from tests.conftest import cold_fixpoint, requires_multicore

from repro import profiling
from repro.cdfg import RegionBuilder
from repro.core.schedule import ScheduleError
from repro.core.scheduler import SchedulerOptions, schedule_region
from repro.explore import Microarch
from repro.flow import FlowCache, run_sweep
from repro.tech import artisan90
from repro.workloads import build_example1

MICROS = tuple(Microarch(f"NP{k}", k) for k in (2, 3, 4, 5))
CLOCKS = (1000.0, 1600.0, 2400.0)


def _accounted(profile):
    return (profile.get("parent_served", 0)
            + sum(w["points"] for w in profile.get("workers", [])))


# ----------------------------------------------------------------------
# profile counter invariant: parent_served + worker points == total
# ----------------------------------------------------------------------
@requires_multicore
def test_process_profile_accounts_for_every_point(lib):
    result = run_sweep(build_example1, lib, MICROS, CLOCKS, jobs=2)
    assert result.backend == "process"
    assert result.total == len(MICROS) * len(CLOCKS)
    assert not result.profile.get("process_fallback")
    assert _accounted(result.profile) == result.total
    # every chunk reports the full accounting quartet
    for chunk in result.profile["workers"]:
        assert set(chunk) >= {"points", "busy_s", "cache_hits",
                              "cache_misses"}
        assert chunk["points"] > 0
        assert chunk["busy_s"] >= 0.0
    assert 0.0 < result.profile["worker_utilization"] <= 1.0
    assert result.profile["pickle_bytes"] > 0


@requires_multicore
def test_pickle_bytes_is_per_sweep(lib):
    """Two identical process sweeps in one process ship the same blobs,
    so each reports the same byte count, not a running total."""
    first, second = (run_sweep(build_example1, lib, MICROS, CLOCKS,
                               jobs=2)
                     for _ in range(2))
    assert first.profile["pickle_bytes"] > 0
    assert second.profile["pickle_bytes"] == first.profile["pickle_bytes"]


@requires_multicore
def test_warm_process_resweep_is_all_parent_served(lib):
    cache = FlowCache()
    cold = run_sweep(build_example1, lib, MICROS, CLOCKS,
                     jobs=2, cache=cache)
    warm = run_sweep(build_example1, lib, MICROS, CLOCKS,
                     jobs=2, cache=cache)
    assert cold.backend == warm.backend == "process"
    # identical decisions either way
    assert warm.points == cold.points
    assert warm.infeasible == cold.infeasible
    # ...but the warm pass never reaches the pool: the parent serves
    # every point from the shared cache, and the accounting still sums
    assert warm.profile["parent_served"] == warm.total
    assert sum(w["points"] for w in warm.profile.get("workers", [])) == 0
    assert _accounted(warm.profile) == warm.total


# ----------------------------------------------------------------------
# fixpoint fast-forward on a budget-exhausted region
# ----------------------------------------------------------------------
def _spiral_region():
    """A region that death-spirals: both muls must fit a clock below
    the multiplier's propagation delay, multicycle is disallowed, and
    the latency is pinned so ``add_state`` is never proposed.  The
    driver keeps proposing the same futile ``add_resource mul`` batch
    every pass -- the exact replay the fast-forward collapses."""
    b = RegionBuilder("spiral", max_latency=3)
    xs = [b.read(f"x{i}", 16) for i in range(3)]
    b.write("out", b.add(b.mul(xs[0], xs[1]), b.mul(xs[1], xs[2])))
    region = b.build()
    region.min_latency = region.max_latency = 3
    return region


SPIRAL_CLOCK = 670.0  # below the 744ps mul: never fits single-cycle


def _spiral_outcome():
    options = SchedulerOptions(allow_multicycle=False)
    try:
        schedule_region(_spiral_region(), artisan90(), SPIRAL_CLOCK,
                        options=options)
        return ("ok",)
    except ScheduleError as exc:
        return ("err", str(exc.args[0]), tuple(map(str, exc.diagnostics)))


def test_ffwd_identical_to_cold_path_on_budget_exhaustion():
    profiling.reset()
    with cold_fixpoint():
        cold = _spiral_outcome()
    assert profiling.counters.get("scheduler.ffwd", 0) == 0
    profiling.reset()
    fast = _spiral_outcome()
    # the fast-forward actually fired and synthesized the spiral tail
    assert profiling.counters.get("scheduler.ffwd", 0) == 1
    assert profiling.counters.get("scheduler.ffwd_passes", 0) > 0
    # ...yet the rendered outcome is bit-identical: same budget error,
    # same history (one add_resource per synthesized pass included)
    assert fast == cold
    assert cold[0] == "err" and "pass budget" in cold[1]
    assert len(cold[2]) == SchedulerOptions().max_passes


def test_ffwd_fire_surfaces_as_warm_accepts_in_profile(lib):
    options = SchedulerOptions(allow_multicycle=False)
    result = run_sweep(_spiral_region, lib, (Microarch("NP3", 3),),
                       (SPIRAL_CLOCK,), options=options)
    (bad,) = result.infeasible
    assert "pass budget" in bad.reason
    assert result.profile["warm_accepts"] == 1
    assert result.profile["warm_fallbacks"] == 0

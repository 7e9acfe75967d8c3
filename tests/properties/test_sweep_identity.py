"""Bit-identity of the sweep engine against the serial cold path.

The engine's contract: whatever backend runs a sweep -- the serial
context engine with its cross-point carryover, the process pool with
per-worker caches, warm-started re-sweeps over a shared cache, or the
relaxation fixpoint fast-forward -- every scheduling decision must be
bit-identical to the seed path: a serial loop of cold per-point
:func:`synthesize_design_point` calls (fresh region and carryover per
point) without fast-forward.  That covers feasible points (all
metrics), InfeasiblePoint records (reason text included), flow
diagnostics, and tune winners.

Checked on the paper's Example 1 grid, an industrial-class synthetic
design, and Hypothesis-random regions whose grids are chosen to cross
the feasibility boundary (so the expensive budget-exhaustion paths are
exercised, not just the happy path).
"""

import random

from hypothesis import HealthCheck, given, settings, strategies as st

from tests.conftest import MULTICORE, cold_fixpoint, property_examples

from repro import profiling
from repro.cdfg import RegionBuilder
from repro.core.schedule import ScheduleError
from repro.core.scheduler import SchedulerOptions, schedule_region
from repro.explore.microarch import InfeasiblePoint, Microarch
from repro.flow import FlowCache, run_sweep
from repro.flow.executor import run_points, synthesize_design_point
from repro.workloads import build_example1, build_fir
from repro.workloads.synthetic import industrial_suite

_SETTINGS = dict(max_examples=property_examples(8), deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


def _render(result):
    """Canonical text of a sweep: every point and infeasible record."""
    return [repr(p) for p in result.points] + \
        [repr(q) for q in result.infeasible]


def _seed_points(factory, lib, micros, clocks):
    """The seed oracle: cold per-point runs over the grid, in order,
    with the relaxation loop held cold (no fixpoint fast-forward)."""
    with cold_fixpoint():
        return [synthesize_design_point(factory, lib, m, c)
                for m in micros for c in clocks]


def _render_points(results):
    """:func:`_render` for a flat per-point result list."""
    return [repr(r) for r in results
            if not isinstance(r, InfeasiblePoint)] + \
        [repr(r) for r in results if isinstance(r, InfeasiblePoint)]


def _assert_pool_ran(result):
    """jobs > 1 on a multicore host must run the process backend."""
    if MULTICORE:
        assert result.backend == "process"


def _pooled_run_points(factory, lib, points):
    """:func:`run_points` at jobs=4, asserting the pool path ran."""
    before = profiling.counters.get("sweep.backend.process", 0)
    results = run_points(factory, lib, points, jobs=4)
    if MULTICORE:
        assert profiling.counters.get("sweep.backend.process", 0) == \
            before + 1
    return results


def _identical_across_backends(factory, lib, micros, clocks):
    """Assert both backends, cold and warm, reproduce the seed oracle."""
    seed = _seed_points(factory, lib, micros, clocks)
    reference = _render_points(seed)
    # context engine (shared variants + carryover + ffwd), cold
    assert _render(run_sweep(factory, lib, micros, clocks)) == reference
    # process pool with a shared cache: cold, then warm re-sweep
    cache = FlowCache()
    cold = run_sweep(factory, lib, micros, clocks, jobs=4, cache=cache)
    _assert_pool_ran(cold)
    assert _render(cold) == reference
    warm = run_sweep(factory, lib, micros, clocks, jobs=4, cache=cache)
    _assert_pool_ran(warm)
    assert _render(warm) == reference
    assert warm.cache_misses == 0  # fully served, yet bit-identical
    return seed


# ----------------------------------------------------------------------
# fixed designs: the paper example and an industrial-class region
# ----------------------------------------------------------------------
def test_paper_example1_grid_identical(lib):
    micros = (Microarch("NP2", 2), Microarch("NP3", 3),
              Microarch("NP4", 4), Microarch("P4:2", 4, ii=2))
    seed = _identical_across_backends(
        build_example1, lib, micros, (1000.0, 1600.0, 2400.0))
    # the grid must actually cross the feasibility boundary, or the
    # expensive relaxation paths were never compared
    infeasible = [r for r in seed if isinstance(r, InfeasiblePoint)]
    assert infeasible and len(infeasible) < len(seed)


def test_industrial_design_grid_identical(lib):
    def factory():
        ((_, region),) = industrial_suite(n_designs=1, min_ops=260,
                                          max_ops=260)
        return region

    micros = (Microarch("NP40", 40), Microarch("NP64", 64))
    seed = _identical_across_backends(
        factory, lib, micros, (1600.0, 2800.0))
    # sanity: the design schedules somewhere
    assert not all(isinstance(r, InfeasiblePoint) for r in seed)


def test_run_points_matches_run_sweep_order(lib):
    """The ragged batched API returns exactly the grid results, in
    input order, under both serial and process dispatch."""
    micros = (Microarch("NP3", 3), Microarch("NP4", 4))
    clocks = (1600.0, 2400.0)
    seed = _seed_points(build_fir, lib, micros, clocks)
    points = [(m, c) for m in micros for c in clocks]
    serial = run_points(build_fir, lib, points)
    process = _pooled_run_points(build_fir, lib, points)
    assert list(map(repr, serial)) == list(map(repr, seed))
    assert _render_points(serial) == \
        _render(run_sweep(build_fir, lib, micros, clocks))
    assert list(map(repr, process)) == list(map(repr, serial))
    # ragged: interleaved curves, duplicate-free subset
    ragged = [(micros[1], 2400.0), (micros[0], 1600.0)]
    a = run_points(build_fir, lib, ragged)
    b = _pooled_run_points(build_fir, lib, ragged)
    assert [r.clock_ps for r in a] == [2400.0, 1600.0]
    assert list(map(repr, a)) == list(map(repr, b))


# ----------------------------------------------------------------------
# scheduler-level identity: carryover and fixpoint fast-forward
# ----------------------------------------------------------------------
def test_ffwd_error_identical_to_reference_on_spiral(lib):
    """A budget-exhausting point must fail with the exact reference
    message and diagnostics when the fast-forward short-circuits the
    death spiral."""
    from repro.core.scheduler import _RegionCache

    def outcome(options, carryover=None):
        region = build_example1()
        region.min_latency = region.max_latency = 2
        cache = _RegionCache(region, lib) if carryover else None
        try:
            schedule_region(region, lib, 600.0, options=options,
                            carryover=cache)
            return None
        except ScheduleError as exc:
            return (str(exc.args[0]), tuple(exc.diagnostics))

    with cold_fixpoint():
        reference = outcome(SchedulerOptions())
    assert reference is not None
    assert outcome(SchedulerOptions()) == reference
    assert outcome(SchedulerOptions(), carryover=True) == reference


def test_carryover_shared_across_clocks_identical(lib):
    """One region object + one carryover serving every clock must
    reproduce fresh-per-point scheduling exactly."""
    from repro.core.scheduler import _RegionCache

    def outcome(region, clock, cache=None):
        try:
            summary = schedule_region(region, lib, clock,
                                      carryover=cache).summary()
            return ("ok", summary)
        except ScheduleError as exc:
            return ("err", str(exc.args[0]), tuple(exc.diagnostics))

    clocks = (1000.0, 1600.0, 2400.0)
    with cold_fixpoint():
        fresh = [outcome(build_example1(), c) for c in clocks]
    region = build_example1()
    cache = _RegionCache(region, lib)
    shared = [outcome(region, c, cache) for c in clocks]
    assert shared == fresh
    assert any(r[0] == "ok" for r in fresh)  # some clock schedules


# ----------------------------------------------------------------------
# tune winners: parallel batched search equals serial
# ----------------------------------------------------------------------
def test_tune_winners_identical_serial_vs_process(lib):
    from repro.dse import DesignSpace, Goal, tune

    space = DesignSpace((Microarch("NP3", 3), Microarch("NP4", 4),
                         Microarch("P4:2", 4, ii=2)), (1600.0, 2400.0))
    for strategy in ("exhaustive", "greedy"):
        goal = Goal.build(objective="area", delay_ps=10000.0)
        serial = tune(build_fir, lib, goal, space=space,
                      strategy=strategy, jobs=1)
        parallel = tune(build_fir, lib, goal, space=space,
                        strategy=strategy, jobs=4)
        assert repr(serial.winner) == repr(parallel.winner), strategy
        assert serial.evaluated == parallel.evaluated, strategy


# ----------------------------------------------------------------------
# Hypothesis-random regions
# ----------------------------------------------------------------------
def _random_region(seed: int, n_ops: int, max_latency: int):
    """A deterministic-per-seed accumulator dataflow (fresh per call)."""
    rng = random.Random(seed)
    b = RegionBuilder(f"rand{seed}", is_loop=True,
                      max_latency=max_latency)
    pool = [b.read(f"in{i}", 16) for i in range(3)]
    acc = b.loop_var("acc", b.const(rng.randrange(1, 9), 16))
    for _ in range(n_ops):
        a, c = rng.choice(pool), rng.choice(pool)
        pool.append(rng.choice([b.add, b.sub, b.mul])(a, c))
    acc.set_next(b.add(acc, pool[-1]))
    b.write("out", acc.value)
    b.set_trip_count(8)
    return b.build()


@given(seed=st.integers(0, 10_000), n_ops=st.integers(3, 14),
       tight=st.integers(2, 4), loose=st.integers(8, 24))
@settings(**_SETTINGS)
def test_random_regions_identical_across_backends(lib, seed, n_ops,
                                                  tight, loose):
    """Random regions, grids straddling tight (often infeasible) and
    loose latencies: every backend reproduces the seed rendering."""
    def factory():
        return _random_region(seed, n_ops, max_latency=32)

    micros = (Microarch("T", tight), Microarch("L", loose))
    _identical_across_backends(factory, lib, micros, (900.0, 1600.0))

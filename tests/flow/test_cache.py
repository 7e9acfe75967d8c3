"""Content-addressed caching: deterministic keys, hit/miss behavior."""

import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cdfg import PipelineSpec, RegionBuilder
from repro.core.scheduler import SchedulerOptions
from repro.flow import (
    FlowCache,
    compilation_key,
    region_fingerprint,
    run_flow,
)
from repro.workloads import WORKLOAD_REGISTRY, build_example1

_SETTINGS = dict(max_examples=20, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


def _random_region(seed: int, n_ops: int):
    """A deterministic-per-seed accumulator dataflow."""
    rng = random.Random(seed)
    b = RegionBuilder(f"cache{seed}", is_loop=True, max_latency=24)
    pool = [b.read(f"in{i}", 16) for i in range(2)]
    acc = b.loop_var("acc", b.const(rng.randrange(1, 9), 16))
    for _ in range(n_ops):
        a, c = rng.choice(pool), rng.choice(pool)
        pool.append(rng.choice([b.add, b.sub, b.mul])(a, c))
    acc.set_next(b.add(acc, pool[-1]))
    b.write("out", acc.value)
    b.set_trip_count(8)
    return b.build()


# ----------------------------------------------------------------------
# fingerprint determinism
# ----------------------------------------------------------------------
@given(seed=st.integers(0, 10_000), n_ops=st.integers(1, 12))
@settings(**_SETTINGS)
def test_identical_builds_hash_identically(seed, n_ops):
    """Two independently built but identical regions share a fingerprint."""
    first = _random_region(seed, n_ops)
    second = _random_region(seed, n_ops)
    assert first is not second
    assert region_fingerprint(first) == region_fingerprint(second)


@given(seed=st.integers(0, 10_000))
@settings(**_SETTINGS)
def test_different_structures_hash_differently(seed):
    base = region_fingerprint(_random_region(seed, 4))
    assert base != region_fingerprint(_random_region(seed + 1, 4))
    assert base != region_fingerprint(_random_region(seed, 5))


def test_all_registry_workloads_fingerprint_deterministically():
    for name, factory in WORKLOAD_REGISTRY.items():
        assert region_fingerprint(factory()) == \
            region_fingerprint(factory()), name


def test_fingerprint_sees_latency_bounds():
    a, b = _random_region(1, 3), _random_region(1, 3)
    b.max_latency = 7
    assert region_fingerprint(a) != region_fingerprint(b)


# ----------------------------------------------------------------------
# compilation keys
# ----------------------------------------------------------------------
def test_compilation_key_covers_all_knobs(lib, lib45):
    region = build_example1()
    base = compilation_key(region, lib, 1600.0)
    assert base == compilation_key(build_example1(), lib, 1600.0)
    assert base != compilation_key(region, lib, 1250.0)
    assert base != compilation_key(region, lib45, 1600.0)
    assert base != compilation_key(region, lib, 1600.0,
                                   SchedulerOptions(enable_scc_move=False))
    assert base != compilation_key(region, lib, 1600.0,
                                   pipeline=PipelineSpec(ii=2))


def test_default_options_key_matches_explicit_default(lib):
    region = build_example1()
    assert compilation_key(region, lib, 1600.0, None) == \
        compilation_key(region, lib, 1600.0, SchedulerOptions())


# ----------------------------------------------------------------------
# cache behavior inside flows
# ----------------------------------------------------------------------
def test_cache_hit_on_identical_rebuild(lib):
    cache = FlowCache()
    first = run_flow("sweep", region=build_example1(), library=lib,
                     clock_ps=1600.0, run_optimizer=False, cache=cache)
    assert cache.hits == 0 and cache.misses > 0
    second = run_flow("sweep", region=build_example1(), library=lib,
                      clock_ps=1600.0, run_optimizer=False, cache=cache)
    assert cache.hits == 2  # schedule + power
    assert second.schedule is first.schedule
    assert second.power is first.power
    assert [t.name for t in second.timings if t.cached] == \
        ["schedule", "power"]


def test_infeasible_result_is_negative_cached(lib):
    """Re-sweeps must not replay the expensive failing searches."""
    cache = FlowCache()
    first = run_flow("schedule", region=build_example1(max_latency=1),
                     library=lib, clock_ps=1600.0, run_optimizer=False,
                     cache=cache)
    assert first.failed and cache.hits == 0
    second = run_flow("schedule", region=build_example1(max_latency=1),
                      library=lib, clock_ps=1600.0, run_optimizer=False,
                      cache=cache)
    assert second.failed
    assert cache.hits == 1
    assert [t.name for t in second.timings if t.cached] == ["schedule"]
    assert second.errors[0].message == first.errors[0].message


def test_cache_miss_on_different_clock(lib):
    cache = FlowCache()
    run_flow("schedule", region=build_example1(), library=lib,
             clock_ps=1600.0, run_optimizer=False, cache=cache)
    ctx = run_flow("schedule", region=build_example1(), library=lib,
                   clock_ps=2100.0, run_optimizer=False, cache=cache)
    assert cache.hits == 0
    assert ctx.schedule.clock_ps == 2100.0


def test_cache_eviction_bound():
    cache = FlowCache(max_entries=2)
    cache.put("k1", "schedule", object())
    cache.put("k2", "schedule", object())
    cache.put("k3", "schedule", object())
    assert len(cache) == 2
    assert cache.get("k1", "schedule") is None  # FIFO-evicted
    assert cache.get("k3", "schedule") is not None


def test_cache_stats_and_clear():
    cache = FlowCache()
    cache.put("k", "schedule", 42)
    cache.get("k", "schedule")
    cache.get("missing", "schedule")
    assert cache.stats() == {"hits": 1, "misses": 1, "entries": 1}
    cache.clear()
    assert cache.stats() == {"hits": 0, "misses": 0, "entries": 0}


def test_timing_model_version_invalidates_cached_schedules(lib, monkeypatch):
    """Artifacts scheduled under an older delay model must not be served:
    the timing-model version is part of the compilation key."""
    import repro.timing.engine as engine_mod

    region = build_example1()
    key_now = compilation_key(region, lib, 1600.0)
    monkeypatch.setattr(engine_mod, "TIMING_MODEL_VERSION",
                        engine_mod.TIMING_MODEL_VERSION + 1)
    assert compilation_key(region, lib, 1600.0) != key_now

    cache = FlowCache()
    monkeypatch.setattr(engine_mod, "TIMING_MODEL_VERSION",
                        engine_mod.TIMING_MODEL_VERSION - 1)
    run_flow("schedule", region=build_example1(), library=lib,
             clock_ps=1600.0, run_optimizer=False, cache=cache)
    assert cache.misses == 1 and cache.hits == 0
    # same configuration under a bumped model: miss, fresh schedule
    monkeypatch.setattr(engine_mod, "TIMING_MODEL_VERSION",
                        engine_mod.TIMING_MODEL_VERSION + 1)
    ctx = run_flow("schedule", region=build_example1(), library=lib,
                   clock_ps=1600.0, run_optimizer=False, cache=cache)
    assert cache.hits == 0
    assert ctx.schedule is not None


def test_memory_banking_invalidates_cached_schedules(lib):
    """The region fingerprint covers MemoryDecls: the same kernel at a
    different banking (or port count, or contents) is a different
    port-constraint problem and must miss the cache -- mirroring the
    timing-model-version treatment."""
    from repro.workloads import build_dot_product_mem

    base = build_dot_product_mem(banks=1)
    rebuilt = build_dot_product_mem(banks=1)
    banked = build_dot_product_mem(banks=2)
    dual = build_dot_product_mem(ports=2)
    assert region_fingerprint(base) == region_fingerprint(rebuilt)
    assert region_fingerprint(base) != region_fingerprint(banked)
    assert region_fingerprint(base) != region_fingerprint(dual)
    assert compilation_key(base, lib, 1600.0) \
        != compilation_key(banked, lib, 1600.0)

    cache = FlowCache()
    run_flow("schedule", region=build_dot_product_mem(banks=1),
             library=lib, clock_ps=1600.0, run_optimizer=False,
             cache=cache)
    assert (cache.hits, cache.misses) == (0, 1)
    # identical geometry: served from cache
    run_flow("schedule", region=build_dot_product_mem(banks=1),
             library=lib, clock_ps=1600.0, run_optimizer=False,
             cache=cache)
    assert cache.hits == 1
    # banked geometry: fresh compile, not the single-bank schedule
    ctx = run_flow("schedule", region=build_dot_product_mem(banks=2),
                   library=lib, clock_ps=1600.0, run_optimizer=False,
                   cache=cache)
    assert cache.hits == 1 and cache.misses == 2
    assert ctx.schedule.memories["a"].banks == 2


def test_mutated_init_contents_change_fingerprint():
    """Initial contents are architectural state: they key the cache."""
    from repro.workloads import build_dot_product_mem

    base = build_dot_product_mem(seed=7)
    other = build_dot_product_mem(seed=8)
    assert region_fingerprint(base) != region_fingerprint(other)


# ----------------------------------------------------------------------
# peek/entries/absorb (the sweep workers' merge-back)
# ----------------------------------------------------------------------
def test_peek_does_not_touch_counters():
    cache = FlowCache()
    cache.put("k", "schedule", 1)
    assert cache.peek("k", "schedule")
    assert not cache.peek("missing", "schedule")
    assert cache.stats() == {"hits": 0, "misses": 0, "entries": 1}


def test_absorb_first_writer_wins_and_reports_added():
    cache = FlowCache()
    cache.put("k1", "schedule", "incumbent")
    added = cache.absorb({("k1", "schedule"): "challenger",
                          ("k2", "schedule"): "fresh",
                          ("k3", "power"): None})
    assert added == 1
    assert cache.get("k1", "schedule") == "incumbent"
    assert cache.get("k2", "schedule") == "fresh"


def test_entries_snapshot_roundtrips_through_absorb():
    a = FlowCache()
    a.put("k1", "schedule", 1)
    a.put("k2", "power", 2)
    b = FlowCache()
    assert b.absorb(a.entries()) == 2
    assert b.entries() == a.entries()

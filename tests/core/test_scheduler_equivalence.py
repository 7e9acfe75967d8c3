"""Optimized-vs-reference scheduler equivalence.

Every fast path the scheduler core grew -- fanin bitmasks, carried-over
mobility, memoized priority orders, the commit-outcome cache, counted
restraint logs, interned doom restraints, incremental candidate
ordering -- is *decision-neutral by construction*: it must reproduce
the reference scheduler's output bit for bit, not merely an equally
good schedule.  This suite pins that contract on the paper examples,
the synthetic industrial population, and (via Hypothesis) random
regions.  On the first two it also pins the restraint log: every
failed pass must hand the relaxation driver the same analyzed
restraints (exact slacks and weights) and the same scored actions,
whichever path scheduled it.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import profiling
from repro.cdfg import RegionBuilder
from repro.core import ScheduleError, SchedulerOptions, schedule_region
from repro.core import scheduler
from repro.core.relaxation import driver_fingerprint, propose_actions
from repro.obs.trace import Tracer
from repro.tech import artisan90
from repro.workloads import WORKLOAD_REGISTRY
from repro.workloads.synthetic import industrial_suite

from tests.conftest import property_examples

LIB = artisan90()
CLOCK = 1600.0

#: fast paper workloads (the heavyweight ones are covered by the
#: benchmark suite's fingerprints; this must stay tier-1 quick).
PAPER_WORKLOADS = ("example1", "fir", "fft8", "idct8")

_SETTINGS = dict(max_examples=property_examples(10), deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


def fingerprint(schedule):
    """Canonical bit-exact summary of every scheduling decision.

    Floats are rendered with ``repr`` so two schedules differing in the
    last ulp of an arrival do not fingerprint equal.
    """
    binds = []
    for uid in sorted(schedule.bindings):
        b = schedule.bindings[uid]
        binds.append((
            uid, b.state, b.inst.name if b.inst else None, b.cycles,
            repr(b.out_arrival_ps), repr(b.capture_ps),
        ))
    return {
        "passes": schedule.passes,
        "latency": schedule.latency,
        "actions": tuple(schedule.actions_taken),
        "speculated": tuple(sorted(schedule.speculated)),
        "windows": tuple((w.index, tuple(sorted(w.members)), w.anchor,
                          w.length) for w in schedule.scc_windows),
        "bindings": tuple(binds),
    }


def _schedule(region, **options):
    return schedule_region(region, LIB, CLOCK,
                           options=SchedulerOptions(**options))


def _schedule_logged(monkeypatch, region, **options):
    """Schedule ``region`` and return its fingerprint together with the
    driver fingerprint of every failed pass, in pass order."""
    passes = []

    def logged(*args, **kwargs):
        actions = propose_actions(*args, **kwargs)
        passes.append(driver_fingerprint(args[3], actions))
        return actions

    monkeypatch.setattr(scheduler, "propose_actions", logged)
    return fingerprint(_schedule(region, **options)), passes


@pytest.mark.parametrize("name", PAPER_WORKLOADS)
def test_fast_paths_bit_identical_on_paper_examples(name, monkeypatch):
    reference = _schedule_logged(monkeypatch, WORKLOAD_REGISTRY[name](),
                                 fast_paths=False)
    optimized = _schedule_logged(monkeypatch, WORKLOAD_REGISTRY[name](),
                                 fast_paths=True)
    assert optimized == reference


def _industrial(idx: int):
    """A fresh copy of industrial design ``idx`` (suite is deterministic)."""
    spec, region = industrial_suite(n_designs=4, max_ops=300)[idx]
    return spec.name, region


def test_fast_paths_bit_identical_on_industrial_suite(monkeypatch):
    """The synthetic fig9 population, sized for tier-1 runtime."""
    for idx in range(4):
        name, ref_region = _industrial(idx)
        reference = _schedule_logged(monkeypatch, ref_region,
                                     fast_paths=False)
        optimized = _schedule_logged(monkeypatch, _industrial(idx)[1],
                                     fast_paths=True)
        assert reference[1], f"{name}: no failed pass to compare"
        assert optimized == reference, name


#: timing-engine work of the default path over the 4-design industrial
#: suite.  Deterministic, so this is a noise-free gate: evaluations
#: creeping back into the bind-walk fail it, and so does any drift in
#: the commit/cache traffic the bound-first walk must leave unchanged.
SUITE_ENGINE_WORK = {"engine.evaluate": 10129, "engine.commit": 3222,
                     "engine.commit_cache_hit": 9810}


#: restraint-log size over the same suite: distinct log entries and
#: records including repeats, summed over every analyzed pass.  The
#: binder interns its doom restraints, so entries stay far below
#: records; an entry count creeping back up means the walk is building
#: restraint copies again.
SUITE_RESTRAINT_LOG = {"restraints.entries": 2762,
                       "restraints.records": 12254}


def test_industrial_suite_engine_work_is_pinned():
    before = profiling.snapshot()
    for _spec, region in industrial_suite(n_designs=4, max_ops=300):
        _schedule(region)
    after = profiling.snapshot()
    delta = {key: after.get(key, 0) - before.get(key, 0)
             for key in (*SUITE_ENGINE_WORK, *SUITE_RESTRAINT_LOG)}
    assert delta == {**SUITE_ENGINE_WORK, **SUITE_RESTRAINT_LOG}


@pytest.mark.parametrize("name", PAPER_WORKLOADS)
def test_tracing_bit_identical_on_paper_examples(name):
    """Tracing observes, it never steers: a traced schedule must
    fingerprint-equal the untraced one, while actually recording the
    relaxation loop (the decision-neutrality half of the obs layer's
    contract; the overhead half lives in benchmarks)."""
    plain = _schedule(WORKLOAD_REGISTRY[name]())
    tracer = Tracer()
    traced = schedule_region(WORKLOAD_REGISTRY[name](), LIB, CLOCK,
                             tracer=tracer)
    assert fingerprint(traced) == fingerprint(plain)
    spans = tracer.export()
    assert spans and all(s["name"] == "scheduler.pass" for s in spans)
    # the last pass is the accepting one and records its decision
    assert spans[-1]["attrs"].get("success") is True


def _random_region(seed: int, n_ops: int):
    """A small random accumulator dataflow (deterministic per seed)."""
    rng = random.Random(seed)
    b = RegionBuilder(f"equiv{seed}", is_loop=True, max_latency=24)
    pool = [b.read(f"in{i}", 16) for i in range(2)]
    lv = b.loop_var("acc", b.const(rng.randrange(8), 16))
    pool.append(lv.value)
    for _ in range(n_ops):
        x = pool[rng.randrange(len(pool))]
        y = pool[rng.randrange(len(pool))]
        op = rng.choice(["add", "sub", "mul", "xor", "mux"])
        if op == "add":
            pool.append(b.add(x, y))
        elif op == "sub":
            pool.append(b.sub(x, y))
        elif op == "mul":
            pool.append(b.mul(x, y, width=16))
        elif op == "xor":
            pool.append(b.xor(x, y))
        else:
            pool.append(b.mux(b.gt(x, y), x, y))
    lv.set_next(b.add(lv.value, pool[-1], width=16))
    b.write("out", pool[-1])
    b.set_trip_count(5)
    return b.build()


@given(seed=st.integers(0, 10_000), n_ops=st.integers(3, 14))
@settings(**_SETTINGS)
def test_fast_paths_bit_identical_on_random_regions(seed, n_ops):
    try:
        reference = _schedule(_random_region(seed, n_ops),
                              fast_paths=False)
    except ScheduleError:
        # overconstrained either way; the optimized path must agree
        with pytest.raises(ScheduleError):
            _schedule(_random_region(seed, n_ops), fast_paths=True)
        return
    optimized = _schedule(_random_region(seed, n_ops), fast_paths=True)
    assert fingerprint(optimized) == fingerprint(reference)

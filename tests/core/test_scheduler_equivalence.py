"""Scheduler decisions against the golden corpus and across surfaces.

The scheduler core's optimizations -- carried-over mobility, memoized
priority orders, the commit-outcome cache, counted restraint logs,
interned doom restraints, incremental candidate ordering, bound-first
admission, sibling-walk replay -- are *decision-neutral by
construction*.  The golden corpus
(``tests/golden/decisions.json``, see ``tools/golden_corpus.py``) holds
the decisions of the reference bind-walk they replaced, recorded where
the two agreed.  This suite pins, on the paper examples and the
synthetic industrial population, that the scheduler still reproduces
those records: bindings bit for bit, and every failed pass handing the
relaxation driver the same analyzed restraints (exact slacks and
weights) and the same scored actions.  It also pins the surfaces that
must not steer: a carryover warmed at another clock and a tracer.
"""

import importlib.util
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import profiling
from repro.core import SchedulerOptions, schedule_region
from repro.core.scheduler import _RegionCache
from repro.core.schedule import ScheduleError
from repro.obs.trace import Tracer
from repro.tech import artisan90
from repro.workloads import WORKLOAD_REGISTRY
from repro.workloads.synthetic import industrial_suite

from tests.conftest import property_examples

REPO = Path(__file__).resolve().parent.parent.parent

_spec = importlib.util.spec_from_file_location(
    "golden_corpus", REPO / "tools" / "golden_corpus.py")
corpus = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(corpus)

LIB = artisan90()
CLOCK = 1600.0

#: fast paper workloads (the heavyweight ones are covered by the
#: benchmark suite's fingerprints; this must stay tier-1 quick).
PAPER_WORKLOADS = ("example1", "fir", "fft8", "idct8")

_SETTINGS = dict(max_examples=property_examples(10), deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])

GOLDEN = corpus.load()


def _schedule(region, **options):
    return schedule_region(region, LIB, CLOCK,
                           options=SchedulerOptions(**options))


@pytest.mark.parametrize("name", PAPER_WORKLOADS)
def test_fast_paths_bit_identical_on_paper_examples(name):
    key = f"registry/{name}/artisan90/{CLOCK:g}/seq"
    got = corpus.record(lambda: _schedule(WORKLOAD_REGISTRY[name]()))
    assert got == GOLDEN[key]


def test_fast_paths_bit_identical_on_industrial_suite():
    """The synthetic fig9 population, sized for tier-1 runtime."""
    for spec, region in industrial_suite(n_designs=4, max_ops=300):
        result, fingerprints = corpus.outcome(lambda: _schedule(region))
        assert fingerprints, f"{spec.name}: no failed pass to compare"
        key = f"industrial/{spec.name}/artisan90/{CLOCK:g}/seq"
        assert corpus.record_of(result, fingerprints) == GOLDEN[key]


#: timing-engine work of the default path over the 4-design industrial
#: suite.  Deterministic, so this is a noise-free gate: evaluations
#: creeping back into the bind-walk fail it, and so does any drift in
#: the commit/cache traffic the bound-first walk must leave unchanged.
#: Misses and propagation visits are pinned too: a commit-cache entry
#: dropped by a commit that cannot change what it read comes back as a
#: miss, a provisional commit and a re-propagation.  Replayed walks
#: probe no cache, so the hits count only the walks made for real.
SUITE_ENGINE_WORK = {"engine.evaluate": 9737, "engine.commit": 2830,
                     "engine.commit_cache_hit": 6330,
                     "engine.commit_cache_miss": 438,
                     "engine.propagated": 6280}


#: restraint-log size over the same suite: distinct log entries and
#: records including repeats, summed over every analyzed pass.  The
#: binder interns its doom restraints, so entries stay far below
#: records; an entry count creeping back up means the walk is building
#: restraint copies again.
SUITE_RESTRAINT_LOG = {"restraints.entries": 2762,
                       "restraints.records": 12254}


#: candidate-walk outcomes over the same suite: every visit, and the
#: visits that ended busy, doomed or failing timing.
SUITE_WALK_WORK = {"scheduler.walk_visits": 35671,
                   "scheduler.walk_busy": 13170,
                   "scheduler.walk_doomed": 10640,
                   "scheduler.walk_timing_failed": 9621}


#: failed walks answered by a stored walk of their class instead of a
#: visit of the candidates; their outcomes count in SUITE_WALK_WORK.
SUITE_REPLAYS = {"scheduler.walk_replays": 718}


def test_industrial_suite_engine_work_is_pinned():
    pinned = {**SUITE_ENGINE_WORK, **SUITE_RESTRAINT_LOG, **SUITE_WALK_WORK,
              **SUITE_REPLAYS}
    before = profiling.snapshot()
    for _spec, region in industrial_suite(n_designs=4, max_ops=300):
        _schedule(region)
    after = profiling.snapshot()
    delta = {key: after.get(key, 0) - before.get(key, 0) for key in pinned}
    assert delta == pinned


@pytest.mark.parametrize("name", PAPER_WORKLOADS)
def test_tracing_bit_identical_on_paper_examples(name):
    """Tracing observes, it never steers: a traced schedule must render
    equal to the untraced one, while actually recording the relaxation
    loop (the decision-neutrality half of the obs layer's contract; the
    overhead half lives in benchmarks)."""
    plain = _schedule(WORKLOAD_REGISTRY[name]())
    tracer = Tracer()
    traced = schedule_region(WORKLOAD_REGISTRY[name](), LIB, CLOCK,
                             tracer=tracer)
    assert corpus.render(traced) == corpus.render(plain)
    spans = tracer.export()
    assert spans and all(s["name"] == "scheduler.pass" for s in spans)
    # the last pass is the accepting one and records its decision
    assert spans[-1]["attrs"].get("success") is True
    # every pass carries its candidate-walk counts; a pass that binds
    # anything visits at least one candidate
    for key in ("visits", "busy", "doomed", "timing_failed", "replays"):
        assert all(f"scheduler_walk_{key}" in s["attrs"] for s in spans)
    assert spans[-1]["attrs"]["scheduler_walk_visits"] > 0


@given(seed=st.integers(0, 10_000), n_ops=st.integers(3, 14),
       warm_clock=st.sampled_from((900.0, 1000.0, 2400.0)))
@settings(**_SETTINGS)
def test_carryover_and_tracing_identical_on_random_regions(seed, n_ops,
                                                           warm_clock):
    """A carryover first warmed at another clock, and a tracer, leave
    every decision -- render or error, and the per-pass driver
    fingerprints -- equal to a fresh untraced schedule.  Fixed-seed
    cases of the same generator live in the corpus's random group."""
    fresh = corpus.outcome(
        lambda: schedule_region(corpus.random_region(seed, n_ops), LIB,
                                CLOCK))
    region = corpus.random_region(seed, n_ops)
    cache = _RegionCache(region, LIB)
    try:
        schedule_region(region, LIB, warm_clock, carryover=cache)
    except ScheduleError:
        pass  # a failed warm-up still fills the carryover
    warmed = corpus.outcome(
        lambda: schedule_region(region, LIB, CLOCK, carryover=cache))
    traced = corpus.outcome(
        lambda: schedule_region(corpus.random_region(seed, n_ops), LIB,
                                CLOCK, tracer=Tracer()))
    assert warmed == fresh
    assert traced == fresh

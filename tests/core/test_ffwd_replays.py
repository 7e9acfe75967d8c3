"""The relaxation driver's bounded fixpoint fast-forward.

``_ffwd_replays`` bounds how many future passes provably replay a failed
pass whose driver fingerprint equals its predecessor's; the driver then
applies those passes' action batches without running them and resumes
cold at the pass where the sharing outlook flips.  The unit tests pin
the bound; the scheduler-level tests pin that a bounded fast-forward
leaves every decision (message, diagnostics, history, bindings, pass
count) identical to the cold reference loop (``cold_fixpoint``).
"""

import math

import pytest

from repro import profiling
from repro.cdfg import RegionBuilder
from repro.core import scheduler as scheduler_mod
from repro.core.relaxation import Action, DriverState
from repro.core.schedule import ScheduleError
from repro.core.scheduler import (SchedulerOptions, _ffwd_replays,
                                  schedule_region)
from repro.explore.microarch import Microarch
from repro.flow.sweepctx import SweepContext
from repro.obs.trace import Tracer
from repro.tech.resources import ResourcePool
from repro.timing.engine import TimingEngine
from repro.workloads import PYFUNC_REGISTRY

from tests.conftest import cold_fixpoint


# ----------------------------------------------------------------------
# the replay bound
# ----------------------------------------------------------------------
def _add_resource(rtype, count):
    return Action(f"add_resource:{rtype.name}", cost=1.0,
                  solved_weight=1.0, apply=lambda st: None,
                  rtype=rtype, count=count)


@pytest.fixture
def fixture_state(lib):
    """A one-op region, an empty pool and an engine to hang an outlook on."""
    b = RegionBuilder("outlook")
    x = b.read("x", 32)
    total = b.add(x, x)
    b.write("y", total)
    region = b.build()
    op = region.dfg.op(total.op.uid)

    def engine(demand, counts):
        eng = TimingEngine(region.dfg, lib, 1600.0)
        eng.set_sharing_outlook(demand, counts)
        return eng

    return op, ResourcePool(), engine


def test_saturated_key_replays_unbounded(lib, fixture_state):
    _, pool, engine = fixture_state
    add = lib.resource_type("add", 32)
    pool.add(add)
    batch = [_add_resource(add, 1)]
    assert _ffwd_replays(batch, pool, engine({("add", 32): 4},
                                             {("add", 32): 4})) == math.inf
    assert _ffwd_replays(batch, pool, engine({("add", 32): 3},
                                             {("add", 32): 9})) == math.inf


@pytest.mark.parametrize("count,demand,added,expected", [
    (26, 70, 1, 43),   # jpeg_dct NP24 @1000 ps: add_32_ultra x1
    (26, 27, 1, 0),    # flips on the very next pass
    (5, 10, 2, 2),     # ceil(5 / 2) - 1
    (4, 10, 2, 2),     # ceil(6 / 2) - 1: lands exactly on demand
    (9, 10, 2, 0),
])
def test_bounded_replays_until_the_outlook_flips(lib, fixture_state, count,
                                                 demand, added, expected):
    _, pool, engine = fixture_state
    add = lib.resource_type("add", 32)
    pool.add(add)
    replays = _ffwd_replays([_add_resource(add, added)], pool,
                            engine({("add", 32): demand},
                                   {("add", 32): count}))
    assert replays == math.ceil((demand - count) / added) - 1 == expected


def test_two_keys_take_the_minimum(lib, fixture_state):
    _, pool, engine = fixture_state
    add = lib.resource_type("add", 32)
    mul = lib.resource_type("mul", 16)
    pool.add(add)
    pool.add(mul)
    batch = [_add_resource(add, 1), _add_resource(mul, 2)]
    outlook = engine({("add", 32): 30, ("mul", 16): 12},
                     {("add", 32): 10, ("mul", 16): 4})
    # add: ceil(20 / 1) - 1 = 19; mul: ceil(8 / 2) - 1 = 3
    assert _ffwd_replays(batch, pool, outlook) == 3
    # a saturated second key does not bound the first
    outlook = engine({("add", 32): 30, ("mul", 16): 4},
                     {("add", 32): 10, ("mul", 16): 4})
    assert _ffwd_replays(batch, pool, outlook) == 19


def test_other_action_families_never_fast_forward(lib, fixture_state):
    _, pool, engine = fixture_state
    add = lib.resource_type("add", 32)
    pool.add(add)
    saturated = engine({("add", 32): 1}, {("add", 32): 8})
    add_state = Action("add_state", 1.0, 1.0, apply=lambda st: None)
    forbid = Action("forbid:3@add_32_0", 0.1, 1.0, apply=lambda st: None)
    for other in (add_state, forbid):
        assert _ffwd_replays([other], pool, saturated) == 0
        assert _ffwd_replays([_add_resource(add, 1), other], pool,
                             saturated) == 0


def test_added_type_without_an_empty_instance_never_fast_forwards(
        lib, fixture_state):
    op, pool, engine = fixture_state
    add = lib.resource_type("add", 32)
    fast = lib.resource_type("add", 32, "fast")
    pool.add(add).occupy(op, [0])
    pool.add(fast)  # empty, but another grade: not a sibling of add_32
    saturated = engine({("add", 32): 1}, {("add", 32): 8})
    assert _ffwd_replays([_add_resource(add, 1)], pool, saturated) == 0
    assert _ffwd_replays([_add_resource(fast, 1)], pool,
                         saturated) == math.inf


# ----------------------------------------------------------------------
# scheduler-level identity
# ----------------------------------------------------------------------
def _run(monkeypatch, region, library, clock, options, pipeline=None):
    """Schedule once; return the rendered outcome, the driver history,
    the ``scheduler.ffwd*`` counters and the accepted-ffwd spans."""
    states = []

    def recorded_state(*args, **kwargs):
        states.append(DriverState(*args, **kwargs))
        return states[-1]

    monkeypatch.setattr(scheduler_mod, "DriverState", recorded_state)
    profiling.reset()
    tracer = Tracer()
    try:
        s = schedule_region(region, library, clock, pipeline=pipeline,
                            options=options, tracer=tracer)
        outcome = ("ok", s.passes, s.summary(), repr(sorted(
            (uid, repr(b)) for uid, b in s.bindings.items())))
    except ScheduleError as exc:
        outcome = ("err", str(exc.args[0]), tuple(map(str, exc.diagnostics)))
    (state,) = states
    counters = {key: profiling.counters.get(key, 0)
                for key in ("scheduler.ffwd", "scheduler.ffwd_passes",
                            "scheduler.ffwd_reject")}
    spans = [sp for sp in tracer.export() if sp["name"] == "scheduler.pass"]
    accepted = [(sp["attrs"]["pass_no"], sp["attrs"]["ffwd_passes"])
                for sp in spans if sp["attrs"].get("ffwd") == "accepted"]
    last_pass = spans[-1]["attrs"]["pass_no"]
    return outcome, list(state.history), counters, accepted, last_pass


def test_bounded_ffwd_identical_on_jpeg_dct_np24(lib, monkeypatch):
    """NP24 @1000 ps spirals on one empty ``add_32_ultra`` per pass from
    count 26 towards demand 70; the pass where the outlook flips ends it
    with "no relaxation action".  The fast-forward skips up to that
    pass, runs it cold, and the error is the reference one."""
    def variant():
        return SweepContext(PYFUNC_REGISTRY["jpeg_dct"].build,
                            lib).variant(Microarch("NP24", 24))

    with cold_fixpoint():
        cold = _run(monkeypatch, variant().region, lib, 1000.0,
                    SchedulerOptions())
    fast = _run(monkeypatch, variant().region, lib, 1000.0,
                SchedulerOptions())
    outcome, history, counters, accepted, last_pass = fast
    assert outcome == cold[0]
    assert outcome[0] == "err"
    assert outcome[1].endswith("no relaxation action after pass 55")
    assert outcome[2]  # diagnostics are compared, not empty
    assert history == cold[1]
    assert cold[2] == {"scheduler.ffwd": 0, "scheduler.ffwd_passes": 0,
                       "scheduler.ffwd_reject": 0}
    # exactly one fast-forward, bounded: the flip pass still ran
    (ffwd_at, skipped), = accepted
    assert counters == {"scheduler.ffwd": 1, "scheduler.ffwd_passes": 43,
                        "scheduler.ffwd_reject": 0}
    assert skipped == 43 and ffwd_at + skipped < last_pass == 55
    assert history.count("add_resource add_32_ultra x1") >= skipped + 1


def _bounded_success_region():
    """Seven 16-bit add/sub ops pinned to latency 3: at 900 ps the
    anticipated sharing muxes make one chained sub miss the clock on
    every adder, so the driver adds one empty ``add_16`` per pass until
    the pool reaches demand; the flip drops the muxes and the pass that
    follows succeeds."""
    b = RegionBuilder("ffwd_flip", max_latency=3)
    in0, in1, in2 = (b.read(f"in{i}", 16) for i in range(3))
    t0 = b.add(in0, in2)
    t1 = b.sub(in2, in0)
    b.write("o2", b.sub(t1, t0))
    t3 = b.sub(t0, in0)
    t4 = b.sub(t0, t3)
    b.write("o5", b.sub(t4, in0))
    b.write("o6", b.add(t4, t0))
    region = b.build()
    region.min_latency = region.max_latency = 3
    return region


def test_bounded_ffwd_then_successful_pass(lib, monkeypatch):
    with cold_fixpoint():
        cold = _run(monkeypatch, _bounded_success_region(), lib, 900.0,
                    SchedulerOptions())
    fast = _run(monkeypatch, _bounded_success_region(), lib, 900.0,
                SchedulerOptions())
    outcome, history, counters, accepted, last_pass = fast
    assert outcome[0] == "ok"
    assert outcome == cold[0]  # Schedule.passes, summary and bindings
    assert history == cold[1]
    (ffwd_at, skipped), = accepted
    assert skipped > 0 and counters["scheduler.ffwd_passes"] == skipped
    # the successful pass ran cold after the skipped ones, and
    # Schedule.passes counts the skipped passes too
    assert ffwd_at + skipped < last_pass == outcome[1]

"""Scheduler behaviours beyond the paper walkthroughs."""

import gc

import pytest

from repro.cdfg import PipelineSpec, RegionBuilder
from repro.core import ScheduleError, SchedulerOptions, schedule_region
from repro.core.scheduler import _Pass
from repro.tech import artisan90
from repro.timing.engine import TimingEngine
from repro.workloads import build_example1
from repro.workloads.synthetic import industrial_suite

CLOCK = 1600.0


@pytest.fixture(scope="module")
def lib():
    return artisan90()


def test_latency_bound_respected(lib):
    b = RegionBuilder("tight", min_latency=1, max_latency=1)
    x = b.read("x", 32)
    # two dependent multiplies cannot fit one 1600ps state
    b.write("y", b.mul(b.mul(x, x), x))
    with pytest.raises(ScheduleError):
        schedule_region(b.build(), lib, CLOCK)


def test_pipeline_requires_loop(lib):
    b = RegionBuilder("block", is_loop=False)
    x = b.read("x", 32)
    b.write("y", b.add(x, 1))
    with pytest.raises(ScheduleError):
        schedule_region(b.build(), lib, CLOCK,
                        pipeline=PipelineSpec(ii=1))


def test_min_latency_honored(lib):
    b = RegionBuilder("padded", min_latency=5, max_latency=8)
    x = b.read("x", 32)
    b.write("y", b.add(x, 1))
    schedule = schedule_region(b.build(), lib, CLOCK)
    assert schedule.latency >= 5


def test_pipelined_min_latency_is_ii_plus_one(lib):
    """'Exploration often starts from LI = II + 1' (section V)."""
    b = RegionBuilder("p", max_latency=8)
    x = b.read("x", 32)
    acc = b.loop_var("acc", b.const(0, 32))
    acc.set_next(b.add(acc, x))
    b.write("y", acc.value)
    schedule = schedule_region(b.build(), lib, CLOCK,
                               pipeline=PipelineSpec(ii=3))
    assert schedule.latency >= 4


def test_user_pinned_write_state(lib):
    b = RegionBuilder("pin", min_latency=4, max_latency=4)
    x = b.read("x", 32)
    b.write("y", b.add(x, 1), state=3)
    schedule = schedule_region(b.build(), lib, CLOCK)
    write = next(bd for bd in schedule.bindings.values()
                 if bd.op.kind.value == "write")
    assert write.state == 3


def test_multicycle_occupies_consecutive_states(lib):
    b = RegionBuilder("mc", max_latency=8)
    x = b.read("x", 32)
    b.write("y", b.mul(x, x, name="m"))
    schedule = schedule_region(b.build(), lib, 620.0)
    mul = next(bd for bd in schedule.bindings.values()
               if bd.op.name == "m")
    assert mul.cycles == 2
    assert mul.inst.states_used() == [mul.state, mul.state + 1]


def test_exclusive_branches_share_one_multiplier(lib):
    """Predicate mutual exclusivity enables same-state sharing."""
    b = RegionBuilder("excl", is_loop=True, min_latency=1, max_latency=1)
    x = b.read("x", 32)
    flag = b.read("flag", 1)
    cond = b.eq(flag, b.const(1, 1))
    with b.under(cond):
        a = b.mul(x, 3, name="then_mul")
    with b.under(cond, polarity=False):
        d = b.mul(x, 5, name="else_mul")
    b.write("y", b.mux(cond, a, d))
    schedule = schedule_region(b.build(), lib, CLOCK)
    assert schedule.pool.summary().get("mul_32") == 1
    by_name = {bd.op.name: bd for bd in schedule.bindings.values()}
    assert by_name["then_mul"].inst.name == by_name["else_mul"].inst.name
    assert by_name["then_mul"].state == by_name["else_mul"].state


def test_speculation_fallback_when_needed(lib):
    """A predicated op whose condition resolves late gets speculated
    rather than failing (section II's a+b / c+d motivation)."""
    b = RegionBuilder("spec", is_loop=True, min_latency=2, max_latency=2)
    x = b.read("x", 32)
    # the condition needs a multiply first: available only in s2
    cond = b.gt(b.mul(x, x, name="condmul"), 10, name="late_cond")
    with b.under(cond):
        heavy = b.mul(x, 7, name="guarded_mul")
    b.write("y", b.mux(cond, heavy, x))
    schedule = schedule_region(b.build(), lib, CLOCK)
    assert schedule.validate() == []


def test_schedule_summary_fields(lib):
    schedule = schedule_region(build_example1(), lib, CLOCK)
    summary = schedule.summary()
    assert summary["latency"] == 3
    assert summary["ii"] == 3
    assert summary["wns_ps"] >= 0
    assert summary["register_bits"] > 0


def test_schedule_error_message_carries_diagnostics():
    """Failures must print their diagnostics, not just the headline."""
    err = ScheduleError("r: overconstrained",
                        ["neg_slack: op mul1 at s2 (weight 3.0)",
                         "latency: op add2 at s3 (weight 1.0)"])
    text = str(err)
    assert "r: overconstrained" in text
    assert "neg_slack: op mul1 at s2" in text
    assert "latency: op add2 at s3" in text
    assert str(ScheduleError("bare")) == "bare"


def test_overconstrained_error_lists_diagnostics(lib):
    """End to end: an infeasible pipelining attempt's ScheduleError
    surfaces its diagnostics through str()."""
    b = RegionBuilder("tight2", is_loop=True, max_latency=6)
    x = b.read("x", 32)
    acc = b.loop_var("acc", b.const(1, 32))
    # two chained multiplies inside the carried SCC: no II=1 window fits
    acc.set_next(b.mul(b.mul(acc.value, x), x))
    b.write("y", acc.value)
    b.set_trip_count(4)
    with pytest.raises(ScheduleError) as exc_info:
        schedule_region(b.build(), lib, CLOCK,
                        pipeline=PipelineSpec(ii=1),
                        options=SchedulerOptions(max_passes=3))
    err = exc_info.value
    assert err.diagnostics, "diagnostics list must be populated"
    shown = err.diagnostics[:ScheduleError.MAX_SHOWN]
    assert all(line in str(err) for line in shown)


def test_schedule_leaves_no_pass_for_the_collector(lib):
    """A finished schedule frees its passes by reference counting: no
    reference cycle (such as a cached exception's traceback, whose
    frames hold a pass) keeps a pass or its netlist for the collector.
    The design's early passes fail mobility analysis, whose verdict the
    carryover cache keeps."""
    _spec, region = industrial_suite(n_designs=4, max_ops=300)[0]
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        schedule_region(region, lib, CLOCK)
        gc.collect()
        kept = [obj for obj in gc.garbage
                if isinstance(obj, (_Pass, TimingEngine))]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert kept == []

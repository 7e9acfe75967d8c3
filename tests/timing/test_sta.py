"""From-scratch STA verification and critical-path tracing."""

import pytest

from repro.core.scheduler import schedule_region
from repro.tech import artisan90
from repro.timing.retime import retime
from repro.timing.sta import trace_critical_path, verify_timing
from repro.workloads import build_example1

CLOCK = 1600.0


@pytest.fixture(scope="module")
def sched():
    return schedule_region(build_example1(), artisan90(), CLOCK)


def test_verify_agrees_with_incremental(sched):
    """The sign-off audit must reproduce the committed captures exactly:
    the engine re-propagates arrivals on every commit, so there is no
    sharing-mux growth residue left to tolerate."""
    report = verify_timing(sched.netlist)
    assert report.met
    for uid, slack in report.slack_by_op.items():
        bound = sched.bindings[uid]
        assert slack == bound.cycles * CLOCK - bound.capture_ps


def test_worst_op_is_add_chain(sched):
    """Example 1's tightest path is the mul+add chain (1580/1600)."""
    report = verify_timing(sched.netlist)
    worst = sched.region.dfg.op(report.critical_op_uid)
    assert worst.name == "add_op"
    assert report.wns_ps == pytest.approx(20.0, abs=6.0)


def test_critical_path_trace(sched):
    report = verify_timing(sched.netlist)
    path = trace_critical_path(sched.netlist, report.critical_op_uid)
    names = [p.op_name for p in path]
    assert names == ["mul1_op", "add_op"]
    arrivals = [p.arrival_ps for p in path]
    assert arrivals == sorted(arrivals)


def test_retime_refreshes_after_regrade(sched):
    lib = sched.library
    mul = next(i for i in sched.pool.instances
               if i.rtype.family == "mul")
    before = verify_timing(sched.netlist).wns_ps
    old_type = mul.rtype
    try:
        sched.pool.regrade(mul, lib.regrade(old_type, "ultra"))
        retime(sched.netlist)
        after = verify_timing(sched.netlist).wns_ps
        assert after > before  # faster multiplier increases slack
    finally:
        sched.pool.regrade(mul, old_type)
        retime(sched.netlist)


def test_failing_ops_sorted_worst_first(sched):
    report = verify_timing(sched.netlist)
    assert report.failing_ops() == []  # schedule meets timing

"""Timing-aware mobility analysis."""

import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cdfg import RegionBuilder
from repro.core.asap_alap import (
    AsapMemo,
    InfeasibleTiming,
    compute_mobility,
)
from repro.tech import artisan90
from repro.workloads import build_example1

from tests.conftest import property_examples

CLOCK = 1600.0


@pytest.fixture(scope="module")
def lib():
    return artisan90()


def _names(region):
    return {op.name: op.uid for op in region.dfg.ops}


def test_example1_asap_alap_at_latency3(lib):
    region = build_example1()
    mob = compute_mobility(region, lib, CLOCK, 3)
    n = _names(region)
    # timing-aware: mul2 cannot chain after add in state 0
    assert mob[n["mul1_op"]].asap == 0
    assert mob[n["mul2_op"]].asap == 1
    assert mob[n["mul3_op"]].asap == 2
    assert mob[n["mul3_op"]].alap == 2
    assert mob[n["add_op"]].asap == 0


def test_reads_pinned_to_state0(lib):
    region = build_example1()
    mob = compute_mobility(region, lib, CLOCK, 3)
    n = _names(region)
    assert mob[n["mask_read"]].asap == 0
    assert mob[n["mask_read"]].alap == 0


def test_latency2_infeasible_for_example1(lib):
    """mul3's chain requires a third state -- the paper's pass-2
    failure."""
    with pytest.raises(InfeasibleTiming):
        compute_mobility(build_example1(), lib, CLOCK, 2)


def test_timing_blind_mobility_with_infinite_clock(lib):
    """With an infinite clock everything chains: classic dependency
    ASAP (the Table 4 ablation's anchor analysis)."""
    region = build_example1()
    mob = compute_mobility(region, lib, math.inf, 3)
    n = _names(region)
    assert mob[n["mul2_op"]].asap == 0
    assert mob[n["mul3_op"]].asap == 0


def test_mobility_width(lib):
    region = build_example1()
    mob = compute_mobility(region, lib, CLOCK, 3)
    n = _names(region)
    assert mob[n["gt_op"]].mobility >= 1  # gt may sit in s1 or s2


def test_multicycle_assigned_when_clock_tight(lib):
    b = RegionBuilder("t", max_latency=8)
    x = b.read("x", 32)
    acc = b.loop_var("acc", b.const(0, 32))
    acc.set_next(b.add(acc, x))
    b.write("y", b.mul(x, x, name="m"))
    region = b.build()
    mob = compute_mobility(region, lib, 500.0, 8)
    m = next(op.uid for op in region.dfg.ops if op.name == "m")
    assert mob[m].cycles >= 2


def test_adder_infeasible_below_floor(lib):
    """An adder cannot be multicycled; a ridiculous clock must raise."""
    b = RegionBuilder("t", is_loop=False)
    x = b.read("x", 32)
    b.write("y", b.add(x, x))
    with pytest.raises(InfeasibleTiming):
        compute_mobility(b.build(), lib, 120.0, 4)


def test_speculation_widens_asap(lib):
    b = RegionBuilder("t", is_loop=False, max_latency=4)
    x = b.read("x", 32)
    # a late condition: chain of adds
    c = b.gt(b.add(b.add(x, 1), 2), 0, name="cond")
    with b.under(c):
        guarded = b.mul(x, 3, name="guarded")
    b.write("y", b.mux(c, guarded, x))
    region = b.build()
    normal = compute_mobility(region, lib, 700.0, 4)
    g = next(op.uid for op in region.dfg.ops if op.name == "guarded")
    spec = compute_mobility(region, lib, 700.0, 4, speculated={g})
    assert spec[g].asap <= normal[g].asap


def test_alap_respects_chain_fit(lib):
    region = build_example1()
    mob = compute_mobility(region, lib, CLOCK, 3)
    n = _names(region)
    # MUX chains into mul3 only if their combined delay fits; it does not
    # (110 + 930 + overheads > 1600 with a chained mul), so MUX must be
    # one state before mul3
    assert mob[n["MUX"]].alap <= mob[n["mul3_op"]].alap


#: one random op: (kind, first operand, second operand, guarded?); the
#: operands index the values built so far.
_OP = st.tuples(st.sampled_from(["add", "mul", "gt", "mux"]),
                st.integers(0, 63), st.integers(0, 63), st.booleans())


def _random_guarded_region(depth, ops):
    """A straight-line region whose guarded ops sit under a comparison
    that ends a ``depth``-long multiply chain, so speculating them
    usually moves their ASAP state."""
    b = RegionBuilder("memo", is_loop=False, max_latency=12)
    values = [b.read("x", 32), b.read("y", 32)]
    late = values[0]
    for _ in range(depth):
        late = b.mul(late, values[1], width=32)
    cond = b.gt(late, values[1])
    guarded = []
    for kind, i, j, under in ops:
        a, c = values[i % len(values)], values[j % len(values)]
        if kind == "gt":
            cond = b.gt(a, c)
            values.append(cond)
        elif kind == "mux":
            values.append(b.mux(cond, a, c))
        elif under:
            with b.under(cond):
                value = (b.mul if kind == "mul" else b.add)(a, c, width=32)
            guarded.append(value.op.uid)
            values.append(value)
        else:
            values.append((b.mul if kind == "mul" else b.add)(a, c,
                                                              width=32))
    b.write("out", values[-1])
    return b.build(), guarded


def _mobility_or_error(region, lib, clock, latency, speculated, memo=None):
    try:
        mob = compute_mobility(region, lib, clock, latency, speculated,
                               asap_memo=memo)
    except InfeasibleTiming as exc:
        return ("infeasible", str(exc), exc.uid)
    return {uid: (m.asap, m.alap, m.cycles, repr(m.asap_arrival_ps))
            for uid, m in mob.items()}


@given(depth=st.integers(0, 3),
       ops=st.lists(_OP, min_size=1, max_size=14),
       queries=st.lists(
           st.tuples(st.sampled_from((150.0, 700.0, 1600.0)),
                     st.integers(1, 8), st.integers(0, 15)),
           min_size=1, max_size=10))
@settings(max_examples=property_examples(40), deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_asap_memo_matches_fresh_analysis(depth, ops, queries):
    """Over any sequence of clocks, latencies and speculated sets, the
    memoized analysis returns exactly what a fresh one does: equal
    mobility records, or the same InfeasibleTiming (message and op),
    re-raised from the memo when the forward pass failed."""
    lib = artisan90()
    region, guarded = _random_guarded_region(depth, ops)
    memo = AsapMemo()
    for clock, latency, mask in queries:
        speculated = {uid for k, uid in enumerate(guarded) if mask >> k & 1}
        fresh = _mobility_or_error(region, lib, clock, latency, speculated)
        memoized = _mobility_or_error(region, lib, clock, latency,
                                      speculated, memo)
        assert memoized == fresh

"""The unified incremental timing engine and its delay model."""

import pytest

from repro.cdfg import OpKind, RegionBuilder
from repro.tech import ResourcePool, artisan90
from repro.timing.engine import TimingEngine

CLOCK = 1600.0


@pytest.fixture()
def lib():
    return artisan90()


def _chain_region():
    """x -> mul -> add -> write, with a second mul op for sharing."""
    b = RegionBuilder("t", is_loop=False)
    x = b.read("x", 32)
    y = b.read("y", 32)
    m1 = b.mul(x, y, name="m1")
    s = b.add(m1, x, name="s")
    m2 = b.mul(s, y, name="m2")
    b.write("out", m2)
    return b.build()


def test_registered_mul_is_1230(lib):
    """The paper's Fig. 8a number: 40 + 110 + 930 + 110 + 40."""
    region = _chain_region()
    netlist = TimingEngine(region.dfg, lib, CLOCK)
    netlist.set_sharing_outlook({("mul", 32): 2}, {("mul", 32): 1})
    pool = ResourcePool()
    mul = pool.add(lib.typical(OpKind.MUL, 32))
    m1 = next(op for op in region.dfg.ops if op.name == "m1")
    timing = netlist.evaluate(m1, mul, 0)
    assert timing.ok
    assert timing.capture_ps == pytest.approx(1230.0)
    assert timing.out_arrival_ps == pytest.approx(1080.0)


def test_chained_add_is_1580(lib):
    """Fig. 8b: 40 + 110 + 930 + 350 + 110 + 40 (add has no input mux)."""
    region = _chain_region()
    netlist = TimingEngine(region.dfg, lib, CLOCK)
    netlist.set_sharing_outlook({("mul", 32): 2, ("add", 32): 1},
                                {("mul", 32): 1, ("add", 32): 1})
    pool = ResourcePool()
    mul = pool.add(lib.typical(OpKind.MUL, 32))
    add = pool.add(lib.typical(OpKind.ADD, 32))
    ops = {op.name: op for op in region.dfg.ops}
    t1 = netlist.evaluate(ops["m1"], mul, 0)
    netlist.commit(ops["m1"], mul, 0, t1)
    t2 = netlist.evaluate(ops["s"], add, 0)
    assert t2.ok
    assert t2.capture_ps == pytest.approx(1580.0)


def test_second_mul_chained_fails(lib):
    """Two chained multiplications cannot fit 1600 ps (the Example 1
    relaxation argument)."""
    region = _chain_region()
    netlist = TimingEngine(region.dfg, lib, CLOCK)
    netlist.set_sharing_outlook({("mul", 32): 2, ("add", 32): 1},
                                {("mul", 32): 2, ("add", 32): 1})
    pool = ResourcePool()
    mul_a = pool.add(lib.typical(OpKind.MUL, 32))
    mul_b = pool.add(lib.typical(OpKind.MUL, 32))
    add = pool.add(lib.typical(OpKind.ADD, 32))
    ops = {op.name: op for op in region.dfg.ops}
    netlist.commit(ops["m1"], mul_a, 0, netlist.evaluate(ops["m1"], mul_a, 0))
    netlist.commit(ops["s"], add, 0, netlist.evaluate(ops["s"], add, 0))
    t3 = netlist.evaluate(ops["m2"], mul_b, 0)
    assert not t3.ok
    # fresh-instance probe agrees (chained input cannot be multicycled)
    fresh = netlist.evaluate_fresh(ops["m2"], 0)
    assert not fresh.ok


def test_next_state_registers_inputs(lib):
    region = _chain_region()
    netlist = TimingEngine(region.dfg, lib, CLOCK)
    netlist.set_sharing_outlook({("mul", 32): 2}, {("mul", 32): 1})
    pool = ResourcePool()
    mul = pool.add(lib.typical(OpKind.MUL, 32))
    add = pool.add(lib.typical(OpKind.ADD, 32))
    ops = {op.name: op for op in region.dfg.ops}
    netlist.commit(ops["m1"], mul, 0, netlist.evaluate(ops["m1"], mul, 0))
    netlist.commit(ops["s"], add, 0, netlist.evaluate(ops["s"], add, 0))
    t3 = netlist.evaluate(ops["m2"], mul, 1)  # next state: registered
    assert t3.ok
    assert t3.capture_ps == pytest.approx(1230.0)


def test_mux_ops_have_no_extra_capture_mux(lib):
    b = RegionBuilder("t", is_loop=False)
    x = b.read("x", 32)
    sel = b.gt(x, 0, name="sel")
    m = b.mux(sel, x, 0, name="m")
    b.write("out", m)
    region = b.build()
    netlist = TimingEngine(region.dfg, lib, CLOCK)
    ops = {op.name: op for op in region.dfg.ops}
    pool = ResourcePool()
    gt = pool.add(lib.typical(OpKind.GT, 32))
    netlist.commit(ops["sel"], gt, 0, netlist.evaluate(ops["sel"], gt, 0))
    timing = netlist.evaluate(ops["m"], None, 0)
    # chained: 40 + gt 220 + mux 110 + setup 40 (no register-sharing mux)
    assert timing.capture_ps == pytest.approx(40 + 220 + 110 + 40)


def test_multicycle_when_clock_too_fast(lib):
    b = RegionBuilder("t", is_loop=False)
    x = b.read("x", 32)
    m = b.mul(x, x, name="m")
    b.write("out", m)
    region = b.build()
    netlist = TimingEngine(region.dfg, lib, 600.0)
    pool = ResourcePool()
    mul = pool.add(lib.typical(OpKind.MUL, 32))
    mop = next(op for op in region.dfg.ops if op.name == "m")
    timing = netlist.evaluate(mop, mul, 0)
    assert timing.ok
    assert timing.cycles == 2  # 1120 ps path over two 600 ps cycles
    no_mc = netlist.evaluate(mop, mul, 0, allow_multicycle=False)
    assert not no_mc.ok


def test_resolve_source_through_free_ops(lib):
    b = RegionBuilder("t", is_loop=False)
    x = b.read("x", 32)
    piece = b.slice_(x, 15, 0)
    wide = b.zext(piece, 32)
    b.write("out", b.add(wide, 1, name="s"))
    region = b.build()
    netlist = TimingEngine(region.dfg, lib, CLOCK)
    s = next(op for op in region.dfg.ops if op.name == "s")
    edge = region.dfg.in_edge(s.uid, 0)
    root = netlist.resolve_source(edge.src)
    assert region.dfg.op(root).kind is OpKind.READ


def test_anticipation_flag_controls_input_mux(lib):
    region = _chain_region()
    ops = {op.name: op for op in region.dfg.ops}
    pool = ResourcePool()
    mul = pool.add(lib.typical(OpKind.MUL, 32))
    with_mux = TimingEngine(region.dfg, lib, CLOCK)
    with_mux.set_sharing_outlook({("mul", 32): 2}, {("mul", 32): 1})
    without = TimingEngine(region.dfg, lib, CLOCK, anticipate_muxes=False)
    without.set_sharing_outlook({("mul", 32): 2}, {("mul", 32): 1})
    t_with = with_mux.evaluate(ops["m1"], mul, 0)
    t_without = without.evaluate(ops["m1"], mul, 0)
    assert t_with.capture_ps - t_without.capture_ps == pytest.approx(110.0)

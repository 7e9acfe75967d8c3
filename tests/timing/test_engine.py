"""The unified timing engine: incremental re-propagation, rollback and
the admission == sign-off contract that replaced the old dual-model
design (the seed-126 negative-slack escape)."""

import dataclasses
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cdfg import OpKind, RegionBuilder
from repro.tech import ResourcePool, artisan90, generic45
from repro.tech.resources import MemoryPortInstance
from repro.timing.engine import (
    TIMING_MODEL_VERSION,
    TimingEngine,
    registered_path_ps,
)
from repro.timing.sta import verify_timing

from tests.conftest import property_examples

CLOCK = 1600.0


@pytest.fixture()
def lib():
    return artisan90()


def _sharing_region():
    """Two independent multiplies that can share one instance."""
    b = RegionBuilder("t", is_loop=False)
    x = b.read("x", 32)
    y = b.read("y", 32)
    b.write("o1", b.mul(x, y, name="m1"))
    b.write("o2", b.mul(y, x, name="m2"))
    return b.build()


def _ops(region):
    return {op.name: op for op in region.dfg.ops}


def test_mux_birth_retimes_sharing_neighbour(lib):
    """The seed-126 root cause in isolation: with anticipation off, a
    port growing its *second* source births a 110 ps sharing mux, and
    the neighbour's committed capture must absorb it immediately."""
    region = _sharing_region()
    engine = TimingEngine(region.dfg, lib, CLOCK, anticipate_muxes=False)
    pool = ResourcePool()
    mul = pool.add(lib.typical(OpKind.MUL, 32))
    ops = _ops(region)
    r1 = engine.commit(ops["m1"], mul, 0, engine.evaluate(ops["m1"], mul, 0))
    m1 = r1.bound
    assert m1.capture_ps == pytest.approx(40 + 930 + 110 + 40)  # no mux yet
    t2 = engine.evaluate(ops["m2"], mul, 1)
    # the candidate itself is already charged both 2-input muxes
    assert t2.capture_ps == pytest.approx(40 + 110 + 930 + 110 + 40)
    r2 = engine.commit(ops["m2"], mul, 1, t2)
    assert m1 in r2.retimed
    assert m1.capture_ps == pytest.approx(40 + 110 + 930 + 110 + 40)
    # the stored numbers now ARE the sign-off numbers
    report = verify_timing(engine)
    assert report.slack_by_op[m1.op.uid] == CLOCK - m1.capture_ps


def test_rollback_restores_sources_and_timing(lib):
    region = _sharing_region()
    engine = TimingEngine(region.dfg, lib, CLOCK, anticipate_muxes=False)
    pool = ResourcePool()
    mul = pool.add(lib.typical(OpKind.MUL, 32))
    ops = _ops(region)
    r1 = engine.commit(ops["m1"], mul, 0, engine.evaluate(ops["m1"], mul, 0))
    before_capture = r1.bound.capture_ps
    before_sources = engine.port_sources()
    r2 = engine.commit(ops["m2"], mul, 1, engine.evaluate(ops["m2"], mul, 1))
    assert r1.bound.capture_ps > before_capture
    engine.rollback(r2)
    assert engine.binding(ops["m2"].uid) is None
    assert r1.bound.capture_ps == before_capture
    assert engine.port_sources() == before_sources
    assert len(before_sources[(mul.name, 0)]) == 1
    assert engine.audit(r1.bound).capture_ps == before_capture


def test_broken_reports_neighbour_pushed_past_budget(lib):
    """A commit whose mux growth breaks a neighbour is detectable from
    the CommitResult alone -- the scheduler's rejection signal."""
    region = _sharing_region()
    clock = 1150.0  # fits 1120 (no mux) but not 1230 (with mux)
    engine = TimingEngine(region.dfg, lib, clock, anticipate_muxes=False)
    pool = ResourcePool()
    mul = pool.add(lib.typical(OpKind.MUL, 32))
    ops = _ops(region)
    r1 = engine.commit(ops["m1"], mul, 0, engine.evaluate(ops["m1"], mul, 0))
    assert r1.broken(clock) is None
    t2 = engine.evaluate(ops["m2"], mul, 1, allow_multicycle=False)
    assert not t2.ok  # the candidate pays its own muxes and fails
    r2 = engine.commit(ops["m2"], mul, 1, t2)  # waived binding
    broken = r2.broken(clock)
    assert broken is r1.bound
    assert engine.slack_of(broken) < 0
    engine.rollback(r2)
    assert engine.slack_of(r1.bound) >= 0


def test_late_producer_chains_into_committed_consumer(lib):
    """Committing a producer after its same-state consumer re-times the
    consumer from the registered assumption to real chaining."""
    b = RegionBuilder("t", is_loop=False)
    x = b.read("x", 32)
    m = b.mul(x, x, name="m")
    s = b.add(m, x, name="s")
    b.write("out", s)
    region = b.build()
    engine = TimingEngine(region.dfg, lib, 2400.0, anticipate_muxes=False)
    pool = ResourcePool()
    mul = pool.add(lib.typical(OpKind.MUL, 32))
    add = pool.add(lib.typical(OpKind.ADD, 32))
    ops = _ops(region)
    rs = engine.commit(ops["s"], add, 0, engine.evaluate(ops["s"], add, 0))
    assert rs.bound.out_arrival_ps == pytest.approx(40 + 350)  # registered
    rm = engine.commit(ops["m"], mul, 0, engine.evaluate(ops["m"], mul, 0))
    assert rs.bound in rm.retimed
    assert rs.bound.out_arrival_ps == pytest.approx(40 + 930 + 350)


def test_audit_always_matches_stored(lib):
    """After arbitrary commit sequences the stored arrivals equal a
    from-scratch audit: the one-model invariant."""
    region = _sharing_region()
    engine = TimingEngine(region.dfg, lib, CLOCK, anticipate_muxes=False)
    pool = ResourcePool()
    mul = pool.add(lib.typical(OpKind.MUL, 32))
    ops = _ops(region)
    for name, state in (("m1", 0), ("m2", 1)):
        engine.commit(ops[name], mul, state,
                      engine.evaluate(ops[name], mul, state))
    for bound in engine.bindings.values():
        audited = engine.audit(bound)
        assert audited.out_arrival_ps == bound.out_arrival_ps
        assert audited.capture_ps == bound.capture_ps


def test_registered_path_formula(lib):
    rtype = lib.typical(OpKind.MUL, 32)
    assert registered_path_ps(lib, rtype) == pytest.approx(
        40 + 110 + 930 + 110 + 40)


def test_timing_model_is_versioned():
    assert isinstance(TIMING_MODEL_VERSION, int)
    assert TIMING_MODEL_VERSION >= 2


# ----------------------------------------------------------------------
# bound-first admission: single_cycle_bound and its premises
# ----------------------------------------------------------------------
@pytest.mark.parametrize("make_lib", [artisan90, generic45])
def test_mux_delay_is_monotone_in_fanin(make_lib):
    """The premise of the single-cycle bound: a wider select tree is
    never faster."""
    mux = make_lib().mux
    delays = [mux.delay(n) for n in range(257)]
    assert all(a <= b for a, b in zip(delays, delays[1:]))


def test_single_cycle_bound_is_tight_on_a_growing_port(lib):
    """Port 0 of a shared multiplier holds two sources; a third makes a
    3-input mux.  The bound charges exactly that mux: it admits the
    candidate at its exact capture and declines 1 ps below it."""
    b = RegionBuilder("t", is_loop=False)
    xs = [b.read(f"x{i}", 32) for i in range(4)]
    for i in range(3):
        b.write(f"o{i}", b.mul(xs[i], xs[3], name=f"m{i}"))
    region = b.build()
    ops = _ops(region)
    capture = 40 + 115 + 930 + 110 + 40  # clk->q, mux3, mul, mux2, setup
    for clock, proven in ((capture, True), (capture - 1.0, False)):
        engine = TimingEngine(region.dfg, lib, clock,
                              anticipate_muxes=False)
        mul = ResourcePool().add(lib.typical(OpKind.MUL, 32))
        for state, name in enumerate(("m0", "m1")):
            engine.commit(ops[name], mul, state,
                          engine.evaluate(ops[name], mul, state))
        assert engine.max_fanin[mul.name] == 2
        m2 = ops["m2"]
        assert engine.evaluate(m2, mul, 2).capture_ps == capture
        raw = engine.worst_input_arrival(m2, 2)
        limit = engine.single_cycle_bound(m2, mul.rtype, raw)
        assert (engine.max_fanin[mul.name] <= limit) is proven


def _fanin_table(engine):
    """Widest port fanin per instance, recomputed from the sources."""
    return {iname: max(len(sources) for sources in by_port.values())
            for iname, by_port in engine._port_sources.items() if by_port}


def _random_netlist(seed):
    """A random add/mul dataflow over four reads (deterministic)."""
    rng = random.Random(seed)
    b = RegionBuilder(f"bound{seed}", is_loop=False)
    vals = [b.read(f"x{i}", 32) for i in range(4)]
    for i in range(12):
        x, y = rng.choice(vals), rng.choice(vals)
        vals.append(b.mul(x, y, name=f"m{i}") if rng.random() < 0.4
                    else b.add(x, y, name=f"a{i}"))
    b.write("out", vals[-1])
    return b.build()


_STEP = st.tuples(st.sampled_from(["commit", "try", "rollback"]),
                  st.integers(0, 11), st.integers(0, 5), st.integers(0, 3))


@given(seed=st.integers(0, 10_000),
       clock=st.integers(900, 3200).map(float),
       anticipate=st.booleans(),
       steps=st.lists(_STEP, min_size=1, max_size=25))
@settings(max_examples=property_examples(25), deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_single_cycle_bound_is_sound(seed, clock, anticipate, steps):
    """Over random commit / try_commit / rollback sequences:
    an instance within the bound's fanin limit passes the exact
    evaluation in one cycle, and the engine's per-instance max fanin
    matches its port sources."""
    lib = artisan90()
    region = _random_netlist(seed)
    ops = [op for op in region.dfg.ops
           if op.kind in (OpKind.ADD, OpKind.MUL)]
    pool = ResourcePool()
    for kind in (OpKind.ADD, OpKind.MUL):
        pool.add(lib.typical(kind, 32))
        pool.add(lib.typical(kind, 32))
        pool.add(lib.fastest(kind, 32))
    engine = TimingEngine(region.dfg, lib, clock,
                          anticipate_muxes=anticipate)
    keys = {(i.rtype.family, i.rtype.width) for i in pool.instances}
    engine.set_sharing_outlook(dict.fromkeys(keys, 9),
                               dict.fromkeys(keys, 3))
    last = None
    for action, op_idx, inst_idx, state in steps:
        op = ops[op_idx % len(ops)]
        insts = [i for i in pool.instances
                 if i.rtype.supports(op.kind, op.resource_width)]
        inst = insts[inst_idx % len(insts)]
        bound = engine.binding(op.uid) is not None
        if action == "commit" and not bound:
            last = engine.commit(op, inst, state,
                                 engine.evaluate(op, inst, state))
        elif action == "try" and not bound:
            timing = engine.evaluate(op, inst, state)
            if timing.ok:
                result, _broken = engine.try_commit(op, inst, state, timing)
                last = result or last
        elif action == "rollback" and last is not None:
            engine.rollback(last)
            last = None
        assert engine.max_fanin == _fanin_table(engine)
        for cand in ops:
            for inst in pool.instances:
                if not inst.rtype.supports(cand.kind, cand.resource_width):
                    continue
                fanin = engine.max_fanin.get(inst.name, 0)
                for s in range(4):
                    raw = engine.worst_input_arrival(cand, s)
                    if fanin <= engine.single_cycle_bound(cand, inst.rtype,
                                                          raw):
                        timing = engine.evaluate(cand, inst, s)
                        assert timing.ok and timing.cycles == 1


def _random_ram_netlist(seed):
    """Random loads and stores of one 64-word array, most of them
    addressed (and the stores fed) by other values: reads, adds and
    earlier loads, so addresses can chain (deterministic)."""
    rng = random.Random(seed)
    b = RegionBuilder(f"ram{seed}", is_loop=False)
    arr = b.array("a", 64)
    vals = [b.read(f"x{i}", 32) for i in range(4)]
    vals.append(b.load(arr, vals[0], name="l"))
    for i in range(12):
        x, y = rng.choice(vals), rng.choice(vals)
        addr = x if rng.random() < 0.7 else None
        pick = rng.random()
        if pick < 0.3:
            vals.append(b.add(x, y, name=f"a{i}"))
        elif pick < 0.65:
            vals.append(b.load(arr, addr, offset=i, name=f"l{i}"))
        else:
            b.store(arr, y, addr, offset=i, name=f"s{i}")
    b.write("out", vals[-1])
    return b.build()


@pytest.mark.parametrize("make_lib", [artisan90, generic45])
@given(seed=st.integers(0, 10_000),
       stretch=st.integers(90, 150),
       anticipate=st.booleans(),
       ports=st.integers(1, 2),
       steps=st.lists(_STEP, min_size=1, max_size=25))
@settings(max_examples=property_examples(25), deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_single_cycle_bound_is_sound_on_ram_ports(make_lib, seed, stretch,
                                                   anticipate, ports,
                                                   steps):
    """The bound on RAM ports: over random commit / try_commit /
    rollback sequences of LOADs and STOREs on the RAM ports of two
    banks, a port within the RAM grade's fanin limit passes the exact
    single-cycle evaluation in one cycle.  The clock
    is drawn around the RAM's registered path (``stretch`` percent of
    it), where the address and write-data muxes decide."""
    lib = make_lib()
    region = _random_ram_netlist(seed)
    ops = region.memory_ops
    rtype = lib.memory_resource(32, 32, ports)
    assert rtype.access_cycles == 1
    clock = registered_path_ps(lib, rtype) * stretch / 100
    insts = [MemoryPortInstance(rtype, "a", bank, port)
             for bank in range(2) for port in range(ports)]
    engine = TimingEngine(region.dfg, lib, clock,
                          anticipate_muxes=anticipate)
    key = (rtype.family, rtype.width)
    engine.set_sharing_outlook({key: 9}, {key: 3})
    last = None
    for action, op_idx, inst_idx, state in steps:
        op = ops[op_idx % len(ops)]
        inst = insts[inst_idx % len(insts)]
        bound = engine.binding(op.uid) is not None
        if action == "commit" and not bound:
            last = engine.commit(op, inst, state, engine.evaluate(
                op, inst, state, allow_multicycle=False))
        elif action == "try" and not bound:
            timing = engine.evaluate(op, inst, state, allow_multicycle=False)
            if timing.ok:
                result, _broken = engine.try_commit(op, inst, state, timing)
                last = result or last
        elif action == "rollback" and last is not None:
            engine.rollback(last)
            last = None
        assert engine.max_fanin == _fanin_table(engine)
        for cand in ops:
            for inst in insts:
                fanin = engine.max_fanin.get(inst.name, 0)
                for s in range(4):
                    raw = engine.worst_input_arrival(cand, s)
                    if fanin <= engine.single_cycle_bound(cand, rtype, raw):
                        timing = engine.evaluate(cand, inst, s,
                                                 allow_multicycle=False)
                        assert timing.ok and timing.cycles == 1


@pytest.mark.parametrize("make_lib", [artisan90, generic45])
def test_single_cycle_bound_declines_multicycle_ram(make_lib):
    """A registered-read RAM macro (``access_cycles`` 2) is never
    admitted by the bound, even at a clock its single-cycle twin
    meets."""
    lib = make_lib()
    region = _random_ram_netlist(0)
    engine = TimingEngine(region.dfg, lib, 10_000.0)
    rtype = lib.memory_resource(32, 64, 1)
    slow = dataclasses.replace(rtype, access_cycles=2)
    for op in region.memory_ops:
        raw = engine.worst_input_arrival(op, 0)
        assert engine.single_cycle_bound(op, rtype, raw) >= 0
        assert engine.single_cycle_bound(op, slow, raw) == -1

"""Exactness of the commit-outcome cache.

Every doomed verdict the bind-walk takes from the cache is re-derived
uncached -- a provisional commit, its broken neighbour, a rollback --
and must carry the identical ``(uid, state, slack, arrival)`` payload.
A footprint that misses a read leaves a stale entry behind, and the
first hit on it fails here.
"""

import contextlib
import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cdfg import OpKind, PipelineSpec, RegionBuilder
from repro.core import ScheduleError, schedule_region
from repro.tech import ResourcePool, artisan90
from repro.timing.engine import CandidateTiming, TimingEngine
from repro.workloads import WORKLOAD_REGISTRY
from repro.workloads.synthetic import (SyntheticSpec, generate_design,
                                       industrial_suite)

from tests.conftest import property_examples

LIB = artisan90()


def _uncached_verdict(engine, op, inst, state, cycles):
    """The doomed payload of binding ``op`` to ``inst`` at ``state``,
    recomputed by a provisional commit that the cache never sees."""
    timing = engine.evaluate(op, inst, state, allow_multicycle=cycles > 1)
    timing = dataclasses.replace(timing, cycles=cycles)
    result = engine.commit(op, inst, state, timing, _provisional=True)
    try:
        broken = result.broken(engine.clock_ps)
        if broken is None:
            return None
        return (broken.op.uid, broken.state, engine.slack_of(broken),
                engine.worst_input_arrival(broken.op, broken.state))
    finally:
        engine.rollback(result)


@contextlib.contextmanager
def cross_checked_doom_probes():
    """Wrap every doom probe so that each cache hit is re-derived
    uncached and compared; yields the list of checked hits."""
    checked = []
    original = TimingEngine.doom_probe

    def doom_probe(self, op, state, cycles=1):
        probe = original(self, op, state, cycles)

        def cross_checked(inst):
            key, info = probe(inst)
            if info is not None:
                fresh = _uncached_verdict(self, op, inst, state, cycles)
                assert fresh == info, (
                    f"stale commit-cache entry {key} for {op.name} at "
                    f"state {state}: cached {info}, uncached {fresh}")
                checked.append(key)
            return key, info

        return cross_checked

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(TimingEngine, "doom_probe", doom_probe)
        yield checked


def _shared_adder():
    """``v = r + x`` sits on adder ``m`` in state 1, with ``x`` bound
    there and chained in at arrival ``A`` (between clk->q and clk->q
    plus one 2-input mux), ``r`` and ``v``'s consumer ``w`` unbound.
    Binding ``c = y + x`` to ``m`` in state 2 births a mux on ``v``'s
    port 0 and breaks ``v``: a doomed verdict, cached, whose payload
    depends on how ``v``'s root ``r`` and consumer ``w`` are bound in
    state 1.  Returns the engine, the ops, the adder, a second adder,
    ``A`` and ``c``'s candidate timing."""
    b = RegionBuilder("cc", is_loop=False)
    a, bb, c, d, e = (b.read(n, 32) for n in "abcde")
    r = b.add(a, bb, name="r")
    x = b.add(c, d, name="x")
    y = b.add(e, a, name="y")
    v = b.add(r, x, name="v")
    w = b.add(v, e, name="w")
    b.write("o1", w)
    b.write("o2", b.add(y, x, name="c"))
    region = b.build()
    ops = {op.name: op for op in region.dfg.ops}
    pool = ResourcePool()
    adder = pool.add(LIB.typical(OpKind.ADD, 32))
    other = pool.add(LIB.typical(OpKind.ADD, 32))
    clk_q, mux2 = LIB.ff.clk_to_q_ps, LIB.mux.delay(2)
    arrival = clk_q + mux2 / 2
    clock = arrival + adder.rtype.delay_ps + mux2 + LIB.ff.setup_ps + 0.5
    engine = TimingEngine(region.dfg, LIB, clock, anticipate_muxes=False)
    engine.commit(ops["x"], None, 1, _chained(arrival))
    engine.commit(ops["v"], adder, 1, engine.evaluate(ops["v"], adder, 1))
    candidate = engine.evaluate(ops["c"], adder, 2, allow_multicycle=False)
    return engine, ops, adder, other, arrival, candidate


def _chained(arrival):
    """A single-cycle binding timing with output arrival ``arrival``."""
    capture = arrival + LIB.mux.delay(2) + LIB.ff.setup_ps
    return CandidateTiming(True, arrival, capture, 0.0)


@pytest.mark.parametrize("late", ("r", "w"))
def test_binding_read_in_reader_state_drops_entry(late):
    """Binding ``v``'s root ``r`` (the reader's input) or its consumer
    ``w`` (which ``v``'s re-timing would cascade into) in ``v``'s state
    changes the doomed payload, so the kept commit must drop the
    entry, although it re-times nothing."""
    engine, ops, adder, other, arrival, candidate = _shared_adder()
    c = ops["c"]
    _result, cached = engine.try_commit(c, adder, 2, candidate)
    assert cached is not None and cached[0] == ops["v"].uid
    assert engine.doom_probe(c, 2)(adder)[1] == cached
    kept = engine.commit(ops[late], other, 1, _chained(arrival - 1.0))
    assert not kept.undo_timing
    _result, info = engine.try_commit(c, adder, 2, candidate)
    assert info == _uncached_verdict(engine, c, adder, 2, 1)
    assert info != cached


@pytest.mark.parametrize("late", ("r", "w"))
def test_binding_in_another_state_keeps_entry(late):
    """The same commits in a state ``v`` does not read change nothing
    the verdict read: the entry survives and still matches."""
    engine, ops, adder, other, arrival, candidate = _shared_adder()
    c = ops["c"]
    _result, cached = engine.try_commit(c, adder, 2, candidate)
    engine.commit(ops[late], other, 3, _chained(arrival - 1.0))
    hits = engine.n_cache_hits
    assert engine.doom_probe(c, 2)(adder)[1] == cached
    assert engine.n_cache_hits == hits + 1
    assert cached == _uncached_verdict(engine, c, adder, 2, 1)


def test_mux_growth_under_a_visited_binding_drops_entry():
    """``v = u + x`` on adder ``j`` is visited by the doomed propagation
    (``u`` on adder ``i`` speeds up into it) without being re-timed,
    because ``x`` dominates.  A later kept commit grows the mux on
    ``v``'s ``u`` port, again without re-timing ``v``; but with ``u``'s
    doomed arrival behind that mux ``v`` now breaks worst, so the
    commit must drop the entry."""
    b = RegionBuilder("cc", is_loop=False)
    a, bb, e, y, x_in = (b.read(n, 32) for n in ("a", "b", "e", "y", "xi"))
    u = b.add(a, bb, name="u")
    x = b.add(x_in, x_in, name="x")
    v = b.add(u, x, name="v")
    b.write("o1", v)
    b.write("o2", b.add(e, bb, name="c"))
    b.write("o3", b.add(y, x, name="z"))
    region = b.build()
    ops = {op.name: op for op in region.dfg.ops}
    pool = ResourcePool()
    adder_i = pool.add(LIB.typical(OpKind.ADD, 32))
    adder_j = pool.add(LIB.typical(OpKind.ADD, 32))
    clk_q, mux2 = LIB.ff.clk_to_q_ps, LIB.mux.delay(2)
    delay = adder_i.rtype.delay_ps
    # u: clk_q + delay committed, clk_q + mux2 + delay once c shares i
    u_out, u_doomed = clk_q + delay, clk_q + mux2 + delay
    x_out = u_doomed + mux2 / 2   # above u_doomed, below u_doomed + mux2
    clock = u_out + mux2 + LIB.ff.setup_ps + (mux2 / 2)
    engine = TimingEngine(region.dfg, LIB, clock, anticipate_muxes=False)
    engine.commit(ops["x"], None, 1, _chained(x_out))
    engine.commit(ops["u"], adder_i, 1, engine.evaluate(ops["u"], adder_i, 1))
    v_out = x_out + delay
    engine.commit(ops["v"], adder_j, 1, _chained(v_out))
    c = ops["c"]
    candidate = engine.evaluate(c, adder_i, 2, allow_multicycle=False)
    _result, cached = engine.try_commit(c, adder_i, 2, candidate)
    assert cached is not None and cached[0] == ops["u"].uid
    kept = engine.commit(ops["z"], adder_j, 3,
                         engine.evaluate(ops["z"], adder_j, 3))
    assert not kept.undo_timing
    _result, info = engine.try_commit(c, adder_i, 2, candidate)
    assert info == _uncached_verdict(engine, c, adder_i, 2, 1)
    assert info[0] == ops["v"].uid


def test_cache_hits_exact_on_industrial_suite():
    with cross_checked_doom_probes() as checked:
        for _spec, region in industrial_suite(n_designs=4, max_ops=300):
            schedule_region(region, LIB, 1600.0)
    assert len(checked) > 1000


def test_cache_hits_exact_on_paper_examples():
    """Sequential and pipelined; the pipelined runs take no cache hit at
    this clock, sequential fft8 takes a few hundred."""
    with cross_checked_doom_probes() as checked:
        for name in ("example1", "fir", "fft8", "idct8"):
            for ii in (None, 1, 2):
                pipeline = PipelineSpec(ii=ii) if ii is not None else None
                try:
                    schedule_region(WORKLOAD_REGISTRY[name](), LIB, 1600.0,
                                    pipeline=pipeline)
                except ScheduleError:
                    pass  # an infeasible II still exercises every pass
    assert checked


@given(seed=st.integers(0, 10_000), n_ops=st.integers(30, 120),
       n_inputs=st.integers(2, 5), n_accumulators=st.integers(1, 3),
       chain=st.sampled_from((("add",), ("add", "add"), ("mul",),
                              ("add", "mul"))),
       depth=st.integers(3, 10), max_latency=st.sampled_from((8, 16, 48)),
       clock=st.sampled_from((1250.0, 1600.0, 2000.0)),
       ii=st.sampled_from((None, 2, 4)))
@settings(max_examples=property_examples(25), deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_cache_hits_exact_on_random_regions(seed, n_ops, n_inputs,
                                            n_accumulators, chain, depth,
                                            max_latency, clock, ii):
    region = generate_design(SyntheticSpec(
        name=f"cc{seed}", seed=seed, n_ops=n_ops, n_inputs=n_inputs,
        n_accumulators=n_accumulators, scc_chain=chain, depth=depth,
        max_latency=max_latency, trip_count=8))
    pipeline = PipelineSpec(ii=ii) if ii is not None else None
    with cross_checked_doom_probes():
        try:
            schedule_region(region, LIB, clock, pipeline=pipeline)
        except ScheduleError:
            pass

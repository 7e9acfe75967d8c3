"""Exactness of sibling-walk replay.

A failed candidate walk is stored under its walk class and answers every
later walk of the class in the same state until a commit is kept
(``_Pass._replay``).  Here every replayed walk is also walked for real,
in the state the replay served it in, and must meet the same restraint
objects in the same order, with the same busy/doomed/timing-failed and
visit counts and the same best slack; the tail restraints the replay
copies for its op must equal the ones the walk builds for it.
"""

import contextlib

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cdfg import OpKind, PipelineSpec, RegionBuilder
from repro.core import ScheduleError, SchedulerOptions, schedule_region
from repro.core.allocation import lower_bound
from repro.core.asap_alap import compute_mobility
from repro.core.relaxation import DriverState
from repro.core.restraints import RestraintKind
from repro.core.scheduler import _Pass, _RegionCache, _retargeted
from repro.tech import ResourcePool, artisan90
from repro.workloads import WORKLOAD_REGISTRY
from repro.workloads.synthetic import (SyntheticSpec, generate_design,
                                       industrial_suite)

from tests.conftest import property_examples

LIB = artisan90()


def _brief(restraints):
    return [(r.kind.value, r.op_uid, r.state) for r in restraints]


@contextlib.contextmanager
def cross_checked_replays():
    """Walk every replayed walk for real next to its replay; yields the
    list of checked (op name, state) pairs."""
    checked = []
    original = _Pass._replay

    def replay(self, op, e, type_key):
        cls, stored = original(self, op, e, type_key)
        if stored is not None:
            restraints = []
            real = self._walk(op, e, type_key, False, restraints,
                              *self._candidates(op))
            where = f"{op.name} at state {e} (class {cls})"
            assert real is not None, f"replayed a walk that binds: {where}"
            assert [id(r) for r in real.restraints] == [
                id(r) for r in stored.restraints], (
                f"restraints differ for {where}: walked "
                f"{_brief(real.restraints)}, replayed "
                f"{_brief(stored.restraints)}")
            assert real[1:-1] == stored[1:-1], (
                f"outcome differs for {where}: walked {real[1:-1]}, "
                f"replayed {stored[1:-1]}")
            assert list(real.tail) == [
                _retargeted(r, op.uid) for r in stored.tail], (
                f"tail restraints differ for {where}")
            checked.append((op.name, e))
        return cls, stored

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Pass, "_replay", replay)
        yield checked


def test_replays_exact_on_industrial_suite():
    with cross_checked_replays() as checked:
        for _spec, region in industrial_suite(n_designs=4, max_ops=300):
            schedule_region(region, LIB, 1600.0)
    assert len(checked) > 100


def test_replays_exact_on_paper_examples():
    """Sequential and pipelined at II 1 and 2."""
    with cross_checked_replays() as checked:
        for name in ("example1", "fir", "fft8", "idct8"):
            for ii in (None, 1, 2):
                pipeline = PipelineSpec(ii=ii) if ii is not None else None
                try:
                    schedule_region(WORKLOAD_REGISTRY[name](), LIB, 1600.0,
                                    pipeline=pipeline)
                except ScheduleError:
                    pass  # an infeasible II still exercises every pass
    assert checked


def test_no_class_across_a_bound_chain_consumer():
    """``v1 = a + c`` and ``v2 = d + f`` share a walk class but for their
    chain consumers ``w1 = v1 + g`` and ``w2 = v2 + h``, bound in the
    state ahead of them on two of three adders.  Binding either producer
    on the third chains it into its own consumer and breaks that one, so
    the two failed walks meet different doom restraints: neither may
    answer the other.  (The list scheduler binds producers first, so
    only a hand-built netlist reaches this state.)"""
    b = RegionBuilder("chained", is_loop=False)
    a, c, d, f, g, h = (b.read(name, 32) for name in "acdfgh")
    v1, v2 = b.add(a, c, name="v1"), b.add(d, f, name="v2")
    b.write("o1", b.add(v1, g, name="w1"))
    b.write("o2", b.add(v2, h, name="w2"))
    region = b.build()
    ops = {op.name: op for op in region.dfg.ops}
    # one registered add meets 800 ps, two chained adds do not
    clock, latency, state = 800.0, 2, 1
    allocation = lower_bound(
        region, LIB, compute_mobility(region, LIB, clock, latency), latency)
    run = _Pass(region, LIB, clock, latency, None, allocation,
                DriverState(latency=latency), SchedulerOptions(),
                _RegionCache(region, LIB))
    run.pool = ResourcePool()
    adders = [run.pool.add(LIB.typical(OpKind.ADD, 32)) for _ in range(3)]
    for name, inst in (("w1", adders[0]), ("w2", adders[1])):
        op = ops[name]
        run.netlist.commit(op, inst, state,
                           run.netlist.evaluate(op, inst, state))
        inst.occupy(op, [state])
    with cross_checked_replays():
        for producer, consumer in (("v1", "w1"), ("v2", "w2")):
            bound, restraints = run._try_bind(ops[producer], state)
            assert not bound
            dooms = {r.op_uid for r in restraints
                     if r.kind is RestraintKind.NEG_SLACK
                     and r.op_uid != ops[producer].uid}
            assert dooms == {ops[consumer].uid}


@given(seed=st.integers(0, 10_000), n_ops=st.integers(30, 120),
       n_inputs=st.integers(2, 5), n_accumulators=st.integers(1, 3),
       chain=st.sampled_from((("add",), ("add", "add"), ("mul",),
                              ("add", "mul"))),
       depth=st.integers(3, 10), max_latency=st.sampled_from((8, 16, 48)),
       clock=st.sampled_from((1250.0, 1600.0, 2000.0)),
       ii=st.sampled_from((None, 2, 4)))
@settings(max_examples=property_examples(25), deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_replays_exact_on_random_regions(seed, n_ops, n_inputs,
                                         n_accumulators, chain, depth,
                                         max_latency, clock, ii):
    region = generate_design(SyntheticSpec(
        name=f"wr{seed}", seed=seed, n_ops=n_ops, n_inputs=n_inputs,
        n_accumulators=n_accumulators, scc_chain=chain, depth=depth,
        max_latency=max_latency, trip_count=8))
    pipeline = PipelineSpec(ii=ii) if ii is not None else None
    with cross_checked_replays():
        try:
            schedule_region(region, LIB, clock, pipeline=pipeline)
        except ScheduleError:
            pass

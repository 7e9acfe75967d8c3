"""Restraint recording, weighting and the relaxation expert system."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cdfg import PipelineSpec, RegionBuilder
from repro.core.relaxation import DriverState, propose_actions
from repro.core.restraints import Restraint, RestraintKind, RestraintLog
from repro.tech import artisan90
from repro.workloads import build_example1

from tests.conftest import property_examples

CLOCK = 1600.0


@pytest.fixture(scope="module")
def lib():
    return artisan90()


def _region():
    return build_example1()


def test_analysis_weights_failed_ops_highest(lib):
    region = _region()
    names = {op.name: op.uid for op in region.dfg.ops}
    log = RestraintLog()
    log.record(Restraint(RestraintKind.NEG_SLACK, names["mul3_op"], 2))
    log.record(Restraint(RestraintKind.NEG_SLACK, names["mul1_op"], 0))
    log.mark_failed(names["mul3_op"])
    analyzed = log.analyze(region.dfg)
    weights = {r.op_uid: r.weight for r in analyzed}
    assert weights[names["mul3_op"]] == pytest.approx(1.0)
    # mul1 is in mul3's fanin cone -> 0.6
    assert weights[names["mul1_op"]] == pytest.approx(0.6)


def test_duplicate_restraints_accumulate_weight(lib):
    region = _region()
    uid = region.dfg.ops[0].uid
    log = RestraintLog()
    for state in (0, 1, 2):
        log.record(Restraint(RestraintKind.NO_RESOURCE, uid, state,
                             type_key=("mul", 32)))
    log.mark_failed(uid)
    analyzed = log.analyze(region.dfg)
    assert len(analyzed) == 1
    assert analyzed[0].weight > 1.0


#: one restraint payload: (kind, op index, state, type key, slack,
#: fresh_instance_fails, fits_fresh_state, input arrival).  Few ops and
#: kinds, so distinct payloads often share a merge key.  Signed zeros
#: are equal but print differently, so they probe the one place where
#: an equal payload is not an identical one.
_payloads = st.tuples(
    st.sampled_from([RestraintKind.NEG_SLACK, RestraintKind.NO_RESOURCE]),
    st.integers(0, 1), st.integers(0, 2),
    st.sampled_from([None, ("mul", 32)]),
    st.sampled_from([0.0, -0.0, -50.0, -120.5]),
    st.booleans(), st.booleans(),
    st.sampled_from([0.0, -0.0, 40.0, 1430.0]))


def _restraint(payload, uids):
    kind, idx, state, type_key, slack, fresh_fails, fits, arrival = payload
    return Restraint(kind, uids[idx], state, type_key=type_key,
                     slack_ps=slack, fresh_instance_fails=fresh_fails,
                     fits_fresh_state=fits, input_arrival_ps=arrival)


def _analyzed(log, dfg):
    return [(r.kind, r.op_uid, r.state, r.type_key, repr(r.slack_ps),
             r.fresh_instance_fails, r.fits_fresh_state,
             repr(r.input_arrival_ps), repr(r.weight))
            for r in log.analyze(dfg)]


@given(pool=st.lists(_payloads, min_size=1, max_size=6),
       picks=st.lists(st.integers(0, 5), min_size=1, max_size=40),
       failed=st.sets(st.integers(0, 5), max_size=2))
@settings(max_examples=property_examples(100), deadline=None)
def test_interned_rerecords_analyze_like_fresh_copies(pool, picks, failed):
    """The binder re-records one object per equal payload (interned by
    ``==``, as the scheduler's doom table is); the log must analyze that
    exactly like a fresh equal copy per record: same fields, weights and
    order, and the same summary."""
    dfg = _region().dfg
    uids = [op.uid for op in dfg.ops]
    seq = [pool[i % len(pool)] for i in picks]
    interned, fresh = RestraintLog(), RestraintLog()
    table = {}
    for payload in seq:
        r = table.get(payload)
        if r is None:
            r = table[payload] = _restraint(payload, uids)
        interned.record(r)
        fresh.record(_restraint(payload, uids))
    for log in (interned, fresh):
        for idx in failed:
            log.mark_failed(uids[idx])
    assert len(interned.restraints) == len(table)
    assert interned.summary() == fresh.summary()
    assert _analyzed(interned, dfg) == _analyzed(fresh, dfg)


def test_add_state_solves_fitting_slack(lib):
    region = _region()
    state = DriverState(latency=1)
    r = Restraint(RestraintKind.NEG_SLACK, 0, 0, slack_ps=-200.0,
                  fits_fresh_state=True, weight=1.0)
    actions = propose_actions(region, lib, CLOCK, [r], state, None)
    assert any(a.name == "add_state" for a in actions)


def test_add_state_unavailable_at_max_latency(lib):
    region = _region()  # max_latency = 3
    state = DriverState(latency=3)
    r = Restraint(RestraintKind.NEG_SLACK, 0, 2, slack_ps=-200.0,
                  fits_fresh_state=True, weight=1.0)
    actions = propose_actions(region, lib, CLOCK, [r], state, None)
    assert not any(a.name == "add_state" for a in actions)


def test_add_resource_skipped_when_fresh_instance_fails(lib):
    """'adding one more multiplier does not help' -- a chained input
    arrival that no grade can absorb."""
    region = _region()
    state = DriverState(latency=3)
    r = Restraint(RestraintKind.NO_RESOURCE, 0, 1, type_key=("mul", 32),
                  input_arrival_ps=1430.0, fresh_instance_fails=True,
                  weight=1.0)
    actions = propose_actions(region, lib, CLOCK, [r], state, None)
    assert not any(a.name.startswith("add_resource:mul") for a in actions)


def test_add_resource_offered_with_registered_inputs(lib):
    region = _region()
    state = DriverState(latency=3)
    r = Restraint(RestraintKind.NO_RESOURCE, 0, 1, type_key=("mul", 32),
                  input_arrival_ps=40.0, weight=1.0)
    actions = propose_actions(region, lib, CLOCK, [r], state, None)
    add = [a for a in actions if a.name.startswith("add_resource:mul")]
    assert add
    add[0].apply(state)
    assert state.extra_types and state.extra_types[0].family == "mul"


def test_move_scc_beats_add_state(lib):
    """SCC restraints prefer the cheap move action (Example 3)."""
    region = _region()
    state = DriverState(latency=3)
    r = Restraint(RestraintKind.SCC_TIMING, 0, 0, scc_index=0,
                  fits_fresh_state=True, weight=1.0)
    actions = propose_actions(region, lib, CLOCK, [r], state,
                              PipelineSpec(ii=1))
    assert actions[0].name == "move_scc:0"
    actions[0].apply(state)
    assert state.scc_shifts == {0: 1}


def test_move_scc_disabled_by_flag(lib):
    region = _region()
    state = DriverState(latency=3)
    r = Restraint(RestraintKind.SCC_TIMING, 0, 0, scc_index=0, weight=1.0)
    actions = propose_actions(region, lib, CLOCK, [r], state,
                              PipelineSpec(ii=1), enable_scc_move=False)
    assert not any(a.name.startswith("move_scc") for a in actions)


def test_forbid_action_for_comb_cycles(lib):
    region = _region()
    state = DriverState(latency=3)
    r = Restraint(RestraintKind.COMB_CYCLE, 5, 1, inst_name="add_32#0",
                  weight=1.0)
    actions = propose_actions(region, lib, CLOCK, [r], state, None)
    forbid = [a for a in actions if a.name.startswith("forbid")]
    assert forbid
    forbid[0].apply(state)
    assert (5, "add_32#0") in state.forbidden


def test_speculate_action(lib):
    region = _region()
    state = DriverState(latency=3)
    r = Restraint(RestraintKind.PREDICATE_ORDER, 7, 2, cond_uid=3,
                  weight=1.0)
    actions = propose_actions(region, lib, CLOCK, [r], state, None)
    spec = [a for a in actions if a.name.startswith("speculate")]
    assert spec
    spec[0].apply(state)
    assert 7 in state.speculated


def test_pipelined_add_state_does_not_solve_no_resource(lib):
    """Beyond II states, a new state adds no equivalence class."""
    region = _region()
    state = DriverState(latency=3)
    r = Restraint(RestraintKind.NO_RESOURCE, 0, 1, type_key=("mul", 32),
                  input_arrival_ps=40.0, weight=1.0)
    actions = propose_actions(region, lib, CLOCK, [r], state,
                              PipelineSpec(ii=2))
    add_state = [a for a in actions if a.name == "add_state"]
    assert not add_state  # nothing else to solve here


def test_gain_ordering(lib):
    region = _region()
    state = DriverState(latency=2)
    rs = [
        Restraint(RestraintKind.NEG_SLACK, 0, 0, slack_ps=-100.0,
                  fits_fresh_state=True, weight=3.0),
        Restraint(RestraintKind.COMB_CYCLE, 1, 0, inst_name="x#0",
                  weight=0.3),
    ]
    actions = propose_actions(region, lib, CLOCK, rs, state, None)
    assert actions == sorted(actions, key=lambda a: -a.gain)

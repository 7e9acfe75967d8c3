"""The tables a scheduling pass reads instead of rebuilding, each against
a naive oracle: the candidate walk order (kept sort keys) with its grade
table, that order filtered by forbidden pairs, the pipelined state
classes, and the allocation lower bound with its interval skip."""

import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cdfg import OpKind, Predicate, RegionBuilder
from repro.cdfg.dfg import DFG
from repro.core.allocation import (
    AllocationResult,
    _exclusive_groups,
    lower_bound,
    type_key_for,
)
from repro.core.asap_alap import Mobility
from repro.core.relaxation import DriverState
from repro.core.scheduler import (
    SchedulerOptions,
    _equivalent_states,
    _grade_table,
    _Pass,
    _RegionCache,
    _state_class_table,
    _walk_order,
)
from repro.tech import ResourcePool, artisan90

from tests.conftest import property_examples

LIB = artisan90()
GRADES = ("typical", "fast", "turbo", "ultra")

#: predicates over two conditions: unconditional, single literals of
#: either polarity, a conjunction and a self-contradictory one.
PREDICATES = (
    Predicate.true(),
    Predicate.of((1001, True)),
    Predicate.of((1001, False)),
    Predicate.of((1002, True)),
    Predicate.of((1001, True), (1002, False)),
    Predicate.of((1002, True), (1002, False)),
)


# ----------------------------------------------------------------------
# kept walk order
# ----------------------------------------------------------------------
def _naive_order(insts):
    return sorted(insts, key=lambda i: (i.rtype.area, -len(i.ops_bound()),
                                        i.index))


def _naive_grades(order):
    """Per candidate its grade (numbered by first appearance), and per
    grade its first member hosting no operation."""
    grades = []
    for inst in order:
        if not any(g is inst.rtype for g in grades):
            grades.append(inst.rtype)
    grade_of = [next(k for k, g in enumerate(grades) if g is inst.rtype)
                for inst in order]
    firsts = [next((i for i in order
                    if i.rtype is g and not i.ops_bound()), None)
              for g in grades]
    return grade_of, firsts


_POOL_STEP = st.one_of(
    st.tuples(st.just("add"), st.integers(0, 3)),
    st.tuples(st.just("occupy"), st.integers(0, 20), st.integers(0, 5),
              st.integers(1, 3), st.integers(0, len(PREDICATES) - 1),
              st.booleans()),
    st.tuples(st.just("regrade"), st.integers(0, 20), st.integers(0, 3)),
)


@given(steps=st.lists(_POOL_STEP, min_size=1, max_size=40))
@settings(max_examples=property_examples(60), deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_walk_order_matches_a_fresh_sort(steps):
    """Over random add / multi-state occupy (predicate-disjoint sharers
    included, and ops re-occupying an instance they already hold) /
    regrade sequences, the order sorted on the kept keys and its grade
    table equal a fresh (area, -distinct occupants, index) sort and a
    naive grade table."""
    dfg = DFG("walk_order")
    pool = ResourcePool()
    mul = LIB.typical(OpKind.MUL, 32)
    pool.add(mul)
    bound = []
    for step in steps:
        insts = pool.instances
        if step[0] == "add":
            pool.add(LIB.regrade(mul, GRADES[step[1]]))
        elif step[0] == "occupy":
            _, idx, state, n_states, pred, reuse = step
            inst = insts[idx % len(insts)]
            if reuse and bound:
                op = bound[idx % len(bound)]
            else:
                op = dfg.add_op(OpKind.MUL, 32, predicate=PREDICATES[pred])
            states = list(range(state, state + n_states))
            if inst.is_free(op, states):
                inst.occupy(op, states)
                bound.append(op)
        else:
            _, idx, grade = step
            inst = insts[idx % len(insts)]
            pool.regrade(inst, LIB.regrade(inst.rtype, GRADES[grade]))
        insts = pool.instances
        base = sorted(insts, key=lambda i: (i.rtype.area, i.index))
        order, grade_of, firsts = _walk_order(base)
        naive = _naive_order(insts)
        assert order == naive
        assert (grade_of, firsts) == _naive_grades(naive)
        for inst in insts:
            assert inst.walk_key == (inst.rtype.area, -len(inst.ops_bound()))


# ----------------------------------------------------------------------
# forbidden-pair filter
# ----------------------------------------------------------------------
N_MULS = 6

_PASS_STEP = st.one_of(
    st.tuples(st.just("occupy"), st.integers(0, 20), st.integers(0, 20),
              st.integers(0, 3)),
    st.tuples(st.just("regrade"), st.integers(0, 20), st.integers(0, 3)),
    st.tuples(st.just("forbid"), st.integers(0, N_MULS - 1),
              st.integers(0, 20)),
)


def _mul_region():
    b = RegionBuilder("forbid_memo", is_loop=False)
    x, y = b.read("x", 32), b.read("y", 32)
    for i in range(N_MULS):
        x = b.mul(x, y, name=f"m{i}")
    b.write("out", x)
    return b.build()


@given(n_alloc=st.integers(1, 3),
       extra=st.lists(st.integers(0, 3), max_size=3),
       steps=st.lists(_PASS_STEP, min_size=1, max_size=30))
@settings(max_examples=property_examples(60), deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_forbidden_filter_memo_matches_a_fresh_filter(n_alloc, extra, steps):
    """Over random occupy / regrade sequences, with forbid steps that
    start the next pass with one more forbidden pair (as the driver
    does), every op's candidates equal a fresh walk order of its
    group's base list filtered by its forbidden names, with a fresh
    grade table; and for an op with no forbidden pair, a query that no
    occupancy or grade change preceded returns the group's memoized
    lists themselves."""
    region = _mul_region()
    muls = [op for op in region.dfg.ops if op.kind is OpKind.MUL]
    key = type_key_for(muls[0], LIB)
    mul = LIB.resource_type(*key)
    allocation = AllocationResult({key: n_alloc}, {key: N_MULS})
    state = DriverState(latency=N_MULS + 1, extra_types=[
        LIB.regrade(mul, GRADES[g]) for g in extra])
    cache = _RegionCache(region, LIB)
    n_insts = n_alloc + len(extra)

    def new_pass():
        return _Pass(region, LIB, 1600.0, state.latency, None, allocation,
                     state, SchedulerOptions(), cache)

    run = new_pass()
    #: op uid -> (pool log length, candidates) at its last query
    last = {}
    for step in steps:
        insts = run.pool.instances
        if step[0] == "occupy":
            _, idx, op_idx, at = step
            inst, op = insts[idx % len(insts)], muls[op_idx % N_MULS]
            if inst.is_free(op, [at]):
                inst.occupy(op, [at])
        elif step[0] == "regrade":
            _, idx, grade = step
            inst = insts[idx % len(insts)]
            run.pool.regrade(inst, LIB.regrade(inst.rtype, GRADES[grade]))
        else:
            _, op_idx, idx = step
            state.forbidden.add((muls[op_idx].uid,
                                 f"{mul.family}_{mul.width}#{idx % n_insts}"))
            run, last = new_pass(), {}
        epoch = len(run.pool._order_log)
        for op in muls:
            got = run._candidates(op)
            # the group's base list, sorted by (area, index) on its
            # first query, is fixed for the pass
            base = run._cand_of[op.uid][1]
            assert sorted(base, key=lambda i: i.index) \
                == sorted(run.pool.compatible(op), key=lambda i: i.index)
            banned = {name for uid, name in state.forbidden
                      if uid == op.uid}
            order = [inst for inst in _walk_order(base)[0]
                     if inst.name not in banned]
            assert got == (order, *_grade_table(order))
            if banned:
                continue
            prev = last.get(op.uid)
            if prev is not None and prev[0] == epoch:
                assert all(a is b for a, b in zip(got, prev[1]))
            last[op.uid] = (epoch, got)
        for uid, (_epoch, got) in last.items():
            op = region.dfg.op(uid)
            assert all(a is b for a, b in zip(run._candidates(op), got))


# ----------------------------------------------------------------------
# state classes
# ----------------------------------------------------------------------
def _comprehension(needed, latency, ii):
    """The states a binding on ``needed`` must find free, rebuilt per
    call (the reference the tables must equal)."""
    if ii is None:
        return list(needed)
    classes = {s % ii for s in needed}
    return [s for s in range(latency) if s % ii in classes]


@given(latency=st.integers(1, 40), data=st.data())
@settings(max_examples=property_examples(80), deadline=None)
def test_state_classes_match_the_comprehension(latency, data):
    ii = data.draw(st.one_of(st.none(), st.integers(1, latency + 2)))
    table = _state_class_table(latency, ii)
    assert len(table) == latency
    for e in range(latency):
        assert table[e] == _comprehension([e], latency, ii)
    if ii is not None:
        needed = data.draw(st.lists(st.integers(0, latency - 1),
                                    min_size=1, max_size=5))
        assert list(_equivalent_states(tuple(needed), latency, ii)) \
            == _comprehension(needed, latency, ii)


# ----------------------------------------------------------------------
# allocation lower bound
# ----------------------------------------------------------------------
def _reference_counts(region, library, mobility, ii):
    """The lower bound's interval loop before its skip: every interval's
    exclusive-group count, always computed."""
    by_type = {}
    for op in region.schedulable_ops():
        key = type_key_for(op, library)
        if key is not None:
            by_type.setdefault(key, []).append(op)
    counts = {}
    for key, ops in sorted(by_type.items()):
        starts = sorted({mobility[op.uid].asap for op in ops})
        ends = sorted({mobility[op.uid].alap + mobility[op.uid].cycles - 1
                       for op in ops})
        best = 1
        for a in starts:
            for b in ends:
                if b < a:
                    continue
                inside = [op for op in ops
                          if mobility[op.uid].asap >= a
                          and (mobility[op.uid].alap
                               + mobility[op.uid].cycles - 1) <= b]
                if not inside:
                    continue
                eff = _exclusive_groups(inside)
                eff += sum(mobility[op.uid].cycles - 1 for op in inside)
                span = b - a + 1
                capacity = min(span, ii) if ii is not None else span
                best = max(best, -(-eff // capacity))
        counts[key] = best
    return counts


@given(seed=st.integers(0, 100_000), latency=st.integers(1, 12),
       data=st.data())
@settings(max_examples=property_examples(80), deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_lower_bound_matches_the_unskipped_loop(seed, latency, data):
    """Random predicated add/mul regions with random multi-cycle
    mobility and II: the bound with its skip equals the loop that counts
    the groups of every interval."""
    rng = random.Random(seed)
    b = RegionBuilder(f"alloc{seed}", is_loop=False)
    vals = [b.read(f"x{i}", 32) for i in range(3)]
    for i in range(rng.randint(1, 14)):
        x, y = rng.choice(vals), rng.choice(vals)
        vals.append(b.mul(x, y, name=f"m{i}") if rng.random() < 0.5
                    else b.add(x, y, name=f"a{i}"))
    b.write("out", vals[-1])
    region = b.build()
    mobility = {}
    for op in region.schedulable_ops():
        op.predicate = rng.choice(PREDICATES)
        asap = rng.randint(0, latency - 1)
        alap = rng.randint(asap, latency - 1)
        mobility[op.uid] = Mobility(asap, alap, cycles=rng.choice((1, 1, 2, 3)))
    ii = data.draw(st.one_of(st.none(), st.integers(1, latency)))
    alloc = lower_bound(region, LIB, mobility, latency, ii)
    assert alloc.counts == _reference_counts(region, LIB, mobility, ii)

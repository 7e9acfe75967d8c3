"""Iterative modulo scheduling baseline (Rau, MICRO 1994).

The classic software-pipelining formulation the paper contrasts with:
operation latencies are *quantized to whole cycles* (no combinational
chaining, no knowledge of sharing multiplexers), the kernel is found by
height-priority placement into a modulo reservation table with eviction
backtracking, and binding happens afterwards.

Running the result through this project's detailed timing model shows the
two weaknesses the paper calls out: longer latency intervals (every
operation burns a full cycle) and post-binding slack surprises once the
sharing muxes the scheduler never saw are added.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.cdfg.ops import Operation, OpKind
from repro.cdfg.region import Region
from repro.core.allocation import type_key_for
from repro.tech.library import Library
from repro.tech.resources import ResourceInstance, ResourcePool
from repro.timing.engine import TimingEngine
from repro.timing.sta import verify_timing


class ModuloFailure(RuntimeError):
    """No schedule found within the II range / budget."""


@dataclass
class ModuloResult:
    """Outcome of modulo scheduling + naive binding."""

    region: Region
    ii: int
    latency: int
    states: Dict[int, int]            # op uid -> start cycle
    pool: ResourcePool
    netlist: TimingEngine
    wns_ps: float


def _cycle_latency(op: Operation, library: Library,
                   clock_ps: float) -> int:
    """Whole-cycle operation latency (the baseline's timing model)."""
    if op.is_free:
        return 0
    if op.is_io or op.kind is OpKind.STALL:
        return 1
    if op.is_mux:
        return 1
    delay = library.typical(op.kind, op.resource_width).delay_ps
    return max(1, math.ceil(
        (library.ff.clk_to_q_ps + delay + library.ff.setup_ps) / clock_ps))


def _heights(region: Region, lat: Dict[int, int], ii: int) -> Dict[int, float]:
    """Rau's height priority: longest path to any sink, II-adjusted."""
    heights: Dict[int, float] = {}
    order = region.dfg.topological_order()
    for op in reversed(order):
        best = 0.0
        for edge in region.dfg.out_edges(op.uid):
            succ_height = heights.get(edge.dst, 0.0)
            best = max(best, succ_height + lat[op.uid] - edge.distance * ii)
        heights[op.uid] = best
    return heights


def modulo_schedule(
    region: Region,
    library: Library,
    clock_ps: float,
    ii_min: int = 1,
    ii_max: int = 64,
    budget_ratio: int = 16,
) -> ModuloResult:
    """Find the smallest feasible II and its kernel, then bind naively."""
    dfg = region.dfg
    schedulable = [op for op in dfg.ops if not op.is_free]
    lat = {op.uid: _cycle_latency(op, library, clock_ps)
           for op in dfg.ops}
    # resource MII: demand / available per type (one instance per type
    # times the allocation the binder will create below)
    counts: Dict[Tuple[str, int], int] = {}
    for op in schedulable:
        key = type_key_for(op, library)
        if key is not None:
            counts[key] = counts.get(key, 0) + 1
    for ii in range(max(ii_min, 1), ii_max + 1):
        states = _try_ii(region, lat, ii, counts, budget_ratio)
        if states is not None:
            return _bind(region, library, clock_ps, ii, states, counts)
    raise ModuloFailure(
        f"{region.name}: no modulo schedule up to II={ii_max}")


def _try_ii(region: Region, lat: Dict[int, int], ii: int,
            counts: Dict[Tuple[str, int], int],
            budget_ratio: int) -> Optional[Dict[int, int]]:
    """One iterative modulo scheduling attempt at a fixed II."""
    dfg = region.dfg
    schedulable = [op for op in dfg.ops if not op.is_free]
    #: instances available per type: enough that sharing is plausible
    avail = {key: max(1, math.ceil(n / ii)) for key, n in counts.items()}
    heights = _heights(region, lat, ii)
    order = sorted(schedulable, key=lambda o: (-heights[o.uid], o.uid))
    states: Dict[int, int] = {}
    mrt: Dict[Tuple[Tuple[str, int], int], int] = {}
    budget = budget_ratio * len(schedulable)
    never_scheduled = {op.uid: 0 for op in schedulable}

    queue = list(order)
    while queue:
        if budget <= 0:
            return None
        budget -= 1
        op = queue.pop(0)
        estart = 0
        for edge in dfg.in_edges(op.uid):
            src = dfg.op(edge.src)
            if src.is_free or edge.src not in states:
                continue
            estart = max(estart,
                         states[edge.src] + lat[edge.src]
                         - edge.distance * ii)
        estart = max(estart, 0)
        if op.pinned_state is not None:
            estart = op.pinned_state
        key = None
        try:
            key = type_key_for(op, _LIB_SINGLETON)
        except KeyError:
            key = None
        placed = False
        for t in range(estart, estart + ii):
            if key is None or mrt.get((key, t % ii), 0) < avail[key]:
                _place(op, t, states, mrt, key, ii)
                placed = True
                break
        if not placed:
            # force at estart, evicting the conflicting occupants
            t = max(estart, never_scheduled[op.uid] + 1)
            evicted = [uid for uid, s in states.items()
                       if uid != op.uid
                       and _same_slot(dfg, uid, s, key, t, ii)]
            for uid in evicted:
                _unplace(dfg.op(uid), states, mrt, key, ii)
                queue.append(dfg.op(uid))
            _place(op, t, states, mrt, key, ii)
            never_scheduled[op.uid] = t
        # dependents scheduled earlier than allowed get evicted
        for edge in dfg.out_edges(op.uid):
            dst = edge.dst
            if dst in states and edge.distance == 0:
                if states[dst] < states[op.uid] + lat[op.uid]:
                    dst_op = dfg.op(dst)
                    dkey = type_key_for(dst_op, _LIB_SINGLETON) \
                        if not dst_op.is_free else None
                    _unplace(dst_op, states, mrt, dkey, ii)
                    queue.append(dst_op)
    # check loop-carried causality
    for op in schedulable:
        for edge in dfg.in_edges(op.uid):
            if edge.distance >= 1 and edge.src in states:
                if states[edge.src] + lat[edge.src] \
                        > states[op.uid] + edge.distance * ii:
                    return None
    return states


def _same_slot(dfg, uid, s, key, t, ii) -> bool:
    op = dfg.op(uid)
    try:
        okey = type_key_for(op, _LIB_SINGLETON)
    except KeyError:
        okey = None
    return okey == key and key is not None and s % ii == t % ii


def _place(op, t, states, mrt, key, ii) -> None:
    states[op.uid] = t
    if key is not None:
        mrt[(key, t % ii)] = mrt.get((key, t % ii), 0) + 1


def _unplace(op, states, mrt, key, ii) -> None:
    t = states.pop(op.uid)
    if key is not None:
        mrt[(key, t % ii)] -= 1


def _bind(region: Region, library: Library, clock_ps: float, ii: int,
          states: Dict[int, int],
          counts: Dict[Tuple[str, int], int]) -> ModuloResult:
    """Round-robin binding, then audit with the detailed timing model."""
    dfg = region.dfg
    latency = max(states.values()) + 1 if states else 1
    pool = ResourcePool()
    insts: Dict[Tuple[str, int], List[ResourceInstance]] = {}
    for key, n in sorted(counts.items()):
        need = max(1, math.ceil(n / ii))
        insts[key] = [pool.add(library.resource_type(*key))
                      for _ in range(need)]
    netlist = TimingEngine(dfg, library, clock_ps)
    netlist.set_sharing_outlook(
        dict(counts), {key: len(v) for key, v in insts.items()})
    rr: Dict[Tuple[Tuple[str, int], int], int] = {}
    for op in dfg.topological_order():
        if op.is_free or op.uid not in states:
            continue
        t = states[op.uid]
        key = None if (op.is_io or op.is_mux
                       or op.kind is OpKind.STALL) else \
            type_key_for(op, library)
        inst = None
        if key is not None:
            candidates = insts[key]
            start = rr.get((key, t % ii), 0)
            inst = None
            for i in range(len(candidates)):
                cand = candidates[(start + i) % len(candidates)]
                if cand.is_free(op, [s for s in range(latency)
                                     if s % ii == t % ii]):
                    inst = cand
                    break
            if inst is None:
                inst = candidates[start % len(candidates)]
            rr[(key, t % ii)] = (candidates.index(inst) + 1) % len(candidates)
            inst.occupy(op, [t])
        timing = netlist.evaluate(op, inst, t, allow_multicycle=False)
        netlist.commit(op, inst, t, timing)
    report = verify_timing(netlist)
    return ModuloResult(
        region=region, ii=ii, latency=latency, states=dict(states),
        pool=pool, netlist=netlist, wns_ps=report.wns_ps)


from repro.tech import artisan90 as _mk_lib

#: type keys only depend on family names, shared across libraries.
_LIB_SINGLETON = _mk_lib()

"""Timing-aware ASAP/ALAP mobility intervals.

The paper improves on classic mobility analysis in two ways (section
IV.A): life spans are *timing aware* (ASAP/ALAP come from approximate
timing analysis of the DFG, initially ignoring the sharing multiplexers),
and mutual exclusivity from predicate conversion is honored by the
allocator.  This module implements the first part: a forward/backward
pass over the DFG that assigns each operation an earliest and latest
control step for a given latency and clock, accounting for combinational
chaining within a cycle and for multi-cycle operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple

from repro.cdfg.dfg import DFG
from repro.cdfg.ops import MEMORY_KINDS, Operation, OpKind
from repro.cdfg.region import Region
from repro.tech.library import Library


class InfeasibleTiming(RuntimeError):
    """An operation cannot meet the clock with any resource or cycle count."""

    def __init__(self, message: str, uid: Optional[int] = None) -> None:
        super().__init__(message)
        self.uid = uid


@dataclass(slots=True)
class Mobility:
    """Scheduling freedom of one operation.

    ``asap``/``alap`` bound the *start* state; ``cycles`` is the number of
    consecutive states the operation occupies when even the fastest
    implementation exceeds one clock period; ``asap_arrival_ps`` is the
    optimistic output arrival when started at ``asap``.
    """

    asap: int
    alap: int
    cycles: int = 1
    asap_arrival_ps: float = 0.0

    @property
    def mobility(self) -> int:
        """Slack in states between the earliest and latest start."""
        return self.alap - self.asap

    def copy(self) -> "Mobility":
        """An independent copy (SCC window clamping mutates in place)."""
        return Mobility(self.asap, self.alap, self.cycles,
                        self.asap_arrival_ps)


class AsapMemo:
    """The latency-free half of :func:`compute_mobility`, memoized for
    one region and library.

    :func:`compute_asap` reads the latency only for the ALAP placeholder
    :func:`compute_alap` overwrites on every op, so its result (or the
    :class:`InfeasibleTiming` it raised) depends on the clock and the
    speculated set alone; a new latency then runs only the backward
    pass.  Optimistic op delays depend on nothing but the op and the
    library.
    """

    def __init__(self) -> None:
        #: (clock_ps, frozenset(speculated)) -> pristine ASAP map, or
        #: the InfeasibleTiming it raised.
        self.asap: Dict[Tuple[float, frozenset], object] = {}
        #: op uid -> optimistic delay (see :func:`_optimistic_delay`).
        self.delays: Dict[int, float] = {}


def _memory_delay(op: Operation, library: Library) -> float:
    """Approximate RAM access delay for mobility analysis.

    Uses the library's anchor-depth macro; the exact per-decl depth is
    charged by the timing engine at binding time (mobility is
    approximate analysis by design, paper IV.A).
    """
    return library.memory_resource(
        op.resource_width, library.mem.ANCHOR_DEPTH, 1).delay_ps


def _optimistic_delay(op: Operation, library: Library) -> float:
    """The op's combinational delay, ignoring sharing muxes (paper IV.A)."""
    if op.is_free or op.is_io or op.kind is OpKind.STALL:
        return 0.0
    if op.is_mux:
        return library.mux.delay2_ps
    if op.kind in MEMORY_KINDS:
        return _memory_delay(op, library)
    families = library.families_for(op.kind)
    if not families:
        raise InfeasibleTiming(
            f"no resource family implements {op.kind.value}")
    return min(library.resource_type(f, op.resource_width).delay_ps
               for f in families)


def _fastest_delay(op: Operation, library: Library) -> float:
    """Best achievable delay at the highest speed grade."""
    if op.is_free or op.is_io or op.kind is OpKind.STALL:
        return 0.0
    if op.is_mux:
        return library.mux.delay2_ps
    if op.kind in MEMORY_KINDS:
        return _memory_delay(op, library)
    return library.fastest(op.kind, op.resource_width).delay_ps


def _can_multicycle(op: Operation, library: Library) -> bool:
    if op.kind in MEMORY_KINDS:
        return False  # RAM macros have a fixed access latency
    families = library.families_for(op.kind)
    if not families:
        return False
    return library.resource_type(
        families[0], op.resource_width).multicycle_ok


def compute_asap(
    region: Region,
    library: Library,
    clock_ps: float,
    latency: int,
    speculated: Optional[Set[int]] = None,
) -> Dict[int, Mobility]:
    """Forward pass: earliest start state and arrival per operation.

    Chaining is assumed whenever the accumulated arrival still meets the
    clock; otherwise the operation slips to the next state with registered
    inputs.  Operations whose registered-input path exceeds one period get
    a multi-cycle span when the library permits, otherwise
    :class:`InfeasibleTiming` is raised (the clock is simply too fast).

    ``speculated`` operations ignore the predicate-ordering constraint
    (may start before their branch condition is computed).
    """
    speculated = speculated or set()
    ff = library.ff
    result: Dict[int, Mobility] = {}
    cond_state: Dict[int, int] = {}

    for op in region.dfg.topological_order():
        delay = _optimistic_delay(op, library)
        # earliest state from producers (distance-0 edges only)
        start = 0
        arrival_reg = ff.clk_to_q_ps  # arrival when all inputs registered
        chained_in = ff.clk_to_q_ps
        for edge in region.dfg.in_edges(op.uid):
            if edge.distance >= 1:
                continue
            prod = region.dfg.op(edge.src)
            pm = result[prod.uid]
            if edge.order:
                # memory-dependence edge: no value flows; the access
                # simply may not start before producer-end + gap
                req = pm.asap + pm.cycles - 1 + edge.min_gap
                if req > start:
                    start, chained_in = req, ff.clk_to_q_ps
                continue
            avail = pm.asap + pm.cycles - 1  # state where the value appears
            if pm.cycles > 1:
                # multi-cycle results are registered; usable next state
                if avail + 1 > start:
                    start, chained_in = avail + 1, ff.clk_to_q_ps
                continue
            if avail > start:
                start, chained_in = avail, pm.asap_arrival_ps
            elif avail == start:
                chained_in = max(chained_in, pm.asap_arrival_ps)
        # predicate ordering: no earlier than the condition (unless speculated)
        if not op.predicate.is_true and op.uid not in speculated:
            for cond_uid in op.predicate.condition_uids():
                if cond_uid in result:
                    start = max(start, result[cond_uid].asap)
        if op.pinned_state is not None:
            if op.pinned_state < start:
                raise InfeasibleTiming(
                    f"{op.name}: pinned to state {op.pinned_state} before "
                    f"its inputs are available (state {start})", op.uid)
            start, chained_in = op.pinned_state, ff.clk_to_q_ps
        # fit the chain into the clock; slip to a fresh state if needed
        out = chained_in + delay
        if out + ff.setup_ps > clock_ps and chained_in > ff.clk_to_q_ps:
            start += 1
            out = ff.clk_to_q_ps + delay
        cycles = 1
        if out + ff.setup_ps > clock_ps:
            fastest = _fastest_delay(op, library)
            if ff.clk_to_q_ps + fastest + ff.setup_ps <= clock_ps:
                out = ff.clk_to_q_ps + fastest  # a faster grade will fit
            elif _can_multicycle(op, library):
                cycles = math.ceil(
                    (ff.clk_to_q_ps + fastest + ff.setup_ps) / clock_ps)
                out = ff.clk_to_q_ps + fastest - (cycles - 1) * clock_ps
            else:
                raise InfeasibleTiming(
                    f"{op.name} ({op.kind.value}, w{op.width}): cannot meet "
                    f"clock {clock_ps}ps with any grade or cycle count",
                    op.uid)
        result[op.uid] = Mobility(asap=start, alap=latency - 1,
                                  cycles=cycles, asap_arrival_ps=out)
        if op.is_condition:
            cond_state[op.uid] = start
    return result


def compute_alap(
    region: Region,
    library: Library,
    clock_ps: float,
    latency: int,
    mobility: Dict[int, Mobility],
    delays: Optional[Dict[int, float]] = None,
) -> None:
    """Backward pass: fill in the latest start state, in place.

    Conservative in the paper's spirit of approximate analysis: a consumer
    chained in the same state requires the producer no later than the
    consumer; otherwise the producer must finish one state earlier.
    ``delays`` memoizes each op's optimistic delay across calls.
    """
    ff = library.ff
    if delays is None:
        delays = {}
    order = region.dfg.topological_order()
    for op in reversed(order):
        mob = mobility[op.uid]
        latest = latency - mob.cycles
        if op.pinned_state is not None:
            latest = min(latest, op.pinned_state)
        delay = delays.get(op.uid)
        if delay is None:
            delay = delays[op.uid] = _optimistic_delay(op, library)
        for edge in region.dfg.out_edges(op.uid):
            if edge.distance >= 1:
                continue
            cons = region.dfg.op(edge.dst)
            cm = mobility[cons.uid]
            if edge.order:
                latest = min(latest,
                             cm.alap - edge.min_gap - (mob.cycles - 1))
                continue
            cons_delay = delays.get(cons.uid)
            if cons_delay is None:
                cons_delay = delays[cons.uid] = _optimistic_delay(
                    cons, library)
            fits_chain = (ff.clk_to_q_ps + delay + cons_delay
                          + ff.setup_ps <= clock_ps)
            if mob.cycles > 1 or not fits_chain:
                latest = min(latest, cm.alap - mob.cycles)
            else:
                latest = min(latest, cm.alap)
        if latest < mob.asap:
            raise InfeasibleTiming(
                f"{op.name}: ALAP {latest} precedes ASAP {mob.asap} at "
                f"latency {latency}", op.uid)
        mob.alap = latest


def compute_mobility(
    region: Region,
    library: Library,
    clock_ps: float,
    latency: int,
    speculated: Optional[Set[int]] = None,
    asap_memo: Optional[AsapMemo] = None,
) -> Dict[int, Mobility]:
    """Full timing-aware ASAP/ALAP analysis for one latency choice.

    With ``asap_memo`` (built for this region and library) the forward
    pass runs once per clock and speculated set, and every call copies
    its pristine result before the backward pass fills it in.
    """
    if asap_memo is None:
        mobility = compute_asap(region, library, clock_ps, latency,
                                speculated)
        compute_alap(region, library, clock_ps, latency, mobility)
        return mobility
    key = (clock_ps, frozenset(speculated or ()))
    pristine = asap_memo.asap.get(key)
    if pristine is None:
        try:
            pristine = compute_asap(region, library, clock_ps, latency,
                                    speculated)
        except InfeasibleTiming as exc:
            asap_memo.asap[key] = exc
            raise
        asap_memo.asap[key] = pristine
    elif isinstance(pristine, InfeasibleTiming):
        raise pristine
    mobility = {uid: mob.copy() for uid, mob in pristine.items()}
    compute_alap(region, library, clock_ps, latency, mobility,
                 asap_memo.delays)
    return mobility

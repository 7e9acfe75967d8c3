"""The pass scheduler and its relaxation driver.

This is the paper's section IV engine: iterative simultaneous scheduling
and binding.  Each pass performs latency-, clock- and resource-constrained
list scheduling (Fig. 7): operations become ready when their producers are
bound, are picked by priority, and are bound to the first compatible
resource instance that is free (including the equivalent-edge semantics of
pipelining), meets timing on the incrementally built netlist, and does not
close a false combinational cycle.  A failed pass leaves behind a set of
restraints; the expert system (:mod:`repro.core.relaxation`) picks the
corrective action with the best estimated gain, and the driver iterates
until a pass succeeds or no action remains.

Pipelining adds exactly two rules (section V, step I.3): every SCC is
clamped into an II-state window, and a resource busy on an edge is busy on
all equivalent edges -- everything else is the unchanged non-pipelined
scheduler, which is the point of the paper.
"""

from __future__ import annotations

import functools
import heapq
import math
import operator
from dataclasses import dataclass
from typing import (Dict, List, NamedTuple, Optional, Sequence, Set, Tuple,
                    Union)

from repro import profiling
from repro.cdfg.memory import static_bank
from repro.cdfg.ops import Operation, OpKind
from repro.cdfg.region import PipelineSpec, Region
from repro.core.allocation import AllocationResult, build_pool, lower_bound, type_key_for
from repro.core.asap_alap import (
    AsapMemo,
    InfeasibleTiming,
    Mobility,
    compute_mobility,
)
from repro.core.priorities import compute_heights, priority_statics
from repro.core.relaxation import (
    DriverState,
    apply_action_batch,
    applied_actions,
    driver_fingerprint,
    MemoryAccessIndex,
    memory_access_index,
    propose_actions,
)
from repro.core.restraints import Restraint, RestraintKind, RestraintLog
from repro.obs.trace import Tracer, maybe_span
from repro.core.scc import SCCWindow, apply_windows, find_scc_windows
from repro.core.schedule import Schedule, ScheduleError
from repro.tech.library import Library
from repro.tech.resources import (
    MemoryConfig,
    MemoryPortInstance,
    ResourceInstance,
    ResourcePool,
    build_memory_configs,
)
from repro.timing.cycles import CombCycleGuard
from repro.timing.engine import (
    CandidateTiming,
    TimingEngine,
    TimingStatics,
    registered_path_ps,
)


@dataclass
class SchedulerOptions:
    """Knobs for the scheduler; defaults mirror the paper's tool.

    ``enable_scc_move`` is the Table 4 ablation switch (timing-driven
    kernel selection); ``anticipate_muxes`` ablates the section IV.B
    anticipatory sharing muxes.
    """

    max_passes: int = 200
    enable_scc_move: bool = True
    anticipate_muxes: bool = True
    allow_multicycle: bool = True
    #: let the relaxation driver raise a memory's banking factor beyond
    #: its declaration (the add-bank action); disable to pin the
    #: declared banking for controlled port-constraint experiments.
    allow_banking: bool = True
    #: Table 4 ablation companion: with the SCC move disabled, SCC members
    #: are anchored by dependency-only (timing-blind) analysis and bound
    #: even when they violate the clock -- downstream logic synthesis then
    #: has to buy the slack back with area (see rtl.compensation).
    accept_negative_slack: bool = False


class _RegionCache:
    """Pass-to-pass (and point-to-point) scheduling carryover.

    The relaxation driver re-runs the pass scheduler dozens of times per
    region while only *constraints* change (latency, resource set,
    forbidden pairs, speculation).  Everything derivable from the region
    + library alone -- heights, engine static structure, type keys,
    priority statics -- is computed once; mobility and the dependency
    maps are memoized on the constraint subset they actually depend on
    (clock, latency and the speculated set) and handed out as fresh
    copies when a pass would mutate them in place.

    Clock-dependent entries carry the clock in their key, so one cache
    may outlive a single ``schedule_region`` call and serve every design
    point of a sweep that shares the region structure (the sweep
    engine's ``SweepContext`` does exactly that).
    """

    def __init__(self, region: Region, library: Library) -> None:
        self.statics = TimingStatics(region.dfg, library)
        self.heights: Optional[Dict[int, float]] = None
        #: (clock_ps, latency, frozenset(speculated)) -> pristine
        #: mobility map, or the InfeasibleTiming it raised.
        self.mobility: Dict[Tuple, object] = {}
        #: the latency-free ASAP half of those maps, so that a new
        #: latency runs only the ALAP pass.
        self.asap = AsapMemo()
        #: frozenset(speculated) -> (unresolved, consumers) dependency maps.
        self.depmaps: Dict[frozenset, Tuple[Dict[int, int],
                                            Dict[int, List[Tuple[int, int]]]]] = {}
        self.type_keys: Dict[int, Optional[Tuple[str, int]]] = {}
        #: uid -> static tail of the priority key (complexity, height,
        #: fanout, uid); only mobility varies between passes.
        self.prio_static: Dict[int, Tuple] = {}
        #: (clock_ps, uid) -> fits-fresh-state verdict (non-memory ops
        #: only: memory budgets depend on the pass's banking config).
        self.fits_fresh: Dict[Tuple[float, int], bool] = {}
        #: uid -> (root, producer op) pairs for combinational chain edges.
        self.chain_roots: Dict[int, List[Tuple[int, Operation]]] = {}
        #: uid -> (loop-carried out-edges, loop-carried ordering
        #: in-edges): the edges modulo causality checks.
        self.carried: Dict[int, Tuple[List, List]] = {}
        #: uid -> (kind, resource width, type key): the op's part of a
        #: walk class key (see :meth:`_Pass._replay`).
        self.walk_kinds: Dict[int, Tuple] = {}
        #: ops that never join a walk class: a predicate that is not
        #: always true makes their busy verdicts their own.
        self.predicated: Set[int] = {
            op.uid for op in region.dfg.ops if not op.predicate.is_true}
        #: each declared memory's accesses with their dynamic-address
        #: flags (the passes' RAM-port setup and the add-bank action).
        self.mem_accesses: MemoryAccessIndex = memory_access_index(region)


@dataclass
class PassOutcome:
    """Everything a single scheduling pass produced."""

    success: bool
    netlist: TimingEngine
    pool: ResourcePool
    windows: List[SCCWindow]
    #: read-only: a sequential pass's map is the carryover cache's own.
    mobility: Dict[int, Mobility]
    log: RestraintLog


def _node_name(op: Operation, inst: Optional[ResourceInstance]) -> str:
    return inst.name if inst is not None else f"op{op.uid}"


_walk_key = operator.attrgetter("walk_key")


def _walk_order(base: List[ResourceInstance]) -> Tuple[
        List[ResourceInstance], List[int], List[Optional[ResourceInstance]]]:
    """A compatibility group's walk order, from its base list pre-sorted
    by (area, index), with the order's grade table.  The stable re-sort
    on each member's kept (area, -occupancy) key
    (:attr:`ResourceInstance.walk_key`) yields the (area, -occupancy,
    index) order; an occupancy change of a member logs its name, so the
    grade table stays valid exactly as long as the order does."""
    order = sorted(base, key=_walk_key)
    return (order, *_grade_table(order))


def _grade_table(order: List[ResourceInstance]) -> Tuple[
        List[int], List[Optional[ResourceInstance]]]:
    """Per candidate its grade index, and per grade its first empty
    candidate (None: every candidate of the grade hosts operations).
    Grades are numbered in order of appearance."""
    index: Dict[int, int] = {}
    grade_of: List[int] = []
    firsts: List[Optional[ResourceInstance]] = []
    for inst in order:
        g = index.get(id(inst.rtype))
        if g is None:
            g = index[id(inst.rtype)] = len(firsts)
            firsts.append(None)
        grade_of.append(g)
        if firsts[g] is None and not inst._ops_map:
            firsts[g] = inst
    return grade_of, firsts


class _FailedWalk(NamedTuple):
    """What a candidate walk that bound nothing leaves for
    :meth:`_Pass._try_bind`: the restraints it recorded in the loop, its
    outcome counts, its best timing slack, the accept-violation fallback,
    whether it raised a latency restraint (which names the op) and the
    restraints it adds for the op after the loop."""

    restraints: Sequence[Restraint]
    visits: int
    busy: int
    doomed: int
    timing_failed: int
    best_slack: Optional[float]
    fallback: Optional[Tuple[ResourceInstance, CandidateTiming]]
    latency: bool
    #: the restraints added for the op after the loop: NO_RESOURCE when
    #: a candidate was busy, the timing restraint of the best slack when
    #: one failed timing (none when the fallback binds).
    tail: Tuple[Restraint, ...]


def _retargeted(r: Restraint, uid: int) -> Restraint:
    """A copy of a walk-tail restraint (NO_RESOURCE or timing) that
    names op ``uid``."""
    return Restraint(
        kind=r.kind, op_uid=uid, state=r.state, type_key=r.type_key,
        slack_ps=r.slack_ps, fresh_instance_fails=r.fresh_instance_fails,
        fits_fresh_state=r.fits_fresh_state, scc_index=r.scc_index,
        input_arrival_ps=r.input_arrival_ps)


def _state_class_table(latency: int,
                       ii: Optional[int]) -> List[List[int]]:
    """Per state ``e`` of a pass, the states a single-state binding at
    ``e`` must find free: ``[e]`` in a sequential pass, and ``e``'s whole
    equivalence class (every state ``s`` with ``s % ii == e % ii``,
    ascending) in a pipelined one.  States of one class share a list."""
    if ii is None:
        return [[e] for e in range(latency)]
    by_class = [list(range(c, latency, ii)) for c in range(min(ii, latency))]
    return [by_class[e % ii] for e in range(latency)]


@functools.lru_cache(maxsize=4096)
def _equivalent_states(needed: Tuple[int, ...], latency: int,
                       ii: int) -> Tuple[int, ...]:
    """States a pipelined multi-state binding on ``needed`` must find
    free: every state equivalent to one of them, ascending."""
    classes = {s % ii for s in needed}
    return tuple(s for s in range(latency) if s % ii in classes)


class _Pass:
    """One execution of SCHEDULE_PASS (paper Fig. 7)."""

    def __init__(
        self,
        region: Region,
        library: Library,
        clock_ps: float,
        latency: int,
        pipeline: Optional[PipelineSpec],
        allocation: AllocationResult,
        state: DriverState,
        options: SchedulerOptions,
        cache: _RegionCache,
    ) -> None:
        self.region = region
        self.dfg = region.dfg
        self.library = library
        self.clock_ps = clock_ps
        self.latency = latency
        self.pipeline = pipeline
        self.ii = pipeline.ii if pipeline else None
        self.state = state
        self.options = options
        self.cache = cache
        self.log = RestraintLog()
        self.pool = build_pool(allocation, library)
        for rtype in state.extra_types:
            self.pool.add(rtype)
        # RAM banks: one port instance per (memory, bank, port); the
        # effective banking factor honors the driver's add-bank overrides
        self.memories: Dict[str, MemoryConfig] = build_memory_configs(
            region.memories, library, state.bank_overrides)
        #: per memory op: (memory name, its port sets); see
        #: :meth:`_try_bind_memory`.
        self._port_sets: Dict[int, Tuple[str, List[List[
            MemoryPortInstance]]]] = {}
        for name, accesses in cache.mem_accesses.items():
            cfg = self.memories[name]
            for op, dynamic in accesses:
                bank = static_bank(op, cfg.banks, dynamic)
                if bank is not None:
                    sets = [[cfg.port_insts[bank][p]]
                            for p in range(cfg.ports)]
                else:
                    sets = [[cfg.port_insts[b][p] for b in range(cfg.banks)]
                            for p in range(cfg.ports)]
                self._port_sets[op.uid] = (name, sets)
        self.netlist = TimingEngine(
            self.dfg, library, clock_ps,
            anticipate_muxes=options.anticipate_muxes,
            statics=cache.statics)
        demand = {key: n for key, n in allocation.demand.items()}
        counts = {key: self.pool.count(*key) for key in demand}
        # RAM address-mux anticipation: more accesses than physical
        # ports means the ports will be shared across states
        for name, cfg in self.memories.items():
            key = (cfg.rtype.family, cfg.rtype.width)
            demand[key] = demand.get(key, 0) + len(
                cache.mem_accesses[name])
            counts[key] = counts.get(key, 0) + cfg.banks * cfg.ports
        self.netlist.set_sharing_outlook(demand, counts)
        self.guard = CombCycleGuard()
        self.windows: List[SCCWindow] = []
        self.mobility: Dict[int, Mobility] = {}
        #: per state, the states a single-state binding there occupies
        #: or must find free (see :func:`_state_class_table`).
        self._eq_single = _state_class_table(latency, self.ii)
        # readiness machinery
        self._unresolved: Dict[int, int] = {}
        self._earliest: Dict[int, int] = {}
        #: root uid -> (consumer uid, min state gap after root completes).
        self._consumers: Dict[int, List[Tuple[int, int]]] = {}
        self._cond_waiters: Dict[int, List[int]] = {}
        self._ready_heap: List[Tuple] = []
        self._in_heap: Set[int] = set()
        self._heights: Dict[int, float] = {}
        #: SCC members force-placed by the timing-blind ablation; their
        #: bindings are accepted even with negative slack.
        self._forced_sccs: Set[int] = set()
        # per-pass memos (all decision-neutral)
        self._window_map: Optional[Dict[int, SCCWindow]] = None
        #: sorted candidate order per compatibility key: ``[log
        #: position, base list, member names, order, grade of each
        #: candidate, first empty member of each grade]``.  Revalidated
        #: against the pool's mutation log -- only mutations of a
        #: group's own members force a re-sort.
        self._cand_cache: Dict[Tuple[OpKind, int], List] = {}
        #: the same entries by op uid.
        self._cand_of: Dict[int, List] = {}
        #: the driver's forbidden pairs per op uid (fixed for the pass).
        self._forbidden: Dict[int, Set[str]] = {}
        for uid, name in state.forbidden:
            self._forbidden.setdefault(uid, set()).add(name)
        #: (broken info, type key) -> the pass's one NEG_SLACK restraint
        #: for that doomed commit; see :meth:`_doom_restraint`.
        self._dooms: Dict[Tuple, Restraint] = {}
        self._n_priority_keys = 0
        #: candidate-walk outcomes of the pass: visits, busy, doomed and
        #: timing-failed candidates, and replayed walks (see
        #: :data:`WALK_COUNTERS`).
        self._walk_counts = [0, 0, 0, 0, 0]
        #: RAM-port bind attempts, and those that found every port set
        #: busy (see :data:`MEM_COUNTERS`).
        self._mem_counts = [0, 0]
        #: walk class -> (kept-commit count, failed walk); see
        #: :meth:`_replay`.
        self._walks: Dict[Tuple, Tuple[int, _FailedWalk]] = {}
        #: ops that cannot join a walk class in this pass: predicated,
        #: banned from an instance or in an SCC window (set once the
        #: windows are known, see :meth:`_run`).
        self._classless: Set[int] = set()

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------
    def _mobility(self) -> Union[Dict[int, Mobility], InfeasibleTiming]:
        """This pass's mobility map, or the InfeasibleTiming its analysis
        raised, via the carryover cache.

        The cache stores the pristine result per (clock, latency,
        speculated set).  Only SCC window clamping and the timing-blind
        anchor ablation write Mobility records, and both run in
        pipelined passes alone: a pipelined pass gets per-op copies, a
        sequential one the cached map itself, which it only reads.
        """
        key = (self.clock_ps, self.latency, frozenset(self.state.speculated))
        cached = self.cache.mobility.get(key)
        if cached is None:
            try:
                cached = compute_mobility(
                    self.region, self.library, self.clock_ps, self.latency,
                    self.state.speculated, asap_memo=self.cache.asap)
                profiling.bump("mobility.compute")
            except InfeasibleTiming as exc:
                # cached without its traceback: the frames would pin
                # this pass (netlist, pool, log) in the carryover cache
                cached = exc.with_traceback(None)
            self.cache.mobility[key] = cached
        else:
            profiling.bump("mobility.cache_hit")
        if isinstance(cached, InfeasibleTiming) or self.pipeline is None:
            return cached
        return {uid: mob.copy() for uid, mob in cached.items()}

    def _prepare(self) -> bool:
        """Mobility + SCC windows; returns False (with restraints) on failure."""
        mobility = self._mobility()
        if isinstance(mobility, InfeasibleTiming):
            uid = mobility.uid if mobility.uid is not None else -1
            self.log.record(Restraint(
                kind=RestraintKind.LATENCY, op_uid=uid,
                state=self.latency - 1, fits_fresh_state=True))
            if uid >= 0:
                self.log.mark_failed(uid)
            return False
        self.mobility = mobility
        if self.pipeline is not None:
            blind_anchor = (not self.options.enable_scc_move
                            and self.options.accept_negative_slack)
            anchor_mobility = self.mobility
            if blind_anchor:
                # timing-blind kernel placement: dependency-only ASAP, the
                # behaviour the Table 4 ablation measures
                anchor_mobility = compute_mobility(
                    self.region, self.library, float("inf"), self.latency,
                    self.state.speculated, asap_memo=self.cache.asap)
            self.windows = find_scc_windows(
                self.region, anchor_mobility, self.pipeline.ii)
            ok = True
            for window in self.windows:
                window.start += self.state.scc_shifts.get(window.index, 0)
                if blind_anchor:
                    for uid in window.ops:
                        mob = self.mobility.get(uid)
                        amob = anchor_mobility.get(uid)
                        if mob is None or amob is None:
                            continue
                        mob.asap = max(amob.asap, window.start)
                        mob.alap = max(mob.asap,
                                       window.end - (mob.cycles - 1))
                        mob.alap = min(mob.alap, window.end)
                        self._forced_sccs.add(uid)
                    continue
                try:
                    apply_windows(self.mobility, [window], self.latency)
                except ValueError:
                    anchor = min(window.ops)
                    self.log.record(Restraint(
                        kind=RestraintKind.SCC_TIMING, op_uid=anchor,
                        state=window.start, scc_index=window.index,
                        fits_fresh_state=True,
                        window_overflow=window.end > self.latency - 1))
                    self.log.mark_failed(anchor)
                    ok = False
            if not ok:
                return False
        return True

    def _build_dependency_maps(self) -> None:
        spec_key = frozenset(self.state.speculated)
        cached = self.cache.depmaps.get(spec_key)
        if cached is not None:
            unresolved, consumers = cached
            # unresolved is decremented as producers bind: copy.
            # consumers is only ever read (never mutated): share.
            self._unresolved = dict(unresolved)
            self._consumers = consumers
            self._earliest = {uid: self.mobility[uid].asap
                              for uid in unresolved}
            profiling.bump("depmaps.cache_hit")
            return
        resolve = self.netlist.resolve_source
        for op in self.dfg.ops:
            if op.is_free:
                continue
            #: root uid -> min state gap after the root completes
            #: (ordering edges carry their dependence-class gap; data
            #: edges use 0, chaining/multicycle rules refine at bind).
            roots: Dict[int, int] = {}
            for edge in self.dfg.in_edges(op.uid):
                if edge.distance >= 1:
                    continue
                root = resolve(edge.src)
                if self.dfg.op(root).is_free:
                    continue
                gap = edge.min_gap if edge.order else 0
                roots[root] = max(roots.get(root, 0), gap)
            conds: Set[int] = set()
            if (not op.predicate.is_true
                    and op.uid not in self.state.speculated):
                conds = {uid for uid in op.predicate.condition_uids()
                         if uid in self.dfg and uid != op.uid
                         and uid not in roots}
            self._unresolved[op.uid] = len(roots) + len(conds)
            for root, gap in roots.items():
                self._consumers.setdefault(root, []).append((op.uid, gap))
            for cond in conds:
                self._consumers.setdefault(cond, []).append((op.uid, 0))
            self._earliest[op.uid] = self.mobility[op.uid].asap
        self.cache.depmaps[spec_key] = (dict(self._unresolved),
                                        self._consumers)
        profiling.bump("depmaps.compute")

    def _push_ready(self, uid: int) -> None:
        if uid in self._in_heap:
            return
        op = self.dfg.op(uid)
        self._n_priority_keys += 1
        tail = self.cache.prio_static.get(uid)
        if tail is None:
            tail = priority_statics(op, self._heights,
                                    self.dfg, self.library)
            self.cache.prio_static[uid] = tail
        key = (self.mobility[uid].mobility,) + tail
        heapq.heappush(self._ready_heap, (self._earliest[uid], key, uid))
        self._in_heap.add(uid)

    def _on_bound(self, uid: int, end_state: int, multicycle: bool) -> None:
        """Release consumers whose producers are now all bound."""
        for cons, gap in self._consumers.get(uid, ()):
            avail = end_state + 1 if multicycle else end_state
            avail = max(avail, end_state + gap)
            self._earliest[cons] = max(self._earliest[cons], avail,
                                       self.mobility[cons].asap)
            self._unresolved[cons] -= 1
            if self._unresolved[cons] == 0:
                self._push_ready(cons)

    # ------------------------------------------------------------------
    # binding
    # ------------------------------------------------------------------
    def _candidates(self, op: Operation) -> Tuple[
            List[ResourceInstance], List[int], List[Optional[ResourceInstance]]]:
        """Compatible instances in walk order: cheapest grade first, and
        within a grade the instances already hosting operations, so
        sharing consolidates and over-allocated instances stay empty
        (they are pruned after the pass succeeds); index breaks ties.

        Returned with the walk's grade table: each candidate's grade
        index (grades numbered in order of first appearance) and each
        grade's first empty candidate, or None.
        """
        log = self.pool._order_log
        epoch = len(log)
        ent = self._cand_of.get(op.uid)
        if ent is None:
            # pool membership is fixed for the whole pass, so the
            # compatibility scan depends only on (kind, width)
            ckey = (op.kind, op.resource_width)
            ent = self._cand_cache.get(ckey)
            if ent is None:
                base = sorted(self.pool.compatible(op),
                              key=lambda i: (i.rtype.area, i.index))
                ent = self._cand_cache[ckey] = [
                    epoch, base, {i.name for i in base}, *_walk_order(base)]
            self._cand_of[op.uid] = ent
        if ent[0] != epoch:
            for name in log[ent[0]:]:
                if name in ent[2] or name == "*":
                    ent[3:] = _walk_order(ent[1])
                    break
            ent[0] = epoch
        order = ent[3]
        if op.uid not in self._forbidden:
            # callers only iterate the returned lists
            return order, ent[4], ent[5]
        # the sort key is a unique total order, so filtering the sorted
        # list equals sorting the filtered list
        banned = self._forbidden[op.uid]
        allowed = [inst for inst in order if inst.name not in banned]
        return (allowed, *_grade_table(allowed))

    def _chain_sources(self, op: Operation, state: int) -> List[str]:
        """Connection-graph names of committed producers chained into
        ``op`` at ``state``.

        Depends only on the committed netlist, never on the candidate
        instance, so one list serves a whole candidate walk (the walk
        restores the netlist between candidates).
        """
        roots = self.cache.chain_roots.get(op.uid)
        if roots is None:
            roots = []
            for edge in self.dfg.in_edges(op.uid):
                if edge.distance >= 1 or edge.order:
                    continue
                root = self.netlist.resolve_source(edge.src)
                producer = self.dfg.op(root)
                if producer.is_free or producer.kind is OpKind.READ:
                    continue
                roots.append((root, producer))
            self.cache.chain_roots[op.uid] = roots
        srcs: List[str] = []
        if roots:
            bound_map = self.netlist._bound
            for root, producer in roots:
                pb = bound_map.get(root)
                if pb is not None and pb.state == state and pb.cycles == 1:
                    srcs.append(_node_name(producer, pb.inst))
        return srcs

    def _chain_edges(self, op: Operation,
                     inst: Optional[ResourceInstance],
                     state: int) -> List[Tuple[str, str]]:
        """Combinational connection edges this binding adds."""
        dst = _node_name(op, inst)
        return [(src, dst) for src in self._chain_sources(op, state)]

    def _check_carried(self, op: Operation, state: int) -> bool:
        """Modulo causality toward already-bound carried neighbours.

        Ordering edges use their dependence-class gap (0 for WAR, 1 for
        RAW/WAW) instead of the data edges' implicit gap of one state,
        and are checked in both directions: a consumer access placed too
        early violates its carried producer just as surely.
        """
        carried = self.cache.carried.get(op.uid)
        if carried is None:
            carried = self.cache.carried[op.uid] = (
                [edge for edge in self.dfg.out_edges(op.uid)
                 if edge.distance >= 1],
                [edge for edge in self.dfg.in_edges(op.uid)
                 if edge.distance >= 1 and edge.order])
        outs, ins = carried
        if not (outs or ins):
            return True
        ii = self.ii if self.ii is not None else self.latency
        for edge in outs:
            cb = self.netlist.binding(edge.dst)
            if cb is None:
                continue
            gap = edge.min_gap if edge.order else 1
            if state > cb.state + edge.distance * ii - gap:
                return False
        for edge in ins:
            pb = self.netlist.binding(edge.src)
            if pb is None:
                continue
            if pb.end_state > state + edge.distance * ii - edge.min_gap:
                return False
        return True

    def _try_bind(self, op: Operation, e: int) -> Tuple[bool, List[Restraint]]:
        """Attempt to bind ``op`` at state ``e``; returns (bound, restraints)."""
        restraints: List[Restraint] = []
        type_key = self._type_key(op)
        if not self._check_carried(op, e):
            window = self._window_of(op.uid)
            if window is not None:
                # a windowed op blocked by modulo causality means the
                # whole SCC sits too early: moving the window (the
                # paper's timing-driven kernel selection) is the fix
                restraints.append(Restraint(
                    kind=RestraintKind.SCC_TIMING, op_uid=op.uid, state=e,
                    scc_index=window.index, fits_fresh_state=False))
            else:
                restraints.append(Restraint(
                    kind=RestraintKind.CARRIED_DEP, op_uid=op.uid, state=e,
                    fits_fresh_state=False))
            return False, restraints

        accept_violation = (
            op.uid in self._forced_sccs
            or (self.options.accept_negative_slack
                and e >= self.mobility[op.uid].alap))

        if op.is_stream and not self._stream_port_free(op, e):
            # the channel endpoint is one physical FIFO port: at most
            # one pop (and one push) per channel per equivalence class
            restraints.append(Restraint(
                kind=RestraintKind.CHAN_PORT, op_uid=op.uid, state=e,
                chan_name=op.payload,
                fits_fresh_state=self.ii is None or self.latency < self.ii))
            return False, restraints

        if op.kind in (OpKind.LOAD, OpKind.STORE):
            return self._try_bind_memory(op, e, restraints)

        if type_key is None:
            timing = self.netlist.evaluate(
                op, None, e, allow_multicycle=False)
            if not timing.ok and not accept_violation:
                restraints.append(self._timing_restraint(
                    op, e, timing,
                    self.netlist.worst_input_arrival(op, e), None))
                return False, restraints
            chain = self._chain_edges(op, None, e)
            if self.guard.would_cycle(chain):
                restraints.append(Restraint(
                    kind=RestraintKind.COMB_CYCLE, op_uid=op.uid, state=e,
                    inst_name=_node_name(op, None)))
                return False, restraints
            self.netlist.commit(op, None, e, timing)
            self.guard.commit(chain)
            self._on_bound(op.uid, e, multicycle=False)
            return True, restraints

        # a failed walk of the op's walk class in this state answers
        # this one when no commit was kept since (see :meth:`_replay`)
        cls = walk = None
        if not accept_violation and op.uid not in self._classless:
            cls, walk = self._replay(op, e, type_key)
        if walk is not None:
            self._tally_walk(walk.visits, walk.busy, walk.doomed,
                             walk.timing_failed)
            restraints = list(walk.restraints)
            restraints.extend(_retargeted(r, op.uid) for r in walk.tail)
            return False, restraints
        candidates, grade_of, firsts = self._candidates(op)
        if not candidates:
            # no instance at all (everything forbidden, or the pool lacks
            # the type): only adding a resource can help
            fresh = self.netlist.evaluate_fresh(op, e)
            restraints.append(Restraint(
                kind=RestraintKind.NO_RESOURCE, op_uid=op.uid, state=e,
                type_key=type_key,
                input_arrival_ps=self.netlist.worst_input_arrival(op, e),
                fresh_instance_fails=not fresh.ok,
                fits_fresh_state=self._fits_fresh_state(op)))
            return False, restraints
        walk = self._walk(op, e, type_key, accept_violation, restraints,
                          candidates, grade_of, firsts)
        if walk is None:
            return True, restraints
        self._tally_walk(walk.visits, walk.busy, walk.doomed,
                         walk.timing_failed)
        if walk.fallback is not None:
            # bind with a timing violation; logic synthesis will pay for it
            inst, timing = walk.fallback
            chain = self._chain_edges(op, inst, e)
            self.netlist.commit(op, inst, e, timing)
            inst.occupy(op, [e])
            self.guard.commit(chain)
            self._on_bound(op.uid, e, multicycle=False)
            return True, restraints
        if cls is not None and not walk.latency:
            netlist = self.netlist
            self._walks[cls] = (netlist.n_commit - netlist.n_rollback,
                                walk._replace(restraints=tuple(restraints)))
        restraints.extend(walk.tail)
        return False, restraints

    def _replay(self, op: Operation, e: int, type_key,
                ) -> Tuple[Optional[Tuple], Optional[_FailedWalk]]:
        """The walk class of binding ``op`` at ``e`` (None when the op
        cannot join one), and the class's stored failed walk when no
        commit was kept since it ran.

        A class is (state, kind, resource width, type key, input ports).
        An op joins only when nothing else about it reaches the walk:
        its predicate is true (busy checks read only the occupants'), it
        has no SCC window and no forbidden pairs (the candidate list and
        the window verdicts are the class's) -- the caller skips the ops
        in ``_classless`` -- and the engine finds its timing and commit
        outcomes generic (:meth:`TimingEngine.generic_ports`).
        Everything a walk reads -- bindings, port sources, occupancy,
        the comb-cycle guard and the commit cache's entries -- changes
        only when a commit is kept: a doomed commit rolls back exactly,
        and a failed walk leaves every doom it met cached.  So while the
        engine's kept-commit count stands, a later walk of the class
        visits the same candidates to the same outcomes and records the
        same interned restraints.  Only the tail restraints name the op;
        the rest of their fields (arrival FF clk->q, the fresh-instance
        and fresh-state verdicts, the best slack) are the class's, so
        the caller copies them for its op (:func:`_retargeted`).
        """
        kind = self.cache.walk_kinds.get(op.uid)
        if kind is None:
            kind = self.cache.walk_kinds[op.uid] = (
                op.kind, op.resource_width, type_key)
        netlist = self.netlist
        ports = netlist.generic_ports(op, e)
        if ports is None:
            return None, None
        cls = (e, kind, ports)
        ent = self._walks.get(cls)
        if ent is None or ent[0] != netlist.n_commit - netlist.n_rollback:
            return cls, None
        self._walk_counts[4] += 1
        return cls, ent[1]

    def _walk(self, op: Operation, e: int, type_key,
              accept_violation: bool, restraints: List[Restraint],
              candidates: List[ResourceInstance], grade_of: List[int],
              firsts: List[Optional[ResourceInstance]],
              ) -> Optional[_FailedWalk]:
        """Visit ``op``'s candidates at ``e`` in walk order and bind it to
        the first that is free, meets timing and breaks no neighbour;
        returns None when it did, else the failed walk.  The restraints
        met in the loop are appended to ``restraints`` either way."""
        busy = visits = doomed = timing_failed = 0
        best_slack: Optional[float] = None
        fallback: Optional[Tuple[ResourceInstance, CandidateTiming]] = None
        # the op's worst raw input arrival feeds the bound-first fanin
        # limits and the tail's restraint payloads.  It reads (never
        # mutates) the netlist, which every read below finds in the
        # state it has here (failed commits are rolled back, a kept one
        # ends the walk), so computing it on first use is bit-exact
        # while skipping it on walks that need neither
        raw: Optional[float] = None
        # loop-invariant lookups hoisted out of the candidate walk: the
        # SCC window depends only on the op, and the equivalence class of
        # a single-cycle binding only on (state, latency, ii)
        window = self._window_of(op.uid)
        single = [e]
        eq_single = self._eq_single[e]
        # identical in-walk failures re-record ONE Restraint object (the
        # log counts repeats); constructing a fresh copy per candidate
        # was pure allocation overhead with the same analysis outcome
        lat_r: Optional[Restraint] = None
        scc_r: Optional[Restraint] = None
        # raw input arrivals are candidate-independent and the netlist
        # is restored between candidates, so one profile serves the walk
        prof = self.netlist.input_profile(op, e)
        # chained-producer names are likewise walk-invariant; only the
        # destination node differs per candidate
        chain_srcs = self._chain_sources(op, e)
        # within one candidate walk, every still-empty instance of one
        # grade is indistinguishable to the timing model (no occupants
        # means no sources and no sharing mux), so evaluate once per
        # grade and reuse the verdict for its empty siblings.  The empty
        # verdict also bounds the occupied siblings: sharing muxes only
        # grow arrivals (mux delay is monotone in fanin; anticipation is
        # a per-grade flag) and the multicycle/chained rescue conditions
        # are grade-invariant, so when the empty sibling fails timing
        # non-rescuably every occupied sibling fails too, with a smaller
        # slack -- skip their evaluations outright.  Only exact when the
        # empty sibling is itself in the walk (it then contributes the
        # grade's dominant best_slack), and never under accept_violation
        # (the fallback choice needs the per-instance timings).
        #
        # Bound-first: an occupied candidate whose conservative
        # single-cycle bound meets the clock provably passes timing with
        # cycles == 1, so everything up to the commit (window, busy,
        # comb-cycle, cached doom) is decided without evaluating it;
        # ``timing`` stays None until a commit needs the numbers.  The
        # bound splits into a per-grade fanin limit and the instance's
        # widest committed port fanin, kept current by the engine.
        #
        # The walk's per-grade table, indexed like ``firsts`` (each
        # grade's first empty member): the empty member's memoized
        # timing, and the fanin limit (None: not yet computed; -1:
        # nothing proven, always under accept_violation).
        empty_timing: List[Optional[CandidateTiming]] = [None] * len(firsts)
        limits = [-1 if accept_violation else None] * len(firsts)
        fanin_of = self.netlist.max_fanin.get
        allow_mc = self.options.allow_multicycle
        # the commit cache's probe for this walk's single-cycle
        # bindings, built on first use
        doom = None
        # a single-state binding never runs past the last state (e <
        # latency), and its window verdict is the walk's
        single_late = window is not None and e > window.end
        for inst, g in zip(candidates, grade_of):
            visits += 1
            if not inst._ops_map:
                timing = empty_timing[g]
                if timing is None:
                    timing = empty_timing[g] = self.netlist.evaluate(
                        op, inst, e, allow_multicycle=allow_mc,
                        profile=prof)
            else:
                limit = limits[g]
                if limit is None:
                    # a pure function of the op, the grade and the
                    # walk's raw arrival: computed on first use
                    if raw is None:
                        raw = self.netlist.worst_input_arrival(op, e)
                    limit = limits[g] = self.netlist.single_cycle_bound(
                        op, inst.rtype, raw)
                if fanin_of(inst.name, 0) <= limit:
                    timing = None
                else:
                    if firsts[g] is not None and not accept_violation:
                        base = empty_timing[g]
                        if base is None:
                            base = empty_timing[g] = self.netlist.evaluate(
                                op, firsts[g], e, allow_multicycle=allow_mc,
                                profile=prof)
                        if not base.ok:
                            timing_failed += 1
                            continue
                    timing = self.netlist.evaluate(
                        op, inst, e, allow_multicycle=allow_mc,
                        profile=prof)
            if timing is not None and not timing.ok:
                timing_failed += 1
                if best_slack is None or timing.slack_ps > best_slack:
                    best_slack = timing.slack_ps
                if accept_violation:
                    if inst.is_free(op, eq_single) \
                            and not self.guard.would_cycle(
                                self._chain_edges(op, inst, e)):
                        if (fallback is None
                                or timing.slack_ps > fallback[1].slack_ps):
                            fallback = (inst, timing)
                continue
            if timing is None or timing.cycles == 1:
                needed = single
                eq_states = eq_single
                late = single_late
            else:
                needed = list(range(e, e + timing.cycles))
                eq_states = None
                if needed[-1] > self.latency - 1:
                    if lat_r is None:
                        lat_r = Restraint(
                            kind=RestraintKind.LATENCY, op_uid=op.uid,
                            state=e, type_key=type_key,
                            fits_fresh_state=True)
                    restraints.append(lat_r)
                    continue
                late = window is not None and needed[-1] > window.end
            if late:
                if scc_r is None:
                    scc_r = Restraint(
                        kind=RestraintKind.SCC_TIMING, op_uid=op.uid,
                        state=e, scc_index=window.index,
                        fits_fresh_state=True)
                restraints.append(scc_r)
                continue
            if eq_states is None:
                eq_states = self._eq_states(needed)
            # inlined ResourceInstance.is_free (keep in sync): one call
            # per candidate, a million times per heavy design
            occ = inst._occupancy
            if occ:
                pred = op.predicate
                free = True
                for s in eq_states:
                    others = occ.get(s)
                    if others:
                        for other in others:
                            if not pred.disjoint(other.predicate):
                                free = False
                                break
                        if not free:
                            break
                if not free:
                    busy += 1
                    continue
            if chain_srcs:
                dst_name = _node_name(op, inst)
                chain = [(src, dst_name) for src in chain_srcs]
            else:
                chain = ()
            if chain and self.guard.would_cycle(chain):
                restraints.append(Restraint(
                    kind=RestraintKind.COMB_CYCLE, op_uid=op.uid, state=e,
                    type_key=type_key, inst_name=inst.name))
                continue
            # the commit re-times every binding the new sharing mux (or
            # chain) disturbs; rolled back (inside try_commit, which also
            # memoizes the doomed outcomes) if a neighbour's path breaks.
            # A bound-first candidate probes that memo before paying for
            # its evaluation: a known doom needs no timing numbers
            broken_info = None
            if doom is None and (timing is None or timing.cycles == 1):
                doom = self.netlist.doom_probe(op, e)
            if timing is None:
                _key, broken_info = doom(inst)
                if broken_info is None:
                    timing = self.netlist.evaluate(
                        op, inst, e, allow_multicycle=allow_mc,
                        profile=prof)
            if broken_info is None:
                _result, broken_info = self.netlist.try_commit(
                    op, inst, e, timing,
                    doom if timing.cycles == 1 else None)
            if broken_info is not None:
                restraints.append(
                    self._doom_restraint(broken_info, type_key))
                doomed += 1
                continue
            inst.occupy(op, needed)
            self.guard.commit(chain)
            self._on_bound(op.uid, needed[-1], multicycle=timing.cycles > 1)
            self._tally_walk(visits, busy, doomed, timing_failed)
            return None

        # the restraints the failed walk adds for the op after its loop
        tail: List[Restraint] = []
        if fallback is None and (busy or best_slack is not None):
            if raw is None:
                raw = self.netlist.worst_input_arrival(op, e)
            if busy:
                fresh = self.netlist.evaluate_fresh(op, e)
                tail.append(Restraint(
                    kind=RestraintKind.NO_RESOURCE, op_uid=op.uid, state=e,
                    type_key=type_key,
                    input_arrival_ps=raw,
                    fresh_instance_fails=not fresh.ok,
                    fits_fresh_state=self._fits_fresh_state(op)))
            if best_slack is not None:
                dummy = CandidateTiming(False, 0.0, 0.0, best_slack)
                tail.append(self._timing_restraint(
                    op, e, dummy, raw, type_key))
        return _FailedWalk(restraints, visits, busy, doomed, timing_failed,
                           best_slack, fallback, lat_r is not None,
                           tuple(tail))

    def _tally_walk(self, visits: int, busy: int, doomed: int,
                    timing_failed: int) -> None:
        """Add one candidate walk's outcome counts to the pass's."""
        counts = self._walk_counts
        counts[0] += visits
        counts[1] += busy
        counts[2] += doomed
        counts[3] += timing_failed

    def _stream_port_free(self, op: Operation, e: int) -> bool:
        """Whether ``op``'s channel port is free at state ``e``.

        A FIFO exposes one read and one write port; accesses of the same
        direction on one channel serialize across (equivalence classes
        of) states.  Predicate-disjoint accesses may share the port --
        only one of them executes per iteration.
        """
        eq = self._eq_single[e]
        for other in self.region.channel_accesses(op.payload, op.kind):
            if other.uid == op.uid:
                continue
            ob = self.netlist.binding(other.uid)
            if ob is None:
                continue
            if ob.state in eq and not op.predicate.disjoint(other.predicate):
                return False
        return True

    def _eq_states(self, needed: List[int]) -> Sequence[int]:
        """States a binding on ``needed`` must find free: ``needed``
        itself in a sequential pass, plus every equivalent state in a
        pipelined one."""
        if self.ii is None:
            return needed
        return _equivalent_states(tuple(needed), self.latency, self.ii)

    def _try_bind_memory(self, op: Operation, e: int,
                         restraints: List[Restraint]
                         ) -> Tuple[bool, List[Restraint]]:
        """Bind a LOAD/STORE to a RAM port of its memory at state ``e``.

        RAM ports are shared instances: at most P accesses per bank per
        state (P = ports per bank), honoring pipelining's equivalent
        edges.  A static-bank access claims one port of its bank; a
        dynamic access may address any bank, so it conservatively
        reserves the same port index on *every* bank.  Timing (address
        mux + array access + read-data capture) is charged through the
        incremental engine against the primary port instance.
        """
        mem, port_sets = self._port_sets[op.uid]
        cfg = self.memories[mem]
        netlist = self.netlist
        counts = self._mem_counts
        counts[0] += 1
        window = self._window_of(op.uid)
        busy = 0
        best_slack: Optional[float] = None
        for insts in port_sets:
            primary = insts[0]
            timing = netlist.evaluate(
                op, primary, e, allow_multicycle=False)
            if not timing.ok:
                if best_slack is None or timing.slack_ps > best_slack:
                    best_slack = timing.slack_ps
                continue
            needed = list(range(e, e + timing.cycles))
            if needed[-1] > self.latency - 1:
                restraints.append(Restraint(
                    kind=RestraintKind.LATENCY, op_uid=op.uid, state=e,
                    fits_fresh_state=True))
                continue
            if window is not None and needed[-1] > window.end:
                restraints.append(Restraint(
                    kind=RestraintKind.SCC_TIMING, op_uid=op.uid, state=e,
                    scc_index=window.index, fits_fresh_state=True))
                continue
            eq_states = self._eq_states(needed)
            if not all(inst.is_free(op, eq_states) for inst in insts):
                busy += 1
                continue
            chain = self._chain_edges(op, primary, e)
            if self.guard.would_cycle(chain):
                restraints.append(Restraint(
                    kind=RestraintKind.COMB_CYCLE, op_uid=op.uid, state=e,
                    inst_name=primary.name))
                continue
            _result, broken_info = netlist.try_commit(op, primary, e, timing)
            if broken_info is not None:
                restraints.append(self._doom_restraint(broken_info, None))
                continue
            for inst in insts:
                inst.occupy(op, needed)
            self.guard.commit(chain)
            self._on_bound(op.uid, needed[-1],
                           multicycle=timing.cycles > 1)
            return True, restraints

        # a new state only provides fresh port slots while it grows the
        # set of equivalence classes (sequential always; pipelined only
        # below II states) -- mirrored by the add-state action
        fresh_state_helps = self.ii is None or self.latency < self.ii
        if busy:
            counts[1] += 1
            restraints.append(Restraint(
                kind=RestraintKind.MEM_PORT, op_uid=op.uid, state=e,
                mem_name=mem, fits_fresh_state=fresh_state_helps))
        if best_slack is not None:
            budget = self.clock_ps * max(cfg.rtype.access_cycles, 1)
            restraints.append(Restraint(
                kind=RestraintKind.NEG_SLACK, op_uid=op.uid, state=e,
                slack_ps=best_slack,
                input_arrival_ps=netlist.worst_input_arrival(op, e),
                fresh_instance_fails=True,
                fits_fresh_state=registered_path_ps(
                    self.library, cfg.rtype) <= budget))
        return False, restraints

    def _doom_restraint(self, broken_info: Tuple,
                        type_key) -> Restraint:
        """The restraint a doomed commit records: the neighbour it breaks.

        Interned per pass: every doom with an equal payload re-records
        one object, which the log counts instead of storing a copy.
        ``analyze`` sees the same thing either way -- its folds are
        idempotent, a group's weight depends only on its record count,
        and the first record of a payload still creates the object.
        Pass-scoped because ``analyze`` mutates the objects it merges.
        """
        key = (broken_info, type_key)
        r = self._dooms.get(key)
        if r is None:
            uid, state, slack, arrival = broken_info
            r = self._dooms[key] = Restraint(
                kind=RestraintKind.NEG_SLACK, op_uid=uid, state=state,
                type_key=type_key, slack_ps=slack, input_arrival_ps=arrival)
        return r

    def _timing_restraint(self, op: Operation, e: int,
                          timing: CandidateTiming, arrival: float,
                          type_key) -> Restraint:
        window = self._window_of(op.uid)
        kind = RestraintKind.NEG_SLACK
        if window is not None:
            # the paper distinguishes SCC timing failures from ordinary
            # negative slack so the move-SCC action can be suggested
            kind = RestraintKind.SCC_TIMING
        return Restraint(
            kind=kind, op_uid=op.uid, state=e, type_key=type_key,
            slack_ps=timing.slack_ps,
            scc_index=window.index if window else None,
            input_arrival_ps=arrival,
            fresh_instance_fails=not self.netlist.evaluate_fresh(op, e).ok,
            fits_fresh_state=self._fits_fresh_state(op))

    def _window_of(self, uid: int) -> Optional[SCCWindow]:
        """SCC window containing ``uid`` (first in list order), if any."""
        if self._window_map is None:
            wmap: Dict[int, SCCWindow] = {}
            for window in self.windows:
                for wuid in window.ops:
                    if wuid not in wmap:
                        wmap[wuid] = window
            self._window_map = wmap
        return self._window_map.get(uid)

    def _type_key(self, op: Operation):
        """Memoized :func:`type_key_for` (pure in kind/width/library)."""
        try:
            return self.cache.type_keys[op.uid]
        except KeyError:
            key = type_key_for(op, self.library)
            self.cache.type_keys[op.uid] = key
            return key

    def _fits_fresh_state(self, op: Operation) -> bool:
        """Would the op fit a state where all its inputs are registered?

        Memory accesses depend on the pass's banking configuration; for
        everything else the verdict is a pure function of library, clock
        and options, so it carries over between passes.
        """
        if not op.is_memory:
            key = (self.clock_ps, op.uid)
            cached = self.cache.fits_fresh.get(key)
            if cached is None:
                cached = self._fits_fresh_state_impl(op)
                self.cache.fits_fresh[key] = cached
            return cached
        return self._fits_fresh_state_impl(op)

    def _fits_fresh_state_impl(self, op: Operation) -> bool:
        lib = self.library
        if op.is_free or op.is_io or op.is_mux or op.kind is OpKind.STALL:
            return True
        if op.is_memory:
            rtype = self.memories[op.payload].rtype
            budget = self.clock_ps * max(rtype.access_cycles, 1)
            return registered_path_ps(lib, rtype) <= budget
        families = lib.families_for(op.kind)
        if not families:
            return False
        rtype = lib.resource_type(families[0], op.resource_width)
        if registered_path_ps(lib, rtype) <= self.clock_ps:
            return True
        return rtype.multicycle_ok and self.options.allow_multicycle

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def run(self) -> PassOutcome:
        """Execute the pass; restraints accumulate in ``self.log``."""
        try:
            return self._run()
        finally:
            profiling.bump("pass.count")
            profiling.bump("engine.evaluate", self.netlist.n_evaluate)
            profiling.bump("engine.commit", self.netlist.n_commit)
            profiling.bump("engine.rollback", self.netlist.n_rollback)
            profiling.bump("engine.propagated", self.netlist.n_propagated)
            profiling.bump("engine.commit_cache_hit",
                           self.netlist.n_cache_hits)
            profiling.bump("engine.commit_cache_miss",
                           self.netlist.n_cache_misses)
            profiling.bump("scheduler.priority_keys", self._n_priority_keys)
            for key, n in zip(WALK_COUNTERS, self._walk_counts):
                profiling.bump(key, n)
            for key, n in zip(MEM_COUNTERS, self._mem_counts):
                profiling.bump(key, n)

    def _run(self) -> PassOutcome:
        if not self._prepare():
            return PassOutcome(False, self.netlist, self.pool,
                               self.windows, self.mobility, self.log)
        if self.cache.heights is None:
            self.cache.heights = compute_heights(self.dfg, self.library)
        self._heights = self.cache.heights
        self._classless = self.cache.predicated.union(
            self._forbidden, *(window.ops for window in self.windows))
        self._build_dependency_maps()
        for uid, count in self._unresolved.items():
            if count == 0:
                self._push_ready(uid)

        bound: Set[int] = set()
        schedulable = {op.uid for op in self.region.schedulable_ops()}
        deferred: List[Tuple] = []
        for e in range(self.latency):
            for item in deferred:
                heapq.heappush(self._ready_heap, item)
                self._in_heap.add(item[2])
            deferred = []
            attempted: Set[int] = set()
            while self._ready_heap:
                avail, key, uid = heapq.heappop(self._ready_heap)
                self._in_heap.discard(uid)
                if uid in bound or uid in self.log.failed_ops:
                    continue
                if avail > e:
                    deferred.append((avail, key, uid))
                    continue
                if uid in attempted:
                    deferred.append((avail, key, uid))
                    continue
                op = self.dfg.op(uid)
                mob = self.mobility[uid]
                if op.pinned_state is not None and e != op.pinned_state:
                    if e < op.pinned_state:
                        deferred.append((op.pinned_state, key, uid))
                        continue
                    self.log.mark_failed(uid)
                    self.log.record(Restraint(
                        kind=RestraintKind.LATENCY, op_uid=uid, state=e))
                    continue
                ok, restraints = self._try_bind(op, e)
                self.log.record_many(restraints)
                if ok:
                    bound.add(uid)
                    continue
                attempted.add(uid)
                if e >= mob.alap:
                    # "if op_best failed and e is last in lifespan"
                    self.log.mark_failed(uid)
                    if not op.predicate.is_true and uid not in self.state.speculated:
                        self.log.record(Restraint(
                            kind=RestraintKind.PREDICATE_ORDER, op_uid=uid,
                            state=e, cond_uid=next(
                                iter(op.predicate.condition_uids()), None)))
                else:
                    deferred.append((avail, key, uid))

        for uid in sorted(schedulable - bound - self.log.failed_ops):
            self.log.mark_failed(uid)
            self.log.record(Restraint(
                kind=RestraintKind.LATENCY, op_uid=uid,
                state=self.latency - 1, fits_fresh_state=True))
        success = not self.log.has_failures and schedulable <= bound
        return PassOutcome(success, self.netlist, self.pool,
                           self.windows, self.mobility, self.log)


def _ffwd_replays(batch, pool, netlist) -> float:
    """How many future passes provably replay the observed failed pass.

    Called when the observed pass replays its predecessor (equal driver
    fingerprints) and ``batch`` is about to be applied.  Returns 0 when
    no replay is provable and ``math.inf`` when every future pass is a
    replay.  Sound only for pure ``add_resource`` batches: every other
    action family mutates monotone driver state (forbidden pairs,
    speculation, SCC shifts, bank overrides, latency) that feeds back
    into the next proposal.  For resource additions:

    - at least one instance of each added type stayed empty through the
      whole observed pass, so the binder never needed instances beyond
      the ones both passes shared, and further empty siblings are
      invisible to the candidate walk (the same empty-sibling argument
      as the walk's per-grade verdict reuse);
    - the one timing input that reads the pool *size* is the engine's
      anticipation flag, ``demand > count`` per type key
      (``TimingEngine._anticipated``, memory-port adjustments
      included).  With count ``c``, demand ``d`` and ``a`` instances
      added per batch, the flag keeps its value for the next
      ``ceil((d - c) / a) - 1`` passes and flips on the one after; when
      ``d <= c`` it never flips;
    - ``add_state``'s jump reads the outlook count too, but it never
      enters a pure ``add_resource`` batch, and the fingerprint holds
      only its name, cost and solved weight, none of which read the
      count.
    """
    added: Dict[Tuple[str, int], int] = {}
    for action in batch:
        rt = action.rtype
        if rt is None:  # not an add_resource action
            return 0
        if not any(inst.rtype.name == rt.name and not inst.ops_bound()
                   for inst in pool.instances):
            return 0
        key = (rt.family, rt.width)
        added[key] = added.get(key, 0) + action.count
    demand = netlist._type_demand
    counts = netlist._type_count
    replays = math.inf
    for key, n in added.items():
        gap = demand.get(key, 0) - counts.get(key, 1)
        if gap > 0:
            replays = min(replays, -(-gap // n) - 1)
    return replays


#: outcomes of the bind-walk's candidate visits, summed per pass: every
#: visit, and the visits that ended busy, doomed (the commit would break
#: a neighbour's path) or failing timing; then the failed walks answered
#: by a replay (their visits count as if walked).
WALK_COUNTERS = ("scheduler.walk_visits", "scheduler.walk_busy",
                 "scheduler.walk_doomed", "scheduler.walk_timing_failed",
                 "scheduler.walk_replays")

#: RAM-port bind attempts summed per pass: every attempt, and the
#: attempts that found a port set busy (each records one MEM_PORT
#: restraint).
MEM_COUNTERS = ("scheduler.mem_walks", "scheduler.mem_port_busy")

#: counters whose per-pass deltas annotate ``scheduler.pass`` spans.
#: Timing-engine commits and candidate visits stay aggregated at pass
#: granularity on purpose: per-commit spans would blow the tracing
#: overhead budget (try_commit runs orders of magnitude more often than
#: passes).
_SPAN_COUNTERS = ("engine.evaluate", "engine.commit",
                  "engine.rollback", "engine.commit_cache_hit",
                  "engine.commit_cache_miss") + WALK_COUNTERS + MEM_COUNTERS


def schedule_region(
    region: Region,
    library: Library,
    clock_ps: float,
    pipeline: Optional[PipelineSpec] = None,
    options: Optional[SchedulerOptions] = None,
    carryover: Optional[_RegionCache] = None,
    tracer: Optional[Tracer] = None,
) -> Schedule:
    """Schedule and bind a region; the paper's full iterative flow.

    Raises :class:`~repro.core.schedule.ScheduleError` when the design is
    overconstrained and no relaxation action remains.

    ``carryover`` is the sweep engine's cross-point hook: a
    :class:`_RegionCache` built for this exact region + library that
    outlives the call, letting design points that share the region
    structure reuse timing statics, heights, priority orders and
    clock-keyed mobility skeletons.  Every cached entry is
    decision-neutral, so results are bit-identical with or without it.

    ``tracer`` records one ``scheduler.pass`` span per relaxation pass
    (success flag, engine counter deltas, dominant restraint kind and
    slack, the chosen action) -- observation only, never steering: a
    traced run's decisions are bit-identical to an untraced one, which
    the equivalence suite pins.
    """
    options = options or SchedulerOptions()
    region.validate()
    if pipeline is not None and not region.is_loop:
        raise ScheduleError(f"{region.name}: cannot pipeline a non-loop")
    min_latency = region.min_latency
    if pipeline is not None:
        # "exploration often starts from LI = II + 1 (the minimum for
        # pipelined execution)" -- section V
        min_latency = max(min_latency, pipeline.ii + 1)
    if min_latency > region.max_latency:
        raise ScheduleError(
            f"{region.name}: latency bound {region.max_latency} below "
            f"minimum {min_latency}")

    cache = carryover or _RegionCache(region, library)
    try:
        alloc_mobility = compute_mobility(
            region, library, clock_ps, region.max_latency,
            asap_memo=cache.asap)
    except InfeasibleTiming as exc:
        raise ScheduleError(
            f"{region.name}: infeasible even at max latency: {exc}") from exc
    allocation = lower_bound(
        region, library, alloc_mobility, region.max_latency,
        pipeline.ii if pipeline else None)

    state = DriverState(latency=min_latency)
    outcome: Optional[PassOutcome] = None
    prev_fp = None
    pass_no = 0
    while pass_no < options.max_passes:
        pass_no += 1
        with maybe_span(tracer, "scheduler.pass", pass_no=pass_no,
                        region=region.name,
                        latency=state.latency) as pspan:
            if pspan is not None:
                eng_before = {key: profiling.counters.get(key, 0)
                              for key in _SPAN_COUNTERS}
            pass_run = _Pass(region, library, clock_ps, state.latency,
                             pipeline, allocation, state, options,
                             cache=cache)
            outcome = pass_run.run()
            if pspan is not None:
                pspan.set("success", outcome.success)
                for key in _SPAN_COUNTERS:
                    pspan.set(key.replace(".", "_"),
                              profiling.counters.get(key, 0)
                              - eng_before[key])
            if outcome.success:
                # prune instances the binder never used (batched
                # resource additions may overshoot; unused copies cost
                # only area)
                for inst in list(outcome.pool.instances):
                    if not inst.ops_bound():
                        outcome.pool.remove(inst)
                schedule = Schedule(
                    region=region,
                    library=library,
                    clock_ps=clock_ps,
                    latency=state.latency,
                    pipeline=pipeline,
                    bindings=outcome.netlist.bindings,
                    pool=outcome.pool,
                    netlist=outcome.netlist,
                    scc_windows=outcome.windows,
                    passes=pass_no,
                    actions_taken=list(state.history),
                    speculated=frozenset(state.speculated),
                    memories=pass_run.memories,
                )
                problems = schedule.validate(
                    allow_negative_slack=options.accept_negative_slack)
                if problems:
                    raise ScheduleError(
                        f"{region.name}: internal validation failed",
                        problems)
                return schedule
            analyzed = outcome.log.analyze(region.dfg)
            outlook = {key: (demand, outcome.pool.count(*key))
                       for key, demand in allocation.demand.items()}
            if pspan is not None and analyzed:
                # the dominant (highest-weight) restraint drives the
                # relaxation choice; its slack is the admission margin
                # the failed binding missed by
                top = analyzed[0]
                pspan.set("restraint_kind", top.kind.value)
                pspan.set("restraint_weight", top.weight)
                if top.slack_ps is not None:
                    pspan.set("slack_ps", top.slack_ps)
                kinds: Dict[str, int] = {}
                for r in analyzed:
                    kinds[r.kind.value] = kinds.get(r.kind.value, 0) + 1
                pspan.set("restraints", kinds)
            actions = propose_actions(
                region, library, clock_ps, analyzed, state, pipeline,
                enable_scc_move=options.enable_scc_move,
                allow_banking=options.allow_banking,
                resource_outlook=outlook,
                memory_accesses=cache.mem_accesses)
            if not actions:
                if pspan is not None:
                    pspan.set("action", None)
                    pspan.set("action_outcome", "overconstrained")
                diagnostics = [
                    f"{r.kind.value}: op "
                    f"{region.dfg.op(r.op_uid).name} at "
                    f"s{r.state + 1} (weight {r.weight:.1f})"
                    for r in analyzed[:10] if r.op_uid in region.dfg
                ]
                raise ScheduleError(
                    f"{region.name}: overconstrained, no relaxation "
                    f"action after pass {pass_no}", diagnostics)
            if pspan is not None:
                pspan.set("action", actions[0].name)
                pspan.set("action_gain", actions[0].gain)
                pspan.set("action_outcome", "accepted")
            # relaxation fixpoint fast-forward: when this failed pass
            # is an exact replay of the previous one (same analyzed
            # restraints, same scored actions) and the batch about to
            # be applied provably leaves the next ``replays`` passes
            # replays too, apply their batches without running them.
            # Up to the budget this synthesizes the budget-exhausted
            # tail; short of it, the driver resumes cold at the pass
            # where the sharing outlook flips.  Death-spiral points
            # (the dominant cost of infeasible sweeps) collapse to the
            # passes that actually differ.  Outcomes (schedule or error
            # message, diagnostics, history, pass count) are exactly
            # those of running every pass.
            fp = driver_fingerprint(analyzed, actions)
            if fp == prev_fp:
                replays = _ffwd_replays(applied_actions(actions),
                                        outcome.pool, outcome.netlist)
                if replays:
                    skipped = min(replays, options.max_passes - pass_no)
                    profiling.bump("scheduler.ffwd")
                    profiling.bump("scheduler.ffwd_passes", skipped)
                    if pspan is not None:
                        pspan.set("ffwd", "accepted")
                        pspan.set("ffwd_passes", skipped)
                    for _ in range(skipped):
                        apply_action_batch(actions, state)
                    pass_no += skipped
                else:
                    # an exact replay whose very next pass could
                    # differ: stay on the cold path (and count it,
                    # so sweep reports can show accepted vs
                    # rejected fixpoints)
                    profiling.bump("scheduler.ffwd_reject")
                    if pspan is not None:
                        pspan.set("ffwd", "rejected")
            prev_fp = fp
            # apply the winning action plus the batch of independent
            # secondary actions (resource additions for other types,
            # binding prohibitions, speculations): they interact with
            # neither the winner nor each other, so applying them
            # together saves whole scheduling passes on large designs
            apply_action_batch(actions, state)
    raise ScheduleError(
        f"{region.name}: pass budget ({options.max_passes}) exhausted",
        state.history)

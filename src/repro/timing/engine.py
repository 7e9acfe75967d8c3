"""The incremental timing engine: the single source of truth for path delay.

Every consumer of datapath timing -- scheduler candidate admission,
``Schedule.validate``/``timing_report``, sign-off STA, post-schedule
retiming and negative-slack compensation -- routes through this module,
so a binding admitted during scheduling carries exactly the slack the
final sign-off recomputes.  The delay model is the paper's (section
IV.B)::

    FF clk->q + [input sharing mux] + resource delay (chained)
              + [register sharing mux at the FF input] + FF setup

which reproduces the worked examples: 1230 ps for a registered multiply,
1580 ps for a mul+add chain, 1800 ps (slack -200 at Tclk 1600) once a
comparison is chained on top.

Two properties distinguish the engine from a pair of hand-maintained
delay models (the historical design this module replaced):

* **Arrivals are kept current.**  Committing a binding re-propagates
  arrival times through a dirty set: any committed operation whose
  sharing-mux fanin the new binding grows -- including the 1 -> 2 mux
  birth that the old admission check missed -- and any committed
  same-state consumer the new producer now chains into, is re-timed in
  topological order, and the refreshed numbers are written back into its
  :class:`BoundOp`.  The scheduler inspects the returned
  :class:`CommitResult` and rolls back bindings that push a neighbour's
  path past its budget, so negative-slack chains can never survive to
  sign-off.  A rollback restores every number the commit changed,
  shrinking muxes back.
* **Hot lookups are memoized.**  Source resolution through free wiring
  ops, per-operation input-edge tuples, mux-tree delays and
  fastest-grade probes are all cached; candidate evaluation is the
  innermost loop of every scheduling pass, and these queries dominate
  its profile.

Sharing muxes are *anticipatory*: an input mux is modeled as soon as
more compatible operations exist than allocated instances, even before
a second operation actually shares the port ("resource mul is
instantiated with muxes at its inputs; this improves timing estimation
when resources are shared", section IV.B).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.cdfg.dfg import DFG
from repro.cdfg.ops import Operation, OpKind
from repro.tech.library import Library, ResourceType
from repro.tech.resources import ResourceInstance

#: Version of the delay model implemented by this module.  Participates
#: in the :mod:`repro.flow.cache` compilation fingerprint so cached
#: schedules computed under an older model are invalidated, not reused.
TIMING_MODEL_VERSION = 2

#: Slack comparisons tolerance (ps).
EPS = 1e-9

_FREE_KINDS = (OpKind.SLICE, OpKind.ZEXT, OpKind.SEXT, OpKind.MOVE)

#: a doom probe's verdict for a binding that bypasses the commit cache.
_NO_DOOM: Tuple[None, None] = (None, None)


def _no_doom(inst: ResourceInstance) -> Tuple[None, None]:
    """The doom probe of bindings that all bypass the commit cache."""
    return _NO_DOOM


@dataclass(slots=True)
class CandidateTiming:
    """Outcome of evaluating one candidate binding.

    Treated as immutable by convention; not ``frozen=True`` because the
    scheduler constructs one per candidate evaluation (hundreds of
    thousands per pass) and a frozen dataclass pays
    ``object.__setattr__`` per field.
    """

    ok: bool
    out_arrival_ps: float
    capture_ps: float
    slack_ps: float
    cycles: int = 1


@dataclass(slots=True)
class BoundOp:
    """A committed binding of an operation.

    ``out_arrival_ps``/``capture_ps`` are maintained by the engine's
    incremental re-propagation: they always reflect the *current*
    netlist, not the netlist at admission time.  ``waived`` marks
    bindings accepted despite a timing violation (the
    ``accept_negative_slack`` ablation); re-propagation never reports
    them as newly broken.
    """

    op: Operation
    inst: Optional[ResourceInstance]  # None for free/IO/stall operations
    state: int
    cycles: int
    out_arrival_ps: float
    capture_ps: float
    waived: bool = False

    @property
    def end_state(self) -> int:
        """Last state occupied (multi-cycle operations span several)."""
        return self.state + self.cycles - 1


@dataclass(slots=True)
class CommitResult:
    """What a :meth:`TimingEngine.commit` changed.

    ``bound`` is the new binding; ``undo_timing`` records every *other*
    committed binding whose arrival the commit altered (sharing-mux
    growth or new combinational chaining, already updated in place)
    together with its previous numbers, and ``undo_sources`` the port
    sources added -- exactly what :meth:`TimingEngine.rollback` reverts
    to reject the commit in O(changed) instead of rebuilding the
    instance's sharing state.

    Treated as immutable by convention, like :class:`CandidateTiming`:
    every commit builds one, and a frozen dataclass would pay
    ``object.__setattr__`` per field.
    """

    bound: BoundOp
    #: (port-source key, root) pairs this commit added.
    undo_sources: Tuple[Tuple[Tuple[str, int], int], ...] = ()
    #: (binding, previous out arrival, previous capture) per re-timed op.
    undo_timing: Tuple[Tuple[BoundOp, float, float], ...] = ()
    #: whether a sharing-mux delay of the new binding's instance changed,
    #: which re-examines every op the instance hosts.
    mux_grew: bool = False

    @property
    def retimed(self) -> Tuple[BoundOp, ...]:
        """The other committed bindings this commit re-timed."""
        return tuple(b for b, _out, _capture in self.undo_timing)

    def broken(self, clock_ps: float) -> Optional[BoundOp]:
        """The worst re-timed binding pushed past its budget, if any."""
        worst: Optional[BoundOp] = None
        worst_slack = -EPS
        for b, _out, _capture in self.undo_timing:
            if b.waived:
                continue
            slack = b.cycles * clock_ps - b.capture_ps
            if slack < worst_slack:
                worst, worst_slack = b, slack
        return worst


def registered_path_ps(library: Library, rtype: ResourceType) -> float:
    """The canonical registered-to-registered path through one resource.

    clk->q + input sharing mux + resource + register sharing mux + setup;
    the feasibility probe used by mobility analysis and the scheduler's
    fresh-state check.
    """
    return (library.ff.clk_to_q_ps + library.mux.delay2_ps + rtype.delay_ps
            + library.mux.delay2_ps + library.ff.setup_ps)


class TimingStatics:
    """The scheduling-state-independent half of the timing model.

    Everything here is a pure memo over ``(dfg, library)``: flattened
    input-edge info, free-wiring source resolution, chaining fanout,
    per-op capture overhead, mux-delay and fastest-grade tables, and the
    topological index.  One instance is legally shared by every
    :class:`TimingEngine` built over the same region -- the relaxation
    driver runs dozens to hundreds of passes per schedule, and
    re-deriving this structure per pass used to be pure waste.
    """

    def __init__(self, dfg: DFG, library: Library) -> None:
        self.dfg = dfg
        self.library = library
        self._ff_clk_q = library.ff.clk_to_q_ps
        self._ff_setup = library.ff.setup_ps
        self._mux2 = library.mux.delay2_ps
        self.mux_delay: Dict[int, float] = {}
        self.resolved: Dict[int, int] = {}
        #: per-op flattened inputs: (port, root uid, static arrival) tuples.
        self.in_info: Dict[int, Tuple[Tuple[int, int, Optional[float]], ...]] = {}
        self.fresh: Dict[Tuple[OpKind, int], Optional[ResourceType]] = {}
        #: per-op (is_mux, capture overhead) -- both static per operation.
        self.op_flags: Dict[int, Tuple[bool, float]] = {}
        #: static chaining fanout: root uid -> uids that read it at distance 0.
        self.chain_consumers: Dict[int, Tuple[int, ...]] = {}
        #: the part of ``chain_consumers`` a same-state producer actually
        #: chains into: port reads and other I/O launch registered.
        self.chain_out: Dict[int, Tuple[int, ...]] = {}
        #: per-op input ports for :meth:`TimingEngine.generic_ports`,
        #: built on first use; see :meth:`port_key`.
        self.port_keys: Dict[int, Optional[Tuple[int, ...]]] = {}
        self._port_tuples: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
        self._topo_index: Optional[Dict[int, int]] = None
        self._mux_steps: Optional[List[Tuple[int, float]]] = None
        self._build()

    def _build(self) -> None:
        dfg = self.dfg
        consumers: Dict[int, List[int]] = {}
        for op in dfg.ops:
            self.in_info[op.uid] = self._flatten(op.uid)
            for edge in dfg.in_edges(op.uid):
                if edge.distance == 0 and not edge.order:
                    consumers.setdefault(
                        self.resolve_source(edge.src), []).append(op.uid)
        self.chain_consumers = {root: tuple(uids)
                                for root, uids in consumers.items()}
        for root, uids in self.chain_consumers.items():
            producer = dfg.op(root)
            if producer.kind is not OpKind.READ and not producer.is_io:
                self.chain_out[root] = uids
        for op in dfg.ops:
            self.op_flags[op.uid] = (op.is_mux, self.capture_overhead(op))

    def resolve_source(self, uid: int) -> int:
        """Follow free wiring ops (slice/zext/move) back to the producer."""
        root = self.resolved.get(uid)
        if root is None:
            cur = self.dfg.op(uid)
            while cur.kind in _FREE_KINDS:
                edge = self.dfg.in_edge(cur.uid, 0)
                if edge is None:
                    break
                cur = self.dfg.op(edge.src)
            root = self.resolved[uid] = cur.uid
        return root

    def flatten_edges(self, uid: int) -> Tuple[Tuple[int, int, Optional[float]], ...]:
        """(port, root, static arrival) per input edge, memoized.

        The static arrival is pre-resolved for values whose launch never
        depends on scheduling state: constants contribute 0, and carried
        values and port reads always launch registered at FF clk->q.
        ``None`` marks a dynamic input that must consult the producer's
        committed binding at query time.

        Memory-ordering edges carry no value and are excluded: a RAW
        dependence through a RAM does not chain combinationally -- the
        load's path is address mux + array access, not the store's data
        path.  An affine store's single data edge is reported on port 1
        so that write-data never pools with addresses in the physical
        port's sharing-mux (port 0 = address, port 1 = write data), and
        every *affine* access contributes a synthetic address source
        (derived from the iteration counter, registered, unique per
        access) on port 0 -- so several affine accesses sharing a RAM
        port grow a real address mux the path is charged for, exactly
        the mux the RTL backend emits.
        """
        info = self.in_info.get(uid)
        if info is None:
            info = self.in_info[uid] = self._flatten(uid)
        return info

    def _flatten(self, uid: int) -> Tuple[Tuple[int, int, Optional[float]], ...]:
        op = self.dfg.op(uid)
        data_edges = [e for e in self.dfg.in_edges(uid) if not e.order]
        is_memory = op.kind in (OpKind.LOAD, OpKind.STORE)
        affine_store = (op.kind is OpKind.STORE and len(data_edges) == 1)
        affine_load = (op.kind is OpKind.LOAD and not data_edges)
        info: List[Tuple[int, int, Optional[float]]] = []
        if is_memory and (affine_load or affine_store):
            info.append((0, -(uid + 1), self._ff_clk_q))
        for edge in data_edges:
            root = self.resolve_source(edge.src)
            producer = self.dfg.op(root)
            static: Optional[float]
            if producer.kind is OpKind.CONST:
                static = 0.0
            elif edge.distance >= 1 or producer.kind in (OpKind.READ,
                                                         OpKind.POP):
                # port reads and channel pops launch registered: the
                # input pad / FIFO output register drives at FF clk->q
                static = self._ff_clk_q
            else:
                static = None
            port = 1 if affine_store else edge.port
            info.append((port, root, static))
        return tuple(info)

    def port_key(self, uid: int) -> Optional[Tuple[int, ...]]:
        """The op's input ports in edge order when every input can launch
        registered at FF clk->q, one input per port; None for an op with
        a constant input (it launches at 0) or with two inputs on one
        port.  Memoized, and equal tuples are one object."""
        key = self.port_keys.get(uid, False)
        if key is False:
            info = self.flatten_edges(uid)
            ports = tuple(port for port, _root, _static in info)
            key = None
            if len(set(ports)) == len(ports) and all(
                    static is None or static == self._ff_clk_q
                    for _port, _root, static in info):
                key = self._port_tuples.setdefault(ports, ports)
            self.port_keys[uid] = key
        return key

    def capture_overhead(self, op: Operation) -> float:
        """Delay from the op output to the capturing FF's D pin.

        Register sharing is anticipated with a 2-input mux, except after
        MUX/LOOPMUX operations (they are the final select already), for
        port writes (output ports are not shared) and for memory stores
        (the RAM array latches the write at the clock edge; its setup is
        modeled like the FF's).
        """
        if op.is_mux or op.kind in (OpKind.WRITE, OpKind.STALL,
                                    OpKind.STORE, OpKind.PUSH):
            return self._ff_setup
        return self._mux2 + self._ff_setup

    def mux_steps(self) -> List[Tuple[int, float]]:
        """``(last fanin, delay)`` per run of equal sharing-mux delays,
        from fanin 2 up to the widest fanin the region can produce (one
        source per op plus one synthetic address per op), built on first
        use."""
        if self._mux_steps is None:
            steps: List[Tuple[int, float]] = []
            mux = self.library.mux
            for fanin in range(2, 2 * len(self.dfg.ops) + 2):
                delay = mux.delay(fanin)
                if steps and steps[-1][1] == delay:
                    steps[-1] = (fanin, delay)
                else:
                    steps.append((fanin, delay))
            self._mux_steps = steps
        return self._mux_steps

    def topo(self) -> Dict[int, int]:
        """Topological index per uid, built on first use."""
        if self._topo_index is None:
            self._topo_index = {op.uid: i for i, op in
                                enumerate(self.dfg.topological_order())}
        return self._topo_index


class TimingEngine:
    """The incrementally maintained datapath timing model for one pass.

    Contract: every operation a binding is committed for must exist in
    the DFG when the engine is constructed -- the chaining-fanout and
    topological-order caches that drive re-propagation are built once.
    The lazy structure fallbacks (:meth:`resolve_source`, the flattened
    input info) only serve read-only queries on ops added later, e.g.
    RTL emission resolving sources against a finished schedule.
    """

    def __init__(self, dfg: DFG, library: Library, clock_ps: float,
                 anticipate_muxes: bool = True,
                 statics: Optional["TimingStatics"] = None) -> None:
        self.dfg = dfg
        self.library = library
        self.clock_ps = clock_ps
        self.anticipate_muxes = anticipate_muxes
        self._bound: Dict[int, BoundOp] = {}
        #: sources per instance name, then per port: set of root value
        #: uids.  Nested (rather than ``(name, port)``-tuple keyed) so the
        #: per-candidate hot loops hoist one instance lookup and then
        #: probe small int-keyed dicts, with no tuple allocation per port.
        self._port_sources: Dict[str, Dict[int, Set[int]]] = {}
        #: how many compatible operations exist per (family, width bucket),
        #: set by the scheduler so anticipation can compare demand with
        #: the allocated instance count.
        self._type_demand: Dict[Tuple[str, int], int] = {}
        self._type_count: Dict[Tuple[str, int], int] = {}
        # -- memoized structure ----------------------------------------
        self._ff_clk_q = library.ff.clk_to_q_ps
        self._ff_setup = library.ff.setup_ps
        self._mux2 = library.mux.delay2_ps
        #: per-instance-name anticipation verdict (cleared when the
        #: sharing outlook changes).
        self._ant_cache: Dict[str, bool] = {}
        #: fixed access latency per resource-type object (``id(rtype)``
        #: keyed; grade objects are library-owned and live for the whole
        #: session, so ids are stable): avoids a slow ``getattr`` with
        #: default on every candidate evaluation.
        self._fixed_lat: Dict[int, int] = {}
        #: whether the sharing-mux delay changes going from ``n`` to
        #: ``n + 1`` port sources, per anticipation flag (indexed by it)
        #: then ``n``; :meth:`_port_mux_delay` depends on the instance
        #: only through that flag, so this memo is exact.
        self._mux_step: Tuple[Dict[int, bool], Dict[int, bool]] = ({}, {})
        #: committed non-mux op uids hosted per instance name.
        self._inst_ops: Dict[str, Set[int]] = {}
        #: widest port fanin per instance name (absent = no sources),
        #: kept current by commit/rollback; the per-instance half of
        #: :meth:`single_cycle_bound`.  Read-only outside.
        self.max_fanin: Dict[str, int] = {}
        #: port -> root -> how many instances have that root among the
        #: port's sources (absent = none), kept current with the port
        #: sources; see :meth:`generic_ports`.
        self._feeds: Dict[int, Dict[int, int]] = {}
        if statics is None:
            statics = TimingStatics(dfg, library)
        self._statics = statics
        # aliases into the (shareable) static structure; all of these are
        # pure memos over dfg + library, so passes over the same region
        # legally share one copy instead of re-deriving it per pass
        self._mux_delay = statics.mux_delay
        self._resolved = statics.resolved
        self._in_info = statics.in_info
        self._fresh = statics.fresh
        self._op_flags = statics.op_flags
        self._chain_consumers = statics.chain_consumers
        self._chain_out = statics.chain_out
        # -- commit-outcome cache ---------------------------------------
        #: serve repeated doomed commits (most of a candidate walk's
        #: try_commits) from a memo instead of re-propagating the
        #: netlist; see :meth:`try_commit`.  Entries are invalidated
        #: eagerly: every *kept* commit deletes the entries whose recorded
        #: read footprint it can change (via the reverse dependency maps
        #: below), so a probe is a single dict lookup.  Rollbacks restore
        #: the netlist exactly, so provisional commit/rollback pairs never
        #: invalidate.
        self._broken_cache: Dict[Tuple, Tuple] = {}
        #: visited uid -> cache keys whose doomed propagation re-timed or
        #: examined that binding; any kept commit or retime of it drops
        #: them (stale keys are tolerated: invalidation pops with a
        #: default).
        self._dep_uid: Dict[int, Set[Tuple]] = {}
        #: reader state -> uid -> cache keys whose propagation read that
        #: uid as an input root or chain consumer of an op bound in that
        #: state.  Those reads see only "bound in the reader's state", so
        #: only a kept commit or retime of the uid *in that state* drops
        #: them; a retime never moves a binding to another state.
        self._dep_read: Dict[int, Dict[int, Set[Tuple]]] = {}
        #: instance name -> cache keys depending on its sharing state.
        self._dep_inst: Dict[str, Set[Tuple]] = {}
        #: op uid -> instance name -> cache key of the growth signature
        #: (None when it is empty), valid while the instance's version
        #: equals the one in ``_sig_ver``; the signature only changes
        #: when the instance's port sources do, which the version
        #: counter tracks.  Two tables, not one of (version, key)
        #: tuples: a tuple per (op, instance) pair would be an object
        #: the cyclic collector tracks, and CPython does not track a
        #: dict that holds only strings and ints.
        self._sig_keys: Dict[int, Dict[str, Optional[Tuple]]] = {}
        self._sig_ver: Dict[int, Dict[str, int]] = {}
        #: the one object per distinct ``(instance name, signature)``
        #: cache key: most probes recompute a key some other op or
        #: version already holds, and an equal fresh tuple then dies at
        #: once instead of living (and being scanned) for the pass.
        self._keys: Dict[Tuple, Tuple] = {}
        self._inst_ver: Dict[str, int] = {}
        # -- profiling counters (folded into repro.profiling per pass) --
        self.n_evaluate = 0
        self.n_commit = 0
        self.n_rollback = 0
        self.n_propagated = 0
        self.n_cache_hits = 0
        self.n_cache_misses = 0

    # ------------------------------------------------------------------
    # static structure caches (delegated to the shareable statics)
    # ------------------------------------------------------------------
    def _info(self, uid: int) -> Tuple[Tuple[int, int, Optional[float]], ...]:
        info = self._in_info.get(uid)
        if info is None:  # op added after engine construction
            info = self._statics.flatten_edges(uid)
        return info

    def _topo(self) -> Dict[int, int]:
        return self._statics.topo()

    def _mux(self, fanin: int) -> float:
        delay = self._mux_delay.get(fanin)
        if delay is None:
            delay = self.library.mux.delay(fanin)
            self._mux_delay[fanin] = delay
        return delay

    def _fastest(self, kind: OpKind, width: int) -> Optional[ResourceType]:
        key = (kind, width)
        if key not in self._fresh:
            try:
                self._fresh[key] = self.library.fastest(kind, width)
            except KeyError:
                self._fresh[key] = None
        return self._fresh[key]

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------
    def set_sharing_outlook(self, demand: Dict[Tuple[str, int], int],
                            counts: Dict[Tuple[str, int], int]) -> None:
        """Provide op demand vs instance counts for mux anticipation."""
        self._type_demand = dict(demand)
        self._type_count = dict(counts)
        self._ant_cache.clear()
        self._clear_commit_cache()

    # ------------------------------------------------------------------
    # value resolution
    # ------------------------------------------------------------------
    def resolve_source(self, uid: int) -> int:
        """Follow free wiring ops (slice/zext/move) back to the real producer."""
        root = self._resolved.get(uid)
        if root is None:  # op added after engine construction
            root = self._statics.resolve_source(uid)
        return root

    def binding(self, uid: int) -> Optional[BoundOp]:
        """The committed binding of an operation, if any."""
        return self._bound.get(uid)

    @property
    def bindings(self) -> Dict[int, BoundOp]:
        """All committed bindings keyed by op uid."""
        return dict(self._bound)

    def port_sources(self) -> Dict[Tuple[str, int], Set[int]]:
        """Sources per (instance name, port); sharing muxes live where
        a port has two or more."""
        return {(iname, port): set(sources)
                for iname, by_port in self._port_sources.items()
                for port, sources in by_port.items()}

    # ------------------------------------------------------------------
    # arrival computation
    # ------------------------------------------------------------------
    def _arrival(self, root: int, static_arr: Optional[float],
                 state: int) -> float:
        """Arrival of one flattened input at ``state``.

        Registered values (previous state, previous iteration, port reads)
        launch at FF clk->q; values produced in the same state chain
        combinationally at the producer's output arrival.  Unbound
        producers count as registered (ASAP-style optimistic query); the
        scheduler never relies on that case.
        """
        if static_arr is not None:
            return static_arr
        bound = self._bound.get(root)
        if bound is None or bound.cycles > 1 or bound.state != state:
            return self._ff_clk_q
        return bound.out_arrival_ps  # combinational chaining

    def _anticipated(self, inst: ResourceInstance) -> bool:
        """Whether sharing (hence input muxes) is expected on ``inst``."""
        flag = self._ant_cache.get(inst.name)
        if flag is None:
            if not self.anticipate_muxes:
                flag = False
            else:
                key = (inst.rtype.family, inst.rtype.width)
                flag = (self._type_demand.get(key, 0)
                        > self._type_count.get(key, 1))
            self._ant_cache[inst.name] = flag
        return flag

    def _port_mux_delay(self, inst: ResourceInstance, fanin: int) -> float:
        """Sharing-mux delay for a port at ``fanin`` distinct sources."""
        if fanin < 2:
            flag = self._ant_cache.get(inst.name)
            if flag is None:
                flag = self._anticipated(inst)
            if flag:
                fanin = 2
        return self._mux(fanin)

    def _resource_delay(self, op: Operation,
                        inst: Optional[ResourceInstance]) -> float:
        """Combinational delay contributed by the operation itself."""
        if op.is_mux:  # MUX and LOOPMUX are 2-input steering muxes
            return self._mux2
        if inst is None:
            return 0.0  # free wiring, I/O capture, stall markers
        return inst.rtype.delay_ps

    def _capture_overhead(self, op: Operation) -> float:
        """Delay from the op output to the capturing FF's D pin."""
        return self._statics.capture_overhead(op)

    def input_profile(
            self, op: Operation,
            state: int) -> List[Tuple[int, int, float, bool]]:
        """Per-input ``(port, root, raw arrival, chained?)`` of ``op`` at
        ``state``, before sharing muxes.

        Raw arrivals depend only on the producers' committed bindings --
        never on the candidate instance -- and the scheduler restores the
        netlist to the same committed state between candidates of one
        walk (failed try_commits roll back, successful ones end the
        walk), so one profile legally serves every candidate evaluation
        of that walk via :meth:`evaluate`'s ``profile`` argument.
        """
        uid = op.uid
        info = self._in_info.get(uid)
        if info is None:
            info = self._info(uid)
        clk_q = self._ff_clk_q
        bound_map = self._bound
        out: List[Tuple[int, int, float, bool]] = []
        for port, root, static_arr in info:
            if static_arr is None:
                b = bound_map.get(root)
                if b is not None and b.state == state and b.cycles == 1:
                    arr = b.out_arrival_ps
                    out.append((port, root, arr, arr > clk_q))
                else:
                    out.append((port, root, clk_q, False))
            else:
                out.append((port, root, static_arr, False))
        return out

    def _path(self, op: Operation, inst: Optional[ResourceInstance],
              state: int,
              profile: Optional[List[Tuple[int, int, float, bool]]] = None,
              ) -> Tuple[float, float, bool]:
        """(out arrival, capture, chained?) of ``op`` on ``inst`` at ``state``.

        The one implementation of the path arithmetic: candidate
        evaluation, committed re-propagation and the sign-off audit all
        land here, which is why the structure lookups are pre-flattened.
        ``profile`` optionally supplies the raw input arrivals (see
        :meth:`input_profile`) so a candidate walk resolves producers
        once instead of once per candidate.
        """
        uid = op.uid
        flags = self._op_flags.get(uid)
        if flags is None:  # op added after engine construction
            flags = self._op_flags[uid] = (op.is_mux,
                                           self._capture_overhead(op))
        is_mux, overhead = flags
        clk_q = self._ff_clk_q
        if profile is None:
            profile = self.input_profile(op, state)
        worst_in = clk_q if not profile else 0.0
        chained = False
        if inst is not None and not is_mux:
            iname = inst.name
            by_port = self._port_sources.get(iname)
            anticipated = self._ant_cache.get(iname)
            if anticipated is None:
                anticipated = self._anticipated(inst)
            mux_delays = self._mux_delay
            for port, root, arr, ch in profile:
                if ch:
                    chained = True
                sources = by_port.get(port) if by_port is not None else None
                if sources is None:
                    fanin = 1
                elif root in sources:
                    fanin = len(sources)
                else:
                    fanin = len(sources) + 1
                if anticipated and fanin < 2:
                    fanin = 2
                if fanin > 1:
                    delay = mux_delays.get(fanin)
                    arr += delay if delay is not None else self._mux(fanin)
                if arr > worst_in:
                    worst_in = arr
            out = worst_in + inst.rtype.delay_ps
        else:
            for _port, _root, arr, ch in profile:
                if ch:
                    chained = True
                if arr > worst_in:
                    worst_in = arr
            out = worst_in + (self._mux2 if is_mux else 0.0)
        return out, out + overhead, chained

    # ------------------------------------------------------------------
    # candidate evaluation
    # ------------------------------------------------------------------
    def _access_cycles(self, rtype: ResourceType) -> int:
        """Fixed access latency of a grade (1 unless a registered macro)."""
        fixed = self._fixed_lat.get(id(rtype))
        if fixed is None:
            fixed = self._fixed_lat[id(rtype)] = getattr(
                rtype, "access_cycles", 1)
        return fixed

    def evaluate(self, op: Operation, inst: Optional[ResourceInstance],
                 state: int, allow_multicycle: bool = True,
                 profile: Optional[List[Tuple[int, int, float, bool]]] = None,
                 ) -> CandidateTiming:
        """Timing of binding ``op`` to ``inst`` at ``state``.

        Returns a failed :class:`CandidateTiming` instead of raising, so
        the scheduler can try the next resource and record restraints.
        """
        self.n_evaluate += 1
        out, capture, chained = self._path(op, inst, state, profile)
        fixed = 1 if inst is None else self._access_cycles(inst.rtype)
        if fixed > 1:
            # fixed-latency macro (registered-read RAM): occupies its
            # port for ``fixed`` states and needs registered inputs
            if chained:
                return CandidateTiming(False, out, capture,
                                       self.clock_ps - capture)
            budget = fixed * self.clock_ps
            return CandidateTiming(capture <= budget, out, capture,
                                   budget - capture, cycles=fixed)
        if capture <= self.clock_ps:
            return CandidateTiming(True, out, capture, self.clock_ps - capture)
        # try a multi-cycle binding: inputs must be registered
        if (allow_multicycle and inst is not None
                and inst.rtype.multicycle_ok and not chained):
            cycles = math.ceil(capture / self.clock_ps)
            budget = cycles * self.clock_ps
            return CandidateTiming(
                True, out, capture, budget - capture, cycles=cycles)
        return CandidateTiming(False, out, capture, self.clock_ps - capture)

    def single_cycle_bound(self, op: Operation, rtype: ResourceType,
                           raw_arrival: float) -> int:
        """The widest committed port fanin (see :attr:`max_fanin`) an
        instance of ``rtype`` may have for ``op`` to provably fit one
        clock period; -1 when no instance provably fits.

        A conservative admission bound that reads no per-port state:
        ``raw_arrival`` must bound the op's worst raw input arrival from
        above (:meth:`worst_input_arrival` does), and a port of an
        instance whose widest port has ``F`` sources sees at most
        ``F + 1`` once the candidate joins.  ``MuxSpec.delay`` is
        monotone in fanin and float ``+`` is monotone in each operand,
        so ``((raw + mux(max(2, F + 1))) + delay) + overhead`` bounds the
        capture :meth:`_path` computes from above.  When that bound meets
        the clock, :meth:`evaluate` returns ``ok`` with ``cycles == 1``.
        """
        flags = self._op_flags.get(op.uid)
        if flags is None or flags[0] or self._access_cycles(rtype) != 1:
            return -1  # late-added op, steering mux or fixed macro
        delay = rtype.delay_ps
        overhead = flags[1]
        clock = self.clock_ps
        limit = -1
        for last_fanin, mux in self._statics.mux_steps():
            if raw_arrival + mux + delay + overhead > clock:
                break
            limit = last_fanin - 1
        return limit

    def worst_input_arrival(self, op: Operation, state: int) -> float:
        """Worst raw input arrival (no sharing muxes) at a state.

        Used by the relaxation engine to probe whether faster grades of a
        fresh resource would rescue a failed binding.
        """
        worst = self._ff_clk_q
        for _port, root, static_arr in self._info(op.uid):
            arr = self._arrival(root, static_arr, state)
            if arr > worst:
                worst = arr
        return worst

    def evaluate_fresh(self, op: Operation, state: int) -> CandidateTiming:
        """Timing on a hypothetical fresh instance of the fastest grade.

        Optimistic (no sharing muxes on the fresh instance): when even
        this fails, adding a resource cannot solve the restraint -- the
        signal behind the paper's "adding one more multiplier does not
        help because two multiplications cannot fit in the given clock
        cycle" decision.
        """
        chained = False
        worst_in = self._ff_clk_q
        for _port, root, static_arr in self._info(op.uid):
            arr = self._arrival(root, static_arr, state)
            if arr > self._ff_clk_q:
                chained = True
            if arr > worst_in:
                worst_in = arr
        if op.is_mux or op.is_free or op.is_io or op.kind is OpKind.STALL:
            delay = self._resource_delay(op, None)
            multicycle_ok = False
        else:
            fastest = self._fastest(op.kind, op.resource_width)
            if fastest is None:  # no resource family
                return CandidateTiming(False, worst_in, worst_in, 0.0)
            delay = fastest.delay_ps
            multicycle_ok = fastest.multicycle_ok
        out = worst_in + delay
        capture = out + self._capture_overhead(op)
        if capture <= self.clock_ps:
            return CandidateTiming(True, out, capture,
                                   self.clock_ps - capture)
        if multicycle_ok and not chained:
            cycles = math.ceil(capture / self.clock_ps)
            return CandidateTiming(True, out, capture,
                                   cycles * self.clock_ps - capture,
                                   cycles=cycles)
        return CandidateTiming(False, out, capture,
                               self.clock_ps - capture)

    # ------------------------------------------------------------------
    # committed-binding queries
    # ------------------------------------------------------------------
    def audit(self, bound: BoundOp) -> CandidateTiming:
        """Re-derive a committed binding's timing at its committed cycle
        count; the sign-off primitive (STA, validate, retiming)."""
        out, capture, _chained = self._path(bound.op, bound.inst, bound.state)
        budget = bound.cycles * self.clock_ps
        return CandidateTiming(capture <= budget + EPS, out, capture,
                               budget - capture, cycles=bound.cycles)

    def slack_of(self, bound: BoundOp) -> float:
        """Current slack of a committed binding against its budget."""
        return bound.cycles * self.clock_ps - bound.capture_ps

    # ------------------------------------------------------------------
    # commit / rollback with incremental re-propagation
    # ------------------------------------------------------------------
    def commit(self, op: Operation, inst: Optional[ResourceInstance],
               state: int, timing: CandidateTiming,
               _visited: Optional[List[int]] = None,
               _provisional: bool = False) -> CommitResult:
        """Record an accepted binding and re-time everything it disturbs.

        The returned :class:`CommitResult` lists the other committed
        bindings whose stored arrivals changed; callers that must
        guarantee timing check :meth:`CommitResult.broken` and
        :meth:`rollback` on violation.  An op is committed at most once
        until that commit is rolled back: the commit-outcome cache keys
        the reads of a binding by its state, which nothing may move.

        ``_provisional`` suppresses commit-outcome-cache invalidation:
        :meth:`try_commit` sets it and invalidates itself only when the
        commit is kept, so its commit/rollback probes stay invisible to
        the cache.
        """
        self.n_commit += 1
        bound = BoundOp(op, inst, state, timing.cycles,
                        timing.out_arrival_ps, timing.capture_ps,
                        waived=not timing.ok)
        self._bound[op.uid] = bound
        dirty: Set[int] = set()
        added: List[Tuple[Tuple[str, int], int]] = []
        mux_grew = False
        if inst is not None and not op.is_mux:
            iname = inst.name
            hosted = self._inst_ops.setdefault(iname, set())
            by_port = self._port_sources.get(iname)
            for port, root, _static in self._info(op.uid):
                if by_port is None:
                    by_port = self._port_sources[iname] = {}
                sources = by_port.get(port)
                if sources is None:
                    sources = by_port[port] = set()
                elif root in sources:
                    continue
                before = self._port_mux_delay(inst, len(sources))
                sources.add(root)
                added.append(((iname, port), root))
                fed = self._feeds.get(port)
                if fed is None:
                    fed = self._feeds[port] = {}
                fed[root] = fed.get(root, 0) + 1
                if len(sources) > self.max_fanin.get(iname, 0):
                    self.max_fanin[iname] = len(sources)
                if self._port_mux_delay(inst, len(sources)) != before:
                    dirty.update(hosted)
                    mux_grew = True
            hosted.add(op.uid)
            self._inst_ver[iname] = self._inst_ver.get(iname, 0) + 1
        # a single-cycle producer now chains combinationally into any
        # committed same-state consumer that previously assumed it
        # registered
        if timing.cycles == 1:
            for cons in self._chain_out.get(op.uid, ()):
                cb = self._bound.get(cons)
                if cb is not None and cb.state == state:
                    dirty.add(cons)
        result = CommitResult(bound, tuple(added),
                              tuple(self._propagate(dirty, _visited)),
                              mux_grew)
        if not _provisional and self._broken_cache:
            self._invalidate_commit_cache(result)
        return result

    def rollback(self, result: CommitResult) -> None:
        """Revert a commit in O(changed).

        Only valid while ``result`` is the most recent commit (the
        scheduler's reject-on-violation path); a kept commit is never
        undone.

        The instance version counter is decremented back to its
        pre-commit value, so a commit+rollback pair is invisible to the
        commit-outcome cache -- doomed candidate walks must not
        invalidate it.
        """
        self.n_rollback += 1
        bound = result.bound
        self._bound.pop(bound.op.uid, None)
        if bound.inst is not None and not bound.op.is_mux:
            iname = bound.inst.name
            self._inst_ver[iname] = self._inst_ver.get(iname, 0) - 1
        if bound.inst is not None:
            hosted = self._inst_ops.get(bound.inst.name)
            if hosted is not None:
                hosted.discard(bound.op.uid)
        for (iname, port), root in result.undo_sources:
            by_port = self._port_sources.get(iname)
            if by_port is None:
                continue
            sources = by_port.get(port)
            if sources is None:
                continue
            sources.discard(root)
            fed = self._feeds[port]
            left = fed[root] - 1
            if left:
                fed[root] = left
            else:
                del fed[root]
            if not sources:
                del by_port[port]
                if not by_port:
                    del self._port_sources[iname]
        if result.undo_sources:
            self._refresh_max_fanin(bound.inst.name)
        for other, out, capture in result.undo_timing:
            other.out_arrival_ps = out
            other.capture_ps = capture

    def _refresh_max_fanin(self, iname: str) -> None:
        """Recompute an instance's widest port fanin after sources left."""
        by_port = self._port_sources.get(iname)
        if by_port:
            self.max_fanin[iname] = max(len(s) for s in by_port.values())
        else:
            self.max_fanin.pop(iname, None)

    # ------------------------------------------------------------------
    # speculative commit with the commit-outcome cache
    # ------------------------------------------------------------------
    def _growth_signature(self, op: Operation,
                          inst: ResourceInstance) -> Tuple:
        """Which instance ports this binding's sources would slow down.

        Simulates the source additions :meth:`commit` would perform and
        returns ``(port, final fanin)`` for every port whose sharing-mux
        delay changes.  Two candidate bindings with the same signature on
        the same instance disturb the committed netlist identically --
        the re-timed paths only read the per-port mux *delays*, which the
        signature pins exactly.
        """
        iname = inst.name
        by_port = self._port_sources.get(iname)
        anticipated = self._ant_cache.get(iname)
        if anticipated is None:
            anticipated = self._anticipated(inst)
        step = self._mux_step[anticipated]
        # fast path: every real op shape feeds each input port at most
        # once, so per-port bookkeeping degenerates to one added root;
        # a repeated port falls back to the general accumulation below
        added: Dict[int, int] = {}
        changed: List[Tuple[int, int]] = []
        for port, root, _static in self._info(op.uid):
            sources = by_port.get(port) if by_port is not None else None
            if sources is not None and root in sources:
                continue
            if port in added:
                if added[port] == root:
                    continue
                return self._growth_signature_multi(op, inst)
            n = len(sources) if sources is not None else 0
            chg = step.get(n)
            if chg is None:
                chg = step[n] = (self._port_mux_delay(inst, n + 1)
                                 != self._port_mux_delay(inst, n))
            if chg:
                changed.append((port, n + 1))
            added[port] = root
        changed.sort()
        return tuple(changed)

    def _growth_signature_multi(self, op: Operation,
                                inst: ResourceInstance) -> Tuple:
        """General form of :meth:`_growth_signature` for the rare op
        shape that feeds one port from several distinct roots."""
        iname = inst.name
        by_port = self._port_sources.get(iname)
        if by_port is None:
            by_port = {}
        anticipated = self._ant_cache.get(iname)
        if anticipated is None:
            anticipated = self._anticipated(inst)
        step = self._mux_step[anticipated]
        sig: List[Tuple[int, int]] = []
        added: Dict[int, Set[int]] = {}
        changed: Set[int] = set()
        for port, root, _static in self._info(op.uid):
            sources = by_port.get(port)
            extra = added.setdefault(port, set())
            if (sources is not None and root in sources) or root in extra:
                continue
            n = (len(sources) if sources is not None else 0) + len(extra)
            chg = step.get(n)
            if chg is None:
                chg = step[n] = (self._port_mux_delay(inst, n + 1)
                                 != self._port_mux_delay(inst, n))
            if chg:
                changed.add(port)
            extra.add(root)
        for port in sorted(changed):
            base = by_port.get(port)
            final = (len(base) if base is not None else 0) + len(added[port])
            sig.append((port, final))
        return tuple(sig)

    def generic_ports(self, op: Operation,
                      state: int) -> Optional[Tuple[int, ...]]:
        """``op``'s input-port tuple when nothing about ``op`` but that
        tuple reaches the timing or the commit outcome of binding it at
        ``state`` to any instance; None otherwise.

        That holds when every input launches registered at FF clk->q (no
        constant, no root bound single-cycle in ``state``), none of its
        roots already feeds the same port of any instance, and no chain
        consumer of ``op`` is bound in ``state``.  Then each port's fanin
        on an instance is its source count plus one, so the candidate's
        timing, growth signature and cache key are the instance's
        generic ones for the tuple and the op's kind, and a provisional
        commit re-times only the instance's hosted ops and their chains,
        which read the same fanins.
        """
        ports = self._statics.port_keys.get(op.uid, False)
        if ports is False:
            ports = self._statics.port_key(op.uid)
        if ports is None:
            return None
        bound_map = self._bound
        feeds = self._feeds
        for port, root, static in self._info(op.uid):
            if static is None:
                b = bound_map.get(root)
                if b is not None and b.state == state and b.cycles == 1:
                    return None
            fed = feeds.get(port)
            if fed is not None and root in fed:
                return None
        for cons in self._chain_consumers.get(op.uid, ()):
            cb = bound_map.get(cons)
            if cb is not None and cb.state == state:
                return None
        return ports

    def doom_probe(self, op: Operation, state: int, cycles: int = 1,
                   ) -> Callable[[ResourceInstance], Tuple]:
        """The commit-outcome cache's probe for ``cycles``-long bindings
        of ``op`` at ``state``: a function ``inst -> (cache key, broken
        info)``.

        The key is the one under which :meth:`try_commit` memoizes a
        doomed outcome (None when the binding bypasses the cache), and
        the info is the memoized broken neighbour when a commit is
        already known to break one.  The probe reads only sources,
        versions and committed states -- never the candidate's own
        timing -- so a caller holding a proof that the candidate passes
        can skip evaluating it when the probe hits.

        Everything that does not depend on the instance -- the steering
        mux and chain-dirt bypasses, the memo lookups -- is settled here
        once, so one probe serves a whole candidate walk: the walk only
        provisionally commits, and every rollback restores the bindings
        these checks read.
        """
        if op.is_mux:
            return _no_doom
        if cycles == 1:
            for cons in self._chain_out.get(op.uid, ()):
                cb = self._bound.get(cons)
                if cb is not None and cb.state == state:
                    return _no_doom  # chain dirt: candidate-specific
        inst_ver = self._inst_ver
        keys = self._sig_keys.setdefault(op.uid, {})
        vers = self._sig_ver.setdefault(op.uid, {})
        interned = self._keys
        broken = self._broken_cache
        growth = self._growth_signature

        def probe(inst: ResourceInstance) -> Tuple:
            iname = inst.name
            iver = inst_ver.get(iname, 0)
            if vers.get(iname) == iver:
                cache_key = keys[iname]
            else:
                sig = growth(op, inst)
                if sig:
                    cache_key = (iname, sig)
                    cache_key = interned.setdefault(cache_key, cache_key)
                else:
                    cache_key = None
                keys[iname] = cache_key
                vers[iname] = iver
            if cache_key is None:
                return _NO_DOOM
            info = broken.get(cache_key)
            if info is not None:
                self.n_cache_hits += 1
            return cache_key, info

        return probe

    def try_commit(self, op: Operation, inst: Optional[ResourceInstance],
                   state: int, timing: CandidateTiming,
                   probe: Optional[Callable] = None,
                   ) -> Tuple[Optional[CommitResult],
                              Optional[Tuple[int, int, float, float]]]:
        """Commit unless the re-propagation breaks a committed binding.

        Returns ``(result, broken_info)`` where exactly one side is set:

        * ``result`` -- the commit was kept (nothing broke); the caller
          proceeds exactly as after :meth:`commit`.
        * ``broken_info`` -- ``(broken uid, broken state, slack after
          retime, worst input arrival with the mux growth in place)``;
          the engine is back in its pre-call state.  This is precisely
          the payload of the scheduler's NEG_SLACK restraint.

        Doomed outcomes are memoized per ``(instance, growth signature)``.
        Each entry records the read footprint of the propagation that
        produced it in reverse dependency maps, and every *kept* commit
        eagerly deletes the entries it can change -- so a probe is a
        single dict lookup (:meth:`doom_probe`).  The footprint has two
        parts:

        * the bindings the propagation visited, keyed by uid: a kept
          commit or retime of any of them drops the entry;
        * the input roots and chain consumers those bindings read, keyed
          by ``(uid, state of the reading binding)``.  :meth:`_path`
          reads a root only through "bound in the reader's state and
          single-cycle" and :meth:`_propagate` reads a consumer only
          through "bound in the visited binding's state", so only a kept
          commit or retime of that uid in that state can change what was
          read; a retime never changes a binding's state.

        Provisional commit/rollback pairs restore the netlist exactly and
        never invalidate.  Bindings whose producer would newly chain into
        a committed same-state consumer bypass the cache: their
        disturbance depends on the candidate itself.

        ``probe`` is a :meth:`doom_probe` for ``op`` at ``state`` and
        ``timing.cycles`` that the caller already holds; one is built
        when it is absent.
        """
        if probe is None:
            probe = (_no_doom if inst is None
                     else self.doom_probe(op, state, timing.cycles))
        cache_key, info = probe(inst)
        if info is not None:
            return None, info
        visited: Optional[List[int]] = [] if cache_key is not None else None
        result = self.commit(op, inst, state, timing, _visited=visited,
                             _provisional=True)
        broken = result.broken(self.clock_ps)
        if broken is None:
            if self._broken_cache:
                self._invalidate_commit_cache(result)
            return result, None
        slack = self.slack_of(broken)
        arrival = self.worst_input_arrival(broken.op, broken.state)
        info = (broken.op.uid, broken.state, slack, arrival)
        if cache_key is not None:
            self.n_cache_misses += 1
            self._broken_cache[cache_key] = info
            self._record_footprint(cache_key, visited)
            self._dep_inst.setdefault(inst.name, set()).add(cache_key)
        self.rollback(result)
        return None, info

    def _record_footprint(self, cache_key: Tuple,
                          visited: List[int]) -> None:
        """Register a doomed entry under every binding its propagation
        visited and every ``(root or chain consumer, reader state)`` it
        read (see :meth:`try_commit`).  The broken binding is itself
        visited, so the inputs :meth:`worst_input_arrival` read for the
        payload are covered too."""
        dep_uid = self._dep_uid
        dep_read = self._dep_read
        bound_map = self._bound
        in_info = self._in_info
        chain_out = self._chain_out
        for uid in visited:
            keys = dep_uid.get(uid)
            if keys is None:
                dep_uid[uid] = {cache_key}
            else:
                keys.add(cache_key)
            bound = bound_map.get(uid)
            if bound is None:
                continue  # nothing was read for it
            info = in_info.get(uid)
            if info is None:
                info = self._info(uid)
            reads = [root for _port, root, static in info if static is None]
            reads.extend(chain_out.get(uid, ()))
            readers = dep_read.setdefault(bound.state, {})
            for read in reads:
                keys = readers.get(read)
                if keys is None:
                    readers[read] = {cache_key}
                else:
                    keys.add(cache_key)

    def _invalidate_commit_cache(self, result: CommitResult) -> None:
        """Drop the cache entries a kept commit can change: those that
        visited the new or a re-timed binding, those that read one of
        them in its state, and those on the new binding's instance.

        When the commit grew a sharing mux, the entries that visited any
        op the instance hosts go too, re-timed or not: a grown port term
        that stayed under a hosted op's committed maximum can still
        exceed it once a doomed propagation raised the arrival behind
        that same port."""
        cache = self._broken_cache
        dep_uid = self._dep_uid
        dep_read = self._dep_read
        bound = result.bound
        touched = [bound]
        touched.extend(b for b, _out, _capture in result.undo_timing)
        for b in touched:
            uid = b.op.uid
            readers = dep_read.get(b.state)
            for keys in (dep_uid.pop(uid, None),
                         readers.pop(uid, None) if readers else None):
                if keys:
                    for key in keys:
                        cache.pop(key, None)
        if bound.inst is not None and not bound.op.is_mux:
            iname = bound.inst.name
            keys = self._dep_inst.pop(iname, None)
            if keys:
                for key in keys:
                    cache.pop(key, None)
            if result.mux_grew:
                for uid in self._inst_ops[iname]:
                    keys = dep_uid.pop(uid, None)
                    if keys:
                        for key in keys:
                            cache.pop(key, None)

    def _clear_commit_cache(self) -> None:
        """Wholesale reset (outlook changes, retime_all)."""
        self._broken_cache.clear()
        self._dep_uid.clear()
        self._dep_read.clear()
        self._dep_inst.clear()
        self._sig_keys.clear()
        self._sig_ver.clear()
        self._keys.clear()

    def _propagate(self, dirty: Set[int],
                   visited: Optional[List[int]] = None,
                   ) -> List[Tuple[BoundOp, float, float]]:
        """Re-time dirty bindings in topological order, cascading arrival
        changes through same-state combinational chains.

        Returns each changed binding with its previous (out, capture)
        so the caller can build an undo record.  ``visited`` (when given)
        collects every binding examined -- changed or not -- so
        :meth:`try_commit` can record the read footprint of the walk.
        """
        if not dirty:
            return []
        topo = self._topo()
        order = [(topo.get(u, 0), u) for u in dirty]
        heapq.heapify(order)
        seen: Set[int] = set(dirty)
        retimed: List[Tuple[BoundOp, float, float]] = []
        while order:
            _idx, uid = heapq.heappop(order)
            self.n_propagated += 1
            if visited is not None:
                visited.append(uid)
            bound = self._bound.get(uid)
            if bound is None:
                continue
            out, capture, _chained = self._path(bound.op, bound.inst,
                                                bound.state)
            if out == bound.out_arrival_ps and capture == bound.capture_ps:
                continue
            arrival_changed = out != bound.out_arrival_ps
            retimed.append((bound, bound.out_arrival_ps, bound.capture_ps))
            bound.out_arrival_ps = out
            bound.capture_ps = capture
            if not arrival_changed or bound.cycles > 1:
                continue  # registered output: no chained downstream effect
            for cons in self._chain_out.get(uid, ()):
                if cons in seen:
                    continue
                cb = self._bound.get(cons)
                if cb is not None and cb.state == bound.state:
                    seen.add(cons)
                    heapq.heappush(order, (topo.get(cons, 0), cons))
        return retimed

    # ------------------------------------------------------------------
    # whole-netlist recomputation
    # ------------------------------------------------------------------
    def retime_all(self) -> None:
        """Recompute and store arrivals for every binding, in place.

        Used after post-schedule modifications that invalidate every
        cached arrival at once (resource regrading during slack
        compensation); incremental propagation handles everything else.
        """
        self._clear_commit_cache()
        for op in self.dfg.topological_order():
            bound = self._bound.get(op.uid)
            if bound is None:
                continue
            out, capture, _chained = self._path(op, bound.inst, bound.state)
            bound.out_arrival_ps = out
            bound.capture_ps = capture

"""The relaxation expert system.

"When the pass scheduler fails, the set of scheduling constraints must be
relaxed. ...  Each restraint suggests a set of actions that can be applied
to improve the scheduling.  Timing restraints could be fixed by adding
states to the [control flow graph], by adding resources or by
speculating operations.  Restraints stemming from combinational cycles
forbid the use of a resource for an operation, etc.  Every action has an
estimated cost, which is combined with the number of restraints solved
by this action and the restraint weight.  The action with the best
estimated gain wins." (paper section IV.B)

The pipelining-specific action -- moving a whole SCC window to a later
position when it suffers negative slack -- is the paper's novel
timing-driven kernel selection (section V, Example 3; ablated in Table 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.cdfg.memory import static_bank
from repro.cdfg.ops import Operation
from repro.cdfg.region import PipelineSpec, Region
from repro.core.restraints import Restraint, RestraintKind
from repro.tech.library import Library, ResourceType


@dataclass
class DriverState:
    """Mutable constraint state threaded through scheduling passes."""

    latency: int
    extra_types: List[ResourceType] = field(default_factory=list)
    forbidden: Set[Tuple[int, str]] = field(default_factory=set)
    scc_shifts: Dict[int, int] = field(default_factory=dict)
    speculated: Set[int] = field(default_factory=set)
    #: banking factor raised beyond a memory's declared value by the
    #: add-bank action (the memory analogue of add_resource).
    bank_overrides: Dict[str, int] = field(default_factory=dict)
    history: List[str] = field(default_factory=list)


@dataclass
class Action:
    """A candidate constraint relaxation."""

    name: str
    cost: float
    solved_weight: float
    apply: Callable[[DriverState], None]
    #: the resource type an ``add_resource`` action appends and how many
    #: copies (None / 0 for every other family); lets the driver's
    #: fixpoint detector reason about what a batch does without running
    #: the apply closure.
    rtype: Optional[ResourceType] = None
    count: int = 0

    @property
    def gain(self) -> float:
        """Estimated gain: restraint weight solved per unit cost."""
        return self.solved_weight / max(self.cost, 1e-6)


#: per declared memory, its accesses with their dynamic-address flags.
MemoryAccessIndex = Dict[str, List[Tuple[Operation, bool]]]


def memory_access_index(region: Region) -> MemoryAccessIndex:
    """Every declared memory's accesses (insertion order), each with
    whether it takes its address from a DFG value: the one scan of the
    DFG the scheduler's passes and the add-bank action read."""
    index: MemoryAccessIndex = {name: [] for name in region.memories}
    for op in region.memory_ops:
        index.setdefault(op.payload, []).append(
            (op, region.access_is_dynamic(op)))
    return index


def _bank_pressure(accesses: List[Tuple[Operation, bool]],
                   banks: int) -> int:
    """Worst number of accesses landing on one bank at a banking factor.

    Dynamic accesses land on every bank (their address is unknown), so
    they contribute to all of them.
    """
    per_bank = [0] * banks
    for op, dynamic in accesses:
        bank = static_bank(op, banks, dynamic)
        if bank is None:
            per_bank = [n + 1 for n in per_bank]
        else:
            per_bank[bank] += 1
    return max(per_bank) if per_bank else 0


def _bank_proposal(accesses: List[Tuple[Operation, bool]],
                   library: Library, decl, cur_banks: int):
    """Smallest banking factor that lowers pressure, with its area cost.

    Returns ``(new_banks, extra_area)`` or None when no factor up to the
    cap helps (all conflicting accesses dynamic, or already spread).
    """
    cur_pressure = _bank_pressure(accesses, cur_banks)
    cap = min(decl.depth, 16)
    new_banks = cur_banks * 2
    while new_banks <= cap:
        if _bank_pressure(accesses, new_banks) < cur_pressure:
            # extra cost ~ the added per-bank periphery (total bitcells
            # are unchanged; more macros mean more decoders/sense amps)
            periphery = library.mem.periphery_area
            if decl.ports >= 2:
                periphery *= library.mem.dual_port_area_factor
            extra_area = (new_banks - cur_banks) * periphery
            return new_banks, extra_area
        new_banks *= 2
    return None


def _fits(library: Library, input_arrival: float, delay: float,
          clock_ps: float, with_mux: bool = True) -> bool:
    """Whether a chain ending in ``delay`` meets the clock."""
    capture = input_arrival + delay
    if with_mux:
        capture += library.mux.delay2_ps
    return capture + library.ff.setup_ps <= clock_ps


def propose_actions(
    region: Region,
    library: Library,
    clock_ps: float,
    restraints: List[Restraint],
    state: DriverState,
    pipeline: Optional[PipelineSpec],
    enable_scc_move: bool = True,
    allow_banking: bool = True,
    resource_outlook: Optional[Dict[Tuple[str, int],
                                    Tuple[int, int]]] = None,
    memory_accesses: Optional[MemoryAccessIndex] = None,
) -> List[Action]:
    """Generate scored actions for the analyzed restraint set.

    ``resource_outlook`` maps type keys to ``(demand, instances)`` so the
    add-state action can jump straight to the latency the slot deficit
    requires instead of converging one state per pass.
    ``memory_accesses`` is the region's :func:`memory_access_index`
    when the caller keeps one (built here on demand otherwise).
    """
    actions: List[Action] = []
    ii = pipeline.ii if pipeline else None
    outlook = resource_outlook or {}

    # ---------------------------------------------------------------- add state
    if state.latency < region.max_latency:
        solved = 0.0
        jump = 1
        for r in restraints:
            if r.kind is RestraintKind.NEG_SLACK and r.fits_fresh_state:
                solved += r.weight
            elif r.kind is RestraintKind.NO_RESOURCE:
                # a new state only creates fresh slots when it grows the
                # set of equivalence classes (sequential always does;
                # pipelined only while latency < II)
                if ii is None or state.latency < ii:
                    solved += r.weight
                    demand, count = outlook.get(r.type_key, (0, 1))
                    needed = -(-demand // max(count, 1))
                    jump = max(jump, needed - state.latency)
            elif r.kind in (RestraintKind.MEM_PORT,
                            RestraintKind.CHAN_PORT):
                # like NO_RESOURCE: a new state only provides fresh port
                # slots while it grows the set of equivalence classes
                if ii is None or state.latency < ii:
                    solved += r.weight
            elif r.kind is RestraintKind.LATENCY:
                solved += r.weight
            elif r.kind is RestraintKind.SCC_TIMING and r.fits_fresh_state:
                solved += 0.5 * r.weight  # more room for a later window
        jump = max(1, min(jump, region.max_latency - state.latency))
        if solved > 0:
            def add_state(st: DriverState, n: int = jump) -> None:
                st.latency += n
                st.history.append(f"add_state -> latency {st.latency}")
            actions.append(Action("add_state", 1.0, solved, add_state))

    # ------------------------------------------------------------ add resources
    # NO_RESOURCE wants more instances; NEG_SLACK with a known type wants
    # *faster* instances (grade escalation) -- both resolve to adding a
    # resource the failed operation can actually bind to
    grades = [g.name for g in library.grades]
    by_type: Dict[Tuple[str, int], List[Restraint]] = {}
    for r in restraints:
        if r.type_key is None:
            continue
        if r.kind is RestraintKind.NO_RESOURCE:
            by_type.setdefault(r.type_key, []).append(r)
        elif r.kind in (RestraintKind.NEG_SLACK, RestraintKind.SCC_TIMING):
            # grade escalation only for *terminal* timing failures
            # (weight >= 1.0 after analysis); deferred attempts that later
            # succeeded elsewhere must not inflate the resource set
            if r.weight >= 1.0:
                by_type.setdefault(r.type_key, []).append(r)
    for type_key, rs in sorted(by_type.items()):
        family, width = type_key
        for grade in grades:
            rtype = library.resource_type(family, width, grade)
            solved = 0.0
            solved_ops = set()
            for r in rs:
                # does the operation fit on a fresh instance of this grade,
                # with its observed chained input arrival?
                arrival = max(r.input_arrival_ps, library.ff.clk_to_q_ps)
                if _fits(library, arrival, rtype.delay_ps, clock_ps):
                    solved += r.weight
                    solved_ops.add(r.op_uid)
                elif (rtype.multicycle_ok
                      and r.input_arrival_ps <= library.ff.clk_to_q_ps):
                    solved += r.weight  # registered inputs, multi-cycle ok
                    solved_ops.add(r.op_uid)
            if solved <= 0:
                continue
            # batch the addition by a damped deficit estimate; unused
            # instances are pruned after the successful pass
            count = max(1, min(8, -(-len(solved_ops) // 4)))

            def add_resource(st: DriverState, rt: ResourceType = rtype,
                             n: int = count) -> None:
                st.extra_types.extend([rt] * n)
                st.history.append(f"add_resource {rt.name} x{n}")
            actions.append(Action(
                f"add_resource:{rtype.name}",
                cost=0.5 + rtype.area / 4000.0,
                solved_weight=solved,
                apply=add_resource,
                rtype=rtype,
                count=count,
            ))
            break  # cheapest fitting grade is enough per type

    # ---------------------------------------------------------------- add banks
    # MEM_PORT starvation: more accesses hit a bank per state than the
    # bank has RAM ports.  Raising the cyclic banking factor spreads
    # *static* accesses over more macros (the memory analogue of
    # add_resource); the action is only proposed when it provably lowers
    # the worst per-bank pressure -- dynamic accesses pin every bank, so
    # banking cannot help them.
    by_mem: Dict[str, float] = {}
    if allow_banking:
        for r in restraints:
            if r.kind is RestraintKind.MEM_PORT and r.mem_name is not None:
                by_mem[r.mem_name] = by_mem.get(r.mem_name, 0.0) + r.weight
    for mem_name, solved in sorted(by_mem.items()):
        decl = region.memories.get(mem_name)
        if decl is None:
            continue
        cur_banks = state.bank_overrides.get(mem_name, decl.banks)
        if memory_accesses is None:
            memory_accesses = memory_access_index(region)
        proposal = _bank_proposal(memory_accesses[mem_name], library,
                                  decl, cur_banks)
        if proposal is None:
            continue
        new_banks, extra_area = proposal

        def add_bank(st: DriverState, mem: str = mem_name,
                     n: int = new_banks) -> None:
            st.bank_overrides[mem] = n
            st.history.append(f"add_bank {mem} -> {n}")
        actions.append(Action(
            f"add_bank:{mem_name}",
            cost=0.5 + extra_area / 4000.0,
            solved_weight=solved,
            apply=add_bank,
        ))

    # ----------------------------------------------------------------- move SCC
    if pipeline is not None and enable_scc_move:
        by_scc: Dict[int, float] = {}
        for r in restraints:
            if r.kind is RestraintKind.SCC_TIMING \
                    and r.scc_index is not None and not r.window_overflow:
                by_scc[r.scc_index] = by_scc.get(r.scc_index, 0.0) + r.weight
        for scc_index, solved in sorted(by_scc.items()):
            def move_scc(st: DriverState, idx: int = scc_index) -> None:
                st.scc_shifts[idx] = st.scc_shifts.get(idx, 0) + 1
                st.history.append(f"move_scc {idx} -> +{st.scc_shifts[idx]}")
            actions.append(Action(
                f"move_scc:{scc_index}", cost=0.3,
                solved_weight=solved, apply=move_scc))

    # ---------------------------------------------------------- forbid bindings
    seen_forbid: Set[Tuple[int, str]] = set()
    for r in restraints:
        if r.kind is not RestraintKind.COMB_CYCLE or r.inst_name is None:
            continue
        key = (r.op_uid, r.inst_name)
        if key in seen_forbid or key in state.forbidden:
            continue
        seen_forbid.add(key)

        def forbid(st: DriverState, k: Tuple[int, str] = key) -> None:
            st.forbidden.add(k)
            st.history.append(f"forbid op{k[0]} on {k[1]}")
        actions.append(Action(
            f"forbid:{key[0]}@{key[1]}", cost=0.1,
            solved_weight=r.weight, apply=forbid))

    # --------------------------------------------------------------- speculate
    for r in restraints:
        if r.kind is not RestraintKind.PREDICATE_ORDER:
            continue
        if r.op_uid in state.speculated:
            continue

        def speculate(st: DriverState, uid: int = r.op_uid) -> None:
            st.speculated.add(uid)
            st.history.append(f"speculate op{uid}")
        actions.append(Action(
            f"speculate:{r.op_uid}", cost=0.2,
            solved_weight=r.weight, apply=speculate))

    actions.sort(key=lambda a: (-a.gain, a.name))
    return actions


#: action families that are independent of each other and of any winner:
#: resource/bank additions, binding prohibitions, speculations and SCC
#: shifts neither interact with the winner nor with each other, so the
#: driver applies them together and saves whole scheduling passes.
BATCHABLE_PREFIXES = ("add_resource:", "add_bank:", "forbid:",
                      "speculate:", "move_scc:")


def applied_actions(actions: List[Action]) -> List[Action]:
    """The actions :func:`apply_action_batch` applies, in order.

    Factored out so the driver's fixpoint detector can reason about
    exactly the batch that will be (repeatedly) applied.
    """
    winner = actions[0]
    batch = [winner]
    for extra in actions[1:]:
        if extra.name == winner.name:
            continue
        if extra.name.startswith(BATCHABLE_PREFIXES):
            batch.append(extra)
    return batch


def apply_action_batch(actions: List[Action], state: DriverState) -> None:
    """Apply the winning ``actions[0]`` plus the independent extras.

    This is the driver's single action-application rule: the winner
    first, then every *other* batchable action that is not a duplicate
    of the winner, in proposal order.
    """
    for action in applied_actions(actions):
        action.apply(state)


def _restraint_fingerprint(r: Restraint) -> Tuple:
    """Every field of one analyzed restraint, exact floats included."""
    return (r.kind, r.op_uid, r.state, r.type_key, r.slack_ps,
            r.fresh_instance_fails, r.fits_fresh_state, r.scc_index,
            r.window_overflow, r.inst_name, r.cond_uid, r.mem_name,
            r.chan_name, r.input_arrival_ps, r.weight)


def driver_fingerprint(analyzed: List[Restraint],
                       actions: List[Action]) -> Tuple:
    """Everything the relaxation driver's decision depends on, one pass.

    Two consecutive failed passes with equal fingerprints are the
    trigger condition for the fixpoint fast-forward in
    ``schedule_region``: the analyzed restraint set (all fields, exact
    float values) plus the scored action list fully determine the batch
    the driver applies next.
    """
    return (tuple(_restraint_fingerprint(r) for r in analyzed),
            tuple((a.name, a.cost, a.solved_weight) for a in actions))

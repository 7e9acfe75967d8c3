"""Schedulable regions.

A :class:`Region` is the unit the pass scheduler operates on: a straight
line sequence of control steps produced by the micro-architecture
transformer after latency balancing and predicate conversion (paper
section V, step I.1).  A region is either a loop body (possibly pipelined)
or an acyclic block.

Latency (the number of states in the region body) is chosen by the
scheduler within ``[min_latency, max_latency]`` -- the designer-specified
bounds of the paper's examples ("1 <= latency <= 3 for the do-while
loop").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cdfg.dfg import DFG, DFGError
from repro.cdfg.memory import MemoryDecl, has_dynamic_address
from repro.cdfg.ops import OpKind


@dataclass
class Region:
    """A linearized loop body or basic block, ready for scheduling.

    Attributes
    ----------
    name:
        Report name.
    dfg:
        The region's data flow graph.  Loop-carried values enter through
        ``LOOPMUX`` operations with distance-1 back edges.
    is_loop:
        Whether the region iterates (enables pipelining and makes
        loop-carried edges meaningful).
    min_latency / max_latency:
        Designer bounds on the number of states of one iteration.
    exit_op_uid:
        For loops: uid of the boolean operation whose *false* value exits
        the loop (do/while semantics), or None for counted/infinite loops.
    trip_count:
        Known iteration count for counted loops (used by simulators and
        unrolling), or None.
    """

    name: str
    dfg: DFG
    is_loop: bool = True
    min_latency: int = 1
    max_latency: int = 64
    exit_op_uid: Optional[int] = None
    trip_count: Optional[int] = None
    metadata: Dict[str, object] = field(default_factory=dict)
    #: on-chip arrays accessed by LOAD/STORE operations, by name.
    memories: Dict[str, MemoryDecl] = field(default_factory=dict)

    def validate(self) -> None:
        """Check region-level invariants on top of DFG validation."""
        self.dfg.validate()
        if self.min_latency < 1:
            raise DFGError(f"{self.name}: min_latency must be >= 1")
        if self.max_latency < self.min_latency:
            raise DFGError(f"{self.name}: max_latency < min_latency")
        if self.exit_op_uid is not None:
            if self.exit_op_uid not in self.dfg:
                raise DFGError(f"{self.name}: exit op not in DFG")
            if not self.is_loop:
                raise DFGError(f"{self.name}: exit op on non-loop region")
        if not self.is_loop:
            carried = [
                op for op in self.dfg.ops
                if any(e.distance >= 1 for e in self.dfg.in_edges(op.uid))
            ]
            if carried:
                raise DFGError(
                    f"{self.name}: loop-carried edges in non-loop region: "
                    f"{[op.name for op in carried]}")
        for name in set(self.input_channels) & set(self.output_channels):
            raise DFGError(
                f"{self.name}: channel {name!r} both popped and pushed "
                f"inside one region (a FIFO joins two distinct stages)")
        for op in self.pops:
            # a conditionally-consuming pop would make FIFO contents
            # depend on data (the simulators and the RTL could not
            # agree on token positions); pushes may be predicated --
            # they gate the commit, not a consumption
            if not op.predicate.is_true:
                raise DFGError(
                    f"{self.name}: {op.name} pops under a predicate "
                    f"(conditional consumption is not supported; pop "
                    f"unconditionally and predicate the uses)")
        for ops in (self.pops, self.pushes):
            widths: Dict[str, int] = {}
            for op in ops:
                prev = widths.setdefault(op.payload, op.width)
                if op.width != prev:
                    raise DFGError(
                        f"{self.name}: channel {op.payload!r} accessed at "
                        f"widths {prev} and {op.width}")
        for op in self.memory_ops:
            decl = self.memories.get(op.payload)
            if decl is None:
                raise DFGError(
                    f"{self.name}: {op.name} accesses undeclared memory "
                    f"{op.payload!r}")
            if op.width != decl.width:
                raise DFGError(
                    f"{self.name}: {op.name} width {op.width} != memory "
                    f"{decl.name} width {decl.width}")

    @property
    def reads(self) -> List:
        """Port-read operations, in insertion order."""
        return self.dfg.ops_of_kind(OpKind.READ)

    @property
    def writes(self) -> List:
        """Port-write operations, in insertion order."""
        return self.dfg.ops_of_kind(OpKind.WRITE)

    @property
    def input_ports(self) -> List[str]:
        """Names of all ports read by this region (deduplicated, ordered)."""
        seen: List[str] = []
        for op in self.reads:
            if op.payload not in seen:
                seen.append(op.payload)
        return seen

    @property
    def output_ports(self) -> List[str]:
        """Names of all ports written by this region."""
        seen: List[str] = []
        for op in self.writes:
            if op.payload not in seen:
                seen.append(op.payload)
        return seen

    @property
    def pops(self) -> List:
        """Channel-pop operations, in insertion order."""
        return self.dfg.ops_of_kind(OpKind.POP)

    @property
    def pushes(self) -> List:
        """Channel-push operations, in insertion order."""
        return self.dfg.ops_of_kind(OpKind.PUSH)

    @property
    def input_channels(self) -> List[str]:
        """Names of all channels popped by this region (deduplicated)."""
        seen: List[str] = []
        for op in self.pops:
            if op.payload not in seen:
                seen.append(op.payload)
        return seen

    @property
    def output_channels(self) -> List[str]:
        """Names of all channels pushed by this region (deduplicated)."""
        seen: List[str] = []
        for op in self.pushes:
            if op.payload not in seen:
                seen.append(op.payload)
        return seen

    def channel_accesses(self, name: str, kind: OpKind) -> List:
        """POP (or PUSH) operations touching one channel, in order."""
        return [op for op in self.dfg.ops_of_kind(kind)
                if op.payload == name]

    @property
    def memory_ops(self) -> List:
        """LOAD/STORE operations, in insertion order."""
        return self.dfg.ops_of_kind(OpKind.LOAD, OpKind.STORE)

    def memory_accesses(self, name: str) -> List:
        """Accesses touching one declared memory, in insertion order."""
        return [op for op in self.memory_ops if op.payload == name]

    def access_is_dynamic(self, op) -> bool:
        """Whether an access takes its address from a DFG value."""
        return has_dynamic_address(op, len(self.dfg.data_in_edges(op.uid)))

    def schedulable_ops(self) -> List:
        """Operations that occupy a control step (everything non-free)."""
        return [op for op in self.dfg.ops if not op.is_free]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = "loop" if self.is_loop else "block"
        return f"Region({self.name}, {tag}, ops={len(self.dfg)})"


@dataclass(frozen=True)
class PipelineSpec:
    """Designer pipelining directive for a loop region.

    Following the paper's section V requirements: the initiation interval
    (II) **must** be supplied by the designer; the latency interval (LI)
    is chosen by the tool within the region's latency bounds, starting
    from ``II + 1`` (the minimum for pipelined execution).
    """

    ii: int

    def __post_init__(self) -> None:
        if self.ii < 1:
            raise ValueError("PipelineSpec: II must be >= 1")

    def stages(self, latency: int) -> int:
        """Number of pipeline stages for a given latency interval."""
        return -(-latency // self.ii)

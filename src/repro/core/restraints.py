"""Restraints: the failure memory of a scheduling pass.

"The history of the scheduling pass is recorded in a set of restraints,
which are issued every time a binding of an operation to an edge and/or a
resource fails.  Restraint analysis is done for the fanin cones of the
failed operations ...  Restraints are assigned weights based on their
proximity to failed operations and the number of failures they help
solve." (paper section IV.B)

Each restraint captures what went wrong (kind), where (operation, state)
and enough detail for the relaxation engine to judge which corrective
actions would solve it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro import profiling
from repro.cdfg.dfg import DFG


class RestraintKind(str, enum.Enum):
    """What kind of failure a restraint records."""

    #: all compatible instances were busy on the state (or its equivalent
    #: edges when pipelining).
    NO_RESOURCE = "no_resource"
    #: every RAM port of the accessed bank(s) was busy on the state --
    #: memory port starvation; solvable by banking or by adding states.
    MEM_PORT = "mem_port"
    #: the FIFO channel's single read (or write) port was busy on the
    #: state -- stream port starvation; solvable by adding states (each
    #: channel endpoint is one physical FIFO port).
    CHAN_PORT = "chan_port"
    #: the binding violated the clock period.
    NEG_SLACK = "neg_slack"
    #: the binding would have closed a false combinational cycle.
    COMB_CYCLE = "comb_cycle"
    #: a member of an SCC window could not be placed inside the window.
    SCC_TIMING = "scc_timing"
    #: a loop-carried dependency's modulo causality bound was violated.
    CARRIED_DEP = "carried_dep"
    #: the operation never became schedulable within the latency bound
    #: (producers failed, or it ran out of states).
    LATENCY = "latency"
    #: a predicated operation was blocked by its condition's position.
    PREDICATE_ORDER = "predicate_order"


@dataclass(slots=True)
class Restraint:
    """One recorded failure, with solver-relevant detail."""

    kind: RestraintKind
    op_uid: int
    state: int
    #: (family, width) involved for resource restraints.
    type_key: Optional[Tuple[str, int]] = None
    #: worst slack observed for timing restraints (negative).
    slack_ps: float = 0.0
    #: whether a *fresh* instance at this state would also fail timing --
    #: when True, adding a resource cannot solve this restraint (this is
    #: what makes the expert system prefer adding a state in the paper's
    #: Example 1: "adding one more multiplier does not help because two
    #: multiplications cannot fit in the given clock cycle").
    fresh_instance_fails: bool = False
    #: whether the registered-input path would fit a fresh state -- when
    #: True, adding a state solves the timing part.
    fits_fresh_state: bool = True
    #: SCC window index for SCC restraints.
    scc_index: Optional[int] = None
    #: the SCC window itself no longer fits the latency bound -- moving
    #: it later cannot help, only adding states can.
    window_overflow: bool = False
    #: instance name for combinational-cycle restraints.
    inst_name: Optional[str] = None
    #: condition uid for predicate-order restraints.
    cond_uid: Optional[int] = None
    #: memory name for RAM-port starvation restraints.
    mem_name: Optional[str] = None
    #: channel name for FIFO-port starvation restraints.
    chan_name: Optional[str] = None
    #: worst chained input arrival observed at the failing state; lets the
    #: relaxation engine probe whether a faster grade would fit in place.
    input_arrival_ps: float = 0.0
    #: filled by analysis: importance of solving this restraint.
    weight: float = 1.0


#: memoized weight sequences, keyed by base weight: entry ``k`` is the
#: result of ``k`` sequential ``w += 0.5 * base`` additions starting at
#: ``base``.  Only three bases exist (1.0 / 0.6 / 0.3), so replaying a
#: merge group's duplicate count costs O(max count) floats total instead
#: of one addition per recorded duplicate -- while reproducing the
#: reference's sequential rounding bit-for-bit (the folds in ``analyze``
#: never touch ``weight``, so a group's final weight is a pure function
#: of its base and its duplicate count).
_WEIGHT_SEQ: Dict[float, List[float]] = {}


def _accumulated_weight(base: float, extra: int) -> float:
    """Weight after ``extra`` sequential ``+= 0.5 * base`` additions."""
    seq = _WEIGHT_SEQ.get(base)
    if seq is None:
        seq = _WEIGHT_SEQ[base] = [base]
    if extra >= len(seq):
        w = seq[-1]
        inc = 0.5 * base
        for _ in range(extra - len(seq) + 1):
            w += inc
            seq.append(w)
    return seq[extra]


class RestraintLog:
    """Accumulates restraints during one scheduling pass."""

    def __init__(self) -> None:
        self.restraints: List[Restraint] = []
        #: multiplicity of each entry: the binder deliberately re-records
        #: one Restraint object per identical failure (per candidate
        #: within a walk; per doom payload across the whole pass) so
        #: repeated hits gain weight; collapsing *all* re-records of the
        #: same object into a count keeps the log short without
        #: changing what analysis sees -- the folds in
        #: :meth:`analyze` are idempotent and order-independent, and the
        #: first occurrence (which fixes merge-key order) is preserved.
        self._counts: List[int] = []
        #: id(restraint) -> index into the two lists above; entries stay
        #: alive in ``self.restraints``, so ids are stable and unique.
        self._index: Dict[int, int] = {}
        self.failed_ops: Set[int] = set()

    def record(self, restraint: Restraint) -> None:
        """Append one restraint (same-object repeats just bump a count)."""
        self.record_many((restraint,))

    def record_many(self, restraints: Iterable[Restraint]) -> None:
        """:meth:`record` each restraint in order (one call per walk)."""
        index = self._index
        counts = self._counts
        log = self.restraints
        for restraint in restraints:
            idx = index.get(id(restraint))
            if idx is not None:
                counts[idx] += 1
            else:
                index[id(restraint)] = len(log)
                log.append(restraint)
                counts.append(1)

    def mark_failed(self, op_uid: int) -> None:
        """Mark an operation as terminally failed in this pass."""
        self.failed_ops.add(op_uid)

    @property
    def has_failures(self) -> bool:
        """Whether the pass must be considered failed."""
        return bool(self.failed_ops)

    def analyze(self, dfg: DFG) -> List[Restraint]:
        """Weight restraints by proximity to failed operations.

        Restraints on failed operations weigh 1.0; restraints inside the
        fanin cone of a failed operation weigh 0.6; everything else 0.3
        (still useful: solving them frees alternatives).  Duplicate
        (kind, op, type) records collapse, their weights accumulating so
        repeatedly-hit restraints matter more, echoing the paper's "the
        number of failures they help solve".
        """
        # the fanin cones of all failed ops, as one int bitmask: the
        # DFG's memoized per-op fanin masks (distance-0 closure) are
        # OR-combined over every in-edge of every failed op, turning the
        # per-pass BFS into a handful of word-parallel set unions
        profiling.bump("restraints.analyze")
        profiling.bump("restraints.entries", len(self.restraints))
        profiling.bump("restraints.records", sum(self._counts))
        masks = dfg.fanin_masks()
        cone_mask = 0
        for uid in self.failed_ops:
            for e in dfg.in_edges(uid):
                cone_mask |= masks[e.src]
        merged: Dict[Tuple, Restraint] = {}
        adds: Dict[Tuple, int] = {}
        # :meth:`record` collapses same-object re-records, so each entry
        # here is a distinct object; different objects can still share a
        # merge key and fold together
        for r, n in zip(self.restraints, self._counts):
            key = (
                r.kind, r.op_uid, r.type_key, r.scc_index, r.inst_name,
                r.mem_name, r.chan_name)
            m = merged.get(key)
            if m is not None:
                adds[key] += n
                m.slack_ps = min(m.slack_ps, r.slack_ps)
                m.fresh_instance_fails = (
                    m.fresh_instance_fails and r.fresh_instance_fails)
                m.fits_fresh_state = (
                    m.fits_fresh_state or r.fits_fresh_state)
                # keep the most favorable arrival: the relaxation engine
                # probes whether a fresh resource could fit *somewhere*,
                # and a later state with registered inputs is exactly
                # that somewhere (keeping the first -- often chained --
                # arrival made add_resource look futile and sent the
                # driver into an add-state death spiral)
                m.input_arrival_ps = min(
                    m.input_arrival_ps, r.input_arrival_ps)
            else:
                merged[key] = r
                adds[key] = n - 1
        failed = self.failed_ops
        for key, m in merged.items():
            uid = m.op_uid
            if uid in failed:
                base = 1.0
            elif uid >= 0 and (cone_mask >> uid) & 1:
                base = 0.6
            else:
                base = 0.3
            # 0.5*base per recorded duplicate; the memoized sequence
            # replicates the reference's one-addition-per-duplicate
            # rounding bit-for-bit (base*(1 + 0.5*n) would round
            # differently)
            m.weight = _accumulated_weight(base, adds[key])
        return sorted(merged.values(), key=lambda r: -r.weight)

    def summary(self) -> Dict[str, int]:
        """Counts per restraint kind (for diagnostics and tests)."""
        out: Dict[str, int] = {}
        for r, n in zip(self.restraints, self._counts):
            out[r.kind.value] = out.get(r.kind.value, 0) + n
        return out

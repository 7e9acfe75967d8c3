"""Sign-off static timing verification of a finished schedule.

The :class:`~repro.timing.engine.TimingEngine` answers candidate queries
during scheduling and keeps every committed arrival current; this module
walks the committed bindings in topological order and re-derives each
path through the *same* engine arithmetic (:meth:`TimingEngine.audit`),
reporting slack per operation, the worst negative slack and the critical
path.  Because admission and sign-off share one delay implementation,
the report is bit-identical to the slacks the scheduler admitted --
``tests/properties`` asserts exactly that.  The logic-synthesis
compensation step (paper Table 4) uses the report to locate the
resources that must be upsized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.cdfg.ops import OpKind
from repro.timing.engine import TimingEngine


@dataclass(frozen=True)
class PathPoint:
    """One operation on a critical path, with its output arrival."""

    op_name: str
    arrival_ps: float


@dataclass
class TimingReport:
    """Result of :func:`verify_timing`."""

    clock_ps: float
    slack_by_op: Dict[int, float]
    wns_ps: float
    critical_op_uid: Optional[int]
    critical_path: List[PathPoint]

    @property
    def met(self) -> bool:
        """Whether every path meets the clock."""
        return self.wns_ps >= -1e-9

    def failing_ops(self) -> List[int]:
        """Uids of operations with negative slack, worst first."""
        bad = [(slack, uid) for uid, slack in self.slack_by_op.items()
               if slack < -1e-9]
        bad.sort()
        return [uid for _slack, uid in bad]


def verify_timing(netlist: TimingEngine) -> TimingReport:
    """Audit every committed binding and report slack.

    Each path is re-derived from the current netlist state through the
    engine's single delay implementation; multi-cycle bindings are
    checked against their extended budget (``cycles * Tclk``).
    """
    dfg = netlist.dfg
    slack_by_op: Dict[int, float] = {}
    worst: Tuple[float, Optional[int]] = (float("inf"), None)
    # topological order ignores loop-carried edges: those arrive registered
    for op in dfg.topological_order():
        bound = netlist.binding(op.uid)
        if bound is None or op.is_free:
            continue
        timing = netlist.audit(bound)
        slack_by_op[op.uid] = timing.slack_ps
        if timing.slack_ps < worst[0]:
            worst = (timing.slack_ps, op.uid)
    wns = min(worst[0], netlist.clock_ps)
    critical = trace_critical_path(netlist, worst[1]) if worst[1] is not None else []
    return TimingReport(
        clock_ps=netlist.clock_ps,
        slack_by_op=slack_by_op,
        wns_ps=wns if slack_by_op else netlist.clock_ps,
        critical_op_uid=worst[1],
        critical_path=critical,
    )


def trace_critical_path(netlist: TimingEngine,
                        end_uid: int) -> List[PathPoint]:
    """Walk back through same-state chaining from the worst endpoint."""
    dfg = netlist.dfg
    path: List[PathPoint] = []
    uid: Optional[int] = end_uid
    guard = 0
    while uid is not None:
        op = dfg.op(uid)
        bound = netlist.binding(uid)
        if bound is None:
            break
        path.append(PathPoint(op.name, bound.out_arrival_ps))
        # find the chained producer with the latest arrival in this state
        best: Tuple[float, Optional[int]] = (-1.0, None)
        for edge in dfg.in_edges(uid):
            if edge.distance >= 1 or edge.order:
                continue  # ordering edges carry no combinational path
            root = netlist.resolve_source(edge.src)
            pb = netlist.binding(root)
            if pb is None or pb.state != bound.state or pb.cycles > 1:
                continue
            if dfg.op(root).kind is OpKind.READ:
                continue
            if pb.out_arrival_ps > best[0]:
                best = (pb.out_arrival_ps, root)
        uid = best[1]
        guard += 1
        if guard > len(dfg):
            break
    path.reverse()
    return path

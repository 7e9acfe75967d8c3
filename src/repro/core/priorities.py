"""Scheduling priority function.

"The priority function takes into account the mobility of the operations
defined by timing-aware ASAP/ALAP intervals (similar to Force-Directed
Scheduling), the complexity of operations (more complex ones are
scheduled first), the size of the fanout cone of an operation, etc."
(paper section IV.B, Fig. 7)

For large designs the exact fanout cone size is approximated by the
operation's downstream critical-path height plus its out-degree, which
captures the same urgency signal at O(V+E) total cost.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.cdfg.dfg import DFG
from repro.cdfg.ops import Operation
from repro.core.asap_alap import _optimistic_delay
from repro.tech.library import Library


def compute_heights(dfg: DFG, library: Library) -> Dict[int, float]:
    """Downstream critical-path height in picoseconds per operation."""
    heights: Dict[int, float] = {}
    for op in reversed(dfg.topological_order()):
        below = 0.0
        for edge in dfg.out_edges(op.uid):
            if edge.distance >= 1:
                continue
            below = max(below, heights.get(edge.dst, 0.0))
        heights[op.uid] = below + _optimistic_delay(op, library)
    return heights


def priority_statics(
    op: Operation,
    heights: Dict[int, float],
    dfg: DFG,
    library: Library,
) -> Tuple[float, float, int, int]:
    """The pass-invariant tail of an operation's priority key.

    The scheduler's key is ``(mobility,) + priority_statics(...)``;
    lower sorts first (= scheduled earlier).  Order of criteria: least
    mobility, highest complexity (operation delay), tallest fanout
    cone, widest fanout, stable uid tiebreak.  Complexity, height and
    fanout depend only on the DFG and library; between relaxation
    passes only the leading mobility changes, so the scheduler memoizes
    this tail per operation.
    """
    complexity = _optimistic_delay(op, library)
    fanout = len(dfg.out_edges(op.uid))
    return (
        -complexity,
        -heights.get(op.uid, 0.0),
        -fanout,
        op.uid,
    )

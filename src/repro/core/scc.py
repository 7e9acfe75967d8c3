"""Strongly-connected-component windows for pipelining.

Iteration dependencies are cycles in the DFG (through loop-carried
edges).  "Preserving causality requires all operations from each strongly
connected component of the DFG to be scheduled within II states" (paper
section V, step I.3a).  There is freedom in *where* the II-state window
sits, "which might be exploited to achieve better timing": the relaxation
action of moving an SCC to a later stage when facing negative slack is
the paper's novel timing-driven kernel selection (sections V/VI, Table 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List

from repro.cdfg.region import Region
from repro.core.asap_alap import Mobility


@dataclass
class SCCWindow:
    """An II-state scheduling window for one strongly connected component."""

    index: int
    ops: FrozenSet[int]
    start: int
    ii: int

    @property
    def end(self) -> int:
        """Last state of the window (inclusive)."""
        return self.start + self.ii - 1


def find_scc_windows(
    region: Region,
    mobility: Dict[int, Mobility],
    ii: int,
) -> List[SCCWindow]:
    """Initial windows: each SCC anchored at its earliest feasible start.

    The anchor is the maximum ASAP over the component's members minus the
    room the members need, clamped to the component's combined bounds; in
    practice the window starts at the smallest member ASAP so the
    scheduler has the whole II span to distribute chained members.
    """
    windows: List[SCCWindow] = []
    for idx, comp in enumerate(region.dfg.sccs()):
        start = min(mobility[uid].asap for uid in comp if uid in mobility)
        windows.append(SCCWindow(idx, frozenset(comp), start, ii))
    return windows


def apply_windows(
    mobility: Dict[int, Mobility],
    windows: List[SCCWindow],
    latency: int,
) -> None:
    """Clamp member mobilities into their windows, in place.

    Raises ``ValueError`` when a window cannot accommodate a member (the
    relaxation engine turns this into an SCC restraint / move action).
    """
    for window in windows:
        if window.end > latency - 1:
            raise ValueError(
                f"SCC {window.index}: window [{window.start},{window.end}] "
                f"exceeds latency {latency}")
        for uid in window.ops:
            mob = mobility.get(uid)
            if mob is None:
                continue
            new_asap = max(mob.asap, window.start)
            new_alap = min(mob.alap, window.end - (mob.cycles - 1))
            if new_asap > new_alap:
                raise ValueError(
                    f"SCC {window.index}: op {uid} cannot fit window "
                    f"[{window.start},{window.end}]")
            mob.asap, mob.alap = new_asap, new_alap


def check_carried_dependencies(
    region: Region,
    schedule_state: Dict[int, int],
    ii: int,
) -> List[str]:
    """Validate the modulo causality constraint on a complete schedule.

    For every loop-carried edge (producer p, consumer c, distance d):
    ``state(p) <= state(c) + d*II - 1`` -- the value is registered before
    the consuming iteration, offset ``d*II`` cycles later, reads it.
    Returns human-readable violations (empty = valid).
    """
    problems: List[str] = []
    for op in region.dfg.ops:
        for edge in region.dfg.in_edges(op.uid):
            if edge.distance < 1:
                continue
            p_state = schedule_state.get(edge.src)
            c_state = schedule_state.get(edge.dst)
            if p_state is None or c_state is None:
                continue
            if p_state > c_state + edge.distance * ii - 1:
                src = region.dfg.op(edge.src).name
                dst = region.dfg.op(edge.dst).name
                problems.append(
                    f"carried edge {src}(s{p_state + 1}) -> {dst}"
                    f"(s{c_state + 1}) violates distance {edge.distance} "
                    f"at II={ii}")
    return problems

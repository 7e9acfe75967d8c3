"""Post-synthesis slack compensation by resource upsizing.

The paper's Table 4 experiment disables the timing-driven SCC move and
measures how much *area* downstream logic synthesis must spend to buy the
resulting negative slack back.  This module is that downstream step: it
re-times the bound netlist (through the unified timing engine's
whole-netlist recomputation -- regrading changes delays under fixed
bindings), walks the critical path of every failing endpoint and
upsizes the dominant resource to the next speed grade until timing
closes (or the grade ladder is exhausted), reporting the area penalty.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.core.schedule import Schedule
from repro.timing.retime import retime
from repro.timing.sta import trace_critical_path, verify_timing


@dataclass
class CompensationResult:
    """Outcome of the sizing loop."""

    area_before: float
    area_after: float
    wns_before_ps: float
    wns_after_ps: float
    upsizings: List[str]
    closed: bool


def compensate_slack(schedule: Schedule,
                     max_upsizings: int = 200) -> CompensationResult:
    """Upsize resources until the schedule meets timing.

    Mutates the schedule's resource pool (grades only -- the binding
    structure is untouched, exactly like logic synthesis working on a
    fixed RTL netlist).
    """
    library = schedule.library
    netlist = schedule.netlist
    retime(netlist)
    report = verify_timing(netlist)
    area_before = schedule.area
    wns_before = report.wns_ps
    upsizings: List[str] = []

    for _round in range(max_upsizings):
        if report.met:
            break
        end_uid = report.failing_ops()[0]
        path = trace_critical_path(netlist, end_uid)
        # pick the largest upgradable delay contributor on the path
        candidates = []
        for point in path:
            for _uid, bound in netlist.bindings.items():
                if bound.op.name != point.op_name or bound.inst is None:
                    continue
                ladder = library.upsizing_ladder(bound.inst.rtype)
                if len(ladder) > 1:
                    candidates.append((bound.inst.rtype.delay_ps, bound.inst))
                break
        if not candidates:
            break  # ladder exhausted: residual violation remains
        candidates.sort(key=lambda c: (-c[0], c[1].name))
        inst = candidates[0][1]
        next_type = library.upsizing_ladder(inst.rtype)[1]
        upsizings.append(f"{inst.name}: {inst.rtype.grade} -> {next_type.grade}")
        schedule.pool.regrade(inst, next_type)
        retime(netlist)
        report = verify_timing(netlist)

    return CompensationResult(
        area_before=area_before,
        area_after=schedule.area,
        wns_before_ps=wns_before,
        wns_after_ps=report.wns_ps,
        upsizings=upsizings,
        closed=report.met,
    )

"""The paper's primary contribution: timing-driven simultaneous
scheduling and binding with CDFG-transformation-based loop pipelining."""

from repro.core.allocation import AllocationResult, lower_bound, type_key_for
from repro.core.asap_alap import InfeasibleTiming, Mobility, compute_mobility
from repro.core.registers import RegisterFile, allocate_registers
from repro.core.relaxation import Action, DriverState, propose_actions
from repro.core.restraints import Restraint, RestraintKind, RestraintLog
from repro.core.scc import SCCWindow, find_scc_windows
from repro.core.schedule import AreaReport, Schedule, ScheduleError
from repro.core.scheduler import PassOutcome, SchedulerOptions, schedule_region

__all__ = [
    "Action",
    "AllocationResult",
    "AreaReport",
    "DriverState",
    "InfeasibleTiming",
    "Mobility",
    "PassOutcome",
    "RegisterFile",
    "Restraint",
    "RestraintKind",
    "RestraintLog",
    "SCCWindow",
    "Schedule",
    "ScheduleError",
    "SchedulerOptions",
    "allocate_registers",
    "compute_mobility",
    "find_scc_windows",
    "lower_bound",
    "propose_actions",
    "schedule_region",
    "type_key_for",
]

"""Timing substrate: the unified incremental timing engine (candidate
evaluation, committed-arrival maintenance, sign-off audit), false
combinational cycle avoidance and timing-report generation."""

from repro.timing.cycles import CombCycleGuard
from repro.timing.engine import (
    TIMING_MODEL_VERSION,
    BoundOp,
    CandidateTiming,
    CommitResult,
    TimingEngine,
    registered_path_ps,
)
from repro.timing.retime import retime
from repro.timing.sta import (
    PathPoint,
    TimingReport,
    trace_critical_path,
    verify_timing,
)

__all__ = [
    "TIMING_MODEL_VERSION",
    "BoundOp",
    "CandidateTiming",
    "CombCycleGuard",
    "CommitResult",
    "PathPoint",
    "TimingEngine",
    "TimingReport",
    "registered_path_ps",
    "retime",
    "trace_critical_path",
    "verify_timing",
]

"""The compilation context threaded through a flow.

A :class:`CompilationContext` is the single mutable object a flow
(:func:`~repro.flow.flow.run_context`) operates on: it carries the
inputs (source text or a prebuilt region, library, clock, scheduler
options, pipelining directive), accumulates artifacts as passes run (elaborated loops, the
optimizer report, the schedule, the folded kernel, RTL text, the power
report) and collects structured per-stage :class:`Diagnostic` entries
instead of bare exceptions or ``None`` returns, so drivers can render or
serialize failures uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.cdfg.region import PipelineSpec, Region
from repro.core.folding import FoldedPipeline
from repro.core.schedule import Schedule, ScheduleError
from repro.core.scheduler import SchedulerOptions
from repro.tech.library import Library
from repro.tech.power import PowerReport

#: diagnostic severities, mildest first.
SEVERITIES = ("info", "warning", "error")


@dataclass(frozen=True)
class Diagnostic:
    """One structured message attached to a compilation stage."""

    stage: str
    severity: str
    message: str
    details: tuple = ()

    def __str__(self) -> str:
        head = f"[{self.stage}] {self.severity}: {self.message}"
        if not self.details:
            return head
        return head + "".join(f"\n  {line}" for line in self.details)


@dataclass(frozen=True)
class PassTiming:
    """Wall-clock cost of one pass execution."""

    name: str
    seconds: float
    cached: bool = False


@dataclass
class CompilationContext:
    """Inputs, artifacts and diagnostics of one compilation."""

    library: Library
    clock_ps: float = 1600.0
    options: SchedulerOptions = field(default_factory=SchedulerOptions)
    pipeline: Optional[PipelineSpec] = None
    #: mini-language source text (consumed by the frontend pass) ...
    source: Optional[str] = None
    #: ... or a prebuilt region (the frontend pass then no-ops).
    region: Optional[Region] = None
    #: set False to skip the optimizer pass (``--no-optimize``; the
    #: ``sweep`` flow has no optimizer pass at all).
    run_optimizer: bool = True
    #: result cache shared across contexts; None disables caching.
    cache: Optional["FlowCache"] = None  # noqa: F821 - see flow.cache
    #: cross-point scheduling carryover: a zero-argument provider of the
    #: ``_RegionCache`` owned by the sweep engine's
    #: :class:`~repro.flow.sweepctx.SweepContext`, called only when the
    #: schedule pass runs the scheduler.  Every cached entry is
    #: decision-neutral, so it is transient state -- it never enters the
    #: compilation cache key.
    scheduler_carryover: Optional[Callable[[], object]] = None
    #: progress hook called as ``progress_cb(pass_name, event)`` with
    #: ``event`` in {"start", "done", "cached"} around every pass; long
    #: drivers (the job service) use it for live status.  Exceptions
    #: raised by the hook are swallowed: observation must never change
    #: a compilation's outcome.
    progress_cb: Optional[Callable[[str, str], None]] = None
    #: cooperative cancellation: any object with ``is_set() -> bool``
    #: (e.g. ``threading.Event``).  Checked between passes by
    #: :func:`~repro.flow.flow.run_context`; a set event stops the flow
    #: with a ``cancelled`` error diagnostic instead of an artifact.
    cancel_event: Optional[object] = None
    #: structured trace sink (a :class:`repro.obs.trace.Tracer`); the
    #: flow emits one span per pass and the scheduler nests its
    #: relaxation-pass spans underneath.  Like ``progress_cb``,
    #: tracing is decision-neutral: ``None`` (the default) costs one
    #: check per pass and an attached tracer never changes an outcome.
    tracer: Optional["Tracer"] = None  # noqa: F821 - see repro.obs

    # -- artifacts, filled in by passes ---------------------------------
    elaborated: Optional[list] = None
    opt_report: Optional[Dict[str, int]] = None
    schedule: Optional[Schedule] = None
    folded: Optional[FoldedPipeline] = None
    rtl: Optional[str] = None
    power: Optional[PowerReport] = None

    # -- bookkeeping ----------------------------------------------------
    diagnostics: List[Diagnostic] = field(default_factory=list)
    timings: List[PassTiming] = field(default_factory=list)
    #: content hash of (region, library, clock, options, pipeline); set
    #: by the first cache-aware pass, shared by the ones downstream.
    cache_key: Optional[str] = None

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def diag(self, stage: str, severity: str, message: str,
             details: tuple = ()) -> Diagnostic:
        """Record a diagnostic and return it."""
        if severity not in SEVERITIES:
            raise ValueError(f"unknown severity {severity!r}")
        entry = Diagnostic(stage, severity, message, tuple(details))
        self.diagnostics.append(entry)
        return entry

    def info(self, stage: str, message: str) -> Diagnostic:
        """Record an informational diagnostic."""
        return self.diag(stage, "info", message)

    def error(self, stage: str, message: str,
              details: tuple = ()) -> Diagnostic:
        """Record an error diagnostic (marks the context failed)."""
        return self.diag(stage, "error", message, details)

    @property
    def failed(self) -> bool:
        """Whether any pass reported an error."""
        return any(d.severity == "error" for d in self.diagnostics)

    @property
    def cancel_requested(self) -> bool:
        """Whether the attached cancellation event (if any) is set."""
        event = self.cancel_event
        try:
            return event is not None and bool(event.is_set())
        except Exception:
            return False

    def notify(self, pass_name: str, event: str) -> None:
        """Invoke the progress hook, swallowing observer failures."""
        if self.progress_cb is None:
            return
        try:
            self.progress_cb(pass_name, event)
        except Exception:
            pass

    @property
    def errors(self) -> List[Diagnostic]:
        """All error diagnostics, in emission order."""
        return [d for d in self.diagnostics if d.severity == "error"]

    def raise_if_failed(self) -> None:
        """Re-raise the first error as a :class:`ScheduleError`.

        Bridges the structured-diagnostic world back to the legacy
        exception-based API the thin shims preserve.
        """
        if not self.failed:
            return
        first = self.errors[0]
        raise ScheduleError(first.message, list(first.details))

    # ------------------------------------------------------------------
    # reports
    # ------------------------------------------------------------------
    def timing_summary(self) -> Dict[str, float]:
        """pass name -> seconds (cached passes report their hit cost)."""
        out: Dict[str, float] = {}
        for timing in self.timings:
            out[timing.name] = out.get(timing.name, 0.0) + timing.seconds
        return out

    def summary(self) -> Dict[str, object]:
        """Key figures of the compilation, JSON-friendly."""
        out: Dict[str, object] = {
            "region": self.region.name if self.region else None,
            "library": self.library.name,
            "clock_ps": self.clock_ps,
            "pipeline_ii": self.pipeline.ii if self.pipeline else None,
            "failed": self.failed,
            "diagnostics": [str(d) for d in self.diagnostics],
            "pass_seconds": self.timing_summary(),
        }
        if self.schedule is not None:
            out["schedule"] = self.schedule.summary()
        return out

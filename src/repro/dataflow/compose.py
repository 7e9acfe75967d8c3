"""Composition pass: schedule every stage, then reason about the whole.

:func:`compile_pipeline` drives each stage of a
:class:`~repro.dataflow.pipeline.Pipeline` through the existing
``pipeline`` flow (frontend-less: the regions are prebuilt) -- one
:class:`~repro.flow.context.CompilationContext` per stage, sharing one
:class:`~repro.flow.cache.FlowCache` so a stage reused across
compositions or depth sweeps schedules exactly once.  The composition
pass proper then computes the steady-state throughput (the maximum
stage II), stage issue offsets and end-to-end latency, sizes every
auto-depth channel at its analyzed minimum, and aggregates area and
power including the FIFO hardware itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math
from typing import Dict, Optional

from repro.core.folding import FoldedPipeline
from repro.core.schedule import Schedule
from repro.core.scheduler import SchedulerOptions
from repro.dataflow.analysis import (
    frame_cycles,
    min_channel_depths,
    stage_offsets,
    steady_state_ii,
)
from repro.dataflow.channel import Channel
from repro.dataflow.pipeline import Pipeline, Stage
from repro.tech.library import Library
from repro.tech.power import CLOCK_TREE_FACTOR, PowerReport, estimate_power


def fifo_bits(width: int, depth: int) -> int:
    """Storage bits of one FIFO: the token shift register plus an
    occupancy counter (the valid/ready handshake state)."""
    if depth == 0:
        return 0
    return width * depth + math.ceil(math.log2(depth + 1)) + 1


def fifo_area(library: Library, width: int, depth: int) -> float:
    """Area of one shift-register FIFO in library units."""
    return library.register_area(fifo_bits(width, depth))


@dataclass
class StageResult:
    """One stage's compilation artifacts within a composition."""

    stage: Stage
    schedule: Schedule
    folded: Optional[FoldedPipeline]
    #: steady-state issue offset of the stage's iteration 0 (cycles).
    offset: int = 0


@dataclass
class ComposedPipeline:
    """The scheduled composition: per-stage results + system metrics."""

    pipeline: Pipeline
    library: Library
    clock_ps: float
    stages: Dict[str, StageResult]
    #: channels with resolved depths (auto depths filled in).
    channels: Dict[str, Channel]
    #: analyzed minimum stall-free depth per channel.
    min_depths: Dict[str, int] = field(default_factory=dict)

    # -- throughput ----------------------------------------------------
    @property
    def steady_state_ii(self) -> int:
        """Composed initiation interval: the slowest stage's II."""
        return steady_state_ii(self.schedules)

    @property
    def frame_cycles(self) -> int:
        """Steady-state cycles per frame (multi-rate normalization)."""
        return frame_cycles(self.pipeline, self.schedules)

    @property
    def latency(self) -> int:
        """End-to-end latency: last stage's offset plus its depth."""
        return max(r.offset + r.schedule.latency
                   for r in self.stages.values())

    @property
    def schedules(self) -> Dict[str, Schedule]:
        """Stage name -> schedule (convenience accessor)."""
        return {name: r.schedule for name, r in self.stages.items()}

    # -- cost ----------------------------------------------------------
    @property
    def fifo_area(self) -> float:
        """Area of all connecting FIFOs."""
        return sum(fifo_area(self.library, c.width, c.depth or 0)
                   for c in self.channels.values())

    @property
    def area(self) -> float:
        """Aggregate area: every stage plus the FIFO hardware."""
        return sum(r.schedule.area for r in self.stages.values()) \
            + self.fifo_area

    def power(self) -> PowerReport:
        """Aggregate average power: stages plus FIFO storage clocking."""
        dynamic = clock = leakage = 0.0
        for result in self.stages.values():
            report = estimate_power(result.schedule)
            dynamic += report.dynamic_mw
            clock += report.clock_mw
            leakage += report.leakage_mw
        lib = self.library
        bits = sum(fifo_bits(c.width, c.depth or 0)
                   for c in self.channels.values())
        clock += (bits * lib.ff.energy_per_bit_pj * CLOCK_TREE_FACTOR
                  / self.clock_ps * 1000.0)
        leakage += lib.ff.leakage_per_bit_uw * bits / 1000.0
        return PowerReport(dynamic_mw=dynamic, clock_mw=clock,
                           leakage_mw=leakage)

    # -- reports -------------------------------------------------------
    def summary(self) -> Dict[str, object]:
        """Key figures of the composition, JSON-friendly."""
        return {
            "pipeline": self.pipeline.name,
            "clock_ps": self.clock_ps,
            "steady_state_ii": self.steady_state_ii,
            "frame_cycles": self.frame_cycles,
            "latency": self.latency,
            "area": round(self.area, 1),
            "power_mw": round(self.power().total_mw, 3),
            "stages": {name: {
                "ii": r.schedule.ii_effective,
                "latency": r.schedule.latency,
                "offset": r.offset,
                "area": round(r.schedule.area, 1),
            } for name, r in self.stages.items()},
            "channels": {name: {
                "width": c.width,
                "depth": c.depth,
                "min_depth": self.min_depths.get(name),
            } for name, c in sorted(self.channels.items())},
        }

    def table(self) -> str:
        """Per-stage composition report (II, latency, offset, area)."""
        lines = [f"{'stage':<12} {'II':>4} {'latency':>8} {'offset':>7} "
                 f"{'area':>9}"]
        for name, r in self.stages.items():
            lines.append(f"{name:<12} {r.schedule.ii_effective:>4} "
                         f"{r.schedule.latency:>8} {r.offset:>7} "
                         f"{r.schedule.area:>9.0f}")
        lines.append(f"{'channel':<12} {'width':>5} {'depth':>6} "
                     f"{'min':>5}")
        for name, chan in sorted(self.channels.items()):
            lines.append(f"{name:<12} {chan.width:>5} {chan.depth:>6} "
                         f"{self.min_depths.get(name, '-'):>5}")
        lines.append(f"steady-state II {self.steady_state_ii}, "
                     f"latency {self.latency}, area {self.area:.0f}")
        return "\n".join(lines)


def compile_pipeline(
    pipeline: Pipeline,
    library: Library,
    clock_ps: float = 1600.0,
    options: Optional[SchedulerOptions] = None,
    cache: Optional["FlowCache"] = None,  # noqa: F821 - see flow.cache
) -> ComposedPipeline:
    """Schedule every stage independently, then compose.

    Each stage runs the ``pipeline`` flow, without the optimizer, on its
    own :class:`~repro.flow.context.CompilationContext`; a shared ``cache``
    makes repeated compositions (channel-depth sweeps, repeated
    benchmarks) schedule each distinct stage once.  Raises
    :class:`~repro.core.schedule.ScheduleError` (with the failing
    stage named) when any stage is overconstrained, and
    :class:`~repro.dataflow.channel.DataflowError` on malformed
    compositions.
    """
    from repro.flow.context import CompilationContext
    from repro.flow.flow import run_context

    pipeline.validate()
    results: Dict[str, StageResult] = {}
    for stage in pipeline.topo_order():
        ctx = CompilationContext(
            library=library, clock_ps=clock_ps, region=stage.region,
            pipeline=stage.pipeline, run_optimizer=False, cache=cache)
        if options is not None:
            ctx.options = options
        run_context(ctx, "pipeline")
        if ctx.failed:
            first = ctx.errors[0]
            from repro.core.schedule import ScheduleError
            raise ScheduleError(
                f"{pipeline.name}/{stage.name}: {first.message}",
                list(first.details))
        results[stage.name] = StageResult(
            stage=stage, schedule=ctx.schedule, folded=ctx.folded)

    schedules = {name: r.schedule for name, r in results.items()}
    offsets = stage_offsets(pipeline, schedules)
    for name, result in results.items():
        result.offset = offsets[name]
    min_depths = min_channel_depths(pipeline, schedules)
    channels: Dict[str, Channel] = {}
    for name, chan in pipeline.channels.items():
        depth = chan.depth if chan.depth is not None else min_depths[name]
        channels[name] = chan.with_depth(depth)
    return ComposedPipeline(
        pipeline=pipeline, library=library, clock_ps=clock_ps,
        stages=results, channels=channels, min_depths=min_depths)

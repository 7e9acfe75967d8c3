"""High-level pipelining driver.

Step I (schedule one iteration under the SCC-window and equivalent-edge
rules) is performed by :func:`~repro.core.scheduler.schedule_region` with
a :class:`~repro.cdfg.region.PipelineSpec`; Step II (folding onto the
kernel) by :func:`~repro.core.folding.fold_schedule`.  This module wires
the two together behind the original exception-raising calling
convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.cdfg.region import PipelineSpec, Region
from repro.core.folding import FoldedPipeline
from repro.core.schedule import Schedule
from repro.core.scheduler import SchedulerOptions
from repro.tech.library import Library


@dataclass
class PipelineResult:
    """A pipelined implementation: the iteration schedule plus its kernel."""

    schedule: Schedule
    folded: FoldedPipeline

    @property
    def ii(self) -> int:
        """Initiation interval."""
        return self.folded.ii

    @property
    def stages(self) -> int:
        """Number of pipeline stages."""
        return self.folded.n_stages


def pipeline_loop(
    region: Region,
    library: Library,
    clock_ps: float,
    ii: int,
    options: Optional[SchedulerOptions] = None,
) -> PipelineResult:
    """Pipeline a loop region at designer-specified II (paper section V).

    The latency interval is chosen by the tool within the region bounds,
    starting from II + 1; the fold is validated before returning.

    Thin shim over the ``pipeline`` flow (:mod:`repro.flow`); kept for
    the original exception-raising calling convention.
    """
    from repro.flow.flow import run_flow  # deferred: flow sits above core

    ctx = run_flow("pipeline", region=region, library=library,
                   clock_ps=clock_ps, pipeline=PipelineSpec(ii=ii),
                   options=options, run_optimizer=False)
    ctx.raise_if_failed()
    return PipelineResult(schedule=ctx.schedule, folded=ctx.folded)


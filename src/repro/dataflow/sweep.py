"""Channel-depth exploration for composed pipelines.

The streaming counterpart of the microarchitecture/clock sweep: one
composition per (depth assignment, clock) grid point, each verified
cycle-accurately, each reporting steady-state II, observed cycles,
stall counts and area.  Stage schedules are shared through one
:class:`~repro.flow.cache.FlowCache`, so the whole grid schedules every
distinct stage exactly once -- the depth axis only re-runs the (cheap)
composition pass and the machine simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.scheduler import SchedulerOptions
from repro.dataflow.compose import compile_pipeline
from repro.dataflow.pipeline import Pipeline
from repro.dataflow.sim import simulate_pipeline_machine
from repro.explore.microarch import Microarch
from repro.sim.reference import InputSource, SimulationError
from repro.tech.library import Library


@dataclass(frozen=True)
class DepthSweepPoint:
    """One grid point of a channel-depth sweep."""

    label: str
    clock_ps: float
    depths: Dict[str, int]
    steady_state_ii: int
    cycles: int
    stalled_cycles: int
    area: float
    deadlocked: bool = False

    def row(self) -> List[object]:
        """Table row for reports."""
        return [self.label, f"{self.clock_ps:.0f}",
                self.steady_state_ii,
                "deadlock" if self.deadlocked else self.cycles,
                self.stalled_cycles, f"{self.area:.0f}"]


def sweep_channel_depths(
    pipeline_factory: Callable[[], Pipeline],
    library: Library,
    depth_points: Sequence[Dict[str, int]],
    clocks_ps: Sequence[float] = (1600.0,),
    inputs: Optional[InputSource] = None,
    options: Optional[SchedulerOptions] = None,
    cache: Optional["FlowCache"] = None,  # noqa: F821 - see flow.cache
) -> List[DepthSweepPoint]:
    """Compose + simulate the pipeline across a channel-depth grid.

    ``depth_points`` maps channel names to explicit depths (channels
    not mentioned keep their declared/auto depth).  Each point is
    labeled through :meth:`repro.explore.Microarch.with_channel_depth`
    so streaming sweeps speak the same microarchitecture vocabulary as
    the Figure 10 grid.  A point whose cycle-accurate run deadlocks
    (depth below the analyzed minimum on a blocking channel) is
    reported with ``deadlocked=True`` instead of being dropped.
    """
    from repro.flow.cache import FlowCache

    cache = cache if cache is not None else FlowCache()
    points: List[DepthSweepPoint] = []
    for clock_ps in clocks_ps:
        for depths in depth_points:
            pipeline = pipeline_factory()
            base = Microarch("stream", latency=1)
            micro = base.with_channel_depth(depths) if depths else base
            micro.apply_channel_depths(pipeline)
            composed = compile_pipeline(pipeline, library, clock_ps,
                                        options=options, cache=cache)
            try:
                sim = simulate_pipeline_machine(composed, inputs)
                cycles, stalled, dead = sim.cycles, sim.stalled_cycles, \
                    False
            except SimulationError:
                cycles, stalled, dead = 0, 0, True
            points.append(DepthSweepPoint(
                label=micro.name, clock_ps=clock_ps, depths=dict(depths),
                steady_state_ii=composed.steady_state_ii,
                cycles=cycles, stalled_cycles=stalled,
                area=composed.area, deadlocked=dead))
    return points

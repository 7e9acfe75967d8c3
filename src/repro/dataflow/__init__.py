"""Streaming dataflow composition: FIFO-connected multi-kernel pipelines.

Realistic designs are compositions of kernels -- producer/consumer loop
nests talking through bounded FIFO streams, where system throughput is
set by the slowest stage's initiation interval and channel sizing
interacts with the stages' I/O schedules.  This package layers that
composition on top of the single-kernel engine:

* :class:`Channel` / :class:`Pipeline` -- the composition vocabulary
  (stages are ordinary regions using ``RegionBuilder.push``/``pop``).
* :func:`compile_pipeline` -- schedule every stage independently through
  the existing flows, then compose: steady-state II (= max stage II),
  stage offsets, end-to-end latency, auto-sized channel depths,
  aggregate area/power.
* :func:`min_channel_depths` and friends -- the rate/occupancy analysis.
* :func:`simulate_pipeline_reference` / :func:`simulate_pipeline_machine`
  -- token-stream oracle and cycle-accurate FIFO execution.
* :func:`generate_pipeline_verilog` -- per-stage modules wired by
  shift-register FIFOs with valid/ready handshakes.

Quickstart (see also ``examples/streaming_pipeline.py``)::

    >>> from repro.cdfg.builder import RegionBuilder
    >>> from repro.dataflow import Pipeline, simulate_pipeline_reference
    >>> b = RegionBuilder("square", is_loop=True)
    >>> x = b.read("x", 32)
    >>> _ = b.push("c", b.mul(x, x))
    >>> b.set_trip_count(4)
    >>> squarer = b.build()
    >>> b = RegionBuilder("offset", is_loop=True)
    >>> _ = b.write("y", b.add(b.pop("c", 32), 100))
    >>> b.set_trip_count(4)
    >>> offsetter = b.build()
    >>> pipe = Pipeline("quick")
    >>> _ = pipe.add_stage("square", squarer, ii=1)
    >>> _ = pipe.add_stage("offset", offsetter, ii=1)
    >>> out = simulate_pipeline_reference(pipe, {"x": [1, 2, 3, 4]})
    >>> out.output("y")
    [101, 104, 109, 116]
"""

from repro.dataflow.analysis import (
    frame_cycles,
    min_channel_depths,
    stage_offsets,
    steady_intervals,
    steady_state_ii,
)
from repro.dataflow.channel import Channel, DataflowError
from repro.dataflow.compose import (
    ComposedPipeline,
    StageResult,
    compile_pipeline,
    fifo_area,
    fifo_bits,
)
from repro.dataflow.pipeline import Pipeline, Stage
from repro.dataflow.rtl import generate_pipeline_verilog
from repro.dataflow.sim import (
    PipelineSimResult,
    simulate_pipeline_machine,
    simulate_pipeline_reference,
)

__all__ = [
    "Channel",
    "ComposedPipeline",
    "DataflowError",
    "Pipeline",
    "PipelineSimResult",
    "Stage",
    "StageResult",
    "compile_pipeline",
    "fifo_area",
    "fifo_bits",
    "frame_cycles",
    "generate_pipeline_verilog",
    "min_channel_depths",
    "simulate_pipeline_machine",
    "simulate_pipeline_reference",
    "stage_offsets",
    "steady_intervals",
    "steady_state_ii",
]

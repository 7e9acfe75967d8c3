"""The channel-depth axis: one composition per depth, machine-simulated."""

from repro.dataflow import compile_pipeline, simulate_pipeline_machine
from repro.flow.cache import FlowCache
from repro.sim.reference import SimulationError
from repro.workloads import (
    build_matmul_relu_stream,
    matmul_relu_inputs,
)


def test_depth_sweep_grid(lib):
    cache = FlowCache()
    composed, runs = {}, {}
    for depth in (0, 1, 2, 4):
        pipe = build_matmul_relu_stream()
        pipe.set_depth("s", depth)
        composed[depth] = compile_pipeline(pipe, lib, 1600.0, cache=cache)
        try:
            runs[depth] = simulate_pipeline_machine(
                composed[depth], matmul_relu_inputs())
        except SimulationError:
            runs[depth] = None  # deadlock
    assert runs[0] is None
    assert runs[2] is not None
    # below the minimum: stalls and extra cycles; beyond: no change
    assert runs[1].cycles > runs[2].cycles
    assert runs[1].stalled_cycles > runs[2].stalled_cycles
    assert runs[4].cycles == runs[2].cycles
    # II is a composition property, independent of the depth axis
    assert {c.steady_state_ii for c in composed.values()} == {1}
    # the stage schedules were computed once and served from cache
    assert cache.hits > 0

"""Streaming dataflow composition benchmark.

Asserts the acceptance claims of the dataflow layer on the
``matmul_relu_stream`` pipeline:

1. the composed pipeline is simulator-verified equivalent to its pure
   python oracle in *both* simulators;
2. the reported steady-state II equals the maximum stage II;
3. deepening the bottleneck channel beyond the analyzed minimum never
   improves throughput (identical cycle counts);
4. shrinking it below the minimum provably stalls: the producer
   accumulates back-pressure stall cycles and the run slows down, and
   depth 0 deadlocks outright.

Key figures land in ``BENCH_results.json`` through ``bench_metrics``
(uploaded by CI as an artifact).
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import PAPER_CLOCK_PS, banner
from repro.dataflow import (
    compile_pipeline,
    simulate_pipeline_machine,
    simulate_pipeline_reference,
)
from repro.flow.cache import FlowCache
from repro.sim.reference import SimulationError
from repro.workloads import (
    build_matmul_relu_stream,
    matmul_relu_inputs,
    reference_matmul_relu_stream,
)

K, TRIP = 2, 16


@pytest.fixture(scope="module")
def inputs():
    return matmul_relu_inputs(K, TRIP)


@pytest.fixture(scope="module")
def oracle(inputs):
    a_rows = [[inputs[f"a{i}"][j] for i in range(K)] for j in range(TRIP)]
    b_rows = [[inputs[f"b{i}"][j] for i in range(K)] for j in range(TRIP)]
    return reference_matmul_relu_stream(K, a_rows, b_rows)


def test_streaming_composition_verified_and_depth_shaped(
        lib, inputs, oracle, bench_metrics):
    cache = FlowCache()
    composed = compile_pipeline(build_matmul_relu_stream(K, TRIP), lib,
                                PAPER_CLOCK_PS, cache=cache)

    # -- claim 1: both simulators match the pure-python oracle ---------
    reference = simulate_pipeline_reference(
        build_matmul_relu_stream(K, TRIP), inputs)
    machine = simulate_pipeline_machine(composed, inputs)
    assert reference.output("y") == oracle
    assert machine.output("y") == oracle

    # -- claim 2: steady-state II == max stage II ----------------------
    stage_iis = {name: r.schedule.ii_effective
                 for name, r in composed.stages.items()}
    assert composed.steady_state_ii == max(stage_iis.values())

    # -- claims 3 + 4: the channel-depth axis --------------------------
    min_depth = composed.min_depths["s"]
    assert min_depth >= 1
    by_depth = {}
    for depth in sorted({0, min_depth - 1, min_depth, min_depth + 2,
                         min_depth + 6}):
        pipe = build_matmul_relu_stream(K, TRIP)
        pipe.set_depth("s", depth)
        point = compile_pipeline(pipe, lib, PAPER_CLOCK_PS, cache=cache)
        try:
            run = simulate_pipeline_machine(point, inputs)
        except SimulationError:
            run = None  # deadlock
        by_depth[depth] = (point, run)

    banner("streaming dataflow: matmul_relu_stream channel-depth axis")
    print(composed.table())
    print(f"{'depth':>6} {'cycles':>8} {'stalled':>8}")
    for depth, (_, run) in sorted(by_depth.items()):
        print(f"{depth:>6} {run.cycles if run else 'deadlock':>8} "
              f"{run.stalled_cycles if run else 0:>8}")

    at_min_point, at_min = by_depth[min_depth]
    assert at_min is not None
    # deepening never improves II or cycle count
    for extra in (2, 6):
        deeper_point, deeper = by_depth[min_depth + extra]
        assert deeper_point.steady_state_ii == at_min_point.steady_state_ii
        assert deeper.cycles == at_min.cycles
    # shrinking below the minimum provably stalls
    assert by_depth[0][1] is None
    shallow = by_depth[min_depth - 1][1]  # None when min_depth == 1
    if min_depth - 1 > 0:
        assert shallow.cycles > at_min.cycles
        assert shallow.stalled_cycles > at_min.stalled_cycles
    # the producer itself never stalls at (or beyond) the minimum
    assert machine.stage_results["dot"].stalled_cycles == 0

    bench_metrics.update({
        "steady_state_ii": composed.steady_state_ii,
        "stage_iis": stage_iis,
        "min_depth_s": min_depth,
        "cycles_at_min_depth": at_min.cycles,
        "cycles_below_min": shallow.cycles if shallow else 0,
        "stalled_below_min": shallow.stalled_cycles if shallow else 0,
        "latency": composed.latency,
        "area": round(composed.area, 1),
        "cache_stats": cache.stats(),
    })


def test_depth_zero_is_a_hard_deadlock(lib, inputs):
    pipe = build_matmul_relu_stream(K, TRIP)
    pipe.set_depth("s", 0)
    composed = compile_pipeline(pipe, lib, PAPER_CLOCK_PS)
    with pytest.raises(SimulationError, match="deadlock"):
        simulate_pipeline_machine(composed, inputs)

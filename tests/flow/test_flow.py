"""Named flows: the fixed pass table, diagnostics, timing
instrumentation."""

import pytest

from repro.cdfg import PipelineSpec, RegionBuilder
from repro.core.schedule import ScheduleError
from repro.flow import FLOWS, run_flow
from repro.workloads import build_example1

MINI_SOURCE = """
module mac { in int<16> x; out int<16> y;
    thread t {
        int acc = 0;
        @pipeline(1) do { acc = acc + x * x; y = acc; }
        while (x != 0);
    } }
"""


def test_builtin_flows_registered():
    assert sorted(FLOWS) == ["pipeline", "schedule", "sweep", "verilog"]
    for passes in FLOWS.values():
        assert passes[0][0] == "frontend"
    # grid points schedule each variant as built
    assert [name for name, _ in FLOWS["sweep"]] == \
        ["frontend", "schedule", "power"]


def test_unknown_flow_and_pass(lib):
    with pytest.raises(KeyError, match="unknown flow 'nonexistent'; "
                                       "choose from"):
        run_flow("nonexistent", region=build_example1(), library=lib)


def test_schedule_flow_on_region(lib):
    ctx = run_flow("schedule", region=build_example1(), library=lib,
                   clock_ps=1600.0, run_optimizer=False)
    assert not ctx.failed
    assert ctx.schedule.latency == 3
    assert ctx.folded is None  # schedule flow does not fold
    names = [t.name for t in ctx.timings]
    assert names == ["frontend", "optimize", "schedule"]
    assert all(t.seconds >= 0.0 for t in ctx.timings)


def test_pipeline_flow_folds(lib):
    ctx = run_flow("pipeline", region=build_example1(), library=lib,
                   clock_ps=1600.0, pipeline=PipelineSpec(ii=2))
    assert not ctx.failed
    assert ctx.folded is not None
    assert ctx.folded.ii == 2
    assert ctx.schedule.n_stages == ctx.folded.n_stages


def test_verilog_flow_from_source(lib):
    ctx = run_flow("verilog", source=MINI_SOURCE, library=lib,
                   clock_ps=1600.0)
    assert not ctx.failed
    # the @pipeline(1) attribute is adopted from the source
    assert ctx.pipeline is not None and ctx.pipeline.ii == 1
    assert "module mac_t_loop0" in ctx.rtl
    assert "endmodule" in ctx.rtl


def test_sweep_flow_estimates_power(lib):
    ctx = run_flow("sweep", region=build_example1(), library=lib,
                   clock_ps=1600.0)
    assert not ctx.failed
    assert ctx.power is not None and ctx.power.total_mw > 0


def test_failure_becomes_diagnostic_not_exception(lib):
    region = build_example1(max_latency=1)  # infeasible in one state
    ctx = run_flow("schedule", region=region, library=lib, clock_ps=1600.0,
                   run_optimizer=False)
    assert ctx.failed
    (diag,) = ctx.errors
    assert diag.stage == "schedule"
    assert "example1" in diag.message
    # passes after the failing one are not executed
    assert [t.name for t in ctx.timings] == ["frontend", "optimize",
                                             "schedule"]
    with pytest.raises(ScheduleError):
        ctx.raise_if_failed()


def test_frontend_error_is_diagnosed(lib):
    ctx = run_flow("schedule", source="module {", library=lib)
    assert ctx.failed
    assert ctx.errors[0].stage == "frontend"


def test_missing_source_and_region_is_diagnosed(lib):
    ctx = run_flow("schedule", library=lib)
    assert ctx.failed
    assert "no source text" in ctx.errors[0].message


def test_context_summary_is_json_friendly(lib):
    import json

    ctx = run_flow("pipeline", region=build_example1(), library=lib,
                   clock_ps=1600.0, pipeline=PipelineSpec(ii=2))
    blob = json.dumps(ctx.summary())
    assert "example1" in blob
    assert "pass_seconds" in blob


def test_shims_delegate_to_flow(lib):
    """pipeline_loop keeps its exception-raising contract."""
    from repro.core.pipeline import pipeline_loop

    result = pipeline_loop(build_example1(), lib, 1600.0, ii=2)
    assert result.ii == 2
    with pytest.raises(ScheduleError):
        pipeline_loop(build_example1(max_latency=2), lib, 1600.0, ii=2)

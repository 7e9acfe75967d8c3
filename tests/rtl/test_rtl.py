"""RTL backend: FSM derivation, Verilog structure, compensation."""

import pytest

from repro.cdfg import PipelineSpec
from repro.core import SchedulerOptions, schedule_region
from repro.core.pipeline import pipeline_loop
from repro.rtl import (
    build_fsm,
    compensate_slack,
    format_table,
    generate_verilog,
    lint_verilog,
    schedule_report,
)
from repro.tech import artisan90
from repro.workloads import build_example1

CLOCK = 1600.0


@pytest.fixture(scope="module")
def lib():
    return artisan90()


@pytest.fixture(scope="module")
def sequential(lib):
    return schedule_region(build_example1(), lib, CLOCK)


@pytest.fixture(scope="module")
def p2(lib):
    return pipeline_loop(build_example1(), lib, CLOCK, ii=2)


def test_fsm_sequential(sequential):
    fsm = build_fsm(sequential)
    assert fsm.kernel_states == 3
    assert fsm.n_stages == 1
    assert not fsm.pipelined
    assert "stage_valid" not in generate_verilog(sequential)
    assert fsm.exit_position == (0, 0)
    assert "sequential" in fsm.describe()


def test_fsm_pipelined(p2):
    fsm = build_fsm(p2.schedule, p2.folded)
    assert fsm.kernel_states == 2
    assert fsm.n_stages == 2
    assert fsm.pipelined
    # one stage-valid bit per stage
    assert "reg [1:0] stage_valid;" in generate_verilog(p2.schedule,
                                                        p2.folded)


def test_verilog_sequential_structure(sequential):
    text = generate_verilog(sequential)
    assert lint_verilog(text) == []
    assert "module example1" in text
    assert text.count("mul_32_0_y = mul_32_0_i0 * mul_32_0_i1") == 1
    assert "input  wire signed [31:0] mask" in text
    assert "output reg  signed [31:0] pixel" in text
    assert "endmodule" in text


def test_verilog_shared_unit_has_state_mux(sequential):
    text = generate_verilog(sequential)
    # the shared multiplier's operand select must depend on the state
    mul_line = next(l for l in text.splitlines() if "mul_32_0_i0 =" in l)
    assert "kstate ==" in mul_line


def test_verilog_pipelined_has_stage_valid(p2):
    text = generate_verilog(p2.schedule, p2.folded)
    assert lint_verilog(text) == []
    assert "stage_valid" in text
    assert "issue_enable" in text
    assert "stage_valid[1]" in text  # stage-2 predication


def test_verilog_loopmux_uses_first_iter(sequential):
    text = generate_verilog(sequential)
    assert "first_iter ?" in text


def test_compensation_noop_when_timing_met(sequential, lib):
    result = compensate_slack(sequential)
    assert result.closed
    assert result.upsizings == []
    assert result.area_after == pytest.approx(result.area_before)


def test_compensation_closes_ablated_schedule(lib):
    opts = SchedulerOptions(enable_scc_move=False,
                            accept_negative_slack=True)
    ablated = schedule_region(build_example1(), lib, CLOCK,
                              pipeline=PipelineSpec(ii=1), options=opts)
    assert ablated.timing_report().wns_ps < 0
    result = compensate_slack(ablated)
    assert result.closed
    assert result.wns_after_ps >= -1e-9
    assert result.area_after > result.area_before
    assert result.upsizings


def test_schedule_report_renders(sequential):
    text = schedule_report(sequential)
    assert "example1" in text
    assert "WNS" in text
    assert "total" in text


def test_format_table_alignment():
    text = format_table(["a", "bb"], [[1, 22], [333, 4]])
    lines = text.splitlines()
    assert len(lines) == 4
    assert all(len(l) == len(lines[0]) for l in lines[1:])

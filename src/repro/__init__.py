"""repro: Realistic performance-constrained pipelining in high-level synthesis.

A full reproduction of Kondratyev, Lavagno, Meyer & Watanabe (DATE 2011):
timing-driven simultaneous scheduling and binding with loop pipelining
implemented as CDFG transformations around an unchanged scheduler.

Quickstart::

    from repro import (RegionBuilder, artisan90, schedule_region,
                       pipeline_loop, simulate_reference, simulate_schedule)

    b = RegionBuilder("mac", is_loop=True, max_latency=4)
    x = b.read("x", 32)
    acc = b.loop_var("acc", b.const(0, 32))
    acc.set_next(b.add(acc, b.mul(x, x)))
    b.write("y", acc.value)
    region = b.build()

    schedule = schedule_region(region, artisan90(), clock_ps=1600.0)
    print(schedule.table())
"""

from repro.cdfg import (
    CFG,
    DFG,
    DFGError,
    OpKind,
    Operation,
    PipelineSpec,
    Predicate,
    Region,
    RegionBuilder,
)
from repro.core import (
    Schedule,
    ScheduleError,
    SchedulerOptions,
    compute_mobility,
    schedule_region,
)
from repro.core.folding import FoldedPipeline, fold_schedule
from repro.dataflow import (
    Channel,
    ComposedPipeline,
    Pipeline,
    compile_pipeline,
    generate_pipeline_verilog,
    simulate_pipeline_machine,
    simulate_pipeline_reference,
)
from repro.core.pipeline import (
    PipelineResult,
    pipeline_loop,
)
from repro.flow import (
    CompilationContext,
    Flow,
    FlowCache,
    run_flow,
    run_sweep,
)
from repro.rtl import compensate_slack, generate_verilog, schedule_report
from repro.sim import simulate_reference, simulate_schedule
from repro.tech import Library, artisan90, generic45
from repro.tech.power import PowerReport, estimate_power

__version__ = "1.0.0"

__all__ = [
    "CFG",
    "Channel",
    "CompilationContext",
    "ComposedPipeline",
    "Pipeline",
    "compile_pipeline",
    "generate_pipeline_verilog",
    "simulate_pipeline_machine",
    "simulate_pipeline_reference",
    "DFG",
    "DFGError",
    "Flow",
    "FlowCache",
    "FoldedPipeline",
    "Library",
    "OpKind",
    "Operation",
    "PipelineResult",
    "PipelineSpec",
    "PowerReport",
    "Predicate",
    "Region",
    "RegionBuilder",
    "Schedule",
    "ScheduleError",
    "SchedulerOptions",
    "artisan90",
    "compensate_slack",
    "compute_mobility",
    "estimate_power",
    "fold_schedule",
    "generate_verilog",
    "generic45",
    "pipeline_loop",
    "run_flow",
    "run_sweep",
    "schedule_region",
    "schedule_report",
    "simulate_reference",
    "simulate_schedule",
    "__version__",
]

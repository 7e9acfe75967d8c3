"""The unified compilation pipeline.

``flow`` turns the repo's hand-wired frontend -> transforms -> schedule
-> fold -> RTL sequences into declarative, cache-aware, instrumented
compilations:

* :class:`CompilationContext` -- inputs, accumulated artifacts and
  structured per-stage diagnostics;
* :class:`FlowPass` / :class:`Flow` -- registered stages composed into
  named flows (``schedule``, ``pipeline``, ``verilog``, ``sweep``);
* :class:`FlowCache` -- content-addressed result cache keyed by a
  deterministic hash of (region structure, library, clock, options);
* :func:`run_sweep` / :func:`run_points` -- the sweep engine behind
  the Figure 10/11 experiments and the DSE layer's batched
  evaluations: two decision-identical backends picked by ``jobs``
  (serial ``context``, parallel ``process``), cross-point carryover
  via :class:`SweepContext`, and explicit infeasible-point records;
* :func:`synthesize_design_point` -- the single-point entry (a
  one-point :class:`SweepContext`).

``core.pipeline.pipeline_loop`` and the CLI commands run on top of
this package.
"""

from repro.flow.cache import FlowCache, compilation_key, region_fingerprint
from repro.flow.context import CompilationContext, Diagnostic, PassTiming
from repro.flow.executor import (
    PointResult,
    SweepResult,
    run_points,
    run_sweep,
    synthesize_design_point,
)
from repro.flow.sweepctx import SweepContext, SweepVariant
from repro.flow.flow import (
    FLOW_REGISTRY,
    Flow,
    get_flow,
    register_flow,
    run_flow,
)
from repro.flow.passes import (
    PASS_REGISTRY,
    FlowPass,
    get_pass,
    register_pass,
)

__all__ = [
    "CompilationContext",
    "Diagnostic",
    "FLOW_REGISTRY",
    "Flow",
    "FlowCache",
    "FlowPass",
    "PASS_REGISTRY",
    "PassTiming",
    "PointResult",
    "SweepContext",
    "SweepResult",
    "SweepVariant",
    "compilation_key",
    "get_flow",
    "get_pass",
    "region_fingerprint",
    "register_flow",
    "register_pass",
    "run_flow",
    "run_points",
    "run_sweep",
    "synthesize_design_point",
]

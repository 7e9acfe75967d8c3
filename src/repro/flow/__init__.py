"""The unified compilation pipeline.

``flow`` turns the repo's hand-wired frontend -> transforms -> schedule
-> fold -> RTL sequences into declarative, cache-aware, instrumented
compilations:

* :class:`CompilationContext` -- inputs, accumulated artifacts and
  structured per-stage diagnostics;
* :data:`FLOWS` / :func:`run_flow` / :func:`run_context` -- a fixed
  table of named pass sequences (``schedule``, ``pipeline``,
  ``verilog``, ``sweep``) and the one runner that times, traces and
  cancels every pass the same way;
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
from repro.flow.flow import run_context, run_flow
from repro.flow.passes import FLOWS

__all__ = [
    "CompilationContext",
    "Diagnostic",
    "FLOWS",
    "FlowCache",
    "PassTiming",
    "PointResult",
    "SweepContext",
    "SweepResult",
    "SweepVariant",
    "compilation_key",
    "region_fingerprint",
    "run_context",
    "run_flow",
    "run_points",
    "run_sweep",
    "synthesize_design_point",
]

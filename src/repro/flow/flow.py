"""Running a named flow over one compilation context.

The flows are a fixed table (:data:`repro.flow.passes.FLOWS`):

========== ==========================================================
``schedule``  frontend -> optimize -> schedule
``pipeline``  schedule plus kernel folding
``verilog``   pipeline plus RTL emission
``sweep``     frontend -> schedule -> power (the Figure 10/11 axes;
              grid points schedule each variant as built)
========== ==========================================================

:func:`run_context` threads one
:class:`~repro.flow.context.CompilationContext` through a flow's
passes, timing each and stopping at the first error diagnostic;
:func:`run_flow` builds the context from keyword arguments first.

Example -- compile a prebuilt region to RTL through the ``verilog``
flow::

    from repro import artisan90
    from repro.flow import run_flow
    from repro.workloads import get_workload

    ctx = run_flow("verilog", region=get_workload("fir")(),
                   library=artisan90(), clock_ps=1600.0)
    assert not ctx.failed
    print(ctx.schedule.summary()["ii"], len(ctx.rtl.splitlines()))
"""

from __future__ import annotations

import time

from repro.flow.context import CompilationContext, PassTiming
from repro.flow.passes import FLOWS
from repro.obs.trace import maybe_span


def run_context(ctx: CompilationContext, name: str) -> CompilationContext:
    """Run the named flow's passes over ``ctx``; stops at the first error.

    Between passes the flow honors the context's cancellation event (a
    set event yields a ``cancelled`` error diagnostic instead of
    further artifacts) and reports pass boundaries through the
    context's progress hook -- the checkpoints the job service relies
    on for live status and cooperative aborts.  Raises ``KeyError``
    (listing the choices) for an unknown flow name.
    """
    try:
        passes = FLOWS[name]
    except KeyError:
        raise KeyError(f"unknown flow {name!r}; "
                       f"choose from {sorted(FLOWS)}") from None
    with maybe_span(ctx.tracer, "flow.run", flow=name,
                    region=ctx.region.name if ctx.region else None,
                    clock_ps=ctx.clock_ps) as flow_span:
        for pass_name, body in passes:
            if ctx.cancel_requested:
                ctx.error("flow", f"cancelled before pass {pass_name!r}")
                break
            ctx.notify(pass_name, "start")
            with maybe_span(ctx.tracer, "flow.pass",
                            name=pass_name) as pass_span:
                start = time.perf_counter()
                outcome = body(ctx)
                elapsed = time.perf_counter() - start
                if pass_span is not None:
                    pass_span.set("outcome", outcome or "computed")
                    pass_span.set("failed", ctx.failed)
            ctx.timings.append(
                PassTiming(pass_name, elapsed, cached=outcome == "cached"))
            ctx.notify(pass_name,
                       "cached" if outcome == "cached" else "done")
            if ctx.failed:
                break
        if flow_span is not None:
            flow_span.set("failed", ctx.failed)
    return ctx


def run_flow(name: str, **context_kwargs) -> CompilationContext:
    """Build a context from keyword arguments and run a named flow.

    ``options=None`` is accepted and replaced by defaults so shims can
    forward their optional parameter unconditionally.
    """
    if context_kwargs.get("options") is None:
        context_kwargs.pop("options", None)
    return run_context(CompilationContext(**context_kwargs), name)

"""The compilation passes and the fixed table of flows built from them.

Each pass is a named, cache-aware stage over a
:class:`~repro.flow.context.CompilationContext`.  The bodies are thin:
they delegate to the existing engines (``compile_source``, ``optimize``,
``schedule_region``, ``fold_schedule``, ``generate_verilog``,
``estimate_power``), looked up as module globals at call time, and
translate exceptions into structured diagnostics.  A pass returns
``"cached"`` when it served its artifact from the context's
:class:`~repro.flow.cache.FlowCache`, ``"skipped"`` when it had nothing
to do, and ``None`` when it computed.

:data:`FLOWS` names every flow and lists its passes in order;
:func:`repro.flow.flow.run_context` runs one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.cdfg.transforms import optimize
from repro.core.folding import fold_schedule, validate_folding
from repro.core.schedule import ScheduleError
from repro.core.scheduler import schedule_region
from repro.flow.cache import compilation_key
from repro.flow.context import CompilationContext
from repro.frontend import FrontendError, compile_source
from repro.rtl import generate_verilog
from repro.tech.power import estimate_power

PassFn = Callable[[CompilationContext], Optional[str]]


def _ensure_key(ctx: CompilationContext) -> Optional[str]:
    """The context's compilation cache key (computed once, then shared)."""
    if ctx.cache is None:
        return None
    if ctx.cache_key is None:
        ctx.cache_key = compilation_key(
            ctx.region, ctx.library, ctx.clock_ps, ctx.options,
            ctx.pipeline)
    return ctx.cache_key


def _cached(ctx: CompilationContext, stage: str):
    key = _ensure_key(ctx)
    if key is None:
        return None
    return ctx.cache.get(key, stage)


def _store(ctx: CompilationContext, stage: str, artifact: object) -> None:
    if ctx.cache is not None and ctx.cache_key is not None:
        ctx.cache.put(ctx.cache_key, stage, artifact)


@dataclass(frozen=True)
class _Infeasible:
    """Negative cache entry: the scheduler proved this key infeasible.

    Infeasible configurations are the most expensive ones (they exhaust
    the relaxation search), so re-sweeps must not replay them.
    """

    message: str
    details: Tuple[str, ...]


# ----------------------------------------------------------------------
# pass bodies
# ----------------------------------------------------------------------
def frontend_pass(ctx: CompilationContext) -> Optional[str]:
    """Source text -> elaborated loops; the first loop becomes the region.

    Skipped when the context already carries a prebuilt region.  Multi-
    loop sources keep all loops in ``ctx.elaborated``; drivers that
    compile every loop build one context per loop.
    """
    if ctx.region is not None:
        return "skipped"
    if ctx.source is None:
        ctx.error("frontend", "no source text and no prebuilt region")
        return None
    try:
        loops = compile_source(ctx.source)
    except FrontendError as exc:
        ctx.error("frontend", exc.headline(), details=tuple(exc.excerpt()))
        return None
    ctx.elaborated = loops
    loop = loops[0]
    ctx.region = loop.region
    if ctx.pipeline is None and loop.pipeline is not None:
        ctx.pipeline = loop.pipeline
        ctx.info("frontend",
                 f"adopted @pipeline({loop.pipeline.ii}) from source")
    return None


def optimize_pass(ctx: CompilationContext) -> Optional[str]:
    """Run the standard optimizer pipeline on the region's DFG."""
    if not ctx.run_optimizer:
        return "skipped"
    ctx.opt_report = optimize(ctx.region)
    return None


def schedule_pass(ctx: CompilationContext) -> Optional[str]:
    """Schedule and bind the region (the paper's section IV/V engine)."""
    hit = _cached(ctx, "schedule")
    if isinstance(hit, _Infeasible):
        ctx.error("schedule", hit.message, hit.details)
        return "cached"
    if hit is not None:
        ctx.schedule = hit
        return "cached"
    carryover = (ctx.scheduler_carryover()
                 if ctx.scheduler_carryover is not None else None)
    try:
        ctx.schedule = schedule_region(
            ctx.region, ctx.library, ctx.clock_ps,
            pipeline=ctx.pipeline, options=ctx.options,
            carryover=carryover, tracer=ctx.tracer)
    except ScheduleError as exc:
        # args[0] is the bare message; str(exc) would repeat the
        # diagnostics that go into the structured details
        ctx.error("schedule", str(exc.args[0]), tuple(exc.diagnostics))
        _store(ctx, "schedule",
               _Infeasible(str(exc.args[0]), tuple(exc.diagnostics)))
        return None
    _store(ctx, "schedule", ctx.schedule)
    return None


def fold_pass(ctx: CompilationContext) -> Optional[str]:
    """Fold a pipelined schedule (step II); no-op when sequential."""
    if ctx.pipeline is None:
        return "skipped"
    hit = _cached(ctx, "fold")
    if hit is not None:
        ctx.folded = hit
        return "cached"
    folded = fold_schedule(ctx.schedule)
    problems = validate_folding(folded)
    if problems:
        ctx.error("fold",
                  f"{ctx.schedule.region.name}: folding validation failed",
                  tuple(problems))
        return None
    ctx.folded = folded
    _store(ctx, "fold", folded)
    return None


def verilog_pass(ctx: CompilationContext) -> Optional[str]:
    """Generate RTL from the schedule (folded kernel when pipelined)."""
    hit = _cached(ctx, "verilog")
    if hit is not None:
        ctx.rtl = hit
        return "cached"
    ctx.rtl = generate_verilog(ctx.schedule, ctx.folded)
    _store(ctx, "verilog", ctx.rtl)
    return None


def power_pass(ctx: CompilationContext) -> Optional[str]:
    """Estimate average power at the full-rate operating point."""
    hit = _cached(ctx, "power")
    if hit is not None:
        ctx.power = hit
        return "cached"
    ctx.power = estimate_power(ctx.schedule)
    _store(ctx, "power", ctx.power)
    return None


_SCHEDULE = (("frontend", frontend_pass), ("optimize", optimize_pass),
             ("schedule", schedule_pass))
#: every flow by name: its passes, in order.
FLOWS: Dict[str, Tuple[Tuple[str, PassFn], ...]] = {
    "schedule": _SCHEDULE,
    "pipeline": _SCHEDULE + (("fold", fold_pass),),
    "verilog": _SCHEDULE + (("fold", fold_pass), ("verilog", verilog_pass)),
    # grid points schedule the variant exactly as built: no optimizer
    "sweep": (("frontend", frontend_pass), ("schedule", schedule_pass),
              ("power", power_pass)),
}

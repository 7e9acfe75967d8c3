"""The sweep engine: process-parallel, cross-point-incremental grids.

Runs the microarchitecture x clock grid of the paper's Figures 10/11
through the ``sweep`` flow.  Two backends share one contract -- every
scheduling decision is bit-identical to the serial cold per-point path
(:func:`synthesize_design_point` over each point), diagnostics
included.  The engine picks the backend; callers only choose ``jobs``:

``context`` (``jobs <= 1``, or a single-core host)
    Serial traversal over a :class:`~repro.flow.sweepctx.SweepContext`:
    the region factory runs once, each microarchitecture variant
    (unroll + latency clamp + banking) is built once, and all clocks of
    a variant share one scheduler carryover cache (timing statics,
    heights, priority orders, clock-keyed ASAP/ALAP skeletons).

``process`` (``jobs > 1`` on a multicore host)
    The context engine sharded over worker processes.  Points are
    batched per variant, each batch shipping its prebuilt region to the
    worker as one pickle blob (not one per point); workers keep a
    private :class:`~repro.flow.cache.FlowCache` whose entries are
    merged back into the shared cache on completion.  Points already
    present in the shared cache are served in the parent, so warm
    re-sweeps never pay worker dispatch.  Any pool-level failure falls
    back to the ``context`` backend for the remaining points.

Infeasible configurations are first-class :class:`InfeasiblePoint`
results instead of being silently dropped.  Result ordering is the
serial traversal order (microarchitecture-major, then clock) under
both backends.
"""

from __future__ import annotations

import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro import profiling
from repro.cdfg.region import Region
from repro.core.scheduler import SchedulerOptions
from repro.explore.microarch import (
    InfeasiblePoint,
    Microarch,
    PAPER_CLOCKS_PS,
    PAPER_MICROARCHS,
)
from repro.explore.pareto import DesignPoint
from repro.flow.cache import FlowCache, compilation_key
from repro.flow.context import CompilationContext
from repro.flow.flow import run_context
from repro.flow.sweepctx import SweepContext, SweepVariant
from repro.obs.metrics import REGISTRY
from repro.obs.trace import Tracer, maybe_span
from repro.tech.library import Library

PointResult = Union[DesignPoint, InfeasiblePoint]


@dataclass
class SweepResult:
    """Everything one sweep produced, feasible or not."""

    points: List[DesignPoint] = field(default_factory=list)
    infeasible: List[InfeasiblePoint] = field(default_factory=list)
    elapsed_s: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    backend: str = "context"
    jobs: int = 1
    #: sweep-layer profile: worker utilization, pickled bytes, warm
    #: accepts/fallbacks, per-worker cache traffic (process backend).
    profile: Dict[str, object] = field(default_factory=dict)

    @property
    def total(self) -> int:
        """Grid size: feasible + infeasible."""
        return len(self.points) + len(self.infeasible)

    def summary(self) -> Dict[str, object]:
        """JSON-friendly record of the whole sweep."""
        return {
            "feasible": len(self.points),
            "infeasible": len(self.infeasible),
            "elapsed_s": round(self.elapsed_s, 4),
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "backend": self.backend,
            "jobs": self.jobs,
            "profile": dict(self.profile),
            "points": [
                {"label": p.label, "microarch": p.microarch,
                 "clock_ps": p.clock_ps, "ii": p.ii, "latency": p.latency,
                 "delay_ps": p.delay_ps, "area": p.area,
                 "power_mw": p.power_mw} for p in self.points],
            "infeasible_points": [
                {"microarch": q.microarch, "clock_ps": q.clock_ps,
                 "reason": q.reason} for q in self.infeasible],
        }


def _point_result(ctx: CompilationContext, microarch: Microarch,
                  clock_ps: float) -> PointResult:
    """Translate a finished flow context into a grid point record."""
    if ctx.failed:
        return InfeasiblePoint(microarch.name, clock_ps,
                               ctx.errors[0].message)
    schedule = ctx.schedule
    return DesignPoint(
        label=f"{microarch.name}@{clock_ps:.0f}",
        microarch=microarch.name,
        clock_ps=clock_ps,
        ii=schedule.ii_effective,
        latency=schedule.latency,
        delay_ps=schedule.delay_ps,
        area=schedule.area,
        power_mw=ctx.power.total_mw,
    )


def synthesize_design_point(
    region_factory: Callable[[], Region],
    library: Library,
    microarch: Microarch,
    clock_ps: float,
    options: Optional[SchedulerOptions] = None,
    cache: Optional[FlowCache] = None,
    tracer: Optional[Tracer] = None,
) -> PointResult:
    """One HLS run through the ``sweep`` flow: the cold per-point path.

    A fresh :class:`SweepContext` builds the microarchitecture variant
    (so nothing is shared with any other call: fresh region, fresh
    carryover) and the point schedules against it exactly as a grid
    point would.  Returns a :class:`DesignPoint`, or an
    :class:`InfeasiblePoint` carrying the scheduler's reason when the
    configuration is overconstrained or the variant is unbuildable.
    """
    variant = SweepContext(region_factory, library).variant(microarch)
    return _variant_point(variant, library, clock_ps, options, cache,
                          tracer)


def _variant_point(
    variant: SweepVariant,
    library: Library,
    clock_ps: float,
    options: Optional[SchedulerOptions],
    cache: Optional[FlowCache],
    tracer: Optional[Tracer] = None,
) -> PointResult:
    """One grid point against a prebuilt variant (every path)."""
    if variant.region is None:
        return InfeasiblePoint(variant.microarch.name, clock_ps,
                               variant.error or "variant build failed")
    with maybe_span(tracer, "sweep.point",
                    microarch=variant.microarch.name,
                    clock_ps=clock_ps) as span:
        ctx = CompilationContext(
            region=variant.region, library=library, clock_ps=clock_ps,
            pipeline=variant.pipeline, cache=cache, tracer=tracer)
        ctx.scheduler_carryover = variant.carryover
        if options is not None:
            ctx.options = options
        run_context(ctx, "sweep")
        result = _point_result(ctx, variant.microarch, clock_ps)
        if span is not None:
            span.set("feasible", not isinstance(result, InfeasiblePoint))
    return result


# ----------------------------------------------------------------------
# process backend
# ----------------------------------------------------------------------
def _sweep_worker(payload: Tuple) -> Tuple:
    """One worker batch: a variant region blob plus its clock list.

    Runs in a worker process.  The region arrives as a single pickle
    blob shared by every point of the batch; the worker schedules its
    clocks against a private :class:`FlowCache` (entries travel back to
    the parent for merging) and returns its profiling counters and busy
    time so the parent can report utilization.  When the parent traces
    (``traced`` in the payload), the worker records its points into a
    private :class:`Tracer` and ships the exported spans home on the
    same return tuple the cache entries ride -- the sweep's existing
    merge-back channel.
    """
    (chunk_id, blob, error, microarch, clocks, options, library,
     traced) = payload
    profiling.reset()  # forked workers inherit the parent's table
    tracer = Tracer() if traced else None
    start = time.perf_counter()
    region = pickle.loads(blob) if blob is not None else None
    variant = SweepVariant(microarch, region, error, library)
    local_cache = FlowCache()
    results = [
        _variant_point(variant, library, clock, options, local_cache,
                       tracer)
        for clock in clocks
    ]
    busy_s = time.perf_counter() - start
    return (chunk_id, results, local_cache.entries(), local_cache.stats(),
            profiling.snapshot(), busy_s,
            tracer.export() if tracer else [])


def _chunk_clocks(idxs: List[int], n_chunks: int) -> List[List[int]]:
    """Split one variant's grid indexes into up to ``n_chunks`` batches."""
    n_chunks = max(1, min(n_chunks, len(idxs)))
    size = -(-len(idxs) // n_chunks)
    return [idxs[i:i + size] for i in range(0, len(idxs), size)]


def _run_process_backend(
    sctx: SweepContext,
    grid: List[Tuple[Microarch, float]],
    results: List[Optional[PointResult]],
    library: Library,
    options: Optional[SchedulerOptions],
    jobs: int,
    cache: Optional[FlowCache],
    profile: Dict[str, object],
    tracer: Optional[Tracer] = None,
) -> None:
    """Fill ``results`` for every index still None, via worker processes."""
    by_variant: Dict[Microarch, List[int]] = {}
    for idx, (microarch, _) in enumerate(grid):
        if results[idx] is None:
            by_variant.setdefault(microarch, []).append(idx)
    if not by_variant:
        return
    per_variant = max(1, jobs // len(by_variant))
    workers: List[Dict[str, object]] = []
    # more processes than cores only adds fork + scheduling overhead;
    # chunking already bounds useful parallelism at one batch per
    # variant-chunk
    max_workers = min(jobs, max(1, os.cpu_count() or 1))
    with ProcessPoolExecutor(max_workers=max_workers) as pool:
        futures = []
        chunk_map: List[List[int]] = []
        # build + submit variant by variant so the first worker starts
        # while the parent is still constructing later variants
        for microarch, idxs in by_variant.items():
            variant = sctx.variant(microarch)
            blob = variant.blob() if variant.region is not None else None
            for chunk_idxs in _chunk_clocks(idxs, per_variant):
                payload = (len(chunk_map), blob, variant.error, microarch,
                           [grid[i][1] for i in chunk_idxs], options,
                           library, tracer is not None)
                futures.append(pool.submit(_sweep_worker, payload))
                chunk_map.append(chunk_idxs)
        for future, chunk_idxs in zip(futures, chunk_map):
            (_, chunk_results, entries, stats, counters,
             busy_s, spans) = future.result()
            for idx, result in zip(chunk_idxs, chunk_results):
                results[idx] = result
            profiling.merge(counters)
            if tracer is not None:
                tracer.absorb(spans)
            REGISTRY.observe("sweep.worker_busy_seconds", busy_s)
            if cache is not None:
                cache.absorb(entries)
                # fold the worker's flow lookups into the shared
                # counters: the sweep's hit/miss totals then match the
                # serial traversal exactly
                cache.hits += stats["hits"]
                cache.misses += stats["misses"]
            workers.append({
                "points": len(chunk_idxs),
                "busy_s": round(busy_s, 4),
                "cache_hits": stats["hits"],
                "cache_misses": stats["misses"],
            })
    profile["workers"] = workers


def _execute_grid(
    region_factory: Callable[[], Region],
    library: Library,
    grid: List[Tuple[Microarch, float]],
    options: Optional[SchedulerOptions],
    jobs: int,
    cache: Optional[FlowCache],
    tracer: Optional[Tracer] = None,
) -> Tuple[List[PointResult], SweepResult]:
    """Execute an explicit (microarch, clock) list on the sweep engine.

    The shared core of :func:`run_sweep` (cross-product grids) and
    :func:`run_points` (ragged point lists).  Returns the per-point
    results in input order plus the accounting record.
    """
    # a process pool on a single-core host is pure fork/pickle overhead
    # -- the context engine does the same work in-process (the backends
    # are decision-identical, so the choice is invisible)
    backend = "process" if jobs > 1 and (os.cpu_count() or 1) > 1 \
        else "context"
    hits0 = cache.hits if cache is not None else 0
    misses0 = cache.misses if cache is not None else 0
    ffwd0 = profiling.counters.get("scheduler.ffwd", 0)
    reject0 = profiling.counters.get("scheduler.ffwd_reject", 0)
    pickle0 = profiling.counters.get("sweep.pickle_bytes", 0)
    profile: Dict[str, object] = {}
    start = time.perf_counter()

    with maybe_span(tracer, "sweep.run", backend=backend, jobs=jobs,
                    points=len(grid)):
        sctx = SweepContext(region_factory, library)
        results: List[Optional[PointResult]] = [None] * len(grid)
        if backend == "process":
            # serve points the shared cache already covers in the
            # parent (the flow's own get() calls do the hit counting),
            # then dispatch the rest to workers
            parent_served = 0
            for idx, (microarch, clock) in enumerate(grid):
                if cache is None:
                    break
                variant = sctx.variant(microarch)
                if variant.region is None:
                    continue
                key = compilation_key(
                    variant.region, library, clock,
                    options or SchedulerOptions(), variant.pipeline)
                if cache.peek(key, "schedule"):
                    results[idx] = _variant_point(
                        variant, library, clock, options, cache, tracer)
                    parent_served += 1
            profile["parent_served"] = parent_served
            try:
                _run_process_backend(sctx, grid, results, library,
                                     options, jobs, cache, profile,
                                     tracer)
            except Exception:
                # pool-level failure (unpicklable payload, broken
                # worker): finish on the in-process context engine
                profiling.bump("sweep.process_fallback")
                profile["process_fallback"] = True
        for idx, (microarch, clock) in enumerate(grid):
            if results[idx] is None:
                results[idx] = _variant_point(
                    sctx.variant(microarch), library, clock, options,
                    cache, tracer)

    elapsed = time.perf_counter() - start
    out = SweepResult(elapsed_s=elapsed, backend=backend, jobs=jobs,
                      profile=profile)
    for result in results:
        if isinstance(result, InfeasiblePoint):
            out.infeasible.append(result)
        else:
            out.points.append(result)
    if cache is not None:
        out.cache_hits = cache.hits - hits0
        out.cache_misses = cache.misses - misses0
    counters = profiling.counters
    profile["warm_accepts"] = counters.get("scheduler.ffwd", 0) - ffwd0
    profile["warm_fallbacks"] = \
        counters.get("scheduler.ffwd_reject", 0) - reject0
    profile["pickle_bytes"] = \
        counters.get("sweep.pickle_bytes", 0) - pickle0
    workers = profile.get("workers")
    if workers and elapsed > 0:
        busy = sum(w["busy_s"] for w in workers)
        profile["worker_utilization"] = round(
            busy / (elapsed * max(jobs, 1)), 4)
        REGISTRY.set_gauge("sweep.worker_utilization",
                           profile["worker_utilization"])
    profiling.bump("sweep.points", len(grid))
    profiling.bump(f"sweep.backend.{backend}")
    # the profile dict stays the public per-sweep record; the registry
    # carries the same figures for live consumers (/metrics, profile
    # --json) without another counter table
    REGISTRY.observe("sweep.elapsed_seconds", elapsed)
    REGISTRY.set_gauge("sweep.last_points", len(grid))
    return results, out


def run_sweep(
    region_factory: Callable[[], Region],
    library: Library,
    microarchs: Sequence[Microarch] = PAPER_MICROARCHS,
    clocks_ps: Sequence[float] = PAPER_CLOCKS_PS,
    options: Optional[SchedulerOptions] = None,
    jobs: int = 1,
    cache: Optional[FlowCache] = None,
    tracer: Optional[Tracer] = None,
) -> SweepResult:
    """The full microarch x clock grid, on the sweep engine.

    ``jobs`` picks the backend (``context`` serially, ``process`` for
    ``jobs > 1`` on multicore hosts).  Result ordering and every
    scheduling decision are identical across backends --
    including with a ``tracer`` attached, which collects per-point
    spans (worker-process spans come home over the cache merge-back
    channel) without steering anything.
    """
    grid: List[Tuple[Microarch, float]] = [
        (m, float(c)) for m in microarchs for c in clocks_ps]
    _, out = _execute_grid(region_factory, library, grid, options, jobs,
                           cache, tracer)
    return out


def run_points(
    region_factory: Callable[[], Region],
    library: Library,
    points: Sequence[Tuple[Microarch, float]],
    options: Optional[SchedulerOptions] = None,
    jobs: int = 1,
    cache: Optional[FlowCache] = None,
    tracer: Optional[Tracer] = None,
) -> List[PointResult]:
    """A ragged (microarch, clock) list through the sweep engine.

    The batched evaluation entry the DSE strategies use: one dispatch
    covers every queued candidate, whatever mixture of curves they come
    from, so the worker pool stays saturated between search decisions.
    Results come back in input order, one per requested point, with the
    same bit-identical-to-serial guarantee as :func:`run_sweep`.
    """
    grid = [(m, float(c)) for m, c in points]
    results, _ = _execute_grid(region_factory, library, grid, options,
                               jobs, cache, tracer)
    return results

"""What a job actually runs: parameter normalization, content keys and
the four job kinds executed against the Flow/DSE stack.

This module is deliberately process-agnostic: the engine calls
:func:`execute_job` either inside a worker process (the normal path) or
inline in a worker thread (graceful degradation), with the same
arguments.  Results are split into a *deterministic* payload (what the
result endpoint serves, and what dedup identity is asserted against --
no wall times, no cache counters) and a *stats* record (everything
nondeterministic).

Content keys (:func:`job_key`) reuse the repo's content-addressing
end to end: the region / pipeline structural fingerprint from
:mod:`repro.flow.cache`, the timing-model version, the library and the
normalized parameters.  Identity is the elaborated region's structure,
not its spelling: two source submissions differing only in formatting
or comments hash identically, which is exactly the dedup the service
promises.
"""

from __future__ import annotations

import hashlib
import json
from typing import Callable, List, Optional, Tuple

from repro.dse.search import STRATEGIES
from repro.explore.microarch import (
    InfeasiblePoint,
    Microarch,
    PAPER_CLOCKS_PS,
)
from repro.flow.cache import FlowCache, region_fingerprint
from repro.flow.context import CompilationContext
from repro.flow.flow import get_flow
from repro.frontend import FrontendError, compile_source
from repro.service.jobs import JobCancelled, JobError
from repro.tech import LIBRARIES, Library
from repro.timing import engine as timing_engine
from repro.workloads import (
    PIPELINE_INPUTS,
    PIPELINE_REGISTRY,
    WORKLOAD_REGISTRY,
)

#: the job kinds the service accepts.
JOB_KINDS = ("schedule", "sweep", "tune", "stream")

#: points per progress/cancellation checkpoint in sweep execution.
SWEEP_WAVE = 4


def parse_microarchs(spec_text: Optional[str]) -> List[Microarch]:
    """Microarchs from a ``lat[,lat:ii,...]`` spec (CLI & job bodies).

    ``None``/empty falls back to the paper's eight microarchitectures.
    Raises :class:`JobError` on malformed entries.
    """
    from repro.explore.microarch import PAPER_MICROARCHS

    if not spec_text:
        return list(PAPER_MICROARCHS)
    micros: List[Microarch] = []
    for spec in str(spec_text).split(","):
        try:
            if ":" in spec:
                lat, ii = spec.split(":")
                micros.append(Microarch(f"P{lat}/{ii}", int(lat),
                                        ii=int(ii)))
            else:
                micros.append(Microarch(f"NP{spec}", int(spec)))
        except ValueError:
            raise JobError(
                f"bad microarch spec {spec!r} (want lat or lat:ii)")
    return micros


def _library(name: str) -> Library:
    try:
        return LIBRARIES[name]()
    except KeyError:
        raise JobError(f"unknown library {name!r}; "
                       f"choose from {sorted(LIBRARIES)}")


def _clock_list(value) -> List[float]:
    """Clocks from a list or a comma-separated string."""
    if value is None:
        return [float(c) for c in PAPER_CLOCKS_PS]
    if isinstance(value, str):
        value = value.split(",")
    try:
        clocks = [float(c) for c in value]
    except (TypeError, ValueError):
        raise JobError(f"bad clocks {value!r}")
    if not clocks:
        raise JobError("empty clock list")
    return clocks


def _region_factory(params: dict) -> Callable:
    """The region factory of a job's design spec.

    ``workload`` names a registry entry; ``source`` carries Python-
    subset or mini-language text compiled on the spot (exactly one
    kernel, like the CLI's sweep path).  Factories recompile/rebuild
    per call so regions are never shared mutable state.  Only the
    spelling is checked here; a ``source`` that does not compile
    raises :class:`JobError` from the factory.
    """
    workload = params.get("workload")
    source = params.get("source")
    if (workload is None) == (source is None):
        raise JobError("exactly one of 'workload' or 'source' required")
    if workload is not None:
        factory = WORKLOAD_REGISTRY.get(workload)
        if factory is None:
            raise JobError(f"unknown workload {workload!r}; choose from "
                           f"{sorted(WORKLOAD_REGISTRY)}")
        return factory

    def factory(text=source):
        try:
            units = compile_source(text, filename="<submitted>")
        except FrontendError as exc:
            raise JobError(f"frontend error: {exc.render()}")
        if len(units) != 1:
            raise JobError(
                f"submitted source must contain exactly one kernel, "
                f"found {[u.region.name for u in units]}")
        return units[0].region
    return factory


def prepare_job(kind: str, params: dict) -> Tuple[dict, str]:
    """(normalized params, job key) of one submission, building the
    design once: the key's fingerprint build is also its validation
    (a ``source`` that does not compile raises :class:`JobError`).

    The normalized record fills every default in and is what gets
    hashed into the key, so two submissions differing only in
    spelled-out defaults dedup together.  Raises :class:`JobError` on
    any problem (mapped to HTTP 400).
    """
    if kind not in JOB_KINDS:
        raise JobError(f"unknown job kind {kind!r}; "
                       f"choose from {JOB_KINDS}")
    if not isinstance(params, dict):
        raise JobError("job params must be a JSON object")
    out: dict = {"library": str(params.get("library", "artisan90"))}
    _library(out["library"])  # validate early
    if kind == "stream":
        pipeline = params.get("pipeline")
        if pipeline not in PIPELINE_REGISTRY:
            raise JobError(
                f"unknown pipeline {pipeline!r}; choose from "
                f"{sorted(PIPELINE_REGISTRY)}")
        out["pipeline"] = pipeline
        out["clock_ps"] = float(params.get("clock_ps", 1600.0))
        return out, job_key(kind, out)
    out["workload"] = params.get("workload")
    out["source"] = params.get("source")
    if kind == "schedule":
        out["clock_ps"] = float(params.get("clock_ps", 1600.0))
        ii = params.get("ii")
        out["ii"] = int(ii) if ii is not None else None
    elif kind == "sweep":
        out["clocks_ps"] = _clock_list(params.get("clocks_ps"))
        out["latencies"] = params.get("latencies")
        parse_microarchs(out["latencies"])  # validate early
    elif kind == "tune":
        out["clocks_ps"] = _clock_list(params.get("clocks_ps"))
        out["latencies"] = params.get("latencies")
        parse_microarchs(out["latencies"])
        out["strategy"] = str(params.get("strategy", "greedy"))
        if out["strategy"] not in STRATEGIES:
            raise JobError(f"unknown strategy {out['strategy']!r}; "
                           f"choose from {sorted(STRATEGIES)}")
        for field in ("delay_ps", "max_area", "max_power_mw"):
            value = params.get(field)
            out[field] = float(value) if value is not None else None
        objective = params.get("objective")
        if objective is None:
            objective = "area" if out["delay_ps"] is not None else "delay"
        if objective not in ("area", "delay", "power"):
            raise JobError(f"unknown objective {objective!r}")
        out["objective"] = objective
    return out, job_key(kind, out)


def job_key(kind: str, params: dict) -> str:
    """Content hash of a normalized submission.

    Keys on the *design structure* (region / pipeline fingerprint), not
    on how the design was spelled: submissions whose sources differ
    only in formatting or comments elaborate to the same region and
    collide, as does a registry workload vs. source text that
    elaborates to the identical region.
    """
    if kind == "stream":
        from repro.dse.search import pipeline_fingerprint

        fingerprint = pipeline_fingerprint(
            PIPELINE_REGISTRY[params["pipeline"]]())
    else:
        fingerprint = region_fingerprint(_region_factory(params)())
    identity = {
        key: value for key, value in params.items()
        if key not in ("workload", "source")
    }
    payload = {
        "kind": kind,
        "timing_model": timing_engine.TIMING_MODEL_VERSION,
        "design": fingerprint,
        "params": identity,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------
def _checkpoint(cancel_event) -> None:
    if cancel_event is not None and cancel_event.is_set():
        raise JobCancelled()


def _run_schedule(params: dict, cache, progress,
                  cancel_event, tracer) -> Tuple[bool, dict, dict]:
    from repro.cdfg.region import PipelineSpec

    ctx = CompilationContext(
        region=_region_factory(params)(), library=_library(params["library"]),
        clock_ps=params["clock_ps"],
        pipeline=PipelineSpec(ii=params["ii"])
        if params["ii"] is not None else None,
        run_optimizer=False, cache=cache, cancel_event=cancel_event,
        tracer=tracer)
    if progress is not None:
        ctx.progress_cb = lambda name, event: progress(
            {"pass": name, "event": event})
    get_flow("sweep").run(ctx)
    if ctx.cancel_requested:
        raise JobCancelled()
    if ctx.failed:
        return False, {"diagnostics": [str(d) for d in ctx.errors]}, {}
    result = {
        "schedule": ctx.schedule.summary(),
        "power_mw": ctx.power.total_mw,
    }
    return True, result, {}


def _run_sweep(params: dict, cache, store, progress,
               cancel_event, tracer) -> Tuple[bool, dict, dict]:
    from repro.core.scheduler import SchedulerOptions
    from repro.dse.store import candidate_key
    from repro.explore.pareto import DesignPoint
    from repro.flow.executor import run_points

    factory = _region_factory(params)
    fingerprint = region_fingerprint(factory())
    library = _library(params["library"])
    micros = parse_microarchs(params["latencies"])
    clocks = params["clocks_ps"]
    grid = [(m, float(c)) for m in micros for c in clocks]
    options = SchedulerOptions()
    keys = [candidate_key(fingerprint, library.name, m, c, options)
            for m, c in grid]
    results: List[Optional[object]] = [None] * len(grid)
    store_hits = 0
    if store is not None:
        for idx, key in enumerate(keys):
            hit = store.get(key)
            if hit is not None:
                results[idx] = hit
                store_hits += 1
    pending = [idx for idx, r in enumerate(results) if r is None]
    done = len(grid) - len(pending)
    total = len(grid)
    for base in range(0, len(pending), SWEEP_WAVE):
        _checkpoint(cancel_event)
        wave = pending[base:base + SWEEP_WAVE]
        fresh = run_points(factory, library, [grid[i] for i in wave],
                           options=options, jobs=1, cache=cache,
                           tracer=tracer)
        for idx, result in zip(wave, fresh):
            results[idx] = result
            if store is not None:
                store.put(keys[idx], result)
        done += len(wave)
        if progress is not None:
            progress({"points_done": done, "points_total": total})
    points = [r for r in results if isinstance(r, DesignPoint)]
    infeasible = [r for r in results if isinstance(r, InfeasiblePoint)]
    result = {
        "feasible": len(points),
        "infeasible": len(infeasible),
        "points": [p.to_json() for p in points],
        "infeasible_points": [q.to_json() for q in infeasible],
    }
    stats = {"store_hits": store_hits,
             "fresh_points": total - store_hits}
    return bool(points), result, stats


def _run_tune(params: dict, cache, store, progress,
              cancel_event, tracer) -> Tuple[bool, dict, dict]:
    from repro.dse import DesignSpace, Goal, GoalError, tune

    factory = _region_factory(params)
    library = _library(params["library"])
    try:
        goal = Goal.build(objective=params["objective"],
                          delay_ps=params["delay_ps"],
                          max_area=params["max_area"],
                          max_power_mw=params["max_power_mw"])
    except GoalError as exc:
        raise JobError(f"invalid goal: {exc}")
    space = DesignSpace(tuple(parse_microarchs(params["latencies"])),
                        tuple(float(c) for c in params["clocks_ps"]))
    _checkpoint(cancel_event)
    if progress is not None:
        progress({"phase": "tune", "grid_size": space.size})
    report = tune(factory, library, goal, space=space,
                  strategy=params["strategy"], cache=cache, store=store,
                  jobs=1, tracer=tracer)
    _checkpoint(cancel_event)
    summary = report.summary()
    summary.pop("elapsed_s", None)  # keep the payload deterministic
    stats = {"fresh_evaluations": report.fresh_evaluations,
             "store_hits": report.store_hits}
    return report.satisfied, summary, stats


def _run_stream(params: dict, cache, progress,
                cancel_event, tracer) -> Tuple[bool, dict, dict]:
    from repro.dataflow import (
        compile_pipeline,
        simulate_pipeline_machine,
        simulate_pipeline_reference,
    )
    from repro.obs.trace import maybe_span

    library = _library(params["library"])
    factory = PIPELINE_REGISTRY[params["pipeline"]]
    _checkpoint(cancel_event)
    if progress is not None:
        progress({"phase": "compose"})
    with maybe_span(tracer, "stream.compose",
                    pipeline=params["pipeline"]):
        composed = compile_pipeline(factory(), library,
                                    clock_ps=params["clock_ps"],
                                    cache=cache)
    _checkpoint(cancel_event)
    if progress is not None:
        progress({"phase": "simulate"})
    with maybe_span(tracer, "stream.simulate",
                    pipeline=params["pipeline"]):
        inputs = PIPELINE_INPUTS.get(params["pipeline"], dict)()
        oracle = simulate_pipeline_reference(factory(), inputs)
        machine = simulate_pipeline_machine(composed, inputs)
        verified = machine.outputs == oracle.outputs
    summary = composed.summary()
    summary["cycles"] = machine.cycles
    summary["stalled_cycles"] = machine.stalled_cycles
    summary["verified"] = verified
    return verified, summary, {}


def execute_job(kind: str, params: dict,
                cache: Optional[FlowCache] = None,
                store=None,
                progress: Optional[Callable[[dict], None]] = None,
                cancel_event=None,
                tracer=None) -> Tuple[bool, dict, dict]:
    """Run one normalized job; returns ``(ok, result, stats)``.

    ``result`` is deterministic (dedup identity is asserted on it);
    ``stats`` carries cache/store traffic.  Raises
    :class:`JobCancelled` at a checkpoint with the cancel event set and
    :class:`JobError` on deterministic parameter problems.  A ``False``
    ``ok`` means the work ran but failed on its own terms (infeasible
    schedule, unsatisfied goal, simulation mismatch); ``result`` then
    carries the diagnostic payload.

    ``tracer`` (a :class:`repro.obs.trace.Tracer`) records the job's
    spans; like ``progress``, it observes and never steers -- results
    are bit-identical traced or not.
    """
    _checkpoint(cancel_event)
    if kind == "schedule":
        return _run_schedule(params, cache, progress, cancel_event,
                             tracer)
    if kind == "sweep":
        return _run_sweep(params, cache, store, progress, cancel_event,
                          tracer)
    if kind == "tune":
        return _run_tune(params, cache, store, progress, cancel_event,
                         tracer)
    if kind == "stream":
        return _run_stream(params, cache, progress, cancel_event,
                           tracer)
    raise JobError(f"unknown job kind {kind!r}")

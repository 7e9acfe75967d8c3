"""The request layer of the job service and the CLI alike: designs
(a registry name first, then source text), libraries, clock and
microarchitecture axes and tune goals resolve here, raising
:class:`~repro.service.jobs.JobError` with a ``reason`` slug (HTTP 400
on the server, exit 3 in the CLI); the four job kinds run here too.

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
import os
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.cdfg.region import PipelineSpec, Region
from repro.dse.goals import Goal, GoalError
from repro.dse.search import STRATEGIES
from repro.explore.microarch import (
    InfeasiblePoint,
    Microarch,
    PAPER_CLOCKS_PS,
    PAPER_MICROARCHS,
)
from repro.flow.cache import FlowCache, region_fingerprint
from repro.flow.context import CompilationContext
from repro.flow.flow import run_context
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

#: tune objectives by their request spelling.
OBJECTIVES = ("area", "delay", "power")

#: points per progress/cancellation checkpoint in sweep execution.
SWEEP_WAVE = 4


# ----------------------------------------------------------------------
# resolution
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Kernel:
    """A built region, its source's ``@pipeline`` directive and a
    factory of fresh copies (sweeps and tuning mutate regions)."""

    region: Region
    pipeline: Optional[PipelineSpec]
    build: Callable[[], Region]


def design_params(target: str) -> dict:
    """The design fields of a request naming ``target``: a registry
    workload first, then a local source file, shipped as its text."""
    if target in WORKLOAD_REGISTRY or not (
            target.endswith(".py") or os.path.exists(target)):
        return {"workload": target}
    try:
        with open(target) as handle:
            return {"source": handle.read()}
    except OSError as exc:
        raise JobError(f"cannot read {target}: {exc}",
                       reason="unreadable-source")


def resolve_design(workload: Optional[str] = None,
                   source: Optional[str] = None,
                   filename: str = "<submitted>") -> List[Kernel]:
    """Every kernel of a design: one for a registry ``workload``, one
    per loop/function of ``source`` text.

    Builds each region once.  A ``source`` that does not compile
    raises :class:`~repro.frontend.FrontendError`, whose caret
    diagnostic names ``filename``.
    """
    if (workload is None) == (source is None):
        raise JobError("exactly one of 'workload' or 'source' required")
    if workload is not None:
        factory = WORKLOAD_REGISTRY.get(workload)
        if factory is None:
            raise JobError(
                f"unknown workload {workload!r}; choose from "
                f"{sorted(WORKLOAD_REGISTRY)} or give source text",
                reason="unknown-workload")
        return [Kernel(factory(), None, factory)]
    units = compile_source(source, filename=filename)
    return [Kernel(unit.region, unit.pipeline,
                   lambda i=i: compile_source(source,
                                              filename=filename)[i].region)
            for i, unit in enumerate(units)]


def single_kernel(kernels: List[Kernel], origin: str) -> Kernel:
    """The one kernel of a design that must have exactly one."""
    if len(kernels) != 1:
        raise JobError(f"{origin} must contain exactly one kernel, found "
                       f"{[k.region.name for k in kernels]}",
                       reason="kernel-count")
    return kernels[0]


def resolve_library(name: str) -> Library:
    """A fresh instance of the named technology library."""
    try:
        return LIBRARIES[name]()
    except KeyError:
        raise JobError(f"unknown library {name!r}; "
                       f"choose from {sorted(LIBRARIES)}",
                       reason="unknown-library")


def parse_clocks(value) -> List[float]:
    """Clocks (ps) from a list or a comma-separated string; ``None``
    means the paper's clock axis."""
    if value is None:
        return [float(c) for c in PAPER_CLOCKS_PS]
    items = value.split(",") if isinstance(value, str) else value
    try:
        clocks = [float(c) for c in items
                  if not isinstance(c, str) or c.strip()]
    except (TypeError, ValueError):
        raise JobError(f"bad clocks {value!r} (want comma-separated "
                       f"picoseconds)", reason="bad-clock")
    if not clocks:
        raise JobError("empty clock list", reason="bad-clock")
    return clocks


def parse_microarchs(spec_text: Optional[str]) -> List[Microarch]:
    """Microarchs from a ``lat[,lat:ii,...]`` spec; ``None``/empty
    means the paper's eight microarchitectures."""
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
                f"bad microarch spec {spec!r} (want lat or lat:ii)",
                reason="bad-microarch")
    return micros


def resolve_pipeline(name: str) -> Callable:
    """The factory of a named streaming pipeline."""
    factory = PIPELINE_REGISTRY.get(name)
    if factory is None:
        raise JobError(f"unknown pipeline {name!r}; choose from "
                       f"{sorted(PIPELINE_REGISTRY)}",
                       reason="unknown-pipeline")
    return factory


def tune_objective(objective: Optional[str],
                   delay_ps: Optional[float]) -> str:
    """The objective of a tune request.  By default a delay budget
    asks for the smallest design meeting it (area); without one the
    tuner chases speed (delay) under the remaining budgets."""
    if objective is None:
        objective = "area" if delay_ps is not None else "delay"
    if objective not in OBJECTIVES:
        raise JobError(f"unknown objective {objective!r}; "
                       f"choose from {OBJECTIVES}", reason="invalid-goal")
    return objective


def tune_goal(params: dict) -> Goal:
    """The :class:`~repro.dse.Goal` of a tune request's fields."""
    try:
        return Goal.build(
            objective=tune_objective(params.get("objective"),
                                     params.get("delay_ps")),
            delay_ps=params.get("delay_ps"),
            max_area=params.get("max_area"),
            max_power_mw=params.get("max_power_mw"))
    except GoalError as exc:
        raise JobError(f"invalid goal: {exc}", reason="invalid-goal")


def compile_context(kernel: Kernel, library: Library, clock_ps: float,
                    ii: Optional[int] = None, optimize: bool = True,
                    **extra) -> CompilationContext:
    """The unrun context of one compile request.  An explicit ``ii``
    overrides the source's ``@pipeline`` directive; ``extra`` carries
    the cache, tracer and cancellation hooks."""
    return CompilationContext(
        region=kernel.region, library=library, clock_ps=clock_ps,
        pipeline=PipelineSpec(ii=ii) if ii is not None
        else kernel.pipeline,
        run_optimizer=optimize, **extra)


def _kernel(params: dict) -> Kernel:
    """The one kernel of a normalized job's design."""
    try:
        kernels = resolve_design(params.get("workload"),
                                 params.get("source"))
    except FrontendError as exc:
        raise JobError(f"frontend error: {exc.render()}",
                       reason="frontend")
    return single_kernel(kernels, "submitted source")


def normalize_params(kind: str, params: dict) -> dict:
    """A request's parameter record with every default filled in.

    Validates every field but the design, which
    :func:`resolve_design` checks.  Raises :class:`JobError`.
    """
    if kind not in JOB_KINDS:
        raise JobError(f"unknown job kind {kind!r}; "
                       f"choose from {JOB_KINDS}")
    if not isinstance(params, dict):
        raise JobError("job params must be a JSON object")
    out: dict = {"library": str(params.get("library", "artisan90"))}
    resolve_library(out["library"])  # validate early
    if kind == "stream":
        out["pipeline"] = params.get("pipeline")
        resolve_pipeline(out["pipeline"])
        out["clock_ps"] = float(params.get("clock_ps", 1600.0))
        return out
    out["workload"] = params.get("workload")
    out["source"] = params.get("source")
    if kind == "schedule":
        out["clock_ps"] = float(params.get("clock_ps", 1600.0))
        ii = params.get("ii")
        out["ii"] = int(ii) if ii is not None else None
        out["optimize"] = bool(params.get("optimize", True))
        return out
    # sweep / tune share the grid axes
    out["clocks_ps"] = parse_clocks(params.get("clocks_ps"))
    out["latencies"] = params.get("latencies")
    parse_microarchs(out["latencies"])  # validate early
    if kind == "tune":
        out["strategy"] = str(params.get("strategy", "greedy"))
        if out["strategy"] not in STRATEGIES:
            raise JobError(f"unknown strategy {out['strategy']!r}; "
                           f"choose from {sorted(STRATEGIES)}")
        for field in ("delay_ps", "max_area", "max_power_mw"):
            value = params.get(field)
            out[field] = float(value) if value is not None else None
        out["objective"] = tune_objective(params.get("objective"),
                                          out["delay_ps"])
        tune_goal(out)  # validate early
    return out


def prepare_job(kind: str, params: dict) -> Tuple[dict, str]:
    """(normalized params, job key) of one submission, building the
    design once: the key's fingerprint build is also its validation
    (a ``source`` that does not compile raises :class:`JobError`).

    The normalized record fills every default in and is what gets
    hashed into the key, so two submissions differing only in
    spelled-out defaults dedup together.  Raises :class:`JobError` on
    any problem (mapped to HTTP 400).
    """
    out = normalize_params(kind, params)
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
        fingerprint = region_fingerprint(_kernel(params).region)
    identity = {
        key: value for key, value in params.items()
        if key not in ("workload", "source")
    }
    if identity.get("optimize") is True:
        # the default of a field added after keys were deployed: left
        # out so every key issued before it keeps its bytes
        del identity["optimize"]
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
    from repro.tech.power import estimate_power

    ctx = compile_context(
        _kernel(params), resolve_library(params["library"]),
        params["clock_ps"], params["ii"], params["optimize"],
        cache=cache, cancel_event=cancel_event, tracer=tracer)
    if progress is not None:
        ctx.progress_cb = lambda name, event: progress(
            {"pass": name, "event": event})
    run_context(ctx, "pipeline")
    if ctx.cancel_requested:
        raise JobCancelled()
    if ctx.failed:
        return False, {"diagnostics": [str(d) for d in ctx.errors]}, {}
    result = {
        "schedule": ctx.schedule.summary(),
        "power_mw": estimate_power(ctx.schedule).total_mw,
    }
    return True, result, {}


def _run_sweep(params: dict, cache, store, progress,
               cancel_event, tracer) -> Tuple[bool, dict, dict]:
    from repro.dse.search import FlowEvaluator
    from repro.dse.space import Candidate
    from repro.explore.pareto import DesignPoint

    evaluator = FlowEvaluator(
        _kernel(params).build, resolve_library(params["library"]),
        cache=cache, store=store, tracer=tracer)
    grid = [Candidate(m, c) for m in parse_microarchs(params["latencies"])
            for c in params["clocks_ps"]]
    results: list = []
    for base in range(0, len(grid), SWEEP_WAVE):
        _checkpoint(cancel_event)
        results += evaluator.evaluate_many(grid[base:base + SWEEP_WAVE])
        if progress is not None:
            progress({"points_done": len(results),
                      "points_total": len(grid)})
    points = [r for r in results if isinstance(r, DesignPoint)]
    infeasible = [r for r in results if isinstance(r, InfeasiblePoint)]
    result = {
        "feasible": len(points),
        "infeasible": len(infeasible),
        "points": [p.to_json() for p in points],
        "infeasible_points": [q.to_json() for q in infeasible],
    }
    stats = {"store_hits": evaluator.store_hits,
             "fresh_points": evaluator.fresh_evaluations}
    return bool(points), result, stats


def run_tune(params: dict, region_factory: Callable, cache=None,
             store=None, jobs: int = 1, tracer=None):
    """Tune a design by a normalized ``tune`` record: the body of the
    ``tune`` job and of ``repro tune``."""
    from repro.dse import DesignSpace, tune

    space = DesignSpace(tuple(parse_microarchs(params["latencies"])),
                        tuple(params["clocks_ps"]))
    return tune(region_factory, resolve_library(params["library"]),
                tune_goal(params), space=space,
                strategy=params["strategy"], cache=cache, store=store,
                jobs=jobs, tracer=tracer)


def _run_tune(params: dict, cache, store, progress,
              cancel_event, tracer) -> Tuple[bool, dict, dict]:
    factory = _kernel(params).build
    _checkpoint(cancel_event)
    if progress is not None:
        progress({"phase": "tune", "grid_size":
                  len(parse_microarchs(params["latencies"]))
                  * len(params["clocks_ps"])})
    report = run_tune(params, factory, cache=cache, store=store,
                      tracer=tracer)
    _checkpoint(cancel_event)
    summary = report.summary()
    summary.pop("elapsed_s", None)  # keep the payload deterministic
    stats = {"fresh_evaluations": report.fresh_evaluations,
             "store_hits": report.store_hits}
    return report.satisfied, summary, stats


def run_stream(params: dict, cache=None, tracer=None,
               phase: Optional[Callable[[str], None]] = None):
    """Compose a normalized ``stream`` record's pipeline and verify it
    against its token oracle: the body of the ``stream`` job and of
    ``repro stream``.  Returns ``(composed, summary)``; ``phase`` is
    called with ``"compose"`` and ``"simulate"`` before each step."""
    from repro.dataflow import (
        compile_pipeline,
        simulate_pipeline_machine,
        simulate_pipeline_reference,
    )
    from repro.obs.trace import maybe_span

    name = params["pipeline"]
    factory = resolve_pipeline(name)
    if phase is not None:
        phase("compose")
    with maybe_span(tracer, "stream.compose", pipeline=name):
        composed = compile_pipeline(
            factory(), resolve_library(params["library"]),
            clock_ps=params["clock_ps"], cache=cache)
    if phase is not None:
        phase("simulate")
    with maybe_span(tracer, "stream.simulate", pipeline=name):
        inputs = PIPELINE_INPUTS.get(name, dict)()
        oracle = simulate_pipeline_reference(factory(), inputs)
        machine = simulate_pipeline_machine(composed, inputs)
    summary = composed.summary()
    summary["cycles"] = machine.cycles
    summary["stalled_cycles"] = machine.stalled_cycles
    summary["verified"] = machine.outputs == oracle.outputs
    return composed, summary


def _run_stream(params: dict, cache, progress,
                cancel_event, tracer) -> Tuple[bool, dict, dict]:
    def phase(name: str) -> None:
        _checkpoint(cancel_event)
        if progress is not None:
            progress({"phase": name})

    _, summary = run_stream(params, cache=cache, tracer=tracer,
                            phase=phase)
    return summary["verified"], summary, {}


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

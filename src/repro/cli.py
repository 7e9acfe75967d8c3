"""Command-line driver: ``python -m repro <command> ...``.

Commands
--------
profile    compile + schedule a design under cProfile + scheduler counters
schedule   compile a source file (or a named workload) and schedule it
serve      boot the synthesis-as-a-service HTTP job server
stream     compose, verify and report a named streaming pipeline
submit     submit a job to a running service (and optionally wait)
sweep      run a microarchitecture/clock exploration on a named workload
table      print a paper table (1, 2 or 3) from the calibrated library
trace      schedule a workload with tracing on; write + summarize spans
tune       goal-directed autotuning (delay/area/power constraints)
verilog    compile + schedule + emit RTL to stdout or a file
workloads  list the named kernels and streaming pipelines

The CLI is a thin veneer over the unified compilation pipeline
(:mod:`repro.flow`) so shell users (and CI scripts) can exercise the
flows without writing Python.  Requests resolve through the job
service's request layer (:mod:`repro.service.execution`), and
``schedule``, ``trace``, ``verilog`` and ``profile`` share one set of
arguments, one context builder and the ``pipeline`` flow prefix with
the service's ``schedule`` job, so all of them agree.

Conventions every subcommand follows: ``--json`` switches the output to
a machine-readable record on stdout (including on *every* failure
path: errors print a ``{"error": {...}}`` record), and the exit status
is one of the taxonomy below -- distinct per failure mode so shell
pipelines can branch without parsing messages:

====  =================================================================
code  meaning
====  =================================================================
0     success
1     the work ran but failed on its own terms (infeasible schedule,
      all-infeasible sweep, unsatisfied goal, unverified pipeline,
      failed/cancelled service job)
2     argparse usage errors (unknown flags, missing arguments)
3     bad input (unknown workload/library/pipeline/strategy, malformed
      microarch or clock spec, invalid goal, unreadable file, wrong
      kernel count) -- rejected before any work ran
4     frontend errors (the source file failed to compile)
5     service unreachable / HTTP transport failure (``submit``)
6     deadline expired waiting for a service job (``submit --wait``)
====  =================================================================
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional, Tuple

from repro import profiling
from repro.obs.metrics import REGISTRY
from repro.obs.trace import Tracer
from repro.core.pipeline import pipeline_loop
from repro.core.scheduler import schedule_region
from repro.dse.search import STRATEGIES
from repro.flow import run_context, run_sweep
from repro.flow.context import CompilationContext
from repro.frontend import FrontendError
from repro.rtl import schedule_report
from repro.rtl.reports import format_table, pareto_header
from repro.service.execution import (
    OBJECTIVES,
    Kernel,
    compile_context,
    design_params,
    normalize_params,
    parse_microarchs,
    resolve_design,
    resolve_library,
    run_stream,
    run_tune,
    single_kernel,
)
from repro.service.jobs import JobError
from repro.workloads import (
    PIPELINE_REGISTRY,
    WORKLOAD_REGISTRY,
    build_example1,
)

# the exit-code taxonomy (see the module docstring).
EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_BAD_INPUT = 3
EXIT_FRONTEND = 4
EXIT_SERVICE = 5
EXIT_TIMEOUT = 6


class CLIError(Exception):
    """A rejected invocation: carries the exit code + a JSON record.

    Raised by any subcommand for problems detected before (or outside)
    the actual synthesis work; :func:`main` turns it into a message on
    stderr, an ``{"error": ...}`` record on stdout under ``--json``,
    and the taxonomy exit code.  The request layer's
    :class:`~repro.service.jobs.JobError` becomes one with exit 3 and
    the error's reason.
    """

    def __init__(self, message: str, code: int = EXIT_BAD_INPUT,
                 reason: str = "bad-input", **extra) -> None:
        super().__init__(message)
        self.code = code
        self.reason = reason
        self.extra = extra

    def record(self) -> dict:
        return {"error": dict(self.extra, code=self.code,
                              reason=self.reason, message=str(self))}


def _print_failure(ctx: CompilationContext) -> None:
    for diag in ctx.errors:
        print(f"{ctx.region.name if ctx.region else '<frontend>'}: "
              f"FAILED -- {diag.message}", file=sys.stderr)
        for line in diag.details:
            print(f"  {line}", file=sys.stderr)


def _compile_contexts(args: argparse.Namespace, single: bool = False,
                      tracer: Optional[Tracer] = None
                      ) -> List[CompilationContext]:
    """One unrun context per kernel of a compile command's design
    (exactly one when ``single``): the one context builder of
    ``schedule``, ``trace``, ``verilog`` and ``profile``."""
    params = normalize_params("schedule", dict(
        design_params(args.source), library=args.library,
        clock_ps=args.clock, ii=args.ii, optimize=not args.no_optimize))
    kernels = resolve_design(params["workload"], params["source"],
                             filename=args.source)
    if single:
        kernels = [single_kernel(kernels, args.source)]
    library = resolve_library(params["library"])
    return [compile_context(kernel, library, params["clock_ps"],
                            params["ii"], params["optimize"], tracer=tracer)
            for kernel in kernels]


def _grid_request(args: argparse.Namespace, target: str, kind: str,
                  **fields) -> Tuple[dict, Kernel]:
    """The normalized ``sweep``/``tune`` record and the one kernel of a
    grid command's design."""
    params = normalize_params(kind, dict(
        design_params(target), library=args.library,
        clocks_ps=args.clocks, latencies=args.latencies, **fields))
    kernels = resolve_design(params["workload"], params["source"],
                             filename=target)
    return params, single_kernel(kernels, target)


def _write_trace(tracer: Optional[Tracer],
                 path: Optional[str]) -> None:
    """Write + announce a ``--trace FILE`` capture (stderr, so JSON
    stdout stays machine-readable)."""
    if tracer is None or path is None:
        return
    tracer.write(path)
    print(f"wrote trace {path} ({len(tracer)} spans)", file=sys.stderr)


def cmd_schedule(args: argparse.Namespace) -> int:
    """Compile and schedule a source file (or a named workload)."""
    tracer = Tracer() if args.trace else None
    for ctx in _compile_contexts(args, tracer=tracer):
        run_context(ctx, "pipeline")
        if ctx.failed:
            if args.json:
                print(json.dumps({"error": {
                    "code": EXIT_FAILED, "reason": "infeasible",
                    "message": "scheduling failed",
                    "diagnostics": [str(d) for d in ctx.errors],
                }}, indent=2))
            _print_failure(ctx)
            _write_trace(tracer, args.trace)  # a failing run's trace
            return EXIT_FAILED                # is the interesting one
        if args.json:
            print(json.dumps(ctx.schedule.summary(), indent=2))
        else:
            print(schedule_report(ctx.schedule))
            print()
    _write_trace(tracer, args.trace)
    return 0


def _profile_sweep(args: argparse.Namespace) -> int:
    """``repro profile --sweep``: one grid through the sweep engine,
    reporting the sweep-layer counters (variant builds, warm-start
    accepts/fallbacks, pickled bytes, worker cache traffic)."""
    import time

    params, kernel = _grid_request(args, args.source, "sweep")
    profiling.reset()
    start = time.perf_counter()
    result = run_sweep(kernel.build, resolve_library(params["library"]),
                       parse_microarchs(params["latencies"]),
                       params["clocks_ps"], jobs=args.jobs)
    wall = time.perf_counter() - start
    table = profiling.snapshot()
    if args.json:
        print(json.dumps({
            "workload": args.source,
            "wall_s": round(wall, 4),
            "sweep": result.summary(),
            "counters": dict(sorted(table.items())),
            "gauges": REGISTRY.gauges(),
            "histograms": REGISTRY.histogram_summaries(),
        }, indent=2))
    else:
        print(profiling.report(table))
        print(f"\n{args.source}: {len(result.points)} of "
              f"{result.total} points feasible, backend "
              f"{result.backend}, jobs {result.jobs}, {wall:.3f}s")
        for key, value in sorted(result.profile.items()):
            if key != "workers":
                print(f"  {key}: {value}")
    return 0 if result.points else 1


def cmd_profile(args: argparse.Namespace) -> int:
    """Run a design's ``pipeline`` flow under cProfile and report both
    the Python-level hot spots and the scheduler's own counters."""
    import cProfile
    import io
    import pstats
    import time

    if args.sweep:
        return _profile_sweep(args)
    (ctx,) = _compile_contexts(args, single=True)
    profiling.reset()
    prof = cProfile.Profile()
    start = time.perf_counter()
    prof.enable()
    try:
        run_context(ctx, "pipeline")
    finally:
        prof.disable()
    wall = time.perf_counter() - start
    table = profiling.snapshot()
    error = ctx.errors[0].message if ctx.failed else None
    if args.json:
        record = {
            "workload": args.source,
            "clock_ps": args.clock,
            "wall_s": round(wall, 4),
            "feasible": not ctx.failed,
            "counters": dict(sorted(table.items())),
            "gauges": REGISTRY.gauges(),
            "histograms": REGISTRY.histogram_summaries(),
        }
        if ctx.failed:
            record["error"] = error
        else:
            record["passes"] = ctx.schedule.passes
            record["latency"] = ctx.schedule.latency
        print(json.dumps(record, indent=2))
    else:
        stream = io.StringIO()
        pstats.Stats(prof, stream=stream) \
            .sort_stats("cumulative").print_stats(args.top)
        print(stream.getvalue().rstrip())
        print()
        print(profiling.report(table))
        if ctx.failed:
            print(f"\n{args.source}: FAILED after {wall:.3f}s -- {error}",
                  file=sys.stderr)
        else:
            print(f"\n{args.source}: {ctx.schedule.passes} passes, "
                  f"latency {ctx.schedule.latency}, {wall:.3f}s")
    return EXIT_FAILED if ctx.failed else EXIT_OK


def cmd_verilog(args: argparse.Namespace) -> int:
    """Compile, schedule and emit Verilog RTL."""
    (ctx,) = _compile_contexts(args, single=True)
    run_context(ctx, "verilog")
    if ctx.failed:
        if args.json:
            print(json.dumps({"error": {
                "code": EXIT_FAILED, "reason": "infeasible",
                "message": "scheduling failed",
                "context": ctx.summary(),
            }}, indent=2))
        else:
            _print_failure(ctx)
        return EXIT_FAILED
    text = ctx.rtl
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
    if args.json:
        print(json.dumps({
            "module": ctx.region.name,
            "lines": len(text.splitlines()),
            "output": args.output,
            "rtl": None if args.output else text,
        }, indent=2))
    elif args.output:
        print(f"wrote {args.output} ({len(text.splitlines())} lines)")
    else:
        print(text)
    return 0


def _load_cache(path: Optional[str]):
    """A FlowCache warmed from ``path`` (fresh when absent/None)."""
    from repro.flow import FlowCache

    if path is None:
        return None
    return FlowCache.load(path)


def cmd_sweep(args: argparse.Namespace) -> int:
    """Microarchitecture x clock exploration on a named workload."""
    params, kernel = _grid_request(args, args.workload, "sweep")
    cache = _load_cache(args.cache)
    tracer = Tracer() if args.trace else None
    result = run_sweep(kernel.build, resolve_library(params["library"]),
                       parse_microarchs(params["latencies"]),
                       params["clocks_ps"], jobs=args.jobs, cache=cache,
                       tracer=tracer)
    if cache is not None:
        cache.save(args.cache)
    _write_trace(tracer, args.trace)
    status = 0 if result.points else 1  # an all-infeasible grid failed
    if args.json:
        print(json.dumps(result.summary(), indent=2))
        return status
    print(format_table(pareto_header(), [p.row() for p in result.points]))
    print(f"\n{len(result.points)} of {result.total} configurations "
          f"feasible ({len(result.infeasible)} infeasible)")
    for q in result.infeasible:
        print(f"  {q.describe()}")
    return status


def cmd_tune(args: argparse.Namespace) -> int:
    """Goal-directed autotuning over the microarch x clock space."""
    from repro.dse import ResultStore

    params, kernel = _grid_request(
        args, args.workload, "tune", strategy=args.strategy,
        delay_ps=args.delay_ps, max_area=args.max_area,
        max_power_mw=args.max_power_mw, objective=args.objective)
    store = ResultStore(args.store) if args.store else None
    cache = _load_cache(args.cache)
    tracer = Tracer() if args.trace else None
    report = run_tune(params, kernel.build, cache=cache, store=store,
                      jobs=args.jobs, tracer=tracer)
    if cache is not None:
        cache.save(args.cache)
    _write_trace(tracer, args.trace)
    if args.json:
        print(json.dumps(report.summary(), indent=2))
    else:
        print(report.table())
    return 0 if report.satisfied else 1


def cmd_trace(args: argparse.Namespace) -> int:
    """Schedule a workload with tracing on; write + summarize spans."""
    tracer = Tracer()
    failed = False
    for ctx in _compile_contexts(args, tracer=tracer):
        run_context(ctx, "pipeline")
        if ctx.failed:
            failed = True
            _print_failure(ctx)
    base = os.path.basename(args.source).rsplit(".", 1)[0]
    out = args.output or f"{base}.trace.json"
    tracer.write(out)
    by_name: Dict[str, Dict[str, float]] = {}
    for span in tracer.export():
        rec = by_name.setdefault(span["name"],
                                 {"count": 0, "total_s": 0.0})
        rec["count"] += 1
        rec["total_s"] += span["dur"]
    if args.json:
        print(json.dumps({
            "source": args.source,
            "spans": len(tracer),
            "output": out,
            "failed": failed,
            "by_name": {name: {"count": int(rec["count"]),
                               "total_s": round(rec["total_s"], 6)}
                        for name, rec in sorted(by_name.items())},
        }, indent=2))
    else:
        rows = [[name, int(rec["count"]), f"{rec['total_s']:.4f}"]
                for name, rec in sorted(by_name.items())]
        print(format_table(["span", "count", "total_s"], rows))
        print(f"\nwrote {out} ({len(tracer)} spans)")
    return EXIT_FAILED if failed else EXIT_OK


def cmd_table(args: argparse.Namespace) -> int:
    """Print a calibration table from the paper."""
    library = resolve_library(args.library)
    if args.number == 1:
        row = library.table1()
        if args.json:
            print(json.dumps({"table": 1, "row": row}, indent=2))
        else:
            print(format_table(list(row), [list(row.values())]))
        return 0
    if args.number == 2:
        schedule = schedule_region(build_example1(), library, 1600.0)
        if args.json:
            print(json.dumps({"table": 2,
                              "schedule": schedule.summary()}, indent=2))
        else:
            print(schedule.table())
        return 0
    if args.number == 3:
        seq = schedule_region(build_example1(), library, 1600.0)
        p2 = pipeline_loop(build_example1(), library, 1600.0, ii=2).schedule
        p1 = pipeline_loop(build_example1(), library, 1600.0, ii=1).schedule
        if args.json:
            print(json.dumps({"table": 3, "columns": {
                "S": {"cycles_per_iter": seq.ii_effective,
                      "area": round(seq.area)},
                "P2": {"cycles_per_iter": p2.ii_effective,
                       "area": round(p2.area)},
                "P1": {"cycles_per_iter": p1.ii_effective,
                       "area": round(p1.area)},
            }}, indent=2))
        else:
            print(format_table(
                ["", "S", "P2", "P1"],
                [["cycles/iter", seq.ii_effective, p2.ii_effective,
                  p1.ii_effective],
                 ["area", round(seq.area), round(p2.area),
                  round(p1.area)]]))
        return 0
    raise CLIError("table number must be 1, 2 or 3",
                   reason="bad-table")


def cmd_workloads(args: argparse.Namespace) -> int:
    """List the workload registry with basic region statistics."""
    rows = []
    for name in sorted(WORKLOAD_REGISTRY):
        region = WORKLOAD_REGISTRY[name]()
        stats = region.dfg.stats()
        rows.append([name, region.name, stats["total"], stats["edges"],
                     f"{region.min_latency}..{region.max_latency}",
                     "loop" if region.is_loop else "block"])
    pipe_rows = []
    for name in sorted(PIPELINE_REGISTRY):
        pipe = PIPELINE_REGISTRY[name]()
        pipe_rows.append([name, len(pipe.stages), len(pipe.channels),
                          " -> ".join(pipe.stages)])
    if args.json:
        print(json.dumps({
            "workloads": {r[0]: {
                "region": r[1], "ops": r[2], "edges": r[3],
                "latency": r[4], "kind": r[5]} for r in rows},
            "pipelines": {r[0]: {
                "stages": r[1], "channels": r[2], "topology": r[3]}
                for r in pipe_rows},
        }, indent=2))
        return 0
    print(format_table(
        ["workload", "region", "ops", "edges", "latency", "kind"], rows))
    print()
    print(format_table(["pipeline", "stages", "channels", "topology"],
                       pipe_rows))
    return 0


def cmd_stream(args: argparse.Namespace) -> int:
    """Compose a named streaming pipeline, verify it, print the report."""
    from repro.dataflow import generate_pipeline_verilog

    composed, summary = run_stream(normalize_params("stream", {
        "library": args.library, "pipeline": args.pipeline,
        "clock_ps": args.clock}))
    verified = summary["verified"]
    if args.json:
        summary["output"] = args.output
        print(json.dumps(summary, indent=2))
    else:
        print(composed.table())
        print(f"machine simulation: {summary['cycles']} cycles, "
              f"{summary['stalled_cycles']} stalled; outputs "
              f"{'MATCH' if verified else 'DIFFER from'} the token oracle")
    if args.output:
        text = generate_pipeline_verilog(composed)
        with open(args.output, "w") as handle:
            handle.write(text)
        if not args.json:
            print(f"wrote {args.output} "
                  f"({len(text.splitlines())} lines)")
    return 0 if verified else 1


def cmd_serve(args: argparse.Namespace) -> int:
    """Boot the synthesis-as-a-service HTTP job server (blocking)."""
    from repro.service import ReproService

    service = ReproService(
        host=args.host, port=args.port, workers=args.workers,
        mode=args.mode, job_timeout_s=args.timeout,
        max_retries=args.retries, store_path=args.store,
        cache_path=args.cache)
    service.start()
    print(f"serving on {service.url} -- {args.workers} workers, "
          f"mode {service.engine.mode} (ctrl-c to stop)",
          file=sys.stderr)
    if args.json:
        print(json.dumps({"url": service.url, "port": service.port,
                          "workers": args.workers,
                          "mode": service.engine.mode}), flush=True)
    import signal
    import threading
    stop = threading.Event()
    # SIGTERM (docker stop, systemd) must shut down as cleanly as
    # ctrl-c: stop the engine and compact the result store shards
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    try:
        stop.wait()
    except KeyboardInterrupt:
        pass
    finally:
        service.stop()
    return EXIT_OK


def _submit_params(args: argparse.Namespace) -> dict:
    """A job body from ``repro submit`` flags (kind-appropriate).  The
    service validates it with the same functions a local command uses;
    a source file ships as its text (the server has no file access)."""
    params: dict = {"library": args.library}
    if args.kind == "stream":
        params["pipeline"] = args.target
        params["clock_ps"] = args.clock
        return params
    params.update(design_params(args.target))
    if args.kind == "schedule":
        params["clock_ps"] = args.clock
        params["ii"] = args.ii
        params["optimize"] = not args.no_optimize
    else:  # sweep / tune share the grid axes
        params["clocks_ps"] = args.clocks
        params["latencies"] = args.latencies
    if args.kind == "tune":
        params.update(strategy=args.strategy, delay_ps=args.delay_ps,
                      max_area=args.max_area,
                      max_power_mw=args.max_power_mw,
                      objective=args.objective)
    return params


def cmd_submit(args: argparse.Namespace) -> int:
    """Submit one job to a running service; optionally wait + fetch."""
    from repro.service import ServiceClient, ServiceError

    client = ServiceClient(args.url)
    params = _submit_params(args)
    try:
        job = client.submit(args.kind, priority=args.priority, **params)
        if args.no_wait:
            print(json.dumps(job, indent=2) if args.json
                  else f"{job['id']} {job['state']}"
                       + (" (deduplicated)" if job.get("deduplicated")
                          else ""))
            return EXIT_OK
        final = client.wait(job["id"], timeout=args.timeout)
        state = final["state"]
        if state == "done":
            payload = client.result(job["id"])
            payload["deduplicated"] = job.get("deduplicated", False)
            print(json.dumps(payload, indent=2) if args.json
                  else f"{job['id']} done")
            return EXIT_OK
        # failed / cancelled: the status record carries the error
        if args.json:
            print(json.dumps(final, indent=2))
        else:
            error = final.get("error") or {}
            print(f"{job['id']} {state}: "
                  f"{error.get('reason', state)}", file=sys.stderr)
        return EXIT_FAILED
    except ServiceError as err:
        if err.status == 400:
            raise CLIError(str(err), reason="rejected",
                           detail=err.payload)
        raise CLIError(f"service error HTTP {err.status}: {err}",
                       code=EXIT_SERVICE, reason="service-error",
                       detail=err.payload)
    except TimeoutError as err:
        raise CLIError(str(err), code=EXIT_TIMEOUT,
                       reason="deadline")
    except OSError as err:
        raise CLIError(f"cannot reach service at {args.url}: {err}",
                       code=EXIT_SERVICE, reason="unreachable")
    finally:
        client.close()


def build_parser() -> argparse.ArgumentParser:
    """The argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Realistic performance-constrained pipelining in HLS "
                    "(DATE 2011 reproduction)")
    parser.add_argument("--library", default="artisan90",
                        help="technology library (artisan90 | generic45)")
    sub = parser.add_subparsers(dest="command", required=True)

    # the compile commands: one design, one flow, one set of arguments
    compile_args = argparse.ArgumentParser(add_help=False)
    compile_args.add_argument(
        "source", help="workload name (see `workloads`) or source file "
                       "(mini-language or .py Python subset)")
    compile_args.add_argument("--clock", type=float, default=1600.0)
    compile_args.add_argument("--ii", type=int, default=None,
                              help="pipeline at this initiation interval "
                                   "(overrides a source @pipeline)")
    compile_args.add_argument("--no-optimize", action="store_true",
                              help="skip the DFG optimizer pass")
    compile_args.add_argument("--json", action="store_true",
                              help="machine-readable output on stdout")

    p = sub.add_parser("schedule", parents=[compile_args],
                       help="compile and schedule")
    p.add_argument("--trace", default=None, metavar="FILE",
                   help="write a span trace here (.jsonl for the line "
                        "format, anything else for Chrome trace_event)")
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser(
        "trace", parents=[compile_args],
        help="schedule with tracing on; write + summarize the span tree")
    p.add_argument("--output", default=None, metavar="FILE",
                   help="trace file (default <workload>.trace.json; "
                        ".jsonl selects the line format)")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "profile", parents=[compile_args],
        help="compile and schedule under cProfile + scheduler counters")
    p.add_argument("--sweep", action="store_true",
                   help="profile a sweep grid instead of one schedule "
                        "(surfaces the sweep-layer counters)")
    p.add_argument("--clocks", default="1000,1250,1600,2100,2800",
                   help="clock axis for --sweep")
    p.add_argument("--latencies", default=None,
                   help="microarch axis for --sweep (e.g. 8,16,32:16)")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for --sweep")
    p.add_argument("--top", type=int, default=15,
                   help="cProfile rows to print (default 15; not "
                        "printed under --json)")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("verilog", parents=[compile_args], help="emit RTL")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_verilog)

    p = sub.add_parser("sweep", help="microarchitecture/clock exploration")
    p.add_argument("workload", help="workload name or .py source file")
    p.add_argument("--clocks", default="1000,1250,1600,2100,2800")
    p.add_argument("--latencies", default=None,
                   help="e.g. 8,16,32:16 (lat or lat:ii, comma separated)")
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel scheduling workers (default 1 = serial; "
                        ">1 uses worker processes on multicore hosts)")
    p.add_argument("--cache", default=None,
                   help="persist the flow cache here across runs")
    p.add_argument("--json", action="store_true",
                   help="emit the full sweep record as JSON")
    p.add_argument("--trace", default=None, metavar="FILE",
                   help="write a span trace here (.jsonl for the line "
                        "format, anything else for Chrome trace_event)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "tune", help="goal-directed autotuning over microarch x clock")
    p.add_argument("workload", help="workload name or .py source file")
    p.add_argument("--delay-ps", type=float, default=None,
                   help="constraint: delay <= this many picoseconds")
    p.add_argument("--max-area", type=float, default=None,
                   help="constraint: area <= this many library units")
    p.add_argument("--max-power-mw", type=float, default=None,
                   help="constraint: average power <= this many mW")
    p.add_argument("--objective", default=None, choices=OBJECTIVES,
                   help="metric to minimize (default: area when a delay"
                        " budget is given, delay otherwise)")
    p.add_argument("--strategy", default="greedy",
                   choices=sorted(STRATEGIES),
                   help="search strategy (default greedy)")
    p.add_argument("--clocks", default="1000,1250,1600,2100,2800")
    p.add_argument("--latencies", default=None,
                   help="e.g. 8,16,32:16 (lat or lat:ii, comma separated)")
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel scheduling workers for batched waves")
    p.add_argument("--store", default=None,
                   help="persistent JSONL result store (warm-starts "
                        "tuning across processes)")
    p.add_argument("--cache", default=None,
                   help="persist the flow cache here across runs")
    p.add_argument("--json", action="store_true",
                   help="emit the full tuning report as JSON")
    p.add_argument("--trace", default=None, metavar="FILE",
                   help="write a span trace here (.jsonl for the line "
                        "format, anything else for Chrome trace_event)")
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("stream",
                       help="compose + verify a streaming pipeline")
    p.add_argument("pipeline", help="pipeline name (see `workloads`)")
    p.add_argument("--clock", type=float, default=1600.0)
    p.add_argument("--json", action="store_true")
    p.add_argument("--output", default=None,
                   help="also write the composed Verilog here")
    p.set_defaults(func=cmd_stream)

    p = sub.add_parser(
        "serve", help="boot the synthesis-as-a-service job server")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8473,
                   help="bind port (0 = ephemeral; default 8473)")
    p.add_argument("--workers", type=int, default=2,
                   help="concurrent jobs (supervisor threads)")
    p.add_argument("--mode", default="process",
                   choices=("process", "inline"),
                   help="worker isolation (default: process)")
    p.add_argument("--timeout", type=float, default=120.0,
                   help="per-attempt wall budget in seconds")
    p.add_argument("--retries", type=int, default=1,
                   help="extra attempts after a worker crash/timeout")
    p.add_argument("--store", default=None,
                   help="shared JSONL result store path")
    p.add_argument("--cache", default=None,
                   help="shared flow-cache pickle path")
    p.add_argument("--json", action="store_true",
                   help="print a bound-address record once serving")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "submit", help="submit a job to a running service")
    p.add_argument("kind", choices=("schedule", "sweep", "tune",
                                    "stream"))
    p.add_argument("target", help="workload name, .py source file, or "
                                  "pipeline name (kind=stream)")
    p.add_argument("--url", default="http://127.0.0.1:8473",
                   help="service base URL")
    p.add_argument("--priority", type=int, default=0,
                   help="larger runs earlier (default 0)")
    p.add_argument("--no-wait", action="store_true",
                   help="return after submission instead of waiting")
    p.add_argument("--timeout", type=float, default=120.0,
                   help="deadline for --wait polling (seconds)")
    p.add_argument("--clock", type=float, default=1600.0,
                   help="clock for schedule/stream jobs")
    p.add_argument("--ii", type=int, default=None,
                   help="initiation interval for schedule jobs")
    p.add_argument("--no-optimize", action="store_true",
                   help="schedule jobs skip the DFG optimizer pass")
    p.add_argument("--clocks", default=None,
                   help="clock axis for sweep/tune jobs")
    p.add_argument("--latencies", default=None,
                   help="microarch axis for sweep/tune jobs")
    p.add_argument("--strategy", default="greedy",
                   choices=sorted(STRATEGIES))
    p.add_argument("--delay-ps", type=float, default=None)
    p.add_argument("--max-area", type=float, default=None)
    p.add_argument("--max-power-mw", type=float, default=None)
    p.add_argument("--objective", default=None, choices=OBJECTIVES)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_submit)

    p = sub.add_parser("table", help="print a paper table")
    p.add_argument("number", type=int, choices=(1, 2, 3))
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("workloads", help="list the workload registry")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_workloads)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point: run the subcommand, map errors to the taxonomy.

    Every failure mode exits through here with a distinct code, and
    under ``--json`` also prints a machine-readable ``{"error": ...}``
    record on stdout (argparse usage errors excepted -- those stay on
    argparse's native exit 2).
    """
    args = build_parser().parse_args(argv)
    wants_json = bool(getattr(args, "json", False))
    try:
        try:
            return args.func(args)
        except JobError as exc:  # the request layer's bad input
            raise CLIError(str(exc), reason=exc.reason) from None
    except CLIError as err:
        if wants_json:
            print(json.dumps(err.record(), indent=2))
        print(f"error: {err}", file=sys.stderr)
        return err.code
    except FrontendError as exc:
        if wants_json:
            print(json.dumps({"error": {
                "code": EXIT_FRONTEND, "reason": "frontend",
                "message": str(exc)}}, indent=2))
        print(exc.render(), file=sys.stderr)
        return EXIT_FRONTEND


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

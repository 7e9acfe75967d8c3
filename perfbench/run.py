#!/usr/bin/env python3
"""The repo benchmark: four workloads, end-to-end gates, traced layers.

Run one workload (from the repository root)::

    python3 perfbench/run.py --workload fig9_ladder --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` times untraced passes and prints the end-to-end metrics;
``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics, including each layer's self time and the traced /
untraced overhead.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Every run also
appends its full record (host stamp, calibration, per-op rows, named
failures) to ``perfbench/out/runs.jsonl``; a traced run writes its
spans to ``perfbench/out/trace-<workload>-<seed>.jsonl`` in the
program's JSONL trace schema and validates them with
``tools/check_trace.py``.

Other modes::

    python3 perfbench/run.py --self-check      # tiny run of everything
    python3 perfbench/run.py --compare BASE.jsonl NEW.jsonl

Metric names, units and bounds come from ``BENCHMARK.json``; workload
reasons, seeds and the layer -> end-to-end table from
``perfbench/workloads.json``.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import os
import sys
import time
from contextlib import contextmanager

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("fig9_ladder", "compile_corpus", "dse_grid", "service_mix")
#: set-ups per run; ``setup_s`` reports their median
SETUPS = 5


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def import_program():
    """Import the program from ``<root>/src``; None when it is absent."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import repro  # noqa: F401
    except ImportError:
        return None
    return sys.modules["repro"]


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------
@contextmanager
def _traced_window(workload, tracer):
    """The timed window of a traced pass: interposed layer calls under
    one root span.  Its probe does nothing: traced passes give no
    end-to-end figure."""
    from harness import Interposer

    with Interposer(tracer, workload.interpose_targets()):
        with tracer.span("bench.pass"):
            yield lambda count=True: None


def _reparent(spans):
    """Hang spans opened on other threads (service clients) under the
    root span, so one tree covers the pass."""
    root = next(s for s in spans if s["name"] == "bench.pass")
    return [dict(span, parent=root["id"])
            if span["parent"] is None and span is not root else span
            for span in spans]


def untraced_pass(wl, graph):
    """One pass of the program as it is, probed for the host's speed at
    both ends of the timed window, on the workload's ``PACE_EVERY_S``
    timer, and wherever the workload calls the probe the window
    yields; paced with the workload's ``PACE_EXPONENT``, if it has
    one."""
    from harness import PACE_EXPONENT, Pace

    pace = Pace(graph, getattr(wl, "PACE_EVERY_S", None),
                getattr(wl, "PACE_EXPONENT", PACE_EXPONENT))

    @contextmanager
    def window(_tracer):
        pace.start()
        try:
            yield pace.probe
        finally:
            pace.finish()

    result = wl.run_pass(None, window)
    result.seconds -= pace.inner_wall()
    result.cpu_seconds = pace.cpu_seconds()
    result.paced_seconds = pace.paced_seconds()
    result.reference_s = [mark[2] for mark in pace.marks]
    return result


def run_passes(wl, seconds, traced, graph):
    """Untraced passes (and, traced, alternating traced ones) until
    ``seconds`` have passed and each kind has its minimum."""
    from repro.obs.trace import Tracer

    untraced, traced_passes = [], []
    start = time.perf_counter()
    while True:
        enough = time.perf_counter() - start >= seconds
        if enough and untraced and (not traced or traced_passes):
            break
        if traced and len(traced_passes) < len(untraced):
            tracer = Tracer()
            result = wl.run_pass(
                tracer, lambda t: _traced_window(wl, t))
            result.spans = _reparent(tracer.export())
            traced_passes.append(result)
        else:
            untraced.append(untraced_pass(wl, graph))
    return untraced, traced_passes


def e2e_metrics(setup_s, untraced, all_passes):
    from harness import median, peak_rss_mb

    attempted = sum(len(p.ops) for p in all_passes)
    good = sum(1 for p in all_passes for op in p.ops if op.ok)
    return {
        "setup_s": setup_s,
        "pass_paced_s": median(p.paced_seconds for p in untraced),
        "peak_rss_mb": peak_rss_mb(),
        "ok_ratio": good / attempted if attempted else 0.0,
    }


def wall_metrics(untraced):
    """The untraced passes' unpaced figures: wall and CPU time of a pass,
    how slow the host ran, and operation latency (ms) -- the mean per
    pass, then p50 and p90 over the operations, each operation taken at
    its median latency across the passes."""
    from harness import REFERENCE_S, median, percentile

    by_name = {}
    for result in untraced:
        for op in result.ops:
            by_name.setdefault(op.name, []).append(op.seconds * 1e3)
    typical = [median(samples) for samples in by_name.values()]
    return {"bench.pass_wall_s": median(p.seconds for p in untraced),
            "bench.pass_cpu_s": median(p.cpu_seconds for p in untraced),
            # the host's speed: reference walk time over its nominal
            "bench.host_slowdown": median(
                w for p in untraced for w in p.reference_s) / REFERENCE_S,
            # a pass's mean, then the median over passes
            "bench.op_mean_ms": median(sum(op.seconds for op in p.ops) * 1e3
                                       / len(p.ops) for p in untraced),
            "bench.op_p50_ms": percentile(typical, 50),
            "bench.op_p90_ms": percentile(typical, 90)}


#: span name -> per-layer "ms per call" metric
CALL_METRICS = {
    "bench.core.mobility": "core.mobility_ms",
    "bench.core.allocation": "core.allocation_ms",
    "bench.core.validate": "core.validate_ms",
    "bench.core.fold": "core.fold_ms",
    "bench.frontend.compile": "frontend.compile_ms",
    "bench.cdfg.optimize": "cdfg.optimize_ms",
    "bench.tech.power": "tech.power_ms",
    "bench.rtl.verilog": "rtl.verilog_ms",
    "bench.sim.cycle_sim": "sim.cycle_sim_ms",
}


def layer_metrics(wl, untraced, traced):
    from harness import (absent_counters, layer_self_ms, median,
                         self_times, span_stats)

    out = {}
    counters = untraced[0].counts.get("counters")
    if counters is not None:
        passes = counters["passes"]
        hit, miss = counters["commit_cache_hit"], \
            counters["commit_cache_miss"]
        derived = {
            "timing.evaluate": ("evaluate", counters["evaluate"]),
            "timing.commit": ("commit", counters["commit"]),
            "timing.evaluate_per_pass": (
                "evaluate", counters["evaluate"] / passes if passes
                else None),
            "timing.commit_cache_hit_ratio": (
                "commit_cache_hit", hit / (hit + miss) if hit + miss
                else None),
            "core.ffwd": ("ffwd", counters["ffwd"]),
            "core.ffwd_passes": ("ffwd_passes", counters["ffwd_passes"]),
        }
        absent = absent_counters()
        out.update({metric: None if name in absent else value
                    for metric, (name, value) in derived.items()})
    first = untraced[0].extra
    if "passes" in first:
        passes = first["passes"]
        out["core.passes"] = passes
        out["core.failed_pass_ratio"] = \
            (passes - first["successes"]) / passes if passes else 0.0
    out.update(wl.layer_metrics(untraced, traced))
    out.update(wall_metrics(untraced))
    per_pass = []
    for result in traced:
        spans = result.spans
        root = next(s for s in spans if s["name"] == "bench.pass")
        own = self_times(spans)
        per_pass.append((spans, root, own, layer_self_ms(spans)))
    spans, root, own, _ = per_pass[0]
    for span_name, metric in CALL_METRICS.items():
        calls, mean_ms = span_stats(spans, span_name)
        if calls:
            out[metric] = mean_ms
    pass_spans = [s for s in spans if s["name"] == "scheduler.pass"]
    if pass_spans:
        out["core.pass_ms"] = sum(own[s["id"]] for s in pass_spans) \
            * 1e3 / len(pass_spans)
    for layer in per_pass[0][3]:
        out[f"{layer}.self_ms"] = median(p[3][layer] for p in per_pass)
    out["obs.spans"] = len(spans)
    out["obs.self_sum_ratio"] = median(
        sum(p[2].values()) / p[1]["dur"] for p in per_pass)
    out["obs.trace_overhead"] = (
        median(p.seconds for p in traced)
        / median(p.seconds for p in untraced))
    return out


def check_counts(passes):
    """Names of count records that differ between passes of a run."""
    first = passes[0].counts
    return sorted({key for p in passes[1:] for key in first
                   if p.counts.get(key) != first[key]})


def write_trace(workload, seed, spans, min_pids):
    """The spans in the program's JSONL trace schema; returns the path
    and the problems ``tools/check_trace.py`` reports (``min_pids``:
    processes whose spans must have come home)."""
    from repro.obs.trace import TRACE_SCHEMA

    path = os.path.join(OUT, f"trace-{workload}-{seed}.jsonl")
    lines = [json.dumps({"trace_schema": TRACE_SCHEMA}, sort_keys=True)]
    lines += [json.dumps(span, sort_keys=True, default=str)
              for span in spans]
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")
    checker = os.path.join(ROOT, "tools", "check_trace.py")
    if not os.path.exists(checker):
        return path, []
    spec = importlib.util.spec_from_file_location("check_trace", checker)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    from pathlib import Path
    return path, module.check(Path(path), 1, min_pids, ["bench.pass"])


def run_one(name, seed, seconds, traced, tiny=False, quiet=False):
    """Run one workload; returns the full record."""
    module = importlib.import_module(name)

    from harness import (calibrate, cpu_seconds, host_stamp,
                         import_seconds, median, pace_factor,
                         reference_graph, reference_walk)

    import_s = import_seconds(os.path.join(ROOT, "src"), SETUPS)
    graph = reference_graph()
    walks = [reference_walk(graph)]
    host = host_stamp(calibrate())
    wl = module.Workload(seed, tiny=tiny)
    setups = []
    for _ in range(SETUPS):
        t0 = cpu_seconds()
        wl.setup()
        setups.append(cpu_seconds() - t0)
        walks.append(reference_walk(graph))
    # set-up CPU seconds at the reference speed (see harness.Pace)
    setup_s = import_s + median(setups) * pace_factor(median(walks))
    try:
        untraced, traced_passes = run_passes(wl, seconds, traced, graph)
    finally:
        wl.close()
    all_passes = untraced + traced_passes

    failures = []
    known = set()
    for index, result in enumerate(all_passes):
        for op in result.ops:
            if op.known:
                known.add(op.describe())
            elif not op.ok:
                failures.append(f"pass {index}: {op.describe()}")
    for key in check_counts(all_passes):
        failures.append(f"counts differ between passes: {key}")
    metrics = e2e_metrics(setup_s, untraced, all_passes)
    layers = {}
    trace_path = None
    if traced:
        layers = layer_metrics(wl, untraced, traced_passes)
        os.makedirs(OUT, exist_ok=True)
        trace_path, problems = write_trace(
            name, seed, traced_passes[-1].spans,
            getattr(module, "TRACE_MIN_PIDS", 1))
        failures += [f"trace check: {p}" for p in problems]
    record = {
        "workload": name, "seed": seed, "trace": int(traced),
        "seconds": seconds, "host": host,
        "import_s": import_s, "setup_samples_s": setups,
        "setup_reference_s": walks,
        "passes": len(untraced), "traced_passes": len(traced_passes),
        # the sample bench.op_mean_ms rests on
        "op_samples": sum(len(p.ops) for p in untraced),
        "wall": wall_metrics(untraced),
        "attempted": sum(len(p.ops) for p in all_passes),
        "failed": len(failures), "failures": failures,
        "known_failures": sorted(known),
        "metrics": metrics, "layers": layers, "trace_file": trace_path,
        "ops": [[op.name, round(op.seconds * 1e3, 3),
                 "ok" if op.ok else "known failure" if op.known
                 else "FAILED"]
                for op in untraced[0].ops],
        "pass_s": [p.seconds for p in untraced],
        "pass_cpu_s": [p.cpu_seconds for p in untraced],
        "pass_paced_s": [p.paced_seconds for p in untraced],
        "reference_s": [p.reference_s for p in untraced],
        "counts": untraced[0].counts,
    }
    if not quiet:
        _print_human(record)
    return record


def _print_human(record):
    host = record["host"]
    print(f"# {record['workload']} seed={record['seed']} "
          f"trace={record['trace']}: {record['passes']} untraced + "
          f"{record['traced_passes']} traced passes; host cpus="
          f"{host['cpus']} python={host['python']} calibration="
          f"{host['calibration_s']:.4f}s")
    for name, ms, status in record["ops"]:
        print(f"#   {name:34s} {ms:10.2f} ms {status}")
    for failure in record["failures"]:
        print(f"# FAILED {failure}")
    for known in record["known_failures"]:
        print(f"# known baseline failure: {known}")


def emit(record, spec, traced):
    """The final stdout line: every metric of the run's kind, with unit."""
    kind = "per_layer" if traced else "end_to_end"
    source = record["layers"] if traced else record["metrics"]
    absent = []
    metrics = {}
    for entry in spec[kind]:
        value = source.get(entry["name"])
        if value is None:
            # not exercised by this workload, or a counter the program
            # does not have: reported as 0 and named as absent
            absent.append(entry["name"])
            value = 0
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    record["absent"] = absent
    return {"correct": not record["failures"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": metrics}


def append_record(record):
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "runs.jsonl"), "a") as handle:
        handle.write(json.dumps(record, sort_keys=True, default=str) + "\n")


# ----------------------------------------------------------------------
# self-check and compare
# ----------------------------------------------------------------------
def self_check(spec):
    """Every workload at a tiny size, both kinds; every named metric
    must appear with its unit.  Returns the exit code."""
    problems = []
    for name in WORKLOADS:
        for traced in (False, True):
            record = run_one(name, 1, 0.0, traced, tiny=True, quiet=True)
            line = emit(record, spec, traced)
            kind = "per_layer" if traced else "end_to_end"
            for entry in spec[kind]:
                got = line["metrics"].get(entry["name"])
                if got is None or got["unit"] != entry["unit"]:
                    problems.append(f"{name}: {entry['name']} missing")
            problems += [f"{name}: {f}" for f in record["failures"]]
            print(f"self-check {name} trace={int(traced)}: "
                  f"{record['attempted']} ops, "
                  f"{len(record['failures'])} failed, "
                  f"{len(record['absent'])} metrics not exercised")
    for problem in problems:
        print(f"self-check FAILED: {problem}")
    print("self-check ok" if not problems else "self-check failed")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = parser.parse_args(argv)

    spec = load_spec()
    if args.compare:
        from compare import compare
        return compare(spec, *args.compare)
    if import_program() is None:
        print(f"error: cannot import the program from "
              f"{os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.self_check:
        return self_check(spec)
    if args.workload is None:
        parser.error("--workload is required")
    record = run_one(args.workload, args.seed, args.seconds,
                     bool(args.trace))
    line = emit(record, spec, bool(args.trace))
    append_record(record)
    print(json.dumps(line, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

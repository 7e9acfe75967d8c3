"""Shared machinery of the benchmark.

* the pass/operation records a workload returns, and statistics;
* the host stamp and calibration recorded with every result;
* :func:`counter`, the one tolerant lookup into the program's counters;
* :class:`Interposer`, which wraps calls into public layer functions in
  the benchmark's own spans during a traced pass;
* :func:`layer_self_ms`, which turns a span list into per-layer self
  time (a span's duration minus the part its child spans cover).

Nothing here imports ``repro`` at module level: ``run.py`` must fail
cleanly when the program is not next to it.
"""

from __future__ import annotations

import functools
import gc
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple


# ----------------------------------------------------------------------
# what a workload pass returns
# ----------------------------------------------------------------------
@dataclass
class Op:
    """One attempted operation: its latency and whether its check held."""

    name: str
    seconds: float
    ok: bool = True
    #: the failure is the named, expected baseline failure
    known: bool = False
    error: str = ""

    def describe(self) -> str:
        """``name: first line of the error`` (at most 200 characters)."""
        first = self.error.splitlines()[0] if self.error else ""
        return f"{self.name}: {first[:200]}"


@dataclass
class PassResult:
    """One timed pass over a workload."""

    ops: List[Op]
    #: wall time of the timed window
    seconds: float
    #: deterministic counts; every pass of a run must repeat them
    counts: Dict[str, object] = field(default_factory=dict)
    #: per-pass figures the workload's layer metrics are built from
    extra: Dict[str, object] = field(default_factory=dict)
    #: exported spans (traced passes only)
    spans: List[Dict[str, object]] = field(default_factory=list)
    #: CPU time of the timed window (see :func:`cpu_seconds`), as
    #: measured and at the reference speed (see :class:`Pace`); and the
    #: reference walks the pass was paced by (untraced passes only)
    cpu_seconds: float = 0.0
    paced_seconds: float = 0.0
    reference_s: List[float] = field(default_factory=list)


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def percentile(values: Iterable[float], q: int) -> float:
    """The q-th percentile (1..99) by the inclusive method; the median
    of a single sample is that sample."""
    values = sorted(values)
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def quartile_spread(values: List[float]) -> float:
    """(Q3 - Q1) / median, the run-to-run spread the gates use."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def scaling_exponent(sizes: List[float], times: List[float]) -> float:
    """Least-squares k in t = c * size^k (log-log fit)."""
    pts = [(math.log(s), math.log(t)) for s, t in zip(sizes, times)
           if s > 0 and t > 0]
    if len(pts) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    sxy = sum((x - mx) * (y - my) for x, y in pts)
    return sxy / sxx if sxx else 0.0


# ----------------------------------------------------------------------
# host stamp, memory
# ----------------------------------------------------------------------
def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest reaped child, in MiB.

    ``ru_maxrss`` is KiB on Linux; children are only visible once
    waited for, which every pool and worker here is before the read.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def calibrate(rounds: int = 3) -> float:
    """Median seconds of a fixed ~400-op schedule (fresh region each
    round), so results from different hosts can be told apart."""
    from repro.core import schedule_region
    from repro.tech import artisan90
    from repro.workloads.synthetic import industrial_suite

    lib = artisan90()
    times = []
    for _ in range(rounds):
        ((_, region),) = industrial_suite(n_designs=1, min_ops=400,
                                          max_ops=400)
        t0 = time.perf_counter()
        schedule_region(region, lib, 1600.0)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


#: what a user of the library imports before the first call
IMPORTS = ("repro.core", "repro.flow", "repro.workloads", "repro.sim",
           "repro.rtl", "repro.dse", "repro.dataflow", "repro.service")


def cpu_seconds() -> float:
    """CPU seconds of this process, all its threads, and every child it
    has reaped (pool workers, forked service jobs).

    The benchmark times in CPU seconds because on a shared virtual
    machine wall time also counts the time the host gives the virtual
    CPU to someone else (steal) and the time spent waiting for a CPU; a
    kernel with paravirtual steal accounting leaves both out of CPU
    time.  Children count only once waited for, which every pool and
    forked job is before its pass ends.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


# ----------------------------------------------------------------------
# host speed
# ----------------------------------------------------------------------
#: CPU seconds one reference walk takes on an uncontended 2 GHz Xeon
#: guest under CPython 3.11; paced times are stated at this speed
REFERENCE_S = 0.017
REFERENCE_NODES = 100_000
REFERENCE_STEPS = 10_000
#: steps of a timer probe's walk (see :class:`Pace`)
TICK_STEPS = 2_500
#: the program's CPU time grows as the walk's to this power when the
#: host slows: log-log slopes of 1.3 (compile_corpus, 84 passes), 1.5
#: (fig9_ladder) and 1.9 (dse_grid); 1.5 left the least spread on them
#: (perfbench/README.md, "Paced CPU time").  A workload may set its own
#: ``PACE_EXPONENT``.
PACE_EXPONENT = 1.5


def reference_graph(n: int = REFERENCE_NODES) -> Tuple[List[int], List[int]]:
    """Three successors and a weight per node, all plain ints: a working
    set of a few MiB that adds no object to the garbage collector's
    generations, so it does not slow the program's own collections."""
    succ = [(i * 2654435761 + k * 40503) % n
            for i in range(n) for k in range(3)]
    weight = [(i * 97) % 1024 for i in range(n)]
    return succ, weight


def reference_walk(graph: Tuple[List[int], List[int]],
                   steps: int = REFERENCE_STEPS) -> float:
    """CPU seconds of a fixed walk over ``graph``: dict and list
    look-ups scattered over the working set, the kind of interpreter
    work the program does, with none of the program's code in it.
    Timed by this thread's CPU clock, so the program's other threads
    (service_mix's server and clients) do not count."""
    succ, weight = graph
    n = len(weight)
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.thread_time()
        table: Dict[int, int] = {}
        i = 0
        for _ in range(steps):
            best = 0
            for j in succ[3 * i:3 * i + 3]:
                w = table.get(j, 0) + weight[j]
                if w > best:
                    best = w
            table[i] = best & 1023
            i = (i + 7919) % n
        return time.thread_time() - start
    finally:
        if enabled:
            gc.enable()


def pace_factor(walk: float, exponent: float = PACE_EXPONENT) -> float:
    """What CPU time measured while a reference walk took ``walk``
    seconds is multiplied by to state it at the reference speed."""
    return (REFERENCE_S / walk) ** exponent


class Pace:
    """CPU time of a timed window, paced to the reference speed.

    On a shared host the CPU itself runs slower or faster from one
    stretch of seconds to the next (a neighbour on the sibling
    hyperthread, in the shared caches), and CPU time follows.  A probe
    times a reference walk; the CPU time between two probes is scaled
    by :func:`pace_factor` of the mean of their walks.  With ``every_s``,
    a timer also probes (with a quarter-length walk) every ``every_s``
    seconds, so the scale follows the host through operations that take
    seconds; only for workloads whose timed work runs in the main
    thread, where the timer signal interrupts nothing but Python code.
    The probes' own CPU and wall time are left out, and so is a segment
    opened by ``probe(count=False)``, during which the timer is off.
    """

    def __init__(self, graph, every_s: Optional[float] = None,
                 exponent: float = PACE_EXPONENT) -> None:
        self.graph = graph
        self.every_s = every_s
        self.exponent = exponent
        self.counting = True
        #: (cpu_seconds() before the walk, after it, walk seconds per
        #: REFERENCE_STEPS, whether the segment this probe opens counts)
        self.marks: List[Tuple[float, float, float, bool]] = []
        #: wall seconds of each probe
        self.walls: List[float] = []
        self._saved_handler = None

    def start(self) -> None:
        if self.every_s:
            self._saved_handler = signal.signal(
                signal.SIGALRM, lambda signum, frame: self._mark(TICK_STEPS))
        self.probe()

    def probe(self, count: bool = True) -> None:
        """Close the current segment and open one that counts or not."""
        self._arm(0.0)
        self.counting = count
        self._mark(REFERENCE_STEPS)
        self._arm(self.every_s if count else 0.0)

    def finish(self) -> None:
        self._arm(0.0)
        self._mark(REFERENCE_STEPS)
        if self._saved_handler is not None:
            signal.signal(signal.SIGALRM, self._saved_handler)

    def _arm(self, every_s: Optional[float]) -> None:
        if self.every_s:
            signal.setitimer(signal.ITIMER_REAL, every_s or 0.0,
                             every_s or 0.0)

    def _mark(self, steps: int) -> None:
        t0 = time.perf_counter()
        before = cpu_seconds()
        walk = reference_walk(self.graph, steps) * REFERENCE_STEPS / steps
        self.marks.append((before, cpu_seconds(), walk, self.counting))
        self.walls.append(time.perf_counter() - t0)

    def _segments(self):
        for (_, start, w0, count), (end, _, w1, _) in zip(self.marks,
                                                          self.marks[1:]):
            if count:
                yield end - start, (w0 + w1) / 2

    def cpu_seconds(self) -> float:
        """Unscaled CPU seconds of the counted segments."""
        return sum(cpu for cpu, _ in self._segments())

    def paced_seconds(self) -> float:
        """CPU seconds of the counted segments, at the reference
        speed."""
        return sum(cpu * pace_factor(walk, self.exponent)
                   for cpu, walk in self._segments())

    def inner_wall(self) -> float:
        """Wall seconds of the probes between the first and the last."""
        return sum(self.walls[1:-1])


def import_seconds(src: str, rounds: int) -> float:
    """Median CPU seconds a fresh interpreter takes to import the
    program, at the reference speed.

    Measured in child processes: this process imported it already, and
    a fresh import is what every user pays.  Each child paces its own
    import with a reference walk before and after it.
    """
    code = ("import sys, time; sys.path[:0] = sys.argv[1:3]; "
            "import harness; g = harness.reference_graph(); "
            "w0 = harness.reference_walk(g); t0 = time.process_time(); "
            + "; ".join(f"import {m}" for m in IMPORTS)
            + "; cpu = time.process_time() - t0; "
            "w1 = harness.reference_walk(g); "
            "print(cpu * harness.pace_factor((w0 + w1) / 2))")
    here = os.path.dirname(os.path.abspath(__file__))
    times = []
    for _ in range(rounds):
        done = subprocess.run([sys.executable, "-c", code, src, here],
                              capture_output=True, text=True,
                              timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def host_stamp(calibration_s: float) -> Dict[str, object]:
    return {
        "cpus": os.cpu_count() or 1,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "calibration_s": round(calibration_s, 5),
    }


# ----------------------------------------------------------------------
# program counters: one tolerant lookup
# ----------------------------------------------------------------------
#: benchmark counter name -> program counter names to try, in order.
#: A renamed program counter is fixed here and nowhere else.
COUNTERS: Dict[str, Tuple[str, ...]] = {
    "passes": ("pass.count",),
    "evaluate": ("engine.evaluate",),
    "commit": ("engine.commit",),
    "commit_cache_hit": ("engine.commit_cache_hit",),
    "commit_cache_miss": ("engine.commit_cache_miss",),
    "ffwd": ("scheduler.ffwd",),
    "ffwd_passes": ("scheduler.ffwd_passes",),
    "pickle_bytes": ("sweep.pickle_bytes",),
}


def counter_snapshot() -> Dict[str, int]:
    """The program's counter table, or {} if it has none."""
    try:
        from repro import profiling
    except ImportError:
        return {}
    return profiling.snapshot()


def counter(delta: Dict[str, int], name: str) -> Optional[int]:
    """A benchmark counter from a snapshot delta; None when absent."""
    for program_name in COUNTERS[name]:
        if program_name in delta:
            return delta[program_name]
    return None


def named_counters(delta: Dict[str, int]) -> Dict[str, int]:
    """Every benchmark counter from a delta.  The program creates a
    counter on its first bump, so one not yet seen counts 0 here;
    :func:`absent_counters` names those the program never had."""
    return {name: counter(delta, name) or 0 for name in COUNTERS}


def absent_counters() -> List[str]:
    """Benchmark counters the program's table has no entry for."""
    table = counter_snapshot()
    return [name for name in COUNTERS if counter(table, name) is None]


def snapshot_delta(before: Dict[str, int],
                   after: Dict[str, int]) -> Dict[str, int]:
    return {key: value - before.get(key, 0)
            for key, value in after.items()}


# ----------------------------------------------------------------------
# traced interposition
# ----------------------------------------------------------------------
class Interposer:
    """Wrap module attributes in spans of the benchmark's tracer.

    ``targets`` maps a span name to ``(owner, attribute)``; while the
    context is open, ``owner.attribute`` records one span per call in
    this process.  Forked workers inherit the wrapper but record
    nothing (their spans would die with them; the program ships its
    own worker spans home).  Only traced passes open an Interposer, so
    untraced passes run the program unmodified.
    """

    def __init__(self, tracer,
                 targets: Dict[str, Tuple[object, str]]) -> None:
        self.tracer = tracer
        self.targets = targets
        self._saved: List[Tuple[object, str, object]] = []
        self._pid = os.getpid()

    def _wrap(self, span_name: str, fn: Callable) -> Callable:
        tracer, pid = self.tracer, self._pid

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != pid:
                return fn(*args, **kwargs)
            with tracer.span(span_name):
                return fn(*args, **kwargs)
        return wrapper

    def __enter__(self) -> "Interposer":
        for span_name, (owner, attr) in self.targets.items():
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(span_name, original))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def core_targets() -> Dict[str, Tuple[object, str]]:
    """The scheduler's calls into mobility, allocation and validation."""
    import repro.core.scheduler as scheduler
    from repro.core.schedule import Schedule

    return {
        "bench.core.mobility": (scheduler, "compute_mobility"),
        "bench.core.allocation": (scheduler, "lower_bound"),
        "bench.core.validate": (Schedule, "validate"),
    }


# ----------------------------------------------------------------------
# self time per layer
# ----------------------------------------------------------------------
#: program span prefix -> layer (benchmark spans are "bench.<layer>.*").
PROGRAM_LAYERS = {
    "flow": "flow",
    "sweep": "flow",
    "scheduler": "core",
    "dse": "dse",
    "service": "service",
    "stream": "dataflow",
}

LAYERS = ("frontend", "cdfg", "core", "tech", "rtl", "sim", "flow",
          "dse", "dataflow", "service", "bench")


def layer_of(name: str) -> str:
    head, _, rest = name.partition(".")
    if head == "bench":
        layer = rest.partition(".")[0]
        return layer if layer in LAYERS else "bench"
    return PROGRAM_LAYERS.get(head, "bench")


def self_times(spans: List[Dict[str, object]]) -> Dict[object, float]:
    """span id -> seconds of its interval no child span covers."""
    children: Dict[object, List[Dict[str, object]]] = {}
    for span in spans:
        children.setdefault(span.get("parent"), []).append(span)
    out: Dict[object, float] = {}
    for span in spans:
        start = span["ts"]
        end = start + span["dur"]
        covered = 0.0
        cursor = start
        for lo, hi in sorted((c["ts"], c["ts"] + c["dur"])
                             for c in children.get(span["id"], ())):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span["id"]] = max(0.0, span["dur"] - covered)
    return out


def layer_self_ms(spans: List[Dict[str, object]]) -> Dict[str, float]:
    """layer -> total self time in ms over the given spans."""
    own = self_times(spans)
    totals = {layer: 0.0 for layer in LAYERS}
    for span in spans:
        totals[layer_of(span["name"])] += own[span["id"]] * 1e3
    return totals


def span_stats(spans: List[Dict[str, object]],
               name: str) -> Tuple[int, float]:
    """(calls, mean ms) of every span with this name."""
    durs = [s["dur"] for s in spans if s["name"] == name]
    return len(durs), (sum(durs) / len(durs) * 1e3 if durs else 0.0)


def chrome_to_spans(doc: Dict[str, object]) -> List[Dict[str, object]]:
    """A Chrome ``trace_event`` document (what ``GET /jobs/<id>/trace``
    serves) back in the tracer's span-dict form."""
    spans = []
    for event in doc.get("traceEvents", []):
        args = dict(event.get("args") or {})
        spans.append({
            "name": event["name"],
            "id": args.pop("span_id"),
            "parent": args.pop("parent_id", None),
            "ts": event["ts"] / 1e6,
            "dur": event["dur"] / 1e6,
            "pid": event["pid"],
            "tid": event["tid"],
            "attrs": args,
        })
    return spans

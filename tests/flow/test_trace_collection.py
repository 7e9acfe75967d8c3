"""Cross-process span collection through the sweep merge-back channel.

The observability contract at the flow layer: a traced sweep returns
bit-identical results to an untraced one, and with the process backend
the workers' ``sweep.point`` spans come home over the existing result
channel carrying their *own* pids -- the parent's trace shows every
process that did work.
"""

from __future__ import annotations

import os

from tests.conftest import requires_multicore

from repro.flow import run_sweep
from repro.obs.trace import Tracer
from repro.explore import Microarch

MICROS = tuple(Microarch(f"NP{k}", k) for k in (2, 3, 4, 5))
CLOCKS = (1000.0, 1600.0)


def _summaries(result):
    return [p.row() for p in result.points] + \
        [q.describe() for q in result.infeasible]


def test_traced_sweep_decision_identical_context_backend(lib):
    from repro.workloads import build_example1

    plain = run_sweep(build_example1, lib, MICROS, CLOCKS, jobs=1)
    tracer = Tracer()
    traced = run_sweep(build_example1, lib, MICROS, CLOCKS,
                       jobs=1, tracer=tracer)
    assert traced.backend == "context"
    assert _summaries(traced) == _summaries(plain)
    names = [s["name"] for s in tracer.export()]
    assert names.count("sweep.point") == len(MICROS) * len(CLOCKS)
    assert "sweep.run" in names


@requires_multicore
def test_process_sweep_spans_come_home_with_worker_pids(lib):
    from repro.workloads import build_example1

    plain = run_sweep(build_example1, lib, MICROS, CLOCKS, jobs=2)
    tracer = Tracer()
    traced = run_sweep(build_example1, lib, MICROS, CLOCKS,
                       jobs=2, tracer=tracer)
    assert traced.backend == "process"
    assert _summaries(traced) == _summaries(plain)
    spans = tracer.export()
    points = [s for s in spans if s["name"] == "sweep.point"]
    assert len(points) == len(MICROS) * len(CLOCKS)
    # every worker point span carries the worker's pid, not ours (the
    # pool may serve the whole grid from one worker, so >= 1 of them)
    worker_pids = {s["pid"] for s in points}
    assert worker_pids and os.getpid() not in worker_pids
    # ... and hangs off the parent's sweep.run span tree
    (run_span,) = [s for s in spans if s["name"] == "sweep.run"]
    assert run_span["pid"] == os.getpid()
    ids = {s["id"] for s in spans}
    assert all(s["parent"] in ids for s in points)


def test_traced_point_spans_carry_feasibility(lib):
    from repro.workloads import build_example1

    tracer = Tracer()
    run_sweep(build_example1, lib, (Microarch("NP5", 5),),
              (600.0, 2400.0), jobs=1, tracer=tracer)
    by_clock = {s["attrs"]["clock_ps"]: s["attrs"]
                for s in tracer.export()
                if s["name"] == "sweep.point"}
    assert by_clock[2400.0]["feasible"] is True
    assert by_clock[600.0]["feasible"] is False

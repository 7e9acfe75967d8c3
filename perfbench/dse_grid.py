"""dse_grid: a cold ``run_sweep`` of the jpeg_dct 5x5 microarch x clock grid.

NP24, NP32, NP48, P48:24, P64:32 x 1000/1250/1600/2100/2800 ps on
artisan90, each pass once at jobs=1 (serial ``context`` backend) and
once at jobs=2 (``process`` backend), each with a fresh ``FlowCache``.
The end-to-end ``pass_paced_s`` covers the jobs=1 sweep only.
Twelve of the 25 points are infeasible, so the relaxation loop,
restraint analysis and fixpoint fast-forward carry most of the time,
plus the process backend's variant builds, pickling and merge-back.
The grid is the whole input, so the seed selects nothing here.
"""

from __future__ import annotations

import os
import time

from harness import (Op, PassResult, core_targets, counter,
                     counter_snapshot, named_counters, snapshot_delta)

NAME = "dse_grid"
KERNEL = "jpeg_dct"
MICROS = (("NP24", 24, None), ("NP32", 32, None), ("NP48", 48, None),
          ("P48:24", 48, 24), ("P64:32", 64, 32))
CLOCKS = (1000.0, 1250.0, 1600.0, 2100.0, 2800.0)
TINY_MICROS = (("NP32", 32, None), ("P48:24", 48, 24))
TINY_CLOCKS = (1600.0, 2800.0)
KERNEL_TINY = "adpcm"
#: a traced pass must hold spans from the jobs=2 worker processes
TRACE_MIN_PIDS = 2


def render(result):
    """Canonical text of every sweep outcome, in grid order."""
    return [repr(p) for p in result.points] + \
        [repr(q) for q in result.infeasible]


class Workload:
    #: a sweep takes seconds: pace within it (harness.Pace)
    PACE_EVERY_S = 0.25

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.seed = seed
        self.tiny = tiny

    def setup(self) -> None:
        from repro.explore.microarch import Microarch
        from repro.tech import artisan90
        from repro.workloads import PYFUNC_REGISTRY

        self.lib = artisan90()
        micros = TINY_MICROS if self.tiny else MICROS
        self.micros = tuple(Microarch(name, lat, ii=ii)
                            for name, lat, ii in micros)
        self.clocks = TINY_CLOCKS if self.tiny else CLOCKS
        self.factory = PYFUNC_REGISTRY[
            KERNEL_TINY if self.tiny else KERNEL].build

    def interpose_targets(self):
        import repro.flow.passes as passes

        return {**core_targets(),
                "bench.tech.power": (passes, "estimate_power")}

    def _sweep(self, jobs, tracer):
        from repro.flow.cache import FlowCache
        from repro.flow.executor import run_sweep
        from repro.obs.trace import maybe_span

        before = counter_snapshot()
        t0 = time.perf_counter()
        with maybe_span(tracer, "bench.flow.run_sweep", jobs=jobs):
            result = run_sweep(self.factory, self.lib, self.micros,
                               self.clocks, jobs=jobs, cache=FlowCache(),
                               tracer=tracer)
        seconds = time.perf_counter() - t0
        return result, seconds, snapshot_delta(before, counter_snapshot())

    def run_pass(self, tracer=None, window=None) -> PassResult:
        with window(tracer) as probe:
            serial, serial_s, serial_c = self._sweep(1, tracer)
            # the jobs=2 sweep runs and is checked, but is left out of
            # pass_paced_s: on two vCPUs its workers slow each other
            # (shared core), so its CPU time spreads past any bound.
            # Its wall time is flow.grid_jobs2_s.
            probe(count=False)
            par, par_s, par_c = self._sweep(2, tracer)
        ops = [Op("grid_jobs1", serial_s), Op("grid_jobs2", par_s)]
        if render(par) != render(serial):
            ops[1].ok = False
            ops[1].error = "jobs=2 render differs from jobs=1"
        serial_counts = _work_counts(serial_c, serial)
        par_counts = _work_counts(par_c, par)
        if par_counts != serial_counts:
            ops[1].ok = False
            ops[1].error = (f"jobs=2 counts {par_counts} differ from "
                            f"jobs=1 {serial_counts}")
        counts = {"work": serial_counts,
                  "backend": par.backend,
                  "points": len(serial.points),
                  "infeasible": len(serial.infeasible),
                  "parent_served": par.profile.get("parent_served", 0),
                  # the profile's pickle_bytes reads a process-wide
                  # running total, so take this sweep's delta instead
                  "pickle_bytes": counter(par_c, "pickle_bytes") or 0,
                  "counters": named_counters(serial_c)}
        extra = {
            "serial_s": serial_s,
            "jobs2_s": par_s,
            "utilization": par.profile.get("worker_utilization", 0.0),
            # scheduler passes run at jobs=1; a feasible point ends in
            # exactly one successful pass
            "passes": serial_counts["passes"],
            "successes": len(serial.points),
        }
        return PassResult(ops, serial_s + par_s, counts, extra)

    def layer_metrics(self, untraced, traced):
        from harness import median

        first = untraced[0].counts
        serial = median(p.extra["serial_s"] for p in untraced)
        jobs2 = median(p.extra["jobs2_s"] for p in untraced)
        out = {
            "flow.points": first["points"] + first["infeasible"],
            "flow.infeasible_points": first["infeasible"],
            "flow.parent_served": first["parent_served"],
            "flow.pickle_bytes": first["pickle_bytes"],
            "flow.worker_busy_share":
                median(p.extra["utilization"] for p in untraced),
            "flow.process_speedup": serial / jobs2 if jobs2 else 0.0,
            "flow.grid_serial_s": serial,
            "flow.grid_jobs2_s": jobs2,
        }
        if traced:
            # points of the serial sweep: the parent's own spans
            spans = [s for s in traced[0].spans if s["pid"] == os.getpid()]
            for kind, flag in (("feasible", True), ("infeasible", False)):
                durs = [s["dur"] * 1e3 for s in spans
                        if s["name"] == "sweep.point"
                        and s["attrs"].get("feasible") is flag]
                out[f"flow.point_ms.{kind}"] = median(durs)
        return out

    def close(self) -> None:
        pass


def _work_counts(delta, result):
    """Work counts one sweep did; identical at jobs=1 and jobs=2."""
    return {
        "passes": counter(delta, "passes"),
        "evaluate": counter(delta, "evaluate"),
        "ffwd": result.profile.get("warm_accepts"),
        "ffwd_passes": counter(delta, "ffwd_passes"),
    }

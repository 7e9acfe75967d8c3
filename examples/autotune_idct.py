"""Goal-directed autotuning of the paper's IDCT kernel.

The Figure 10 experiment, inverted: instead of sweeping the whole
microarchitecture x clock grid and eyeballing the Pareto chart, state
the goal -- "delay under 26 ns, minimize area" -- and let the search
find the winner.  The exhaustive oracle evaluates all 25 grid points;
greedy reaches the same winner in a fraction of the evaluations, and a
persistent result store makes the second run synthesis-free.

Run:  PYTHONPATH=src python examples/autotune_idct.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.dse import Goal, ResultStore, tune
from repro.tech import artisan90
from repro.workloads.idct import build_idct8


def main() -> None:
    library = artisan90()
    goal = Goal.build(objective="area", delay_ps=26000.0)
    print(f"kernel idct8, library {library.name}")
    print(f"goal: {goal.describe()}\n")

    reports = {}
    for strategy in ("exhaustive", "greedy"):
        reports[strategy] = tune(build_idct8, library, goal,
                                 strategy=strategy)
    baseline = reports["exhaustive"]
    print(f"{'strategy':<11} {'evals':>5}  winner")
    for strategy, report in reports.items():
        w = report.winner
        print(f"{strategy:<11} {report.evaluated:>2}/{report.grid_size}"
              f"  {w.label}: delay {w.delay_ps:.0f} ps, "
              f"area {w.area:.0f}")
        assert w == baseline.winner, "greedy must match the oracle"

    print("\ngreedy trace:")
    print(reports["greedy"].table())

    # the persistent store: a second run (or process) is synthesis-free
    store_path = Path(tempfile.mkdtemp()) / "idct.jsonl"
    cold = tune(build_idct8, library, goal, strategy="greedy",
                store=ResultStore(store_path))
    warm = tune(build_idct8, library, goal, strategy="greedy",
                store=ResultStore(store_path))
    print(f"\nwarm start via {store_path.name}: "
          f"cold run {cold.fresh_evaluations} fresh evaluations, "
          f"warm run {warm.fresh_evaluations} "
          f"({warm.store_hits} store hits, "
          f"{cold.elapsed_s / max(warm.elapsed_s, 1e-9):.0f}x faster)")
    assert warm.fresh_evaluations == 0


if __name__ == "__main__":
    main()

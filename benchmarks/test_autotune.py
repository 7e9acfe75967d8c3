"""Autotuner budget and warm-start pins on the Figure 10 grid (IDCT).

The acceptance-level contract of :mod:`repro.dse`: on the paper's 5x5
microarchitecture/clock grid, the goal-directed ``greedy`` strategy must
find a constraint-meeting winner that the exhaustive sweep's Pareto
front does not dominate while evaluating at most 60% of the grid; under
an area cap, a min-delay goal must reach exhaustive's winner in at most
10 evaluations -- and a second tuning run against a warm on-disk store
must perform zero fresh synthesis evaluations.  Evaluated-point counts
and winner QoR land in ``BENCH_results.json`` through the
``bench_metrics`` fixture.
"""

from __future__ import annotations

from repro.dse import Goal, ResultStore, tune
from repro.explore.pareto import dominates
from repro.workloads.idct import build_idct8

from benchmarks.conftest import banner

#: delay budget on the Figure 10 grid: reachable by several curves but
#: not by the slowest configurations (NP32 prunes away analytically).
TARGET_DELAY_PS = 26000.0

#: the goal-directed strategy must beat this fraction of the grid.
BUDGET_FRACTION = 0.60

#: area cap of the min-delay pin: Non-Pipelined 8 and Pipelined 16
#: exceed it even at 2800 ps, so each is out after that one probe.
AREA_CAP = 90000.0

#: min-delay evaluations under :data:`AREA_CAP` (of the 25-point grid).
CAPPED_DELAY_BUDGET = 10


def test_goal_directed_beats_exhaustive_budget(lib, bench_metrics):
    """greedy: undominated winner at <= 60% of the grid."""
    banner("Autotune: goal-directed vs exhaustive on the IDCT "
           "Figure 10 grid")
    goal = Goal.build(objective="area", delay_ps=TARGET_DELAY_PS)
    exhaustive = tune(build_idct8, lib, goal, strategy="exhaustive")
    assert exhaustive.satisfied
    front = exhaustive.front
    print(f"goal       : {goal.describe()}")
    print(f"exhaustive : {exhaustive.evaluated:3d} evaluations -> "
          f"{exhaustive.winner.label} (area {exhaustive.winner.area:.1f})")
    bench_metrics["grid_size"] = exhaustive.grid_size
    bench_metrics["exhaustive_evaluations"] = exhaustive.evaluated
    bench_metrics["winner_label"] = exhaustive.winner.label
    bench_metrics["winner_delay_ps"] = exhaustive.winner.delay_ps
    bench_metrics["winner_area"] = exhaustive.winner.area
    bench_metrics["winner_power_mw"] = exhaustive.winner.power_mw

    budget = BUDGET_FRACTION * exhaustive.evaluated
    report = tune(build_idct8, lib, goal, strategy="greedy")
    w = report.winner
    print(f"greedy     : {report.evaluated:3d} evaluations -> "
          f"{w.label} (area {w.area:.1f})")
    bench_metrics["greedy_evaluations"] = report.evaluated
    bench_metrics["greedy_winner_area"] = w.area
    assert goal.satisfied(w)
    assert not any(dominates(q, w) for q in front), \
        f"greedy winner {w.label} dominated by the front"
    assert goal.score(w) == goal.score(exhaustive.winner)
    assert report.evaluated <= budget, (
        f"greedy evaluated {report.evaluated} points, "
        f"budget is {budget:.0f} of {exhaustive.evaluated}")


def test_capped_min_delay_skips_curves_over_the_cap(lib, bench_metrics):
    """greedy, min delay s.t. area <= 90000: exhaustive's winner in at
    most 10 evaluations."""
    banner("Autotune: capped min-delay on the IDCT Figure 10 grid")
    goal = Goal.build(objective="delay", max_area=AREA_CAP)
    exhaustive = tune(build_idct8, lib, goal, strategy="exhaustive")
    report = tune(build_idct8, lib, goal, strategy="greedy")
    print(f"goal       : {goal.describe()}")
    print(f"exhaustive : {exhaustive.evaluated:3d} evaluations -> "
          f"{exhaustive.winner.label}")
    print(f"greedy     : {report.evaluated:3d} evaluations -> "
          f"{report.winner.label}")
    bench_metrics["capped_delay_greedy_evaluations"] = report.evaluated
    assert report.winner == exhaustive.winner
    assert report.evaluated <= CAPPED_DELAY_BUDGET, report.evaluated


def test_warm_store_performs_zero_fresh_evaluations(lib, tmp_path,
                                                    bench_metrics):
    """Second tune run against the on-disk store: no synthesis at all."""
    banner("Autotune: persistent-store warm start (IDCT, greedy)")
    goal = Goal.build(objective="area", delay_ps=TARGET_DELAY_PS)
    path = tmp_path / "idct.jsonl"
    cold = tune(build_idct8, lib, goal, strategy="greedy",
                store=ResultStore(path))
    warm = tune(build_idct8, lib, goal, strategy="greedy",
                store=ResultStore(path))  # fresh instance = new process
    print(f"cold: {cold.fresh_evaluations} fresh, "
          f"{cold.store_hits} store hits "
          f"({cold.elapsed_s * 1e3:.1f} ms)")
    print(f"warm: {warm.fresh_evaluations} fresh, "
          f"{warm.store_hits} store hits "
          f"({warm.elapsed_s * 1e3:.1f} ms)")
    bench_metrics["cold_fresh"] = cold.fresh_evaluations
    bench_metrics["warm_fresh"] = warm.fresh_evaluations
    bench_metrics["warm_store_hits"] = warm.store_hits
    assert cold.fresh_evaluations > 0
    assert warm.fresh_evaluations == 0
    assert warm.store_hits == cold.evaluated
    assert warm.winner == cold.winner

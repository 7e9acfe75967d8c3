"""End-to-end tuning through the real flow (small grids, fast)."""

import pytest

from repro.dse import (
    DesignSpace,
    Goal,
    ResultStore,
    tune,
)
from repro.explore import Microarch
from repro.explore.pareto import dominates
from repro.workloads import build_example1, build_fir

SPACE = DesignSpace((Microarch("NP3", 3), Microarch("NP4", 4),
                     Microarch("P4/2", 4, ii=2)),
                    (1600.0, 2400.0))
GOAL = Goal.build(objective="area", delay_ps=8000.0)


def test_tune_finds_satisfying_undominated_winner(lib):
    exhaustive = tune(build_fir, lib, GOAL, space=SPACE,
                      strategy="exhaustive")
    assert exhaustive.evaluated == SPACE.size
    front = exhaustive.front
    report = tune(build_fir, lib, GOAL, space=SPACE, strategy="greedy")
    assert report.satisfied
    assert GOAL.satisfied(report.winner)
    assert not any(dominates(q, report.winner) for q in front)
    assert report.evaluated < exhaustive.evaluated
    assert GOAL.score(report.winner) == GOAL.score(exhaustive.winner)


def test_min_delay_tune_survives_a_feasibility_hole(lib):
    """Feasibility is not monotone along the real flow's clock axis:
    greedy's min-delay walk must still return exhaustive's winner on
    ``example1`` (the grid of perfbench ``service_mix``'s tune jobs), with
    or without an area cap."""
    space = DesignSpace((Microarch("NP2", 2), Microarch("NP3", 3)),
                        (1600.0, 1800.0, 2000.0))
    for goal in (Goal.build(objective="delay"),
                 Goal.build(objective="delay", max_area=90000.0)):
        exhaustive = tune(build_example1, lib, goal, space=space,
                          strategy="exhaustive")
        report = tune(build_example1, lib, goal, space=space,
                      strategy="greedy")
        assert exhaustive.winner.label == "NP3@1600", goal.describe()
        assert report.winner == exhaustive.winner, goal.describe()


def test_tune_report_shape(lib):
    report = tune(build_fir, lib, GOAL, space=SPACE, strategy="greedy")
    summary = report.summary()
    assert summary["strategy"] == "greedy"
    assert summary["grid_size"] == 6
    assert summary["satisfied"] is True
    assert summary["winner"]["delay_ps"] <= 8000.0
    assert summary["evaluated"] == len(summary["trace"])
    assert summary["goal"] == {"objective": "area",
                               "constraints": {"delay_ps": 8000.0}}
    assert "winner" in report.table()


def test_unsatisfiable_goal_reports_no_winner(lib):
    goal = Goal.build(objective="area", delay_ps=100.0)
    report = tune(build_fir, lib, goal, space=SPACE, strategy="greedy")
    assert not report.satisfied
    assert report.winner is None
    assert report.summary()["winner"] is None
    assert "no feasible point" in report.table()


def test_store_warm_start_is_zero_fresh(lib, tmp_path):
    path = tmp_path / "fir.jsonl"
    cold = tune(build_fir, lib, GOAL, space=SPACE, strategy="greedy",
                store=ResultStore(path))
    assert cold.fresh_evaluations == cold.evaluated > 0
    # a second process: fresh ResultStore instance over the same file
    warm = tune(build_fir, lib, GOAL, space=SPACE, strategy="greedy",
                store=ResultStore(path))
    assert warm.fresh_evaluations == 0
    assert warm.store_hits == warm.evaluated == cold.evaluated
    assert warm.winner == cold.winner


def test_store_shared_across_strategies(lib, tmp_path):
    """Exhaustive warm-starts everything: its store covers the grid."""
    path = tmp_path / "fir.jsonl"
    tune(build_fir, lib, GOAL, space=SPACE, strategy="exhaustive",
         store=ResultStore(path))
    report = tune(build_fir, lib, GOAL, space=SPACE, strategy="greedy",
                  store=ResultStore(path))
    assert report.fresh_evaluations == 0
    assert report.satisfied


def test_nonmonotone_area_recovered_by_plateau_walk(lib):
    """The real flow can bend the paper model: idct8/NP16 binds to
    *more* area at 2100 ps than at 1600 ps (sharing changes with the
    clock).  Greedy must still match the exhaustive optimum -- the
    per-curve plateau walk is what recovers the bent curve."""
    from repro.workloads.idct import build_idct8

    space = DesignSpace((Microarch("NP8", 8), Microarch("NP16", 16)),
                        (1600.0, 2100.0))
    goal = Goal.build(objective="area", delay_ps=34000.0)
    exhaustive = tune(build_idct8, lib, goal, space=space,
                      strategy="exhaustive")
    report = tune(build_idct8, lib, goal, space=space, strategy="greedy")
    assert report.winner.area == exhaustive.winner.area
    assert not any(dominates(q, report.winner) for q in exhaustive.front)


def test_jobs_parallel_exhaustive_matches_serial(lib):
    serial = tune(build_fir, lib, GOAL, space=SPACE,
                  strategy="exhaustive", jobs=1)
    parallel = tune(build_fir, lib, GOAL, space=SPACE,
                    strategy="exhaustive", jobs=4)
    assert serial.winner == parallel.winner
    assert serial.evaluated == parallel.evaluated


def test_unknown_strategy_raises(lib):
    with pytest.raises(KeyError):
        tune(build_fir, lib, GOAL, space=SPACE, strategy="quantum")

"""Goal-directed design-space exploration (the autotuner).

Turn a declarative goal -- "delay <= X ps, minimize area", "area <= A,
minimize delay", optionally with a power budget -- into an orchestrated
search over the paper's exploration axes (microarchitecture latency/II
and clock period) instead of a blind grid:

* :mod:`~repro.dse.goals` -- the Goal/Constraint/Objective spec;
* :mod:`~repro.dse.space` -- the microarchitecture x clock space;
* :mod:`~repro.dse.search` -- the ``exhaustive`` oracle and the
  ``greedy`` default strategy, and the :func:`tune` driver;
* :mod:`~repro.dse.store` -- the persistent JSONL result store that
  warm-starts tuning across processes;
* :mod:`~repro.dse.report` -- tuning traces and Pareto summaries.

Quickstart::

    from repro.dse import Goal, tune
    from repro.tech import artisan90
    from repro.workloads import build_idct8

    report = tune(build_idct8, artisan90(),
                  Goal.build(objective="area", delay_ps=26000.0),
                  strategy="greedy")
    print(report.table())

The CLI front end is ``python -m repro tune`` (see docs/DSE.md).
"""

from repro.dse.goals import (
    METRICS,
    Constraint,
    Goal,
    GoalError,
    Objective,
    canonical_metric,
)
from repro.dse.report import Evaluation, TuningReport
from repro.dse.search import (
    STRATEGIES,
    Evaluator,
    FlowEvaluator,
    get_strategy,
    tune,
)
from repro.dse.space import (
    Candidate,
    DesignSpace,
    SpaceError,
    admissible_clocks,
    paper_space,
)
from repro.dse.store import ResultStore, StoredResult, candidate_key

__all__ = [
    "Candidate",
    "Constraint",
    "DesignSpace",
    "Evaluation",
    "Evaluator",
    "FlowEvaluator",
    "Goal",
    "GoalError",
    "METRICS",
    "Objective",
    "ResultStore",
    "STRATEGIES",
    "SpaceError",
    "StoredResult",
    "TuningReport",
    "admissible_clocks",
    "candidate_key",
    "canonical_metric",
    "get_strategy",
    "paper_space",
    "tune",
]

"""Goal-directed search strategies over a design space.

Two strategies, selected by name through :data:`STRATEGIES`:

``exhaustive``
    Evaluate every grid point; the oracle every other strategy is
    measured against.  Batches through the parallel sweep executor.
``greedy`` (the default)
    Axis descent with monotonicity pruning.  For a delay objective it
    walks each microarchitecture's clock axis from the fastest
    admissible clock, stops a curve at its first satisfying clock and
    prunes every candidate whose *predicted* delay cannot beat the
    incumbent.  Under an area or power cap, a curve first probes its
    most-relaxed admissible clock and is skipped if that point is
    infeasible or over the cap.  For area/power objectives it probes
    each curve's most-relaxed admissible clock (one batch), then walks
    the surviving curves toward faster clocks while the goal key
    improves (the plateau walk).

The pruning rules greedy relies on (see docs/DSE.md):

* delay determinism -- a feasible point's delay is its designer
  ``II_effective`` times the clock; the scheduler never beats it;
* area/power monotonicity -- slower clocks never increase area or
  power within a microarchitecture;
* feasibility at the relaxed end -- a curve that does not schedule at
  its most-relaxed clock schedules nowhere on it.  Full feasibility
  monotonicity does *not* hold in the real flow (``example1`` at
  latency 3 schedules at 1600 and 2000 ps but not at 1800 ps), so no
  strategy binary-searches the clock axis.

The plateau walk keeps an area/power winner off the dominated side of
the exhaustive sweep's Pareto front: among equal-objective ties it
moves toward faster clocks while the lexicographic goal key
(:meth:`repro.dse.goals.Goal.key`) keeps improving.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence

from repro.dse.goals import Goal
from repro.dse.report import Evaluation, TuningReport
from repro.dse.space import (
    Candidate,
    DesignSpace,
    admissible_clocks,
    paper_space,
)
from repro.dse.store import ResultStore, StoredResult, candidate_key
from repro.explore.microarch import InfeasiblePoint, Microarch
from repro.explore.pareto import DesignPoint
from repro.tech.library import Library

#: score slack under which two points count as tied (then the plateau
#: refinement and the lexicographic key settle the order).
TIE_EPS = 1e-6


def _ok(goal: Goal, result: StoredResult) -> bool:
    """Feasible and constraint-satisfying."""
    return isinstance(result, DesignPoint) and goal.satisfied(result)


# ----------------------------------------------------------------------
# evaluators
# ----------------------------------------------------------------------
class Evaluator:
    """Memoizing evaluation layer between strategies and synthesis.

    Lookup order per candidate: in-process memo (free, not traced),
    persistent :class:`~repro.dse.store.ResultStore` (cross-process
    warm start), fresh synthesis.  Every *unique* candidate becomes one
    trace entry; ``fresh_evaluations`` counts only real synthesis runs,
    which is what the warm-start guarantee ("a second tune run performs
    zero fresh evaluations") is asserted against.

    Subclasses provide :meth:`_key` and :meth:`_synthesize`.
    """

    def __init__(self, store: Optional[ResultStore] = None) -> None:
        self.store = store
        self._memo: Dict[str, StoredResult] = {}
        self.trace: List[Evaluation] = []
        self.fresh_evaluations = 0
        self.store_hits = 0

    # -- subclass surface ----------------------------------------------
    def _key(self, cand: Candidate) -> str:
        raise NotImplementedError

    def _synthesize(self, cand: Candidate) -> StoredResult:
        raise NotImplementedError

    # -- evaluation ----------------------------------------------------
    def _lookup(self, cand: Candidate,
                key: str) -> Optional[StoredResult]:
        """The memo/store hit path (store hits counted and traced)."""
        if key in self._memo:
            return self._memo[key]
        if self.store is not None:
            hit = self.store.get(key)
            if hit is not None:
                self.store_hits += 1
                self._record(cand, key, hit, "store")
                return hit
        return None

    def evaluate(self, cand: Candidate) -> StoredResult:
        """One candidate through memo -> store -> synthesis."""
        key = self._key(cand)
        hit = self._lookup(cand, key)
        if hit is not None:
            return hit
        result = self._synthesize(cand)
        self.fresh_evaluations += 1
        if self.store is not None:
            self.store.put(key, result)
        self._record(cand, key, result, "synth")
        return result

    def evaluate_many(self,
                      cands: Sequence[Candidate]) -> List[StoredResult]:
        """Batch evaluation; subclasses may parallelize the misses."""
        return [self.evaluate(c) for c in cands]

    def _record(self, cand: Candidate, key: str, result: StoredResult,
                source: str) -> None:
        self._memo[key] = result
        self.trace.append(Evaluation(
            microarch=cand.microarch.name, clock_ps=cand.clock_ps,
            source=source,
            point=result if isinstance(result, DesignPoint) else None,
            infeasible=result
            if isinstance(result, InfeasiblePoint) else None))

    @property
    def evaluated(self) -> int:
        """Unique candidates evaluated so far."""
        return len(self.trace)

    def points(self) -> List[DesignPoint]:
        """Every feasible point evaluated so far."""
        return [e.point for e in self.trace if e.point is not None]


class FlowEvaluator(Evaluator):
    """Evaluate microarch/clock candidates through the ``sweep`` flow.

    Single evaluations go through
    :func:`repro.flow.executor.synthesize_design_point` (the cold
    per-point path); batches go out as one
    :func:`repro.flow.executor.run_points` dispatch (``jobs`` picks the
    sweep backend), sharing one :class:`~repro.flow.cache.FlowCache`
    either way.
    """

    def __init__(self, region_factory: Callable, library: Library,
                 options=None, cache=None,
                 store: Optional[ResultStore] = None,
                 jobs: int = 1, tracer=None) -> None:
        from repro.flow.cache import FlowCache, region_fingerprint

        super().__init__(store)
        self.region_factory = region_factory
        self.library = library
        self.options = options
        self.cache = cache if cache is not None else FlowCache()
        self.jobs = jobs
        #: optional :class:`repro.obs.trace.Tracer`; each batched
        #: dispatch becomes one ``dse.wave`` span with the per-point
        #: spans (worker processes included) nested under it.
        self.tracer = tracer
        self._fingerprint = region_fingerprint(region_factory())

    def _key(self, cand: Candidate) -> str:
        return candidate_key(self._fingerprint, self.library.name,
                             cand.microarch, cand.clock_ps, self.options)

    def _synthesize(self, cand: Candidate) -> StoredResult:
        from repro.flow.executor import synthesize_design_point

        return synthesize_design_point(
            self.region_factory, self.library, cand.microarch,
            cand.clock_ps, self.options, self.cache, self.tracer)

    def evaluate_many(self,
                      cands: Sequence[Candidate]) -> List[StoredResult]:
        """One :func:`~repro.flow.executor.run_points` dispatch for all
        memo/store misses -- whatever mixture of curves the strategy
        queued, the sweep engine's pool sees it as a single batch."""
        from repro.flow.executor import run_points
        from repro.obs.trace import maybe_span

        misses: List[Candidate] = []
        queued = set()
        for cand in cands:
            key = self._key(cand)
            if key in queued or self._lookup(cand, key) is not None:
                continue
            queued.add(key)
            misses.append(cand)
        if misses:
            with maybe_span(self.tracer, "dse.wave",
                            requested=len(cands),
                            misses=len(misses)) as span:
                results = run_points(
                    self.region_factory, self.library,
                    [(c.microarch, c.clock_ps) for c in misses],
                    options=self.options, jobs=self.jobs,
                    cache=self.cache, tracer=self.tracer)
                if span is not None:
                    span.set("feasible", sum(
                        1 for r in results
                        if not isinstance(r, InfeasiblePoint)))
            for cand, result in zip(misses, results):
                self.fresh_evaluations += 1
                key = self._key(cand)
                if self.store is not None:
                    self.store.put(key, result)
                self._record(cand, key, result, "synth")
        return [self._memo[self._key(c)] for c in cands]


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
def _walk_plateau(evaluator: Evaluator, goal: Goal, microarch: Microarch,
                  clocks: Sequence[float], idx: int,
                  best: DesignPoint) -> DesignPoint:
    """Refine toward faster clocks while the goal key improves.

    Area can plateau across neighboring clocks; a faster clock at equal
    area strictly improves delay, so stopping at the first
    non-improving step both keeps the winner on the Pareto front and
    bounds the extra evaluations by the plateau length.  Walking every
    surviving curve (not just the score-tied ones) also recovers curves
    the real flow bends: binding can make area rise at a *slower*
    clock, and then the most-relaxed sample is not the curve's optimum.
    """
    while idx > 0:
        result = evaluator.evaluate(Candidate(microarch, clocks[idx - 1]))
        if _ok(goal, result) and goal.key(result) < goal.key(best):
            best, idx = result, idx - 1
        else:
            break
    return best


def _exhaustive(space: DesignSpace, goal: Goal,
                evaluator: Evaluator) -> Optional[DesignPoint]:
    """Evaluate the whole grid (through the parallel executor)."""
    results = evaluator.evaluate_many(list(space.candidates()))
    return goal.best(r for r in results if isinstance(r, DesignPoint))


def _greedy(space: DesignSpace, goal: Goal,
            evaluator: Evaluator) -> Optional[DesignPoint]:
    """Axis descent with monotonicity pruning (see module docstring)."""
    delay_bound = goal.bound("delay_ps")
    if goal.objective.metric == "delay_ps":
        return _descend_delay(space, goal, evaluator, delay_bound)
    best: Optional[DesignPoint] = None
    curves = [(m, admissible_clocks(space, m, delay_bound))
              for m in space.microarchs]
    curves = [(m, clocks) for m, clocks in curves if clocks]
    # every curve's most-relaxed clock is probed unconditionally:
    # one batch keeps the pool saturated before the (sequential,
    # data-dependent) plateau walks
    first = evaluator.evaluate_many(
        [Candidate(m, clocks[-1]) for m, clocks in curves])
    for (m, clocks), result in zip(curves, first):
        if not _ok(goal, result):
            continue  # curve's best point fails => whole curve out
        point = _walk_plateau(evaluator, goal, m, clocks,
                              len(clocks) - 1, result)
        if best is None or goal.key(point) < goal.key(best):
            best = point
    return best


def _descend_delay(space: DesignSpace, goal: Goal, evaluator: Evaluator,
                   delay_bound: Optional[float]) -> Optional[DesignPoint]:
    """Minimize delay: each curve's fastest satisfying clock, curves in
    II order, pruned against the incumbent's delay."""
    capped = any(c.metric != "delay_ps" for c in goal.constraints)
    incumbent: Optional[DesignPoint] = None
    # most promising curves first: smallest II reaches the smallest
    # predicted delays, tightening the incumbent for later pruning.
    for m in sorted(space.microarchs, key=lambda m: m.ii_effective):
        cands = [Candidate(m, clock)
                 for clock in admissible_clocks(space, m, delay_bound)]
        if not cands or (incumbent is not None
                         and cands[0].predicted_delay_ps
                         > incumbent.delay_ps + TIE_EPS):
            continue  # even the fastest clock cannot beat the incumbent
        # area and power are minimal at the most-relaxed clock: a curve
        # infeasible or over an area/power cap there is out.
        if capped and not _ok(goal, evaluator.evaluate(cands[-1])):
            continue
        for cand in cands:
            if incumbent is not None \
                    and cand.predicted_delay_ps > incumbent.delay_ps + TIE_EPS:
                break  # slower clocks are provably worse: prune
            result = evaluator.evaluate(cand)
            if _ok(goal, result):
                if incumbent is None \
                        or goal.key(result) < goal.key(incumbent):
                    incumbent = result
                break  # slower clocks of this curve: larger delay
    return incumbent


#: a strategy maps (space, goal, evaluator) to the winner, or None.
StrategyFn = Callable[[DesignSpace, Goal, Evaluator],
                      Optional[DesignPoint]]

#: every registered strategy, by name.
STRATEGIES: Dict[str, StrategyFn] = {
    "exhaustive": _exhaustive,
    "greedy": _greedy,
}


def get_strategy(name: str) -> StrategyFn:
    """Look up a strategy; raises ``KeyError`` with choices."""
    try:
        return STRATEGIES[name]
    except KeyError:
        raise KeyError(f"unknown strategy {name!r}; "
                       f"choose from {sorted(STRATEGIES)}") from None


# ----------------------------------------------------------------------
# drivers
# ----------------------------------------------------------------------
def tune(region_factory: Callable, library: Library, goal: Goal,
         space: Optional[DesignSpace] = None, strategy: str = "greedy",
         options=None, cache=None, store: Optional[ResultStore] = None,
         jobs: int = 1, tracer=None) -> TuningReport:
    """Search a design space for the best goal-satisfying point.

    The main entry of the autotuner: builds a
    :class:`FlowEvaluator` (cache- and store-aware, ``jobs``-parallel
    batches), runs the named strategy, and returns a
    :class:`~repro.dse.report.TuningReport` with the winner, the
    evaluation trace and the accounting.  An optional ``tracer``
    records one ``dse.wave`` span per batched dispatch with the
    per-point spans nested underneath.
    """
    space = space if space is not None else paper_space()
    search = get_strategy(strategy)
    evaluator = FlowEvaluator(region_factory, library, options=options,
                              cache=cache, store=store, jobs=jobs,
                              tracer=tracer)
    start = time.perf_counter()
    winner = search(space, goal, evaluator)
    return TuningReport(
        goal=goal, strategy=strategy, grid_size=space.size,
        winner=winner, trace=list(evaluator.trace),
        fresh_evaluations=evaluator.fresh_evaluations,
        store_hits=evaluator.store_hits,
        elapsed_s=time.perf_counter() - start)

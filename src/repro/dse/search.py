"""Goal-directed search strategies over a design space.

Four strategies, all exact under the paper's cost model but with very
different evaluation budgets:

``exhaustive``
    Evaluate every grid point (the baseline every other strategy is
    measured against); batches through the parallel sweep executor.
``bisect``
    Per microarchitecture, binary-search the clock axis.  The delay
    bound is analytic (``II_effective * Tclk``), so the admissible
    clock range costs nothing; the feasibility/area frontier along the
    remaining range is monotone, so it binary-searches.  For
    area/power objectives the optimum of each microarch is the single
    most-relaxed admissible clock -- one evaluation decides the curve.
``greedy``
    Axis descent with monotonicity pruning: walk each
    microarchitecture's clock axis from the most promising end,
    pruning every candidate whose *predicted* delay cannot beat the
    incumbent and abandoning a curve on the first provably-worse step.
``halving``
    Successive halving across microarchitectures: evaluate the active
    cohort in waves (doubling per-curve budgets), advancing only the
    better half each rung, and culling a curve permanently once its
    optimistic bound -- the predicted delay of its next untried clock
    -- cannot beat the incumbent.  Culling is bound-based, never
    score-based, so the final winner is still exact.

The pruning rules the strategies rely on (documented and tested):

* delay determinism -- a feasible point's delay is its designer
  ``II_effective`` times the clock; the scheduler never beats it;
* area/power monotonicity -- slower clocks never increase area or
  power within a microarchitecture;
* feasibility monotonicity -- if a clock schedules, every slower
  clock schedules.

Every strategy ends with a plateau refinement so its winner is never
dominated by the exhaustive sweep's Pareto front: among equal-objective
ties it walks toward faster clocks while the lexicographic goal key
(:meth:`repro.dse.goals.Goal.key`) keeps improving.
"""

from __future__ import annotations

import math
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

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


class PipelineEvaluator(Evaluator):
    """Evaluate streaming candidates through dataflow composition.

    A candidate's microarchitecture carries the FIFO depth overrides
    (:meth:`repro.explore.Microarch.with_channel_depth`); evaluation
    rebuilds the pipeline, applies them, and runs
    :func:`repro.dataflow.compile_pipeline` with a shared flow cache so
    every distinct stage schedules once across the whole search.  The
    reported delay is ``steady-state II x Tclk`` -- the same axis the
    Figure 10 sweeps use.
    """

    def __init__(self, pipeline_factory: Callable, library: Library,
                 options=None, cache=None,
                 store: Optional[ResultStore] = None) -> None:
        from repro.flow.cache import FlowCache

        super().__init__(store)
        self.pipeline_factory = pipeline_factory
        self.library = library
        self.options = options
        self.cache = cache if cache is not None else FlowCache()
        self._fingerprint = pipeline_fingerprint(pipeline_factory())

    def _key(self, cand: Candidate) -> str:
        return candidate_key(self._fingerprint, self.library.name,
                             cand.microarch, cand.clock_ps, self.options)

    def _synthesize(self, cand: Candidate) -> StoredResult:
        from repro.core.schedule import ScheduleError
        from repro.dataflow import compile_pipeline

        pipeline = self.pipeline_factory()
        cand.microarch.apply_channel_depths(pipeline)
        try:
            composed = compile_pipeline(
                pipeline, self.library, cand.clock_ps,
                options=self.options, cache=self.cache)
        except ScheduleError as exc:
            return InfeasiblePoint(cand.microarch.name, cand.clock_ps,
                                   str(exc))
        return DesignPoint(
            label=cand.label, microarch=cand.microarch.name,
            clock_ps=cand.clock_ps, ii=composed.steady_state_ii,
            latency=composed.latency,
            delay_ps=composed.steady_state_ii * cand.clock_ps,
            area=composed.area, power_mw=composed.power().total_mw)


def pipeline_fingerprint(pipeline) -> str:
    """Content hash of a streaming composition's structure.

    Combines every stage's region fingerprint (in topological order)
    with the stage IIs and the declared channel geometry, so the
    persistent store keys compositions the same way the flow cache keys
    regions.
    """
    import hashlib
    import json

    from repro.flow.cache import region_fingerprint

    pipeline.validate()
    payload = {
        "name": pipeline.name,
        "stages": [[s.name, s.ii, region_fingerprint(s.region)]
                   for s in pipeline.topo_order()],
        "channels": [[c.name, c.width, c.depth]
                     for _, c in sorted(pipeline.channels.items())],
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
class Strategy:
    """One search policy; subclasses implement :meth:`run`."""

    name = "?"

    def run(self, space: DesignSpace, goal: Goal,
            evaluator: Evaluator) -> Optional[DesignPoint]:
        raise NotImplementedError


def _walk_plateau(evaluator: Evaluator, goal: Goal, microarch: Microarch,
                  clocks: Sequence[float], idx: int,
                  best: DesignPoint) -> DesignPoint:
    """Refine toward faster clocks while the goal key improves.

    Area can plateau across neighboring clocks; a faster clock at equal
    area strictly improves delay, so stopping at the first
    non-improving step both keeps the winner on the Pareto front and
    bounds the extra evaluations by the plateau length.
    """
    while idx > 0:
        result = evaluator.evaluate(Candidate(microarch, clocks[idx - 1]))
        if _ok(goal, result) and goal.key(result) < goal.key(best):
            best, idx = result, idx - 1
        else:
            break
    return best


def _finish(per_curve: List[Tuple[Microarch, Sequence[float], int,
                                  DesignPoint]],
            goal: Goal, evaluator: Evaluator) -> Optional[DesignPoint]:
    """Plateau-refine every curve, then pick the key-minimal point.

    Walking *every* curve (not just the score-tied ones) costs at most
    one extra evaluation per non-improving curve but keeps the search
    robust where the real flow bends the paper model: binding can make
    area rise at a *slower* clock (sharing changes with the clock), in
    which case a curve's most-relaxed sample is not its optimum and
    the walk recovers it.
    """
    if not per_curve:
        return None
    refined: List[DesignPoint] = []
    for microarch, clocks, idx, point in per_curve:
        if goal.objective.metric != "delay_ps":
            point = _walk_plateau(evaluator, goal, microarch, clocks,
                                  idx, point)
        refined.append(point)
    return min(refined, key=goal.key)


class ExhaustiveStrategy(Strategy):
    """Evaluate the whole grid (through the parallel executor)."""

    name = "exhaustive"

    def run(self, space, goal, evaluator):
        results = evaluator.evaluate_many(list(space.candidates()))
        return goal.best(r for r in results
                         if isinstance(r, DesignPoint))


class BisectStrategy(Strategy):
    """Per-microarch clock bisection (see module docstring)."""

    name = "bisect"

    def run(self, space, goal, evaluator):
        delay_bound = goal.bound("delay_ps")
        curves = [(m, admissible_clocks(space, m, delay_bound))
                  for m in space.microarchs]
        curves = [(m, clocks) for m, clocks in curves if clocks]
        if not curves:
            return None
        # the most relaxed admissible clock is each curve's easiest
        # point: infeasible or violating there => the curve is out.
        # Every curve probes it unconditionally, so it is one batch.
        first = evaluator.evaluate_many(
            [Candidate(m, clocks[-1]) for m, clocks in curves])
        per_curve = []
        active: List[List] = []  # [m, clocks, lo, hi, best]
        for (m, clocks), result in zip(curves, first):
            if not _ok(goal, result):
                continue
            if goal.objective.metric != "delay_ps":
                # area/power are minimal at the most relaxed clock.
                per_curve.append((m, clocks, len(clocks) - 1, result))
            else:
                active.append([m, clocks, 0, len(clocks) - 1, result])
        # minimize delay: leftmost (fastest) satisfying clock; the
        # predicate is monotone along the axis, so bisect -- curves are
        # independent, so every round's midpoints form one batch (the
        # probe set is exactly the sequential one).
        while any(lo < hi for _, _, lo, hi, _ in active):
            evaluator.evaluate_many(
                [Candidate(m, clocks[(lo + hi) // 2])
                 for m, clocks, lo, hi, _ in active if lo < hi])
            for entry in active:
                m, clocks, lo, hi, best = entry
                if lo >= hi:
                    continue
                mid = (lo + hi) // 2
                probe = evaluator.evaluate(Candidate(m, clocks[mid]))
                if _ok(goal, probe):
                    entry[3], entry[4] = mid, probe
                else:
                    entry[2] = mid + 1
        per_curve.extend(
            (m, clocks, hi, best) for m, clocks, _, hi, best in active)
        return _finish(per_curve, goal, evaluator)


class GreedyStrategy(Strategy):
    """Axis descent with monotonicity pruning (see module docstring)."""

    name = "greedy"

    def run(self, space, goal, evaluator):
        delay_bound = goal.bound("delay_ps")
        if goal.objective.metric == "delay_ps":
            return self._descend_delay(space, goal, evaluator,
                                       delay_bound)
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

    @staticmethod
    def _descend_delay(space, goal, evaluator, delay_bound):
        incumbent: Optional[DesignPoint] = None
        # most promising curves first: smallest II reaches the smallest
        # predicted delays, tightening the incumbent for later pruning.
        order = sorted(space.microarchs, key=lambda m: m.ii_effective)
        for m in order:
            for clock in admissible_clocks(space, m, delay_bound):
                predicted = m.ii_effective * clock
                if incumbent is not None \
                        and predicted > incumbent.delay_ps + TIE_EPS:
                    break  # slower clocks are provably worse: prune
                result = evaluator.evaluate(Candidate(m, clock))
                if _ok(goal, result):
                    if incumbent is None \
                            or goal.key(result) < goal.key(incumbent):
                        incumbent = result
                    break  # slower clocks of this curve: larger delay
        return incumbent


class HalvingStrategy(Strategy):
    """Successive halving across microarchs (see module docstring)."""

    name = "halving"

    def run(self, space, goal, evaluator):
        delay_bound = goal.bound("delay_ps")
        if goal.objective.metric != "delay_ps":
            # rung 0 is already exact per curve (area/power are minimal
            # at the most relaxed clock): one batched wave decides.
            wave, curves = [], []
            for m in space.microarchs:
                clocks = admissible_clocks(space, m, delay_bound)
                if clocks:
                    wave.append(Candidate(m, clocks[-1]))
                    curves.append((m, clocks))
            results = evaluator.evaluate_many(wave)
            per_curve = [(m, clocks, len(clocks) - 1, r)
                         for (m, clocks), r in zip(curves, results)
                         if _ok(goal, r)]
            return _finish(per_curve, goal, evaluator)
        return self._halve_delay(space, goal, evaluator, delay_bound)

    @staticmethod
    def _halve_delay(space, goal, evaluator, delay_bound):
        # pending: curve name -> (microarch, clocks, next index); the
        # optimistic bound of a curve is the predicted delay of its
        # next untried clock (fast -> slow order).
        pending: Dict[str, Tuple[Microarch, Tuple[float, ...], int]] = {}
        for m in space.microarchs:
            clocks = admissible_clocks(space, m, delay_bound)
            if clocks:
                pending[m.name] = (m, clocks, 0)
        incumbent: Optional[DesignPoint] = None
        budget = 1
        while pending:
            # cull curves whose optimistic bound cannot beat (or tie)
            # the incumbent -- safe: bounds only worsen, the incumbent
            # only improves.
            alive = []
            for name, (m, clocks, idx) in list(pending.items()):
                bound = m.ii_effective * clocks[idx]
                if incumbent is not None \
                        and bound > incumbent.delay_ps + TIE_EPS:
                    del pending[name]
                    continue
                alive.append((bound, name))
            if not alive:
                break
            alive.sort()
            keep = [name for _, name in
                    alive[:max(1, math.ceil(len(alive) / 2))]]
            # one batched wave per rung: each kept curve contributes its
            # next <= budget untried clocks (pre-truncated against the
            # rung-entry incumbent).  Batching can evaluate points a
            # strictly sequential walk would have skipped after a
            # mid-rung incumbent improvement; that only adds work, never
            # error -- culling stays bound-based and the walk below
            # still stops at each curve's fastest satisfying clock.
            spans: List[Tuple[str, List[int]]] = []
            wave: List[Candidate] = []
            for name in keep:
                m, clocks, idx = pending[name]
                span = []
                for j in range(idx, min(idx + budget, len(clocks))):
                    if incumbent is not None \
                            and m.ii_effective * clocks[j] \
                            > incumbent.delay_ps + TIE_EPS:
                        break
                    span.append(j)
                spans.append((name, span))
                wave.extend(Candidate(m, clocks[j]) for j in span)
            evaluator.evaluate_many(wave)
            for name, span in spans:
                m, clocks, idx = pending[name]
                resolved = False
                for j in range(idx, min(idx + budget, len(clocks))):
                    if incumbent is not None \
                            and m.ii_effective * clocks[j] \
                            > incumbent.delay_ps + TIE_EPS:
                        resolved = True
                        break
                    result = evaluator.evaluate(Candidate(m, clocks[j]))
                    idx = j + 1
                    if _ok(goal, result):
                        # fastest satisfying clock: this curve's exact
                        # optimum (feasibility is monotone).
                        if incumbent is None or \
                                goal.key(result) < goal.key(incumbent):
                            incumbent = result
                        resolved = True
                        break
                if resolved or idx >= len(clocks):
                    del pending[name]
                else:
                    pending[name] = (m, clocks, idx)
            budget *= 2
        return incumbent


#: every registered strategy, by name.
STRATEGIES: Dict[str, Strategy] = {
    s.name: s for s in (ExhaustiveStrategy(), BisectStrategy(),
                        GreedyStrategy(), HalvingStrategy())
}


def get_strategy(name: str) -> Strategy:
    """Look up a strategy; raises ``KeyError`` with choices."""
    try:
        return STRATEGIES[name]
    except KeyError:
        raise KeyError(f"unknown strategy {name!r}; "
                       f"choose from {sorted(STRATEGIES)}") from None


# ----------------------------------------------------------------------
# drivers
# ----------------------------------------------------------------------
def _run(strategy: str, space: DesignSpace, goal: Goal,
         evaluator: Evaluator) -> TuningReport:
    """Run one strategy and assemble its report (shared driver core)."""
    strat = get_strategy(strategy)
    start = time.perf_counter()
    winner = strat.run(space, goal, evaluator)
    return TuningReport(
        goal=goal, strategy=strat.name, grid_size=space.size,
        winner=winner, trace=list(evaluator.trace),
        fresh_evaluations=evaluator.fresh_evaluations,
        store_hits=evaluator.store_hits,
        elapsed_s=time.perf_counter() - start)


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
    evaluator = FlowEvaluator(region_factory, library, options=options,
                              cache=cache, store=store, jobs=jobs,
                              tracer=tracer)
    return _run(strategy, space, goal, evaluator)


def tune_pipeline(pipeline_factory: Callable, library: Library,
                  goal: Goal, space: DesignSpace,
                  strategy: str = "greedy", options=None, cache=None,
                  store: Optional[ResultStore] = None) -> TuningReport:
    """Goal-directed search over a streaming composition's space.

    ``space`` typically crosses a base microarchitecture with a
    channel-depth axis
    (:meth:`~repro.dse.space.DesignSpace.with_channel_depth_axis`);
    stages are scheduled once across the whole search through the
    shared flow cache.
    """
    evaluator = PipelineEvaluator(pipeline_factory, library,
                                  options=options, cache=cache,
                                  store=store)
    return _run(strategy, space, goal, evaluator)

"""Folding a scheduled loop iteration into the pipeline kernel.

Step II of the paper's pipelining approach (section V): once a single
iteration is scheduled in LI states, equivalent edges (II apart) are
folded onto one edge whose operation set is the union of the folded
edges', and control is added so that every operation is predicated by the
stage-valid signal of its pipeline stage.  The prologue activates stages
one by one, the epilogue drains them, and stalling loops freeze all
stages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.cdfg.ops import OpKind
from repro.core.schedule import Schedule


@dataclass(frozen=True)
class FoldedOp:
    """One operation's position in the folded kernel."""

    uid: int
    name: str
    stage: int
    phase: int       # kernel state (state % II)
    state: int       # original state within the iteration
    cycles: int
    resource: Optional[str]


@dataclass
class FoldedPipeline:
    """The pipeline kernel: II states executing all stages concurrently."""

    schedule: Schedule
    ii: int
    n_stages: int
    #: kernel phase -> operations executing there (all stages mixed).
    kernel: Dict[int, List[FoldedOp]]
    #: uid -> folded position.
    positions: Dict[int, FoldedOp]
    #: stage/phase where the loop-exit test resolves, if any.
    exit_position: Optional[Tuple[int, int]]
    #: stalling-loop markers (section V step I.1), re-inserted at fold time.
    stall_positions: List[Tuple[int, int]]

    def ops_at(self, phase: int, stage: Optional[int] = None) -> List[FoldedOp]:
        """Folded operations at a kernel phase (optionally one stage)."""
        ops = self.kernel.get(phase, [])
        if stage is None:
            return list(ops)
        return [f for f in ops if f.stage == stage]

    def stage_table(self) -> str:
        """Render the paper's Figure 5 view: stages x kernel states."""
        lines: List[str] = []
        for stage in range(self.n_stages):
            cells = []
            for phase in range(self.ii):
                names = [f.name for f in self.ops_at(phase, stage)]
                cells.append(", ".join(names) or "-")
            lines.append(f"Stage{stage + 1}: " + " | ".join(cells))
        return "\n".join(lines)


def fold_schedule(schedule: Schedule) -> FoldedPipeline:
    """Fold a pipelined schedule onto its II kernel states.

    Requires the schedule to have been produced with a
    :class:`~repro.cdfg.region.PipelineSpec`; sequential schedules are
    degenerate pipelines with one stage and II = latency.
    """
    ii = schedule.ii if schedule.ii is not None else schedule.latency
    n_stages = schedule.n_stages
    kernel: Dict[int, List[FoldedOp]] = {phase: [] for phase in range(ii)}
    positions: Dict[int, FoldedOp] = {}
    exit_position: Optional[Tuple[int, int]] = None
    stall_positions: List[Tuple[int, int]] = []

    for uid, bound in sorted(schedule.bindings.items()):
        op = bound.op
        if op.is_free:
            continue
        stage, phase = divmod(bound.state, ii)
        folded = FoldedOp(
            uid=uid,
            name=op.name,
            stage=stage,
            phase=phase,
            state=bound.state,
            cycles=bound.cycles,
            resource=bound.inst.name if bound.inst is not None else None,
        )
        kernel[phase].append(folded)
        positions[uid] = folded
        if op.is_exit_test:
            exit_position = (stage, phase)
        if op.kind is OpKind.STALL:
            stall_positions.append((stage, phase))

    for phase in kernel:
        kernel[phase].sort(key=lambda f: (f.stage, f.uid))
    return FoldedPipeline(
        schedule=schedule,
        ii=ii,
        n_stages=n_stages,
        kernel=kernel,
        positions=positions,
        exit_position=exit_position,
        stall_positions=stall_positions,
    )


def validate_folding(folded: FoldedPipeline) -> List[str]:
    """Check fold invariants; returns problems (empty = valid).

    * every scheduled operation appears exactly once in the kernel;
    * no resource instance hosts two non-exclusive operations on the same
      kernel phase (the equivalent-edge sharing rule after folding);
    * stage/phase recompose to the original state.
    """
    problems: List[str] = []
    schedule = folded.schedule
    seen = set()
    for phase, ops in folded.kernel.items():
        by_resource: Dict[str, List[FoldedOp]] = {}
        for f in ops:
            seen.add(f.uid)
            if f.stage * folded.ii + f.phase != f.state:
                problems.append(f"{f.name}: stage/phase do not recompose")
            if f.resource is not None:
                by_resource.setdefault(f.resource, []).append(f)
        for resource, folded_ops in by_resource.items():
            for i, a in enumerate(folded_ops):
                for b in folded_ops[i + 1:]:
                    # account for multi-cycle spans: overlap iff phase ranges
                    # intersect (they are on the same kernel phase here)
                    pa = schedule.bindings[a.uid].op.predicate
                    pb = schedule.bindings[b.uid].op.predicate
                    if not pa.disjoint(pb):
                        problems.append(
                            f"{resource}: {a.name} and {b.name} collide at "
                            f"kernel phase {phase}")
    expected = {uid for uid, b in schedule.bindings.items()
                if not b.op.is_free}
    missing = expected - seen
    if missing:
        names = [schedule.region.dfg.op(u).name for u in sorted(missing)]
        problems.append(f"operations missing from kernel: {names}")
    return problems

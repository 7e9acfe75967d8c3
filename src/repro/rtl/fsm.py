"""Control FSM of a scheduled loop.

Sequential schedules walk their states in a ring.  Folded pipelines keep a
kernel-state counter (mod II) plus a *stage-valid* shift register: "all
loop operations are predicated by the corresponding stage signals,
generated from the appropriate FSM state registers (if the stage is not
active, the operation is not executed)" (paper section V).  The prologue
fills stage-valid bits one by one, the epilogue drains them once the exit
condition resolves, and stalling loops gate the whole advance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.folding import FoldedPipeline
from repro.core.schedule import Schedule


@dataclass
class FSMSpec:
    """Everything the RTL backend needs to build the controller."""

    kernel_states: int
    state_bits: int
    n_stages: int
    pipelined: bool
    #: (stage, phase) where the exit test resolves; None for counted loops.
    exit_position: Optional[Tuple[int, int]]
    #: (stage, phase) positions that can freeze the pipeline.
    stall_positions: List[Tuple[int, int]] = field(default_factory=list)

    def describe(self) -> str:
        """Human-readable controller summary."""
        lines = [
            f"kernel states : {self.kernel_states} "
            f"({self.state_bits} state bits)",
            f"stages        : {self.n_stages}"
            + (" (pipelined)" if self.pipelined else " (sequential)"),
        ]
        if self.exit_position is not None:
            stage, phase = self.exit_position
            lines.append(f"exit resolves : stage {stage + 1}, "
                         f"kernel state {phase + 1}")
        for stage, phase in self.stall_positions:
            lines.append(f"stall point   : stage {stage + 1}, "
                         f"kernel state {phase + 1}")
        return "\n".join(lines)


def build_fsm(schedule: Schedule,
              folded: Optional[FoldedPipeline] = None) -> FSMSpec:
    """Derive the FSM specification for a schedule."""
    pipelined = schedule.pipeline is not None
    if pipelined and folded is None:
        raise ValueError("build_fsm: pipelined schedules need the fold")
    kernel_states = folded.ii if folded is not None and pipelined \
        else schedule.latency
    exit_position: Optional[Tuple[int, int]] = None
    stall_positions: List[Tuple[int, int]] = []
    if folded is not None and pipelined:
        exit_position = folded.exit_position
        stall_positions = list(folded.stall_positions)
    elif schedule.region.exit_op_uid is not None:
        bound = schedule.bindings.get(schedule.region.exit_op_uid)
        if bound is not None:
            exit_position = (0, bound.state)
    return FSMSpec(
        kernel_states=kernel_states,
        state_bits=max(1, math.ceil(math.log2(max(kernel_states, 2)))),
        n_stages=schedule.n_stages,
        pipelined=pipelined,
        exit_position=exit_position,
        stall_positions=stall_positions,
    )

"""Optimizer passes over regions (paper section II: the optimizer
simplifies the DFG as much as possible by applying standard compiler
optimizations).

Passes mutate the region's DFG and return the number of changes; the
:func:`optimize` pipeline iterates them to a fixpoint.  Loop unrolling
lives here too -- it is the paper's micro-architecture transformer's most
common rewrite.
"""

from repro.cdfg.transforms.constant_fold import constant_fold
from repro.cdfg.transforms.copy_prop import copy_propagate
from repro.cdfg.transforms.cse import common_subexpressions
from repro.cdfg.transforms.dead_code import dead_code_elimination
from repro.cdfg.transforms.strength import strength_reduction
from repro.cdfg.transforms.unroll import unroll_loop
from repro.cdfg.transforms.width import tighten_operand_widths

#: default pass order; constant folding first exposes the others.
DEFAULT_PASSES = (
    constant_fold,
    strength_reduction,
    copy_propagate,
    common_subexpressions,
    dead_code_elimination,
    tighten_operand_widths,
)


def optimize(region, passes=DEFAULT_PASSES, max_rounds: int = 8):
    """Run passes to fixpoint; returns {pass name: total changes}."""
    totals = {p.__name__: 0 for p in passes}
    for _round in range(max_rounds):
        round_changes = 0
        for pass_fn in passes:
            n = pass_fn(region)
            totals[pass_fn.__name__] += n
            round_changes += n
        if round_changes == 0:
            break
    region.dfg.validate()
    return totals


__all__ = [
    "DEFAULT_PASSES",
    "common_subexpressions",
    "constant_fold",
    "copy_propagate",
    "dead_code_elimination",
    "optimize",
    "strength_reduction",
    "tighten_operand_widths",
    "unroll_loop",
]

"""Constant folding and propagation."""

from __future__ import annotations

from repro.cdfg.ops import OpKind
from repro.cdfg.region import Region
from repro.sim.evalops import evaluate_op


def constant_fold(region: Region) -> int:
    """Replace operations with all-constant inputs by constants.

    Exit tests, I/O and loop muxes are never folded (they carry control
    or interface semantics even when their data inputs are constant).
    """
    dfg = region.dfg
    changes = 0
    for op in dfg.topological_order():
        if op.is_free and op.kind is not OpKind.CONST:
            pass  # slices/zext of constants fold too
        elif op.is_io or op.is_mux or op.is_exit_test \
                or op.kind in (OpKind.CONST, OpKind.STALL, OpKind.CALL):
            continue
        in_edges = dfg.in_edges(op.uid)
        if not in_edges:
            continue
        producers = [dfg.op(e.src) for e in in_edges]
        if any(p.kind is not OpKind.CONST for p in producers):
            continue
        if any(e.distance != 0 for e in in_edges):
            continue
        value = evaluate_op(op, [p.payload for p in producers])
        folded = dfg.add_op(OpKind.CONST, op.width,
                            name=f"fold_{op.name}", payload=value)
        for edge in list(dfg.out_edges(op.uid)):
            dfg.disconnect(edge)
            dfg.connect(folded, dfg.op(edge.dst), edge.port, edge.distance)
        for edge in list(in_edges):
            dfg.disconnect(edge)
        dfg.remove_op(op)
        changes += 1
    return changes

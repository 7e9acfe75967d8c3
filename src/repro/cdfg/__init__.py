"""Control/data flow graph intermediate representation.

The CDFG is the substrate every other subsystem operates on: the frontend
elaborates source into it, the optimizer rewrites it, and the scheduler
binds its operations to control steps and resources (paper section II).
"""

from repro.cdfg.builder import LoopVar, MemoryHandle, RegionBuilder, Value
from repro.cdfg.dfg import DFG, DataEdge, DFGError
from repro.cdfg.memory import MemoryDecl, min_conflict_distance, static_bank
from repro.cdfg.ops import (
    CONDITION_KINDS,
    FREE_KINDS,
    IO_KINDS,
    MEMORY_KINDS,
    MUX_KINDS,
    Operation,
    OpKind,
    arity_of,
)
from repro.cdfg.predicates import Predicate
from repro.cdfg.region import PipelineSpec, Region

__all__ = [
    "CONDITION_KINDS",
    "DFG",
    "DFGError",
    "DataEdge",
    "FREE_KINDS",
    "IO_KINDS",
    "LoopVar",
    "MEMORY_KINDS",
    "MUX_KINDS",
    "MemoryDecl",
    "MemoryHandle",
    "Operation",
    "OpKind",
    "PipelineSpec",
    "Predicate",
    "Region",
    "RegionBuilder",
    "Value",
    "arity_of",
    "min_conflict_distance",
    "static_bank",
]

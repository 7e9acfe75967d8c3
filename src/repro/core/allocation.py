"""Initial resource allocation: a timing- and exclusivity-aware lower bound.

Implements the paper's section IV.A, which improves over Sharma-Jain
interval estimation in two ways: operation life spans are *timing aware*
(they come from :mod:`repro.core.asap_alap`), and operations made mutually
exclusive by predicate conversion do not both count against the same
interval's demand.

For pipelined loops the interval capacity is additionally capped at II
(only II distinct equivalence classes of control steps exist, and a
resource busy on one edge is busy on all equivalent edges -- section V).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.cdfg.ops import Operation, OpKind
from repro.cdfg.region import Region
from repro.core.asap_alap import Mobility
from repro.tech.library import Library
from repro.tech.resources import ResourcePool

TypeKey = Tuple[str, int]  # (family, width bucket)


@dataclass
class AllocationResult:
    """Lower-bound instance counts per (family, width bucket)."""

    counts: Dict[TypeKey, int]
    demand: Dict[TypeKey, int]  # number of compatible operations per type

    def total(self) -> int:
        """Total instances allocated."""
        return sum(self.counts.values())


def type_key_for(op: Operation, library: Library) -> Optional[TypeKey]:
    """The (family, width bucket) an operation maps to, or None.

    Free operations, I/O, stall markers and muxes occupy no library
    resource; memory accesses bind to their declared memory's RAM bank
    ports, which the scheduler allocates from the region's
    ``MemoryDecl``s rather than from this lower bound.  Widths map to
    the smallest bucket that fits; the paper merges close widths into
    one resource type but "not resources of very different bit widths",
    which the bucket ladder realizes.
    """
    if op.is_free or op.is_io or op.is_mux or op.is_memory \
            or op.kind is OpKind.STALL:
        return None
    families = library.families_for(op.kind)
    if not families:
        raise KeyError(f"no resource family for {op.kind.value}")
    return (families[0], library.bucket(op.resource_width))


def _self_contradictory(literals) -> bool:
    """Whether a predicate requires both polarities of one condition."""
    for uid, pol in literals:
        if (uid, not pol) in literals:
            return True
    return False


def _exclusive_groups(ops: List[Operation]) -> int:
    """Greedy count of predicate-exclusive groups.

    Operations in one group are pairwise mutually exclusive, so a single
    resource slot can serve the whole group.  The count of groups is the
    effective demand.

    Equivalent to the naive greedy scan (first group whose members are
    all disjoint with the op wins), with the two dominant cases resolved
    in O(1) instead of a pairwise walk: an unconditional op is disjoint
    *only* with self-contradictory predicates (tracked per group by an
    all-contradictory flag), and a self-contradictory op is disjoint
    with everything (it always joins the first group).
    """
    groups: List[List[Operation]] = []
    all_contra: List[bool] = []
    contra_idxs: List[int] = []  # sorted indices of all-contra groups
    for op in ops:
        pred = op.predicate
        lits = pred.literals
        if not lits:
            # unconditional: joins the first all-contradictory group
            if contra_idxs:
                idx = contra_idxs.pop(0)
                groups[idx].append(op)
                all_contra[idx] = False
            else:
                groups.append([op])
                all_contra.append(False)
        elif _self_contradictory(lits):
            # never satisfiable: disjoint with everything
            if groups:
                groups[0].append(op)
            else:
                groups.append([op])
                all_contra.append(True)
                contra_idxs.append(0)
        else:
            placed = False
            for idx, group in enumerate(groups):
                if all(pred.disjoint(other.predicate) for other in group):
                    group.append(op)
                    if all_contra[idx]:
                        all_contra[idx] = False
                        contra_idxs.remove(idx)
                    placed = True
                    break
            if not placed:
                groups.append([op])
                all_contra.append(False)
    return len(groups)


def lower_bound(
    region: Region,
    library: Library,
    mobility: Dict[int, Mobility],
    latency: int,
    ii: Optional[int] = None,
) -> AllocationResult:
    """Compute the initial instance count per resource type.

    For each type, every interval ``[a, b]`` of control steps is examined:
    operations whose whole life span falls inside contribute demand
    (weighted by their cycle count), discounted by mutual exclusivity;
    capacity is the number of distinct usable slots in the interval.  The
    lower bound is the max over intervals of ``ceil(demand / capacity)``.

    An interval whose demand could not beat the best bound so far even
    with no exclusivity discount skips the group count: the greedy
    grouping yields at most one group per operation inside.
    """
    by_type: Dict[TypeKey, List[Operation]] = {}
    for op in region.schedulable_ops():
        key = type_key_for(op, library)
        if key is not None:
            by_type.setdefault(key, []).append(op)

    counts: Dict[TypeKey, int] = {}
    demand: Dict[TypeKey, int] = {}
    for key, ops in sorted(by_type.items()):
        demand[key] = len(ops)
        mobs = [mobility[op.uid] for op in ops]
        asap = [mob.asap for mob in mobs]
        end = [mob.alap + mob.cycles - 1 for mob in mobs]
        # multi-cycle occupancy weighs in with its extra cycles
        extra_of = [mob.cycles - 1 for mob in mobs]
        best = 1
        for a in sorted(set(asap)):
            from_a = [i for i, lo in enumerate(asap) if lo >= a]
            for b in sorted(set(end)):
                if b < a:
                    continue
                inside = [i for i in from_a if end[i] <= b]
                if not inside:
                    continue
                extra = sum(extra_of[i] for i in inside)
                span = b - a + 1
                capacity = min(span, ii) if ii is not None else span
                if -(-(len(inside) + extra) // capacity) <= best:
                    continue
                eff = _exclusive_groups([ops[i] for i in inside]) + extra
                best = max(best, -(-eff // capacity))
        counts[key] = best
    return AllocationResult(counts=counts, demand=demand)


def build_pool(
    allocation: AllocationResult,
    library: Library,
) -> ResourcePool:
    """Materialize the allocation as typical-grade instances."""
    pool = ResourcePool()
    for (family, width), count in sorted(allocation.counts.items()):
        rtype = library.resource_type(family, width)
        for _ in range(count):
            pool.add(rtype)
    return pool

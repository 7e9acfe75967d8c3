"""Resource instances managed by the binder.

A :class:`ResourceInstance` is one physical copy of a
:class:`~repro.tech.library.ResourceType` in the datapath being built.
It tracks which operation occupies it on every control step, including
the equivalent-edge busy semantics required by pipelining (paper section
V, step I.3b: "a resource used for operation op scheduled at edge ej is
considered busy for all edges ek equivalent to ej"), relaxed for
operations with mutually exclusive predicates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.cdfg.memory import MemoryDecl
from repro.cdfg.ops import Operation
from repro.cdfg.predicates import Predicate
from repro.tech.library import MemoryResource, ResourceType


class ResourceInstance:
    """One allocated copy of a resource type."""

    def __init__(self, rtype: ResourceType, index: int) -> None:
        self.rtype = rtype
        self.index = index
        #: stable identity independent of speed grade, so post-schedule
        #: regrading (slack compensation) does not invalidate netlist keys.
        self._base_name = f"{rtype.family}_{rtype.width}"
        #: stable instance name used in reports (``mul_32#0``); a plain
        #: attribute (not a property) because the timing engine reads it
        #: millions of times per pass.
        self.name = f"{self._base_name}#{index}"
        #: per-state occupancy: state -> list of (operation, predicate).
        #: Several operations may legally share a state when their
        #: predicates are mutually exclusive.
        self._occupancy: Dict[int, List[Operation]] = {}
        #: incrementally maintained distinct-occupant index (uid -> op).
        self._ops_map: Dict[int, Operation] = {}
        #: the binder's candidate sort key, ``(area, -distinct
        #: occupants)``, kept current by :meth:`occupy` and
        #: :meth:`ResourcePool.regrade` so a walk-order re-sort reads
        #: one attribute per instance instead of building the key.
        self.walk_key: Tuple[float, int] = (rtype.area, 0)
        #: shared mutation log: the name of every instance whose
        #: candidate-ordering inputs (occupant count, grade) change is
        #: appended here ("*" means everything changed).  The pool
        #: aliases every member's log to its own, so the binder's
        #: sorted-candidates memo can tell exactly which compatibility
        #: groups a mutation invalidated (log length = epoch).
        self._order_log: List[str] = []

    def occupants(self, state: int) -> List[Operation]:
        """Operations occupying this instance at a state."""
        return list(self._occupancy.get(state, ()))

    def states_used(self) -> List[int]:
        """All states where this instance is occupied."""
        return sorted(self._occupancy)

    def ops_bound(self) -> List[Operation]:
        """All operations bound to this instance (deduplicated)."""
        return [self._ops_map[uid] for uid in sorted(self._ops_map)]

    def is_free(self, op: Operation, states: List[int]) -> bool:
        """Whether ``op`` may occupy this instance on all ``states``.

        ``states`` must already include equivalent edges when pipelining.
        Occupied states are still usable when every current occupant's
        predicate is mutually exclusive with ``op``'s.
        """
        occupancy = self._occupancy
        if not occupancy:
            return True
        for state in states:
            for other in occupancy.get(state, ()):
                if not op.predicate.disjoint(other.predicate):
                    return False
        return True

    def occupy(self, op: Operation, states: List[int]) -> None:
        """Claim the instance for ``op`` on all ``states``."""
        if not self.is_free(op, states):
            raise ValueError(f"{self.name}: conflict binding {op.name}")
        for state in states:
            self._occupancy.setdefault(state, []).append(op)
        if op.uid not in self._ops_map:
            self._ops_map[op.uid] = op
            self.walk_key = (self.rtype.area, -len(self._ops_map))
            self._order_log.append(self.name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResourceInstance({self.name})"


class MemoryPortInstance(ResourceInstance):
    """One physical RAM port of one bank of a declared memory.

    Each port is an exclusive per-state resource exactly like a shared
    functional unit (predicate-disjoint accesses may share a port on
    one state); a bank with P ports contributes P instances, which is
    how "at most P accesses per bank per state" falls out of the
    ordinary occupancy machinery.  The port's input muxes in the timing
    engine are the RAM's address (and write-data) muxes.
    """

    def __init__(self, rtype: MemoryResource, memory: str,
                 bank: int, port: int) -> None:
        super().__init__(rtype, index=port)
        self.memory = memory
        self.bank = bank
        self.port = port
        self._base_name = f"ram_{memory}_b{bank}"
        self.name = f"{self._base_name}p{port}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MemoryPortInstance({self.name})"


@dataclass
class MemoryConfig:
    """The physical realization of one declared memory in a schedule.

    ``banks`` is the *effective* banking factor -- the declared one,
    possibly raised by the relaxation driver's add-bank action.
    """

    decl: MemoryDecl
    banks: int
    rtype: MemoryResource
    #: port instances indexed ``[bank][port]``.
    port_insts: List[List[MemoryPortInstance]] = field(default_factory=list)

    @property
    def ports(self) -> int:
        """RAM ports per bank."""
        return self.decl.ports

    @property
    def area(self) -> float:
        """Total area of the memory's RAM macros."""
        return self.banks * self.rtype.area

    def all_port_insts(self) -> List[MemoryPortInstance]:
        """Every port instance, bank-major."""
        return [inst for bank in self.port_insts for inst in bank]


def build_memory_configs(
    memories: Dict[str, MemoryDecl],
    library,
    bank_overrides: Optional[Dict[str, int]] = None,
) -> Dict[str, MemoryConfig]:
    """Materialize RAM banks and port instances for a region's memories."""
    overrides = bank_overrides or {}
    configs: Dict[str, MemoryConfig] = {}
    for name, decl in sorted(memories.items()):
        banks = max(decl.banks, overrides.get(name, decl.banks))
        rtype = library.memory_resource(
            decl.width, -(-decl.depth // banks), decl.ports)
        port_insts = [
            [MemoryPortInstance(rtype, name, b, p)
             for p in range(decl.ports)]
            for b in range(banks)
        ]
        configs[name] = MemoryConfig(decl, banks, rtype, port_insts)
    return configs


class ResourcePool:
    """The set of allocated instances, grouped by family/width.

    The scheduler starts from the allocation lower bound (paper IV.A) and
    the relaxation expert system adds instances when a pass fails for lack
    of resources.
    """

    def __init__(self) -> None:
        self._instances: List[ResourceInstance] = []
        self._counters: Dict[str, int] = {}
        #: guards the binder's sorted-candidates memo (see
        #: :class:`ResourceInstance`); every member instance aliases it.
        self._order_log: List[str] = []

    def add(self, rtype: ResourceType) -> ResourceInstance:
        """Allocate one more instance of ``rtype``."""
        key = f"{rtype.family}_{rtype.width}"
        idx = self._counters.get(key, 0)
        self._counters[key] = idx + 1
        inst = ResourceInstance(rtype, idx)
        inst._order_log = self._order_log
        self._order_log.append("*")
        self._instances.append(inst)
        return inst

    def remove(self, inst: ResourceInstance) -> None:
        """Drop an instance (only used by allocation refinement)."""
        self._instances.remove(inst)
        self._order_log.append("*")

    @property
    def instances(self) -> List[ResourceInstance]:
        """All instances in allocation order."""
        return list(self._instances)

    def compatible(self, op: Operation) -> List[ResourceInstance]:
        """Instances whose type can implement ``op`` (allocation order)."""
        return [inst for inst in self._instances
                if inst.rtype.supports(op.kind, op.resource_width)]

    def count(self, family: str, width: int) -> int:
        """Number of instances of a family/width bucket."""
        return self._counters.get(f"{family}_{width}", 0)

    def total_area(self) -> float:
        """Sum of instance areas (excluding registers and muxes)."""
        return sum(inst.rtype.area for inst in self._instances)

    def regrade(self, inst: ResourceInstance, rtype: ResourceType) -> None:
        """Swap an instance's type for a different grade of the family."""
        if rtype.family != inst.rtype.family or rtype.width != inst.rtype.width:
            raise ValueError("regrade must stay within the family/width")
        inst.rtype = rtype
        inst.walk_key = (rtype.area, -len(inst._ops_map))
        self._order_log.append(inst.name)

    def __len__(self) -> int:
        return len(self._instances)

    def summary(self) -> Dict[str, int]:
        """Instance counts keyed by type name (for reports)."""
        out: Dict[str, int] = {}
        for inst in self._instances:
            out[inst.rtype.name] = out.get(inst.rtype.name, 0) + 1
        return dict(sorted(out.items()))

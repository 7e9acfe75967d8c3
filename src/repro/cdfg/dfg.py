"""Data flow graph.

Nodes are :class:`~repro.cdfg.ops.Operation` objects; edges carry the
consumer input-port index and a *distance*: 0 for intra-iteration
dependencies, >=1 for loop-carried dependencies (values produced ``distance``
iterations earlier).  Removing all edges with distance >= 1 must leave the
graph acyclic; cycles through distance-1 edges are exactly the strongly
connected components the pipeliner must keep within II states
(paper section V, step I.3a).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.cdfg.ops import Operation, OpKind, arity_of
from repro.cdfg.predicates import Predicate


@dataclass(frozen=True, slots=True)
class DataEdge:
    """A data dependency: ``src`` output feeds ``dst`` input ``port``.

    ``order`` edges carry no value: they sequence two side effects on the
    same memory (RAW/WAR/WAW) and use ``port = -1``.  ``min_gap`` is the
    minimum number of states the consumer must start after the producer
    *completes* (1 for RAW/WAW -- the RAM write commits at the clock
    edge -- and 0 for WAR, where read-before-write within one state is
    the RAM's read-first semantics).  Data edges keep ``min_gap = 0``;
    their spacing rule is chaining-aware and lives in the timing engine.
    """

    src: int
    dst: int
    port: int
    distance: int = 0
    order: bool = False
    min_gap: int = 0


class DFGError(ValueError):
    """Raised on malformed data flow graphs."""


class DFG:
    """A mutable data flow graph with loop-carried edges.

    The DFG owns operation uids (allocated by :meth:`add_op`) and keeps
    adjacency both ways for O(degree) traversal.  All iteration orders are
    deterministic (insertion order / sorted uids), which keeps scheduling
    and benchmarks reproducible.
    """

    def __init__(self, name: str = "dfg") -> None:
        self.name = name
        self._ops: Dict[int, Operation] = {}
        self._in_edges: Dict[int, List[DataEdge]] = {}
        self._out_edges: Dict[int, List[DataEdge]] = {}
        self._next_uid = 0
        # derived-structure caches, all invalidated by _mutated(); the
        # scheduler re-queries these per pass, so caching them is the
        # difference between O(passes * V log V) and O(V log V) total
        self._in_sorted: Dict[int, List[DataEdge]] = {}
        self._data_in_sorted: Dict[int, List[DataEdge]] = {}
        self._topo_cache: Optional[List[Operation]] = None
        self._sccs_cache: Optional[List[Set[int]]] = None
        self._fanin_masks_cache: Optional[Dict[int, int]] = None

    def _mutated(self) -> None:
        if self._in_sorted:
            self._in_sorted.clear()
        if self._data_in_sorted:
            self._data_in_sorted.clear()
        self._topo_cache = None
        self._sccs_cache = None
        self._fanin_masks_cache = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_op(
        self,
        kind: OpKind,
        width: int,
        name: str = "",
        predicate: Optional[Predicate] = None,
        payload: object = None,
        pinned_state: Optional[int] = None,
        pinned_resource: Optional[str] = None,
        is_exit_test: bool = False,
    ) -> Operation:
        """Create and register a new operation; returns it."""
        uid = self._next_uid
        self._next_uid += 1
        op = Operation(
            uid=uid,
            kind=kind,
            width=width,
            name=name,
            predicate=predicate if predicate is not None else Predicate.true(),
            payload=payload,
            pinned_state=pinned_state,
            pinned_resource=pinned_resource,
            is_exit_test=is_exit_test,
        )
        self._ops[uid] = op
        self._in_edges[uid] = []
        self._out_edges[uid] = []
        self._mutated()
        return op

    def connect(self, src: Operation, dst: Operation, port: int, distance: int = 0) -> DataEdge:
        """Add a data edge from ``src``'s output to ``dst``'s input ``port``."""
        if src.uid not in self._ops or dst.uid not in self._ops:
            raise DFGError("connect: operations must belong to this DFG")
        if distance < 0:
            raise DFGError("connect: distance must be non-negative")
        for edge in self._in_edges[dst.uid]:
            if edge.port == port and not edge.order:
                raise DFGError(
                    f"connect: input port {port} of {dst.name} already driven")
        edge = DataEdge(src.uid, dst.uid, port, distance)
        self._in_edges[dst.uid].append(edge)
        self._out_edges[src.uid].append(edge)
        self._mutated()
        return edge

    def connect_order(self, src: Operation, dst: Operation,
                      distance: int = 0, min_gap: int = 1) -> DataEdge:
        """Add a memory-dependence (ordering) edge from ``src`` to ``dst``.

        Duplicate ordering constraints collapse onto the strongest one
        already present (same endpoints and distance, largest gap).
        """
        if src.uid not in self._ops or dst.uid not in self._ops:
            raise DFGError("connect_order: operations must belong to this DFG")
        if distance < 0:
            raise DFGError("connect_order: distance must be non-negative")
        for edge in self._in_edges[dst.uid]:
            if (edge.order and edge.src == src.uid
                    and edge.distance == distance
                    and edge.min_gap >= min_gap):
                return edge
        edge = DataEdge(src.uid, dst.uid, -1, distance,
                        order=True, min_gap=min_gap)
        self._in_edges[dst.uid].append(edge)
        self._out_edges[src.uid].append(edge)
        self._mutated()
        return edge

    def disconnect(self, edge: DataEdge) -> None:
        """Remove a previously added edge."""
        self._in_edges[edge.dst].remove(edge)
        self._out_edges[edge.src].remove(edge)
        self._mutated()

    def remove_op(self, op: Operation) -> None:
        """Remove an operation; it must have no remaining edges."""
        if self._in_edges[op.uid] or self._out_edges[op.uid]:
            raise DFGError(f"remove_op: {op.name} still connected")
        del self._ops[op.uid]
        del self._in_edges[op.uid]
        del self._out_edges[op.uid]
        self._mutated()

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def op(self, uid: int) -> Operation:
        """The operation with the given uid."""
        return self._ops[uid]

    def __contains__(self, uid: int) -> bool:
        return uid in self._ops

    def __len__(self) -> int:
        return len(self._ops)

    @property
    def ops(self) -> List[Operation]:
        """All operations in insertion order."""
        return list(self._ops.values())

    def ops_of_kind(self, *kinds: OpKind) -> List[Operation]:
        """All operations whose kind is one of ``kinds``."""
        wanted = set(kinds)
        return [op for op in self._ops.values() if op.kind in wanted]

    def in_edges(self, uid: int) -> List[DataEdge]:
        """Incoming edges of an operation, in port order.

        Includes ordering edges (port -1, sorted first); callers that
        collect operand *values* use :meth:`data_in_edges`.  The returned
        list is a cache shared between calls -- treat it as read-only.
        """
        edges = self._in_sorted.get(uid)
        if edges is None:
            edges = self._in_sorted[uid] = sorted(
                self._in_edges[uid], key=lambda e: e.port)
        return edges

    def data_in_edges(self, uid: int) -> List[DataEdge]:
        """Incoming value-carrying edges only, in port order.

        Returns a shared cached list -- treat it as read-only.
        """
        edges = self._data_in_sorted.get(uid)
        if edges is None:
            edges = self._data_in_sorted[uid] = sorted(
                (e for e in self._in_edges[uid] if not e.order),
                key=lambda e: e.port)
        return edges

    def out_edges(self, uid: int) -> List[DataEdge]:
        """Outgoing edges of an operation."""
        return list(self._out_edges[uid])

    def in_edge(self, uid: int, port: int) -> Optional[DataEdge]:
        """The data edge driving input ``port`` of ``uid``, or None."""
        for edge in self._in_edges[uid]:
            if edge.port == port and not edge.order:
                return edge
        return None

    def operand(self, uid: int, port: int) -> Optional[Operation]:
        """The producer of input ``port`` of ``uid``, or None."""
        edge = self.in_edge(uid, port)
        return self._ops[edge.src] if edge is not None else None

    # ------------------------------------------------------------------
    # graph algorithms
    # ------------------------------------------------------------------
    def topological_order(self) -> List[Operation]:
        """Operations sorted so every distance-0 producer precedes consumers.

        Predicate conditions count as producers too: a predicated
        operation's commit depends on its branch condition even though no
        data edge connects them.  Raises :class:`DFGError` if the
        resulting graph has a cycle.  The returned list is a cache shared
        between calls until the next mutation -- treat it as read-only.
        """
        if self._topo_cache is not None:
            return self._topo_cache
        indeg = {uid: 0 for uid in self._ops}
        pred_consumers: Dict[int, List[int]] = {}
        for uid, op in self._ops.items():
            indeg[uid] = sum(1 for e in self._in_edges[uid]
                             if e.distance == 0)
            data_srcs = {e.src for e in self._in_edges[uid]}
            for cond_uid in op.predicate.condition_uids():
                if cond_uid in self._ops and cond_uid != uid \
                        and cond_uid not in data_srcs:
                    indeg[uid] += 1
                    pred_consumers.setdefault(cond_uid, []).append(uid)
        queue = sorted(uid for uid, d in indeg.items() if d == 0)
        order: List[Operation] = []
        while queue:
            uid = queue.pop(0)
            order.append(self._ops[uid])
            for edge in self._out_edges[uid]:
                if edge.distance != 0:
                    continue
                indeg[edge.dst] -= 1
                if indeg[edge.dst] == 0:
                    queue.append(edge.dst)
            for waiter in pred_consumers.get(uid, ()):
                indeg[waiter] -= 1
                if indeg[waiter] == 0:
                    queue.append(waiter)
        if len(order) != len(self._ops):
            raise DFGError("topological_order: intra-iteration cycle in DFG")
        self._topo_cache = order
        return order

    def sccs(self) -> List[Set[int]]:
        """Non-trivial strongly connected components (loop-carried cycles).

        The graph used includes *all* edges regardless of distance, so a
        cycle necessarily goes through at least one loop-carried edge.
        Returns components with more than one node, or with a self loop.
        These are the operation groups that must fit within II states when
        pipelining (paper section V, step I.3a).  Cached until the next
        mutation; treat the result as read-only.
        """
        if self._sccs_cache is not None:
            return self._sccs_cache
        succs = {uid: [e.dst for e in edges]
                 for uid, edges in self._out_edges.items()}
        # iterative Tarjan: index/lowlink per node, an explicit DFS stack
        # of (node, successor iterator) frames
        index: Dict[int, int] = {}
        lowlink: Dict[int, int] = {}
        on_stack: Set[int] = set()
        stack: List[int] = []
        result: List[Set[int]] = []
        for root in self._ops:
            if root in index:
                continue
            index[root] = lowlink[root] = len(index)
            stack.append(root)
            on_stack.add(root)
            frames = [(root, iter(succs[root]))]
            while frames:
                node, children = frames[-1]
                for child in children:
                    if child not in index:
                        index[child] = lowlink[child] = len(index)
                        stack.append(child)
                        on_stack.add(child)
                        frames.append((child, iter(succs[child])))
                        break
                    if child in on_stack and index[child] < lowlink[node]:
                        lowlink[node] = index[child]
                else:
                    frames.pop()
                    if frames:
                        parent = frames[-1][0]
                        if lowlink[node] < lowlink[parent]:
                            lowlink[parent] = lowlink[node]
                    if lowlink[node] == index[node]:
                        comp = set()
                        while True:
                            member = stack.pop()
                            on_stack.discard(member)
                            comp.add(member)
                            if member == node:
                                break
                        if len(comp) > 1 or node in succs[node]:
                            result.append(comp)
        result.sort(key=lambda comp: min(comp))
        self._sccs_cache = result
        return result

    def fanin_masks(self) -> Dict[int, int]:
        """Transitive distance-0 fanin closure per op, as uid bitmasks.

        ``masks[v]`` has bit ``u`` set iff ``u == v`` or ``u`` reaches
        ``v`` through distance-0 edges (including ordering edges, same as
        :meth:`topological_order`'s edge set).  Restraint cone analysis
        ORs a handful of these masks instead of BFS-walking the graph per
        failed pass.  Cached until the next mutation.
        """
        if self._fanin_masks_cache is not None:
            return self._fanin_masks_cache
        masks: Dict[int, int] = {}
        for op in self.topological_order():
            mask = 1 << op.uid
            for edge in self._in_edges[op.uid]:
                if edge.distance == 0:
                    mask |= masks.get(edge.src, 0)
            masks[op.uid] = mask
        self._fanin_masks_cache = masks
        return masks

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check well-formedness; raises :class:`DFGError` on violations."""
        for uid, op in self._ops.items():
            need = arity_of(op.kind)
            edges = [e for e in self._in_edges[uid] if not e.order]
            if any(e.order for e in self._in_edges[uid]) \
                    and op.kind not in (OpKind.LOAD, OpKind.STORE):
                raise DFGError(
                    f"{op.name}: ordering edges may only enter memory ops")
            ports = sorted(e.port for e in edges)
            if need is not None and len(edges) != need:
                raise DFGError(
                    f"{op.name}: kind {op.kind.value} needs {need} inputs, "
                    f"has {len(edges)}")
            if ports != list(range(len(ports))):
                raise DFGError(f"{op.name}: input ports not dense: {ports}")
            if op.kind is OpKind.LOAD and len(edges) > 1:
                raise DFGError(f"{op.name}: load takes at most an address")
            if op.kind is OpKind.STORE and not 1 <= len(edges) <= 2:
                raise DFGError(
                    f"{op.name}: store takes (data) or (address, data)")
            if op.kind is OpKind.STORE:
                if any(not e.order for e in self._out_edges[uid]):
                    raise DFGError(
                        f"{op.name}: store produces no value")
            if op.kind is OpKind.LOOPMUX:
                init = self.in_edge(uid, 0)
                carried = self.in_edge(uid, 1)
                if init is None or carried is None:
                    raise DFGError(f"{op.name}: loopmux needs both inputs")
                if init.distance != 0 or carried.distance < 1:
                    raise DFGError(
                        f"{op.name}: loopmux port0 must be distance 0, "
                        f"port1 distance >= 1")
            elif op.kind is OpKind.WRITE:
                if self._out_edges[uid]:
                    raise DFGError(f"{op.name}: write must have no consumers")
            for edge in edges:
                if edge.distance >= 1 and op.kind is not OpKind.LOOPMUX:
                    raise DFGError(
                        f"{op.name}: loop-carried edges may only enter LOOPMUX")
            for edge in self._in_edges[uid]:
                if edge.order and edge.min_gap < 0:
                    raise DFGError(f"{op.name}: negative order-edge gap")
        # the distance-0 subgraph must be acyclic
        self.topological_order()

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Operation counts by kind plus totals (for reports / Fig. 9)."""
        counts: Dict[str, int] = {}
        for op in self._ops.values():
            counts[op.kind.value] = counts.get(op.kind.value, 0) + 1
        counts["total"] = len(self._ops)
        counts["edges"] = sum(len(v) for v in self._out_edges.values())
        return counts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DFG({self.name}, ops={len(self._ops)})"

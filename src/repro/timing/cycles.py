"""False combinational cycle avoidance (paper Figure 6).

Resource sharing creates *static* wiring: when operation ``x = a + b`` in
state s1 chains into ``y = x + c`` on another adder, the first adder's
output is wired (through muxes) to the second adder's input.  If, in a
different state, the second adder's output chains into the first one, the
wiring forms a combinational cycle even though no reachable control state
sensitizes both paths at once.

The paper's choice (section IV.B.3): rather than emitting false-path
constraints that handcuff downstream logic synthesis, *avoid bindings that
create combinational cycles*, spending extra resources if needed.  This
module maintains the static resource-connection graph and answers "would
this binding close a cycle?" queries.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple


class CombCycleGuard:
    """Static connection graph between datapath nodes.

    Nodes are resource-instance names for shared resources and synthetic
    per-operation names for dedicated logic (muxes, unbound operations);
    only shared instances can close false cycles, but dedicated nodes may
    sit on the path of one.

    The graph only grows during a scheduling pass, so the guard keeps its
    transitive closure instead of the edges: per node, a bitmask of the
    nodes it reaches and one of the nodes that reach it (each including
    the node itself).  A commit ORs the new reach into every ancestor of
    the edge's source, and the new ancestry into every descendant of its
    destination; a query is a bit test and never mutates anything.
    """

    def __init__(self) -> None:
        #: node name -> bit index
        self._index: Dict[str, int] = {}
        #: per bit index: nodes reachable from it, itself included
        self._desc: List[int] = []
        #: per bit index: nodes it is reachable from, itself included
        self._anc: List[int] = []

    def _node(self, name: str) -> int:
        i = self._index.get(name)
        if i is None:
            i = self._index[name] = len(self._desc)
            self._desc.append(1 << i)
            self._anc.append(1 << i)
        return i

    def would_cycle(self, new_edges: Sequence[Tuple[str, str]]) -> bool:
        """Whether adding all ``new_edges`` would create a directed cycle.

        Self edges (chaining two ops on one instance within a state is
        impossible anyway) are reported as cycles.
        """
        if not new_edges:
            return False
        dst = new_edges[0][1]
        for _src, other in new_edges:
            if other != dst:
                return self._would_cycle_batch(new_edges)
        # every edge enters ``dst``: a path from ``dst`` back to a source
        # through one of the new edges revisits ``dst``, so cutting it at
        # the last visit leaves a path in the committed graph alone
        index = self._index
        j = index.get(dst)
        reach = self._desc[j] if j is not None else 0
        for src, _dst in new_edges:
            if src == dst:
                return True
            i = index.get(src)
            if i is not None and reach >> i & 1:
                return True
        return False

    def _would_cycle_batch(self, new_edges: Sequence[Tuple[str, str]]) -> bool:
        """General form for edges into several destinations: add them in
        order, each checked against the closure plus the earlier ones.
        Nodes the graph does not hold yet get scratch bits above it."""
        index, desc = self._index, self._desc
        scratch: Dict[str, int] = {}

        def closure_of(name: str) -> Tuple[int, int]:
            i = index.get(name)
            if i is not None:
                return i, desc[i]
            i = scratch.get(name)
            if i is None:
                i = scratch[name] = len(desc) + len(scratch)
            return i, 1 << i

        # (source bit, destination closure over the graph plus the earlier
        # new edges) per new edge.  One in-order pass is exact: along a
        # path, the part between two edges of increasing index only uses
        # edges of lower index, which the stored closure already holds.
        added: List[Tuple[int, int]] = []
        for src, dst in new_edges:
            i, _ = closure_of(src)
            _, reach = closure_of(dst)
            for a, a_reach in added:
                if reach >> a & 1:
                    reach |= a_reach
            if reach >> i & 1:
                return True
            added.append((i, reach))
        return False

    def commit(self, new_edges: Sequence[Tuple[str, str]]) -> None:
        """Add connection edges for an accepted binding."""
        desc, anc = self._desc, self._anc
        for src, dst in new_edges:
            i, j = self._node(src), self._node(dst)
            if desc[i] >> j & 1:
                continue  # already reachable: the closure is unchanged
            reach, back = desc[j], anc[i]
            rest = back
            while rest:
                low = rest & -rest
                desc[low.bit_length() - 1] |= reach
                rest ^= low
            rest = reach
            while rest:
                low = rest & -rest
                anc[low.bit_length() - 1] |= back
                rest ^= low

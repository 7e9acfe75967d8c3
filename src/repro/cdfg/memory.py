"""Memory declarations and static access analysis.

A :class:`MemoryDecl` describes one on-chip array of a region: its depth,
word width, cyclic banking factor and RAM ports per bank.  Accesses are
``LOAD``/``STORE`` operations whose address is either *dynamic* (a DFG
value feeding the access) or *affine* in the iteration index
(``address = iteration * stride + offset``, mirroring the ``io_offset`` /
``io_stride`` streaming convention of port reads).

Banking is cyclic: word ``a`` lives in bank ``a % banks`` at local
address ``a // banks``.  An affine access has a *static* bank exactly
when its stride is a multiple of the banking factor -- then every
iteration hits bank ``offset % banks`` -- which is what lets the
scheduler relax port conflicts across banks and the relaxation driver
fix port starvation by raising the banking factor.

The conflict analysis here drives the RAW/WAR/WAW memory-dependence
edges the builder emits: two accesses conflict when their address sets
may intersect (same iteration, or ``distance`` iterations apart).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.cdfg.ops import Operation, OpKind


class MemoryError_(ValueError):
    """Raised on malformed memory declarations or accesses."""


@dataclass(frozen=True)
class MemoryDecl:
    """One on-chip array of a region.

    Attributes
    ----------
    name:
        The memory's name; ``LOAD``/``STORE`` payloads reference it.
    depth:
        Number of words.
    width:
        Word width in bits.
    banks:
        Cyclic banking factor: word ``a`` lives in bank ``a % banks``.
        Each bank is a separate RAM macro with its own ports.
    ports:
        RAM ports per bank (1 = single-port, 2 = dual-port); at most
        ``ports`` accesses may hit one bank in one control step.
    init:
        Optional initial contents (padded with zeros to ``depth``).
    """

    name: str
    depth: int
    width: int
    banks: int = 1
    ports: int = 1
    init: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise MemoryError_(f"{self.name}: depth must be >= 1")
        if self.width < 1:
            raise MemoryError_(f"{self.name}: width must be >= 1")
        if self.banks < 1 or self.banks > self.depth:
            raise MemoryError_(
                f"{self.name}: banks must be in [1, depth]")
        if self.ports not in (1, 2):
            raise MemoryError_(
                f"{self.name}: ports must be 1 (single) or 2 (dual)")
        if self.init is not None and len(self.init) > self.depth:
            raise MemoryError_(
                f"{self.name}: {len(self.init)} init words exceed depth "
                f"{self.depth}")

    @property
    def bank_depth(self) -> int:
        """Words per bank (the last bank may be partially used)."""
        return -(-self.depth // self.banks)

    @property
    def bits(self) -> int:
        """Total storage bits."""
        return self.depth * self.width

    def contents(self) -> Tuple[int, ...]:
        """Initial contents padded to ``depth`` words."""
        init = self.init or ()
        return tuple(init) + (0,) * (self.depth - len(init))


# ----------------------------------------------------------------------
# access shape queries
# ----------------------------------------------------------------------
def has_dynamic_address(op: Operation, n_data_edges: int) -> bool:
    """Whether the access takes its address from a DFG value.

    ``n_data_edges`` is the number of *data* (non-order) input edges:
    a dynamic LOAD has 1 (the address), an affine LOAD 0; a dynamic
    STORE has 2 (address at port 0, data at port 1), an affine STORE 1.
    """
    if op.kind is OpKind.LOAD:
        return n_data_edges >= 1
    return n_data_edges >= 2


def static_bank(op: Operation, banks: int,
                dynamic: bool) -> Optional[int]:
    """The bank an access provably always hits, or None.

    Affine accesses (``address = iteration * stride + offset``) have a
    static bank exactly when ``stride % banks == 0``; dynamic accesses
    never do (they may address any bank).
    """
    if dynamic:
        return None
    if banks == 1:
        return 0
    if op.io_stride % banks != 0:
        return None
    return op.io_offset % banks


# ----------------------------------------------------------------------
# conflict analysis (drives dependence-edge emission)
# ----------------------------------------------------------------------
def _min_affine_distance(stride_p: int, offset_p: int,
                         stride_c: int, offset_c: int,
                         lo: int) -> Optional[int]:
    """Smallest ``d >= lo`` where the *consumer* access of iteration ``k``
    may touch the address the *producer* access used at iteration
    ``k - d``, i.e. ``(k - d) * stride_p + offset_p ==
    k * stride_c + offset_c`` for some iteration ``k``.

    Unequal strides are handled conservatively (the address sequences
    sweep across each other, so a collision is possible at any
    distance).  An ordering edge at the smallest conflicting distance
    dominates the constraints of every larger distance, so one edge per
    direction suffices.
    """
    if stride_p != stride_c:
        return lo
    stride = stride_p
    if stride == 0:
        return lo if offset_p == offset_c else None
    delta = offset_p - offset_c
    if delta % stride != 0:
        return None
    d = delta // stride
    return d if d >= lo else None


def min_conflict_distance(
    producer: Operation, dyn_p: bool,
    consumer: Operation, dyn_c: bool,
    banks: int,
    lo: int = 0,
) -> Optional[int]:
    """Smallest iteration distance ``>= lo`` at which two same-memory
    accesses may alias, or None when provably disjoint.

    The *producer* is the access that must complete first; the
    dependence reads "``consumer`` of iteration ``k`` touches what
    ``producer`` touched at iteration ``k - d``".  Accesses with
    distinct static banks never alias -- they live in different RAM
    macros -- which is the banking relaxation of the dependence edges.
    """
    bank_p = static_bank(producer, banks, dyn_p)
    bank_c = static_bank(consumer, banks, dyn_c)
    if bank_p is not None and bank_c is not None and bank_p != bank_c:
        return None
    if dyn_p or dyn_c:
        # a dynamic address may alias anything in the memory
        return lo
    return _min_affine_distance(
        producer.io_stride, producer.io_offset,
        consumer.io_stride, consumer.io_offset, lo)


def emit_dependence_edges(
    dfg,
    decl: MemoryDecl,
    accesses: Sequence[Tuple[Operation, bool]],
    is_loop: bool,
) -> int:
    """Emit RAW/WAR/WAW ordering edges among one memory's accesses.

    ``accesses`` is the program-order list of ``(op, dynamic?)`` pairs.
    Edges are relaxed across banks (accesses with distinct static banks
    live in different RAM macros and never alias) and carry the minimum
    state gap of their dependence class: 1 for RAW/WAW (the RAM write
    commits at the clock edge), 0 for WAR (read-first semantics allow
    read and write in one state).  For loops, a later access of an
    *earlier* iteration may also alias an earlier one, producing carried
    edges back onto it.  Returns the number of edges emitted.
    """
    count = 0
    for i, (later, later_dyn) in enumerate(accesses):
        later_store = later.kind is OpKind.STORE
        for earlier, earlier_dyn in accesses[:i]:
            earlier_store = earlier.kind is OpKind.STORE
            if not (earlier_store or later_store):
                continue  # load-load pairs never conflict
            gap_fwd = 1 if earlier_store else 0  # RAW/WAW vs WAR
            d = min_conflict_distance(earlier, earlier_dyn,
                                      later, later_dyn, decl.banks, lo=0)
            if d is not None and (d == 0 or is_loop):
                dfg.connect_order(earlier, later, distance=d,
                                  min_gap=gap_fwd)
                count += 1
            if is_loop:
                gap_bwd = 1 if later_store else 0
                d = min_conflict_distance(later, later_dyn,
                                          earlier, earlier_dyn,
                                          decl.banks, lo=1)
                if d is not None:
                    dfg.connect_order(later, earlier, distance=d,
                                      min_gap=gap_bwd)
                    count += 1
    return count


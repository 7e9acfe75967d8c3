"""Microarchitecture vocabulary of the design-space exploration.

A :class:`Microarch` names one point on the paper's microarchitecture
axis (Figure 10): a fixed latency, optionally pipelined at a designer
II.  :data:`PAPER_MICROARCHS` and :data:`PAPER_CLOCKS_PS` span the
Figure 10/11 grid.  :class:`InfeasiblePoint` records a grid point the
scheduler could not realize -- sweeps report these explicitly instead of
silently dropping them.

This module is dependency-free so :mod:`repro.flow.executor` can import
it without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Microarch:
    """One microarchitecture: a fixed latency, optionally pipelined,
    optionally with memory banking and/or FIFO depth overrides.

    ``banking`` maps memory names to cyclic banking factors applied on
    top of the region's declarations -- the sweep axis that exposes
    memory-port-constrained II; ``channel_depths`` does the same for a
    dataflow composition's FIFO capacities.  Both are stored as sorted
    tuples of pairs so the microarchitecture stays hashable (sweep
    grids key on it).

    Example::

        base = Microarch("Pipelined 16", 16, ii=8)
        banked = base.with_banking({"a": 4})          # memory axis
        deep = base.with_channel_depth({"s": 3})      # dataflow axis
        assert base.ii_effective == 8
    """

    name: str
    latency: int
    ii: Optional[int] = None  # None = non-pipelined
    banking: Optional[Tuple[Tuple[str, int], ...]] = None
    #: FIFO depth overrides for dataflow compositions: channel name ->
    #: depth (sorted tuple of pairs, keeping the microarch hashable).
    channel_depths: Optional[Tuple[Tuple[str, int], ...]] = None

    def __post_init__(self) -> None:
        if self.latency < 1 or (self.ii is not None and self.ii < 1):
            raise ValueError(
                f"microarch {self.name!r}: latency and ii must be >= 1 "
                f"(latency={self.latency}, ii={self.ii})")

    @property
    def ii_effective(self) -> int:
        """Cycles between iterations."""
        return self.ii if self.ii is not None else self.latency

    def with_banking(self, banking: Dict[str, int]) -> "Microarch":
        """A copy with memory banking overrides (and a labeled name)."""
        pairs = tuple(sorted(banking.items()))
        label = ",".join(f"{mem}x{banks}" for mem, banks in pairs)
        return replace(self, name=f"{self.name} [banks {label}]",
                       banking=pairs)

    def with_channel_depth(self, depths: Dict[str, int]) -> "Microarch":
        """A copy with FIFO depth overrides (and a labeled name).

        The dataflow analogue of :meth:`with_banking`: the channel-depth
        axis of a streaming sweep
        (:func:`repro.dataflow.sweep_channel_depths`).
        """
        pairs = tuple(sorted(depths.items()))
        label = ",".join(f"{chan}={depth}" for chan, depth in pairs)
        return replace(self, name=f"{self.name} [depth {label}]",
                       channel_depths=pairs)

    def apply_channel_depths(self, pipeline) -> None:
        """Rewrite a :class:`~repro.dataflow.Pipeline`'s channel depths
        in place (raises ``DataflowError`` on unknown channels)."""
        if not self.channel_depths:
            return
        for chan, depth in self.channel_depths:
            pipeline.set_depth(chan, depth)

    def apply_banking(self, region) -> None:
        """Rewrite the region's memory declarations in place.

        Dependence edges are re-derived afterwards: banking relaxes
        conflicts between accesses with distinct static banks, so the
        swept point must carry exactly the edges a directly-declared
        identical geometry would (same fingerprint, same schedule).
        """
        if not self.banking:
            return
        from repro.cdfg.memory import reemit_dependence_edges

        for mem, banks in self.banking:
            decl = region.memories.get(mem)
            if decl is None:
                raise KeyError(
                    f"{self.name}: region has no memory {mem!r}")
            region.memories[mem] = decl.with_banks(banks)
        reemit_dependence_edges(region)


def banked_microarchs(
    base: Microarch,
    memories: Sequence[str],
    factors: Sequence[int],
) -> Tuple[Microarch, ...]:
    """One microarchitecture per banking factor, for sweep grids.

    Every listed memory gets the same factor per point -- the common
    "partition everything cyclically by N" exploration move.
    """
    return tuple(
        base.with_banking({mem: factor for mem in memories})
        for factor in factors
    )


@dataclass(frozen=True)
class InfeasiblePoint:
    """A sweep grid point the scheduler proved overconstrained."""

    microarch: str
    clock_ps: float
    reason: str

    def describe(self) -> str:
        """One-line report entry (shared by the CLI and examples)."""
        return (f"infeasible: {self.microarch} @ {self.clock_ps:.0f} ps "
                f"-- {self.reason}")

    def to_json(self) -> Dict[str, object]:
        """JSON-friendly record (stable field set, round-trips through
        :meth:`from_json`; the dse result store and the CLI share it)."""
        return {"microarch": self.microarch, "clock_ps": self.clock_ps,
                "reason": self.reason}

    @classmethod
    def from_json(cls, payload: Dict[str, object]) -> "InfeasiblePoint":
        """Rebuild a point from :meth:`to_json` output."""
        return cls(microarch=str(payload["microarch"]),
                   clock_ps=float(payload["clock_ps"]),
                   reason=str(payload["reason"]))


#: the paper's Figure 10 microarchitecture set.
PAPER_MICROARCHS: Sequence[Microarch] = (
    Microarch("Non-Pipelined 8", 8),
    Microarch("Non-Pipelined 16", 16),
    Microarch("Non-Pipelined 32", 32),
    Microarch("Pipelined 16", 16, ii=8),
    Microarch("Pipelined 32", 32, ii=16),
)

#: the paper's Figure 10/11 clock-period axis (ps).
PAPER_CLOCKS_PS: Sequence[float] = (1000.0, 1250.0, 1600.0, 2100.0, 2800.0)

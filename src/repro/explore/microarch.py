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

from dataclasses import dataclass
from typing import Dict, Optional, Sequence


@dataclass(frozen=True)
class Microarch:
    """One microarchitecture: a fixed latency, optionally pipelined.

    Example::

        micro = Microarch("Pipelined 16", 16, ii=8)
        assert micro.ii_effective == 8
    """

    name: str
    latency: int
    ii: Optional[int] = None  # None = non-pipelined

    def __post_init__(self) -> None:
        if self.latency < 1 or (self.ii is not None and self.ii < 1):
            raise ValueError(
                f"microarch {self.name!r}: latency and ii must be >= 1 "
                f"(latency={self.latency}, ii={self.ii})")

    @property
    def ii_effective(self) -> int:
        """Cycles between iterations."""
        return self.ii if self.ii is not None else self.latency


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

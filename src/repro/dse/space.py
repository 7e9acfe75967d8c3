"""The parameter space of a tune: microarchitecture x clock.

A :class:`DesignSpace` is the cross product of a microarchitecture list
(latency/II points) and a clock-period axis; :func:`paper_space` is the
Figure 10/11 grid.
:func:`admissible_clocks` prunes a curve's clocks on the paper model's
predicted delay before anything is synthesized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

from repro.explore.microarch import (
    Microarch,
    PAPER_CLOCKS_PS,
    PAPER_MICROARCHS,
)


class SpaceError(ValueError):
    """A malformed parameter space (empty axis, duplicate names...)."""


@dataclass(frozen=True)
class Candidate:
    """One point of a design space: a microarchitecture at a clock."""

    microarch: Microarch
    clock_ps: float

    @property
    def predicted_delay_ps(self) -> float:
        """The paper model's deterministic delay: ``II_effective * Tclk``.

        Strategies prune on this *before* synthesis -- a candidate whose
        predicted delay already violates the delay bound never needs to
        be evaluated (the scheduler cannot beat the designer II).
        """
        return self.microarch.ii_effective * self.clock_ps

    @property
    def label(self) -> str:
        """Stable display name, matching the sweep executor's labels."""
        return f"{self.microarch.name}@{self.clock_ps:.0f}"


@dataclass(frozen=True)
class DesignSpace:
    """Microarchitecture x clock grid."""

    microarchs: Tuple[Microarch, ...]
    clocks_ps: Tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.microarchs:
            raise SpaceError("design space needs at least one microarch")
        if not self.clocks_ps:
            raise SpaceError("design space needs at least one clock")
        if not all(math.isfinite(c) and c > 0 for c in self.clocks_ps):
            raise SpaceError(f"clock periods must be finite and "
                             f"positive: {self.clocks_ps}")
        names = [m.name for m in self.microarchs]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise SpaceError(f"duplicate microarch names: {dupes}")
        # ascending = fastest clock first; strategies index on this.
        object.__setattr__(self, "clocks_ps",
                           tuple(sorted(float(c) for c in self.clocks_ps)))
        object.__setattr__(self, "microarchs", tuple(self.microarchs))

    @property
    def size(self) -> int:
        """Grid size (the exhaustive evaluation count)."""
        return len(self.microarchs) * len(self.clocks_ps)

    def candidates(self) -> Iterator[Candidate]:
        """Every grid point, microarchitecture-major then clock."""
        for m in self.microarchs:
            for c in self.clocks_ps:
                yield Candidate(m, c)

    def summary(self) -> Dict[str, object]:
        """JSON-friendly record of the space shape."""
        return {
            "microarchs": [m.name for m in self.microarchs],
            "clocks_ps": list(self.clocks_ps),
            "size": self.size,
        }


def paper_space() -> DesignSpace:
    """The paper's Figure 10/11 grid: 5 microarchs x 5 clocks."""
    return DesignSpace(tuple(PAPER_MICROARCHS), tuple(PAPER_CLOCKS_PS))


def admissible_clocks(space: DesignSpace, microarch: Microarch,
                      delay_bound: Optional[float] = None
                      ) -> Tuple[float, ...]:
    """The clocks (ascending) whose predicted delay meets the bound.

    With no delay bound every clock is admissible.  The filter needs no
    synthesis: delay is ``II_effective * Tclk`` in the paper model.
    """
    if delay_bound is None:
        return space.clocks_ps
    ii = microarch.ii_effective
    return tuple(c for c in space.clocks_ps
                 if ii * c <= delay_bound + 1e-9)

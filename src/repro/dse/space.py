"""Composable parameter spaces over the existing exploration axes.

A :class:`DesignSpace` is the cross product of a microarchitecture list
(latency/II points, optionally carrying banking or channel-depth
overrides) and a clock-period axis.  The axis builders are composable:
start from :func:`paper_space` (the Figure 10/11 grid) or an explicit
list, then cross in memory banking (:meth:`DesignSpace.with_banking_axis`)
or streaming channel depths (:meth:`DesignSpace.with_channel_depth_axis`).

The channel-depth axis applies the paper model's monotonicity rule at
*space construction* time: deepening a non-bottleneck channel never
improves the steady-state II but always adds FIFO area, so an
assignment that is pointwise >= another is dominated before anything is
synthesized (:func:`prune_dominated_depths`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.explore.microarch import (
    Microarch,
    PAPER_CLOCKS_PS,
    PAPER_MICROARCHS,
    banked_microarchs,
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
    """Microarchitecture x clock grid with composable extra axes."""

    microarchs: Tuple[Microarch, ...]
    clocks_ps: Tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.microarchs:
            raise SpaceError("design space needs at least one microarch")
        if not self.clocks_ps:
            raise SpaceError("design space needs at least one clock")
        if any(c <= 0 for c in self.clocks_ps):
            raise SpaceError(f"clock periods must be positive: "
                             f"{self.clocks_ps}")
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

    # ------------------------------------------------------------------
    # composable axes
    # ------------------------------------------------------------------
    def with_microarchs(self,
                        microarchs: Sequence[Microarch]) -> "DesignSpace":
        """A copy with a replaced microarchitecture axis."""
        return replace(self, microarchs=tuple(microarchs))

    def with_banking_axis(self, memories: Sequence[str],
                          factors: Sequence[int]) -> "DesignSpace":
        """Cross every microarch with the memory-banking factors.

        Mirrors :func:`repro.explore.banked_microarchs`: every listed
        memory gets the same cyclic factor per point.
        """
        if not factors:
            raise SpaceError("banking axis needs at least one factor")
        expanded: List[Microarch] = []
        for m in self.microarchs:
            expanded.extend(banked_microarchs(m, memories, factors))
        return self.with_microarchs(expanded)

    def with_unroll_axis(self, factors: Sequence[int]) -> "DesignSpace":
        """Cross every microarch with loop-unroll factors.

        Factor 1 keeps the microarch as-is (no label suffix); other
        factors replicate the loop body before scheduling, trading
        area for work per iteration.
        """
        if not factors:
            raise SpaceError("unroll axis needs at least one factor")
        expanded: List[Microarch] = []
        for m in self.microarchs:
            for factor in factors:
                expanded.append(m if factor == 1 else m.with_unroll(factor))
        return self.with_microarchs(expanded)

    def with_channel_depth_axis(
            self,
            assignments: Sequence[Dict[str, int]]) -> "DesignSpace":
        """Cross every microarch with FIFO depth assignments.

        Pointwise-dominated assignments are pruned first (deepening a
        non-bottleneck channel never improves II, always adds area).
        """
        kept = prune_dominated_depths(assignments)
        if not kept:
            raise SpaceError("channel-depth axis needs at least one "
                             "assignment")
        expanded: List[Microarch] = []
        for m in self.microarchs:
            for depths in kept:
                expanded.append(m.with_channel_depth(depths)
                                if depths else m)
        return self.with_microarchs(expanded)

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


def prune_dominated_depths(
        assignments: Sequence[Dict[str, int]]) -> List[Dict[str, int]]:
    """Drop channel-depth assignments that are pointwise >= another.

    Two assignments are comparable only when they name the same
    channels; ``a`` dominates ``b`` when every depth of ``a`` is <= the
    matching depth of ``b`` and one is strictly smaller (the deeper
    assignment costs more FIFO area and can never improve II).  Exact
    duplicates collapse to one entry.
    """
    unique: List[Dict[str, int]] = []
    seen = set()
    for depths in assignments:
        key = tuple(sorted(depths.items()))
        if key not in seen:
            seen.add(key)
            unique.append(dict(depths))
    kept: List[Dict[str, int]] = []
    for a in unique:
        dominated = False
        for b in unique:
            if a is b or set(a) != set(b):
                continue
            if all(b[k] <= a[k] for k in a) \
                    and any(b[k] < a[k] for k in a):
                dominated = True
                break
        if not dominated:
            kept.append(a)
    return kept


def channel_depth_assignments(
        channels: Sequence[str],
        depths: Sequence[int]) -> List[Dict[str, int]]:
    """The per-stage streaming space: every combination of per-channel
    FIFO depths (then typically pruned through a depth axis).

    This is the cartesian per-channel expansion -- each channel of a
    :class:`~repro.dataflow.Pipeline` picks its depth independently::

        channel_depth_assignments(["s", "t"], [1, 2])
        # [{'s': 1, 't': 1}, {'s': 1, 't': 2},
        #  {'s': 2, 't': 1}, {'s': 2, 't': 2}]
    """
    if not channels or not depths:
        return []
    return [dict(zip(channels, combo))
            for combo in itertools.product(sorted(depths),
                                           repeat=len(channels))]


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

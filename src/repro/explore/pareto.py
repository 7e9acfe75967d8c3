"""Pareto front extraction over implementation points.

:func:`pareto_front` is a sort-based sweep -- ``O(n log n)`` for two
objectives and for the optional third (power) objective, instead of the
quadratic all-pairs scan it replaces -- so front extraction stays cheap
even on the autotuner's accumulated result stores.  Semantics are
unchanged: minimization on every axis, exact ties kept.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence


@dataclass(frozen=True)
class DesignPoint:
    """One implementation: the axes of the paper's Figures 10/11."""

    label: str
    microarch: str
    clock_ps: float
    ii: int
    latency: int
    delay_ps: float
    area: float
    power_mw: float

    def row(self) -> List[object]:
        """Table row matching :func:`repro.rtl.reports.pareto_header`."""
        return [self.microarch, round(self.clock_ps), self.ii,
                round(self.delay_ps), round(self.area, 1),
                round(self.power_mw, 3)]

    def to_json(self) -> Dict[str, object]:
        """JSON-friendly record (stable field set, round-trips through
        :meth:`from_json`)."""
        return {"label": self.label, "microarch": self.microarch,
                "clock_ps": self.clock_ps, "ii": self.ii,
                "latency": self.latency, "delay_ps": self.delay_ps,
                "area": self.area, "power_mw": self.power_mw}

    @classmethod
    def from_json(cls, payload: Dict[str, object]) -> "DesignPoint":
        """Rebuild a point from :meth:`to_json` output."""
        return cls(label=str(payload["label"]),
                   microarch=str(payload["microarch"]),
                   clock_ps=float(payload["clock_ps"]),
                   ii=int(payload["ii"]),
                   latency=int(payload["latency"]),
                   delay_ps=float(payload["delay_ps"]),
                   area=float(payload["area"]),
                   power_mw=float(payload["power_mw"]))


def dominates(a: DesignPoint, b: DesignPoint,
              metrics: Sequence[str] = ("delay_ps", "area")) -> bool:
    """Whether ``a`` dominates ``b``: <= on every metric, < on one."""
    le = all(getattr(a, m) <= getattr(b, m) for m in metrics)
    lt = any(getattr(a, m) < getattr(b, m) for m in metrics)
    return le and lt


def _front_2d(order: List[int], xs: List[float],
              ys: List[float]) -> set:
    """Surviving indices of the 2-D sweep over pre-sorted ``order``.

    One pass over the points grouped by equal ``x``: a group survives
    only when its minimal ``y`` strictly undercuts everything seen at
    smaller ``x`` (a tie there is domination -- the earlier point wins
    on ``x``); within a surviving group, exactly the minimal-``y``
    points are kept, which preserves exact-duplicate ties.
    """
    keep: set = set()
    best_y = float("inf")
    i, n = 0, len(order)
    while i < n:
        j = i
        group_y = float("inf")
        while j < n and xs[order[j]] == xs[order[i]]:
            group_y = min(group_y, ys[order[j]])
            j += 1
        if group_y < best_y:
            keep.update(k for k in order[i:j] if ys[k] == group_y)
            best_y = group_y
        i = j
    return keep


class _Staircase:
    """Minimal (y, z) pairs under componentwise <=, for the 3-D sweep.

    Kept sorted by ``y`` ascending with ``z`` strictly descending, so a
    domination query and an insertion are both ``O(log n)`` (plus
    amortized removals).
    """

    def __init__(self) -> None:
        self._ys: List[float] = []
        self._zs: List[float] = []

    def covers(self, y: float, z: float) -> bool:
        """Whether some stored pair is <= (y, z) componentwise."""
        i = bisect.bisect_right(self._ys, y)
        return i > 0 and self._zs[i - 1] <= z

    def insert(self, y: float, z: float) -> None:
        """Add a pair, dropping pairs it dominates."""
        if self.covers(y, z):
            return
        i = bisect.bisect_left(self._ys, y)
        j = i
        while j < len(self._ys) and self._zs[j] >= z:
            j += 1
        self._ys[i:j] = [y]
        self._zs[i:j] = [z]


def _front_3d(order: List[int], xs: List[float], ys: List[float],
              zs: List[float]) -> set:
    """Surviving indices of the 3-D sweep over pre-sorted ``order``."""
    keep: set = set()
    stair = _Staircase()
    i, n = 0, len(order)
    while i < n:
        j = i
        while j < n and xs[order[j]] == xs[order[i]]:
            j += 1
        group = order[i:j]
        # against strictly-smaller x: <= on (y, z) is domination (the
        # earlier point is already strictly better on x) ...
        survivors = [k for k in group
                     if not stair.covers(ys[k], zs[k])]
        # ... within the equal-x group, dominance reduces to the 2-D
        # problem on (y, z), ties kept.
        sub = sorted(range(len(survivors)),
                     key=lambda s: (ys[survivors[s]], zs[survivors[s]]))
        sub_keep = _front_2d([survivors[s] for s in sub], ys, zs)
        keep.update(sub_keep)
        for k in sub_keep:
            stair.insert(ys[k], zs[k])
        i = j
    return keep


def pareto_front(points: Sequence[DesignPoint],
                 x: str = "delay_ps", y: str = "area",
                 z: Optional[str] = None) -> List[DesignPoint]:
    """Non-dominated points, minimizing ``x`` and ``y`` (and ``z``).

    Pass ``z`` (typically ``"power_mw"``) for a three-objective front;
    the default two-objective call keeps its original signature and
    semantics.  Runs in ``O(n log n)`` either way.
    """
    n = len(points)
    if n == 0:
        return []
    xs = [float(getattr(p, x)) for p in points]
    ys = [float(getattr(p, y)) for p in points]
    if z is None:
        order = sorted(range(n), key=lambda i: (xs[i], ys[i]))
        keep = _front_2d(order, xs, ys)
    else:
        zs = [float(getattr(p, z)) for p in points]
        order = sorted(range(n), key=lambda i: (xs[i], ys[i], zs[i]))
        keep = _front_3d(order, xs, ys, zs)
    result = [p for i, p in enumerate(points) if i in keep]
    result.sort(key=lambda p: getattr(p, x))
    return result


def group_by_microarch(points: Sequence[DesignPoint]) -> Dict[str, List[DesignPoint]]:
    """Points grouped into per-microarchitecture curves (Fig. 10 lines)."""
    out: Dict[str, List[DesignPoint]] = {}
    for p in points:
        out.setdefault(p.microarch, []).append(p)
    for curve in out.values():
        curve.sort(key=lambda p: p.delay_ps)
    return out

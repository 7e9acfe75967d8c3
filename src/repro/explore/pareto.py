"""Pareto front extraction over implementation points.

:func:`pareto_front` is a sort-based ``O(n log n)`` sweep over two
objectives, instead of the quadratic all-pairs scan it replaces -- so
front extraction stays cheap even on the autotuner's accumulated result
stores.  Semantics are unchanged: minimization on both axes, exact ties
kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence


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


def pareto_front(points: Sequence[DesignPoint],
                 x: str = "delay_ps", y: str = "area") -> List[DesignPoint]:
    """Non-dominated points, minimizing ``x`` and ``y``, in
    ``O(n log n)``."""
    xs = [float(getattr(p, x)) for p in points]
    ys = [float(getattr(p, y)) for p in points]
    order = sorted(range(len(points)), key=lambda i: (xs[i], ys[i]))
    keep = _front_2d(order, xs, ys)
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

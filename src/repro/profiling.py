"""Scheduler work counters: one process-global table of named counts.

The scheduler's hot loops account their work into a counter table
(plain ``dict`` increments -- cheap enough to stay always-on at
commit/pass granularity, far above the per-path-evaluation inner
loops).  :data:`counters` is the counter dict of
:data:`repro.obs.metrics.REGISTRY` itself (same object, never rebound),
so the service's ``/metrics`` endpoint sees every bump.

Counter names are dotted phases: ``pass.count``, ``engine.commit``,
``restraints.analyze`` ...  :func:`bump` adds to one, :func:`snapshot`
copies the table, :func:`merge` folds another table in and
:func:`report` renders it.

The table is one dict per process, not per run.  ``repro profile``
resets it before its measured run, every sweep worker resets it on
start (a forked worker inherits the parent's counts) and ships its
snapshot back for the parent to :func:`merge`, and each forked service
job resets the whole registry.  perfbench reads it through
:func:`snapshot`.  Concurrent runs in one process therefore share it.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.obs.metrics import REGISTRY

#: the live counter table; mutate via :func:`bump` (or directly from
#: performance-critical call sites that already hold a reference).
#: This is the registry's own dict, aliased -- never rebound.
counters: Dict[str, int] = REGISTRY.counters


def bump(name: str, n: int = 1) -> None:
    """Increment one counter."""
    counters[name] = counters.get(name, 0) + n


def reset() -> None:
    """Zero every counter (start of a measured workload).

    Clears in place (call sites alias :data:`counters`); gauges and
    histograms in the backing registry are left alone -- they belong
    to longer-lived consumers (the service) with their own lifecycle.
    """
    counters.clear()


def snapshot() -> Dict[str, int]:
    """A copy of the current counter table."""
    return dict(counters)


def merge(other: Dict[str, int]) -> None:
    """Fold another table (e.g. from a sweep worker) into this one."""
    for name, n in other.items():
        counters[name] = counters.get(name, 0) + n


def report(table: Optional[Dict[str, int]] = None) -> str:
    """Human rendering, grouped by phase prefix."""
    table = counters if table is None else table
    if not table:
        return "profile: no counters recorded"
    lines: List[str] = ["profile counters:"]
    last_phase = None
    for name in sorted(table):
        phase = name.split(".", 1)[0]
        if phase != last_phase:
            lines.append(f"  [{phase}]")
            last_phase = phase
        lines.append(f"    {name:<34} {table[name]:>12}")
    return "\n".join(lines)

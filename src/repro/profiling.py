"""Lightweight scheduler profiling: named counters and phase timers.

The scheduler's hot loops account their work into a counter table
(plain ``dict`` increments -- cheap enough to stay always-on at
commit/pass granularity, far above the per-path-evaluation inner
loops).  The CLI ``--profile`` flag and the ``repro profile``
subcommand render the table; benchmarks snapshot it into their metrics
so speedups stay attributable across PRs.

Since the unified observability layer landed, this module is a shim
over :data:`repro.obs.metrics.REGISTRY`: :data:`counters` *is* the
registry's counter dict (same object -- call sites holding a direct
reference keep working, and registry consumers like the service's
``/metrics`` endpoint see every bump).  The public API is unchanged.

Counter names are dotted phases: ``pass.count``, ``engine.commit``,
``restraints.analyze`` ...  Use :func:`reset` around a measured
workload, :func:`snapshot` to read, and :func:`report` for the human
rendering.

The table is intentionally global (not threaded through every call):
scheduling itself is single-threaded per process, and the process
sweep backend's workers each get their own table, whose relevant
entries the parent merges back via :func:`merge`.
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

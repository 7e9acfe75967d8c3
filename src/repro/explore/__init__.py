"""Design-space exploration: microarchitecture/clock sweeps and Pareto
analysis (the paper's Figures 10 and 11).

``SweepResult`` and ``run_sweep`` live in :mod:`repro.flow.executor`
(the parallel executor) and are re-exported here lazily: ``flow``
imports ``explore``'s leaf modules at import time, so the reverse edge
must resolve at attribute-access time.
"""

from repro.explore.microarch import (
    InfeasiblePoint,
    Microarch,
    PAPER_CLOCKS_PS,
    PAPER_MICROARCHS,
    banked_microarchs,
)
from repro.explore.pareto import DesignPoint, group_by_microarch, pareto_front
from repro.explore.record import read_json, write_csv, write_json

#: names resolved from repro.flow.executor on first access (PEP 562).
_LAZY_FLOW_EXPORTS = ("SweepResult", "run_sweep")

__all__ = [
    "DesignPoint",
    "InfeasiblePoint",
    "Microarch",
    "PAPER_CLOCKS_PS",
    "PAPER_MICROARCHS",
    "SweepResult",
    "banked_microarchs",
    "group_by_microarch",
    "read_json",
    "pareto_front",
    "run_sweep",
    "write_csv",
    "write_json",
]


def __getattr__(name: str):
    if name in _LAZY_FLOW_EXPORTS:
        from repro.flow import executor

        value = getattr(executor, name)
        globals()[name] = value  # cache for subsequent lookups
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

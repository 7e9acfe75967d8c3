"""Design-space exploration: microarchitecture/clock sweeps and Pareto
analysis (the paper's Figures 10 and 11).

The sweep itself, ``run_sweep``, lives in :mod:`repro.flow`.
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

__all__ = [
    "DesignPoint",
    "InfeasiblePoint",
    "Microarch",
    "PAPER_CLOCKS_PS",
    "PAPER_MICROARCHS",
    "banked_microarchs",
    "group_by_microarch",
    "read_json",
    "pareto_front",
    "write_csv",
    "write_json",
]

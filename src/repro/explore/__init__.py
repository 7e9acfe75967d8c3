"""Design-space exploration: microarchitecture/clock sweeps and Pareto
analysis (the paper's Figures 10 and 11).

The sweep itself, ``run_sweep``, lives in :mod:`repro.flow`.
"""

from repro.explore.microarch import (
    InfeasiblePoint,
    Microarch,
    PAPER_CLOCKS_PS,
    PAPER_MICROARCHS,
)
from repro.explore.pareto import DesignPoint, group_by_microarch, pareto_front

__all__ = [
    "DesignPoint",
    "InfeasiblePoint",
    "Microarch",
    "PAPER_CLOCKS_PS",
    "PAPER_MICROARCHS",
    "group_by_microarch",
    "pareto_front",
]

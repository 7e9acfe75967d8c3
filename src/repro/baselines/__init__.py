"""Baseline schedulers the paper's approach is compared against."""

from repro.baselines.modulo import ModuloFailure, ModuloResult, modulo_schedule

__all__ = [
    "ModuloFailure",
    "ModuloResult",
    "modulo_schedule",
]

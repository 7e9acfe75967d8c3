"""Power estimation for bound schedules.

Average power of a running loop implementation, the quantity on the y-axis
of the paper's Figure 11:

* **dynamic**: per-iteration switching energy of every bound resource,
  steering mux and register write, spread over the iteration period
  (II_effective x Tclk).  Operations predicated by if-conversion toggle
  only when their branch executes (activity 0.5 by default, as the folded
  stage/predicate gating suppresses the other half).
* **clock**: the clock tree toggles every cycle into every storage bit.
* **leakage**: area-proportional static power of resources, muxes and
  registers.

Units: energies in pJ, time in ps, power reported in mW (1 pJ/ps = 1 W).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.schedule import Schedule

#: fraction of iterations in which a predicated operation actually toggles.
PREDICATED_ACTIVITY = 0.5
#: clock-tree energy per storage bit per cycle, relative to a FF write.
CLOCK_TREE_FACTOR = 0.4


@dataclass
class PowerReport:
    """Average-power breakdown in milliwatts."""

    dynamic_mw: float
    clock_mw: float
    leakage_mw: float

    @property
    def total_mw(self) -> float:
        """Total average power."""
        return self.dynamic_mw + self.clock_mw + self.leakage_mw

    def rows(self):
        """(component, mW) rows for reports."""
        return [
            ("dynamic", self.dynamic_mw),
            ("clock tree", self.clock_mw),
            ("leakage", self.leakage_mw),
            ("total", self.total_mw),
        ]


def estimate_power(schedule: Schedule,
                   activity: float = 1.0) -> PowerReport:
    """Average power of a schedule at full-rate operation.

    ``activity`` scales all data switching (1.0 = a new iteration every
    II cycles, the paper's throughput-oriented operating point).
    """
    lib = schedule.library
    regs = schedule.register_file()
    period_ps = schedule.ii_effective * schedule.clock_ps

    energy_pj = 0.0
    for _uid, bound in schedule.bindings.items():
        op = bound.op
        toggle = activity
        if not op.predicate.is_true:
            toggle *= PREDICATED_ACTIVITY
        if bound.inst is not None:
            energy_pj += bound.inst.rtype.energy_pj * toggle
        elif op.is_mux:
            energy_pj += lib.mux.energy_per_bit_pj * op.width * toggle
    # register writes: every stored value is written once per iteration
    energy_pj += regs.data_bits * lib.ff.energy_per_bit_pj * activity
    dynamic_mw = energy_pj / period_ps * 1000.0

    clock_pj_per_cycle = (regs.total_bits
                          * lib.ff.energy_per_bit_pj * CLOCK_TREE_FACTOR)
    clock_mw = clock_pj_per_cycle / schedule.clock_ps * 1000.0

    leak_uw = sum(inst.rtype.leakage_uw for inst in schedule.pool.instances)
    leak_uw += sum(cfg.banks * cfg.rtype.leakage_uw
                   for cfg in schedule.memories.values())
    leak_uw += lib.ff.leakage_per_bit_uw * regs.total_bits
    area_report = schedule.area_report()
    leak_uw += 0.002 * (area_report.sharing_muxes
                        + area_report.steering_muxes)
    return PowerReport(
        dynamic_mw=dynamic_mw,
        clock_mw=clock_mw,
        leakage_mw=leak_uw / 1000.0,
    )

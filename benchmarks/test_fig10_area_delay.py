"""Figure 10: area/delay curves for the IDCT microarchitectures.

The paper runs 25 HLS + logic synthesis jobs over non-pipelined latencies
8/16/32 and pipelined LI 16/32 (II = LI/2), exploring a 7x throughput and
2x area range.  Key claims reproduced here:

* pipelining improves area at equal throughput (it relaxes the per-state
  combinational depth, so slower/smaller resources suffice);
* the best Pareto point (bottom-left) is reached only by "Pipelined 32";
* non-pipelined configurations need faster clocks (hence bigger cells)
  to reach the same delay.
"""

from repro.explore import (
    PAPER_MICROARCHS,
    group_by_microarch,
    pareto_front,
)
from repro.rtl.reports import format_table, pareto_header
from repro.workloads.idct import build_idct8, build_idct2d

from benchmarks.conftest import FULL, banner

CLOCKS = (1000.0, 1250.0, 1600.0, 2100.0, 2800.0)


def test_fig10(lib, benchmark, idct_sweep):
    points = benchmark.pedantic(lambda: idct_sweep(FULL),
                                rounds=1, iterations=1)
    banner(f"Figure 10: area/delay for IDCT microarchitectures "
           f"({len(points)} of 25 runs feasible)")
    print(format_table(pareto_header(), [p.row() for p in points]))

    curves = group_by_microarch(points)
    front = pareto_front(points, x="delay_ps", y="area")
    print("\nPareto front (delay, area):")
    print(format_table(pareto_header(), [p.row() for p in front]))

    assert len(points) >= 15, "most of the 25-run grid must be feasible"
    # the paper's headline: the best (bottom-left) Pareto point "can be
    # achieved only by pipelining" -- the fastest delay of any
    # non-pipelined configuration must be strictly slower
    fastest = min(points, key=lambda p: (p.delay_ps, p.area))
    assert fastest.microarch.startswith("Pipelined"), \
        "the minimum-delay corner must be pipelined"
    np_best = min(p.delay_ps for p in points
                  if not p.microarch.startswith("Pipelined"))
    assert fastest.delay_ps < np_best, \
        "no non-pipelined configuration may reach the pipelined corner"
    # "pipelining improves area at equal throughput": P-16 and NP-8 have
    # the same II (8) at the same clock, but the pipelined body spreads
    # one iteration over twice the states, relaxing congestion
    p16 = {p.clock_ps: p for p in curves.get("Pipelined 16", [])}
    np8 = {p.clock_ps: p for p in curves.get("Non-Pipelined 8", [])}
    shared = sorted(set(p16) & set(np8))
    assert shared, "P-16 and NP-8 must share feasible clocks"
    wins = sum(1 for c in shared if p16[c].area <= np8[c].area * 1.05)
    assert wins >= (len(shared) + 1) // 2, \
        "pipelining must win area at equal throughput on most shared clocks"
    assert any(p16[c].area < np8[c].area for c in shared), \
        "pipelining must strictly win somewhere"

"""Figure 11: power/delay curves for the same IDCT sweep.

Claims reproduced: the sweep spans a wide (paper: ~20x) power range;
power rises as delay shrinks along every curve; and the low-area
high-performance corner of Figure 10 pays for it in power ("it is the
bottom point of the Pipelined 32 curve").
"""

from repro.explore import PAPER_MICROARCHS, group_by_microarch
from repro.rtl.reports import format_table, pareto_header
from repro.workloads.idct import build_idct8, build_idct2d

from benchmarks.conftest import FULL, banner

CLOCKS = (1000.0, 1250.0, 1600.0, 2100.0, 2800.0)


def test_fig11(lib, benchmark, idct_sweep):
    points = benchmark.pedantic(lambda: idct_sweep(FULL),
                                rounds=1, iterations=1)
    banner("Figure 11: power/delay for IDCT microarchitectures")
    rows = sorted(points, key=lambda p: (p.microarch, p.delay_ps))
    print(format_table(pareto_header(), [p.row() for p in rows]))

    powers = [p.power_mw for p in points]
    spread = max(powers) / min(powers)
    print(f"\npower range: {min(powers):.3f} .. {max(powers):.3f} mW "
          f"({spread:.1f}x; paper explored ~20x)")
    assert spread > 4.0, "the sweep must span a wide power range"

    curves = group_by_microarch(points)
    for name, curve in curves.items():
        if len(curve) < 3:
            continue
        # along a curve, shorter delay must cost more power (monotone
        # within a small tolerance)
        for earlier, later in zip(curve, curve[1:]):
            assert earlier.power_mw >= later.power_mw * 0.85, \
                f"{name}: power must fall as delay grows"
    # the fastest pipelined-32 point is a power hot spot
    p32 = curves.get("Pipelined 32", [])
    if p32:
        hot = p32[0]
        assert hot.power_mw >= max(p.power_mw for p in p32) * 0.99, \
            "the min-delay P-32 point must be its curve's power maximum"

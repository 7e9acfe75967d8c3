"""CHStone-class pyfront kernels: compile → schedule → cycle-accurate
simulation, checked bit-for-bit against executing the Python source
under CPython.

This doubles as the CI smoke lane for the Python-subset frontend: the
three kernels (ADPCM encode, JPEG-style DCT+quantize, a MIPS subset
interpreter) cover loop-carried state, nested-unrolled loops with local
scratch memories, and data-dependent `while` control flow.  Wall times
and schedule figures land in ``BENCH_results.json`` through the
``bench_metrics`` fixture.
"""

from __future__ import annotations

import time

import pytest

from repro.core.scheduler import schedule_region
from repro.tech import LIBRARIES
from repro.workloads import PYFUNC_REGISTRY, check_against_oracle

from benchmarks.conftest import PAPER_CLOCK_PS, banner

KERNELS = ("adpcm", "jpeg_dct", "mips")


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("libname", sorted(LIBRARIES))
def test_pyfront_chstone(kernel, libname, bench_metrics):
    workload = PYFUNC_REGISTRY[kernel]
    lib = LIBRARIES[libname]()

    t0 = time.perf_counter()
    region = workload.build()
    compile_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    schedule = schedule_region(region, lib, PAPER_CLOCK_PS)
    schedule_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    report = check_against_oracle(workload, schedule)
    sim_s = time.perf_counter() - t0

    banner(f"pyfront chstone: {kernel} @ {libname}")
    print(f"  ops={len(region.dfg.ops)} latency={schedule.latency} "
          f"area={schedule.area:.0f}")
    print(f"  compile {compile_s * 1e3:.1f} ms, "
          f"schedule {schedule_s * 1e3:.1f} ms, sim {sim_s * 1e3:.1f} ms")
    print(f"  sim value={report['value']} "
          f"oracle value={report['expected_value']} "
          f"cycles={report['cycles']}")

    assert report["ok"], report

    bench_metrics.update({
        "ops": len(region.dfg.ops),
        "latency": schedule.latency,
        "area": round(schedule.area, 1),
        "sim_cycles": report["cycles"],
        "compile_s": round(compile_s, 4),
        "schedule_s": round(schedule_s, 4),
        "sim_s": round(sim_s, 4),
    })

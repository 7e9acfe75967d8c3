"""Memory-constrained pipelining: banking buys back the II.

The memory-backed dot product issues K loads per vector array per
iteration.  A single-bank single-port RAM serializes them (II >= K);
declaring both vector arrays cyclically banked by K restores II=1, at
the cost of extra RAM periphery.  Every point is verified against the
reference interpreter, so the speedup is real, not a scheduling
artifact.
"""

from repro.cdfg import PipelineSpec
from repro.core.scheduler import SchedulerOptions, schedule_region
from repro.explore import Microarch
from repro.flow import FlowCache
from repro.flow.executor import run_sweep
from repro.rtl.reports import format_table
from repro.sim import simulate_reference, simulate_schedule
from repro.workloads import build_dot_product_mem, reference_dot_product_mem

from benchmarks.conftest import PAPER_CLOCK_PS, banner

K = 2

#: pinned banking: the declared geometry, not the relaxation driver,
#: moves it.
PINNED = SchedulerOptions(allow_banking=False)

BASE = Microarch(f"dot{K} mem II={K}", latency=4, ii=K)
FAST = Microarch(f"dot{K} mem II=1", latency=2, ii=1)


def _single():
    return build_dot_product_mem(k=K)


def _banked():
    return build_dot_product_mem(k=K, banks=K)


def _sweep(lib, cache=None):
    """(single-bank sweep, banked sweep) at the paper clock."""
    return tuple(
        run_sweep(factory, lib, grid, clocks_ps=(PAPER_CLOCK_PS,),
                  options=PINNED, cache=cache)
        for factory, grid in ((_single, (BASE, FAST)), (_banked, (FAST,))))


def test_memory_banking_lowers_ii(lib, benchmark, bench_metrics):
    cache = FlowCache()
    unbanked, banked_sweep = benchmark(_sweep, lib, cache)
    banner("Memory banking: port-constrained II for the dot product")
    infeasible = {q.microarch for q in unbanked.infeasible}

    single = {p.microarch: p for p in unbanked.points}[BASE.name]
    banked = {p.microarch: p for p in banked_sweep.points}[FAST.name]
    rows = [
        ["single bank, II asked = K", single.ii, round(single.area),
         round(single.delay_ps)],
        [f"banked x{K}, II asked = 1", banked.ii, round(banked.area),
         round(banked.delay_ps)],
    ]
    print(format_table(["geometry", "II", "area", "delay_ps"], rows))

    # the unbanked II=1 request is port-starved: infeasible, not mis-bound
    assert FAST.name in infeasible
    # banking measurably lowers II (and hence iteration delay)
    assert single.ii == K
    assert banked.ii == 1
    assert banked.delay_ps < single.delay_ps
    # banking costs RAM periphery: the banked design is larger
    assert banked.area > single.area

    # every feasible point must match the pure-python oracle
    expected = reference_dot_product_mem(k=K)
    assert simulate_reference(_single(), {}).output("y") == expected
    for factory, microarch in ((_single, BASE), (_banked, FAST)):
        region = factory()
        region.min_latency = region.max_latency = microarch.latency
        schedule = schedule_region(region, lib, PAPER_CLOCK_PS,
                                   pipeline=PipelineSpec(ii=microarch.ii),
                                   options=PINNED)
        out = simulate_schedule(schedule, {})
        assert out.output("y") == expected
        assert out.memories["res"] == expected

    bench_metrics.update({
        "ii_single_bank": single.ii,
        "ii_banked": banked.ii,
        "area_single_bank": round(single.area),
        "area_banked": round(banked.area),
        "delay_ratio": round(single.delay_ps / banked.delay_ps, 3),
    })

    # re-sweeping the same grid is served from the flow cache
    before = (cache.hits, cache.misses)
    again = _sweep(lib, cache)
    assert [len(r.points) for r in again] == \
        [len(unbanked.points), len(banked_sweep.points)]
    assert cache.misses == before[1], "re-sweep must not recompile"
    assert cache.hits > before[0]
    print(f"cache after re-sweep: {cache.stats()}")

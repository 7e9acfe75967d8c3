"""Extension ablation: anticipatory sharing muxes (paper section IV.B.1).

"Resource mul is instantiated with muxes at its inputs.  This improves
timing estimation when resources are shared."

Historically the measurable effect was *stale timing queries*: without
anticipation, a binding could be accepted at a delay far below the path
the finished netlist actually had, because sharing muxes appeared after
admission.  The unified timing engine closed that hole structurally --
committed arrivals are re-propagated on every mux birth, so the
stale-query error is now exactly zero in both variants (asserted
below).

What anticipation still buys is *work and quality*: a blind scheduler
keeps committing bindings whose retroactive mux growth breaks a
neighbour, forcing the engine to roll the commit back and the binder to
look elsewhere.  At a tight clock (1000 ps, the Figure-10 corner) the
anticipated scheduler needs zero rollbacks and keeps real margin, while
the blind one churns through hundreds of rollbacks and lands on a
zero-margin, larger layout.

A doomed commit either runs the commit+rollback excursion or, when the
commit-outcome cache already knows it breaks a neighbour, is served
from the cache without it; the churn count is the sum of both.
"""

from repro import profiling
from repro.core import SchedulerOptions, schedule_region
from repro.rtl.reports import format_table
from repro.workloads.idct import build_idct2d

from benchmarks.conftest import banner

TIGHT_CLOCK_PS = 1000.0


def _max_underestimation(schedule) -> float:
    """Worst (audited path - bind-time capture) over all bindings."""
    worst = 0.0
    for _uid, bound in schedule.bindings.items():
        audited = schedule.netlist.audit(bound)
        worst = max(worst, audited.capture_ps - bound.capture_ps)
    return worst


def test_mux_anticipation(lib, benchmark):
    def run_variant(anticipate):
        before = profiling.snapshot()
        schedule = schedule_region(
            build_idct2d(columns=1), lib, TIGHT_CLOCK_PS,
            options=SchedulerOptions(anticipate_muxes=anticipate))
        after = profiling.snapshot()
        # doomed commits: rolled back, or served by the commit-outcome
        # cache (which would otherwise hide the churn)
        doomed = sum(after.get(key, 0) - before.get(key, 0)
                     for key in ("engine.rollback",
                                 "engine.commit_cache_hit"))
        return schedule, doomed

    (with_mux, rb_with), (without, rb_without) = benchmark.pedantic(
        lambda: (run_variant(True), run_variant(False)),
        rounds=1, iterations=1)

    banner("Ablation: anticipatory input sharing muxes (IDCT @ 1000 ps)")
    rows = []
    for name, schedule, rb in (("anticipated (paper)", with_mux, rb_with),
                               ("blind", without, rb_without)):
        rows.append([name, schedule.latency, rb,
                     f"{_max_underestimation(schedule):.0f}",
                     f"{schedule.timing_report().wns_ps:.0f}",
                     f"{schedule.area:.0f}"])
    print(format_table(
        ["variant", "latency", "doomed commits",
         "stale-query error (ps)", "WNS (ps)", "area"], rows))
    print("\nthe engine keeps admission == sign-off in both variants; "
          "anticipation\nis now about avoiding rollback churn and "
          "preserving margin, not accuracy")

    # the unified engine leaves no stale-query error to ablate
    assert _max_underestimation(with_mux) == 0.0
    assert _max_underestimation(without) == 0.0
    # both variants must still meet the clock
    assert with_mux.validate() == []
    assert without.validate() == []
    # anticipation avoids the commit/rollback churn ...
    assert rb_with < rb_without, \
        "anticipation must avoid retroactive mux-birth rollbacks"
    assert rb_without >= 100, \
        "the blind scheduler must visibly churn at the tight clock"
    # ... and keeps real timing margin where the blind result has none
    assert (with_mux.timing_report().wns_ps
            > without.timing_report().wns_ps + 50.0)

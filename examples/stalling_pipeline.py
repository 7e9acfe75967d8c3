"""Stalling loops: pipelines that wait for the outside world.

Section V of the paper: "Nested loops must either be unrolled or
correspond to the 'stalling' of the pipeline (waiting for an external
condition).  The stalling loops are ignored during the scheduling passes
and inserted back in the [control flow graph] during the fold back
step ... no stage must be active while the stalling condition is true."

This example builds a pipelined accumulator with a back-pressure stall
point, folds it, shows the stall position survive to the kernel, and
simulates the pipeline freezing.

Run:  python examples/stalling_pipeline.py
"""

from repro import artisan90, pipeline_loop, simulate_schedule
from repro.cdfg import RegionBuilder


def build_region():
    b = RegionBuilder("stall_demo", is_loop=True, max_latency=8)
    x = b.read("x", 32)
    ready = b.read("downstream_ready", 1)
    stall = b.stall_on(ready, name="backpressure")
    acc = b.loop_var("acc", b.const(0, 32))
    nxt = b.add(acc, b.mul(x, 3))
    acc.set_next(nxt)
    b.write("y", nxt)
    b.set_trip_count(6)
    return b.build(), stall


def main() -> None:
    library = artisan90()
    region, stall = build_region()
    result = pipeline_loop(region, library, 1600.0, ii=1)
    print(f"pipelined at II={result.ii}, LI={result.schedule.latency}, "
          f"stages={result.stages}")
    print("\nkernel with the stall point folded back:")
    print(result.folded.stage_table())
    print(f"stall positions (stage, kernel state): "
          f"{result.folded.stall_positions}")

    inputs = {"x": [1, 2, 3, 4, 5, 6], "downstream_ready": [0] * 6}
    free = simulate_schedule(result.schedule, inputs)
    # the consumer blocks for 4 cycles on iterations 2 and 4
    stalled = simulate_schedule(result.schedule, inputs,
                                stall_ticks={stall.uid: [0, 0, 4, 0, 4, 0]})
    print(f"\nwithout back-pressure: {free.cycles} cycles")
    print(f"with back-pressure   : {stalled.cycles} cycles "
          f"({stalled.stalled_cycles} stalled)")
    assert stalled.output("y") == free.output("y")
    print("outputs identical -- stalling freezes, never corrupts")


if __name__ == "__main__":
    main()

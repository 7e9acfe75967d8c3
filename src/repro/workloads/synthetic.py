"""Synthetic industrial-design generator.

The paper's Figure 9 plots scheduler runtime over ~40 proprietary
industrial designs (filters, FFTs, image processing; 100 to over 6000
operations, average 1400).  Those designs are not available, so this
module generates a deterministic population with the same structural
signature: layered arithmetic dataflow with configurable operation mix,
loop-carried accumulator SCCs with configurable feedback chains, branch
predicates, and a checksum output tree that keeps every value live.

``timing_critical_suite`` builds the seven-design population for the
Table 4 ablation: each design has an SCC whose feedback chain only meets
the clock when the scheduler is free to move the SCC window (the paper's
"seven most timing-critical designs").
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.cdfg.builder import RegionBuilder, Value
from repro.cdfg.region import Region

#: operation mix modeled on filter/FFT/imaging kernels.
_KIND_WEIGHTS = [
    ("add", 0.34), ("sub", 0.16), ("mul", 0.20), ("mux", 0.08),
    ("xor", 0.06), ("and", 0.05), ("shl", 0.04), ("gt", 0.04),
    ("eq", 0.03),
]


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of one generated design."""

    name: str
    seed: int
    n_ops: int
    n_inputs: int = 4
    n_accumulators: int = 2
    #: feedback chain of each accumulator, e.g. ("add",) or ("mul", "add").
    scc_chain: Sequence[str] = ("add",)
    #: dataflow depth in layers; industrial datapaths are wide, not deep.
    depth: int = 10
    #: feed accumulator chains from input ports only (values available at
    #: state 0), making SCC timing depend purely on window placement --
    #: the controlled setting of the Table 4 experiment.
    scc_from_inputs: bool = False
    width: int = 32
    max_latency: int = 48
    trip_count: int = 64


def generate_design(spec: SyntheticSpec) -> Region:
    """Build one deterministic synthetic design (layered dataflow)."""
    rng = random.Random(spec.seed)
    b = RegionBuilder(spec.name, is_loop=True, max_latency=spec.max_latency)
    inputs: List[Value] = [b.read(f"in{i}", spec.width)
                           for i in range(spec.n_inputs)]
    conds: List[Value] = []
    pool: List[Value] = []  # union of earlier layers
    layer: List[Value] = list(inputs)

    accs = []
    for i in range(spec.n_accumulators):
        lv = b.loop_var(f"acc{i}", b.const(rng.randrange(1, 9), spec.width))
        accs.append(lv)
        layer.append(lv.value)

    def pick(rng: random.Random) -> Value:
        # mostly the previous layer (short chains), sometimes further back
        if pool and rng.random() < 0.25:
            return pool[rng.randrange(len(pool))]
        return layer[rng.randrange(len(layer))]

    kinds = [k for k, _w in _KIND_WEIGHTS]
    weights = [w for _k, w in _KIND_WEIGHTS]
    target = max(spec.n_ops - 3 * spec.n_accumulators
                 - len(layer) - 8, 8)
    per_layer = max(target // spec.depth, 1)
    made = 0
    next_layer: List[Value] = []
    while made < target:
        kind = rng.choices(kinds, weights)[0]
        a, c = pick(rng), pick(rng)
        if kind == "add":
            value = b.add(a, c)
        elif kind == "sub":
            value = b.sub(a, c)
        elif kind == "mul":
            value = b.mul(a, c)
        elif kind == "xor":
            value = b.xor(a, c)
        elif kind == "and":
            value = b.and_(a, c)
        elif kind == "shl":
            value = b.shl(a, b.const(rng.randrange(1, 5), 4))
        elif kind == "gt":
            value = b.gt(a, c)
            conds.append(value)
        elif kind == "eq":
            value = b.eq(a, c)
            conds.append(value)
        else:  # mux
            if not conds:
                cond = b.gt(a, c)
                conds.append(cond)
                made += 1
            value = b.mux(conds[rng.randrange(len(conds))], a, c)
        if value.width > 1:
            next_layer.append(value)
        made += 1
        if len(next_layer) >= per_layer:
            pool.extend(layer)
            layer = next_layer or layer
            next_layer = []
    if next_layer:
        pool.extend(layer)
        layer = next_layer
    pool.extend(layer)

    # close accumulator feedback with the configured SCC chain; feedback
    # operands must be independent of the accumulators, otherwise the SCC
    # would swallow whole dependence chains and no II window could hold it
    tainted = {lv.mux.uid for lv in accs}
    for op in b.dfg.topological_order():
        if any(e.src in tainted for e in b.dfg.in_edges(op.uid)
               if e.distance == 0):
            tainted.add(op.uid)
    if spec.scc_from_inputs:
        clean = list(inputs)
    else:
        clean = [v for v in pool if v.op.uid not in tainted] or list(inputs)
    for i, lv in enumerate(accs):
        value = lv.value
        for j, kind in enumerate(spec.scc_chain):
            other = clean[rng.randrange(len(clean))]
            if kind == "mul":
                value = b.mul(value, other, name=f"scc{i}_mul{j}")
            elif kind == "sub":
                value = b.sub(value, other, name=f"scc{i}_sub{j}")
            else:
                value = b.add(value, other, name=f"scc{i}_add{j}")
        lv.set_next(value)
        pool.append(value)

    # balanced checksum tree keeps every sink alive with log-depth fanin
    consumed = set()
    for op in b.dfg.ops:
        for edge in b.dfg.in_edges(op.uid):
            consumed.add(edge.src)
    level = [v for v in pool if v.op.uid not in consumed] or [pool[-1]]
    while len(level) > 1:
        nxt = [b.xor(level[i], level[i + 1])
               for i in range(0, len(level) - 1, 2)]
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    b.write("sig", level[0])
    b.set_trip_count(spec.trip_count)
    return b.build()


def industrial_suite(n_designs: int = 40, seed: int = 2011,
                     min_ops: int = 100,
                     max_ops: int = 6000) -> List[Tuple[SyntheticSpec, Region]]:
    """The Figure 9 population: sizes log-spaced 100..6000 operations.

    Execution time in the paper does not correlate with size but with
    constraint tightness; the population therefore varies accumulator
    count and SCC chains independently of size.
    """
    rng = random.Random(seed)
    designs: List[Tuple[SyntheticSpec, Region]] = []
    for i in range(n_designs):
        frac = i / max(n_designs - 1, 1)
        n_ops = int(min_ops * (max_ops / min_ops) ** frac)
        chain = rng.choice([("add",), ("add", "add"), ("mul",),
                            ("add", "mul")])
        spec = SyntheticSpec(
            name=f"ind{i:02d}",
            seed=seed * 1000 + i,
            n_ops=n_ops,
            n_inputs=max(3, n_ops // 60),
            n_accumulators=1 + rng.randrange(3),
            scc_chain=chain,
            max_latency=48,
            trip_count=32,
        )
        designs.append((spec, generate_design(spec)))
    return designs


def timing_critical_suite(seed: int = 7) -> List[Tuple[str, Region, float, int]]:
    """The Table 4 population: 7 pipelined designs with SCCs whose
    placement decides timing closure.

    Each design embeds the paper's Example 1 mechanics -- an accumulator
    SCC fed by a chained multiply, so the dependency-anchored (timing
    blind) window position violates the clock while a moved window meets
    it -- inside a feedforward side dataflow that scales the total area.
    The chain composition (adder-only vs multiply-bearing) controls how
    much area the compensation step must spend, spreading the penalties
    across the paper's 2..35 % band.

    Returns ``(name, region, clock_ps, ii)`` tuples.
    """
    # every design keeps its *registered* SCC chain within one state
    # (II=1), while the dependency-anchored chained version violates the
    # clock -- the Example 3 mechanism at varying scale and chain cost:
    # ('mul',) registered needs 1580 ps, ('add',) 1000 ps, ('add','add')
    # 1350 ps; the blind anchor chains the delta multiply on top.
    configs = [
        # name, scc kinds,   cores, side ops, clock,  ii
        ("D1", ("mul",), 2, 60, 1600.0, 1),
        ("D2", ("add",), 1, 90, 1600.0, 1),
        ("D3", ("mul",), 2, 22, 1600.0, 1),
        ("D4", ("add", "add"), 2, 30, 1450.0, 1),
        ("D5", ("add",), 1, 150, 1250.0, 1),
        ("D6", ("add", "add"), 1, 120, 1600.0, 1),
        ("D7", ("mul",), 2, 80, 1600.0, 1),
    ]
    out: List[Tuple[str, Region, float, int]] = []
    for i, (name, chain, cores, side_ops, clock, ii) in enumerate(configs):
        region = build_timing_critical(name, chain, side_ops,
                                       seed=seed * 100 + i,
                                       n_cores=cores)
        out.append((name, region, clock, ii))
    return out


def build_timing_critical(name: str, scc_chain: Sequence[str],
                          side_ops: int, seed: int,
                          width: int = 32, n_cores: int = 1) -> Region:
    """One Table 4 design: an Example-1-style SCC plus side dataflow.

    The SCC consumes ``delta = in0 * in1`` -- chained, the multiply's
    arrival pushes the accumulator chain past the clock (the blind
    anchor's mistake); registered (window moved one state later) it
    fits.
    """
    rng = random.Random(seed)
    b = RegionBuilder(name, is_loop=True, min_latency=1, max_latency=24)
    ins = [b.read(f"in{i}", width) for i in range(6)]
    for c in range(n_cores):
        # --- one Example 1 core ---------------------------------------
        delta = b.mul(ins[c % 2], ins[(c + 1) % 3], name=f"c{c}_mul1")
        acc = b.loop_var(f"acc{c}", b.const(0, width))
        summed = b.add(acc, delta, name=f"c{c}_add")
        value = summed
        for j, kind in enumerate(scc_chain):
            if kind == "mul":
                value = b.mul(value, ins[2], name=f"c{c}_scc_mul{j}")
            else:
                value = b.add(value, ins[3], name=f"c{c}_scc_add{j}")
        # like Example 1, the comparison reads the pre-chain sum so it
        # stays off the critical path of the single-state kernel
        over = b.gt(summed, ins[4], name=f"c{c}_gt")
        nxt = b.mux(over, value, summed, name=f"c{c}_mux")
        acc.set_next(nxt)
        b.write(f"out{c}", b.mul(nxt, ins[0], name=f"c{c}_mul3"))
    # --- feedforward side dataflow ------------------------------------
    pool = list(ins)
    sinks = []
    for k in range(side_ops):
        x = pool[rng.randrange(len(pool))]
        y = pool[rng.randrange(len(pool))]
        choice = rng.random()
        if choice < 0.25:
            v = b.mul(x, y, name=f"side_mul{k}")
        elif choice < 0.7:
            v = b.add(x, y, name=f"side_add{k}")
        else:
            v = b.xor(x, y, name=f"side_xor{k}")
        pool.append(v)
        sinks.append(v)
    level = sinks or [pool[-1]]
    while len(level) > 1:
        level = ([b.xor(level[i], level[i + 1])
                  for i in range(0, len(level) - 1, 2)]
                 + ([level[-1]] if len(level) % 2 else []))
    b.write("sig", level[0])
    b.set_trip_count(32)
    return b.build()

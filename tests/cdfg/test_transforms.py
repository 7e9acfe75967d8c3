"""Optimizer passes: folding, DCE, CSE, strength reduction."""

from repro.cdfg import OpKind, RegionBuilder
from repro.cdfg.transforms import (
    common_subexpressions,
    constant_fold,
    copy_propagate,
    dead_code_elimination,
    optimize,
    strength_reduction,
    tighten_operand_widths,
)
from repro.sim import simulate_reference


def _sem(region, inputs, n):
    return simulate_reference(region, inputs, max_iterations=n).outputs


def test_constant_fold():
    b = RegionBuilder("t", is_loop=False)
    x = b.read("x", 16)
    c = b.add(b.const(3, 16), b.const(4, 16))  # 7 at compile time
    b.write("y", b.mul(x, c))
    region = b.build()
    assert constant_fold(region) == 1
    consts = {op.payload for op in region.dfg.ops_of_kind(OpKind.CONST)}
    assert 7 in consts
    assert not region.dfg.ops_of_kind(OpKind.ADD)


def test_constant_fold_preserves_semantics():
    def build():
        b = RegionBuilder("t", is_loop=False)
        x = b.read("x", 16)
        b.write("y", b.add(x, b.mul(b.const(2, 16), b.const(5, 16))))
        return b.build()
    before = _sem(build(), {"x": [4]}, 1)
    region = build()
    optimize(region)
    assert _sem(region, {"x": [4]}, 1) == before


def test_dead_code_elimination():
    b = RegionBuilder("t", is_loop=False)
    x = b.read("x", 16)
    b.mul(x, x, name="dead")  # never consumed
    b.write("y", b.add(x, 1))
    region = b.build()
    removed = dead_code_elimination(region)
    assert removed >= 1
    assert not any(op.name == "dead" for op in region.dfg.ops)


def test_dce_keeps_exit_test_and_stall():
    b = RegionBuilder("t")
    x = b.read("x", 16)
    acc = b.loop_var("acc", b.const(0, 16))
    acc.set_next(b.add(acc, x))
    b.write("y", acc.value)
    cont = b.neq(x, 0)
    b.exit_when_false(cont)
    region = b.build()
    dead_code_elimination(region)
    assert region.exit_op_uid in region.dfg


def test_cse_merges_duplicates():
    b = RegionBuilder("t", is_loop=False)
    x = b.read("x", 16)
    y = b.read("y", 16)
    a = b.mul(x, y)
    c = b.mul(x, y)  # duplicate
    d = b.mul(y, x)  # commutative duplicate
    b.write("o", b.add(b.add(a, c), d))
    region = b.build()
    merged = common_subexpressions(region)
    assert merged == 2
    assert len(region.dfg.ops_of_kind(OpKind.MUL)) == 1


def test_cse_respects_distance():
    b = RegionBuilder("t")
    x = b.read("x", 16)
    acc = b.loop_var("acc", b.const(0, 16))
    v1 = b.add(acc, x)
    acc.set_next(v1)
    b.write("y", v1)
    region = b.build()
    # nothing to merge; must not crash on carried edges
    common_subexpressions(region)
    region.dfg.validate()


def test_strength_reduction_power_of_two():
    b = RegionBuilder("t", is_loop=False)
    x = b.read("x", 16)
    b.write("y", b.mul(x, b.const(8, 16)))
    region = b.build()
    assert strength_reduction(region) == 1
    assert not region.dfg.ops_of_kind(OpKind.MUL)
    assert region.dfg.ops_of_kind(OpKind.SHL)
    out = _sem(region, {"x": [5]}, 1)
    assert out["y"] == [40]


def test_strength_reduction_identities():
    b = RegionBuilder("t", is_loop=False)
    x = b.read("x", 16)
    one = b.mul(x, b.const(1, 16))
    zero = b.mul(x, b.const(0, 16))
    plus0 = b.add(x, b.const(0, 16))
    b.write("a", one)
    b.write("b", zero)
    b.write("c", plus0)
    region = b.build()
    assert strength_reduction(region) == 3
    copy_propagate(region)
    out = _sem(region, {"x": [9]}, 1)
    assert (out["a"], out["b"], out["c"]) == ([9], [0], [9])


def test_copy_propagation_removes_moves():
    b = RegionBuilder("t", is_loop=False)
    x = b.read("x", 16)
    b.write("y", b.mul(x, b.const(1, 16)))
    region = b.build()
    strength_reduction(region)
    assert region.dfg.ops_of_kind(OpKind.MOVE)
    assert copy_propagate(region) == 1
    assert not region.dfg.ops_of_kind(OpKind.MOVE)


def test_width_tightening():
    b = RegionBuilder("t", is_loop=False)
    x = b.read("x", 32)
    m = b.mul(x, b.const(3, 32))  # constant only needs 3 bits
    b.write("y", m)
    region = b.build()
    assert tighten_operand_widths(region) >= 1
    mul = region.dfg.ops_of_kind(OpKind.MUL)[0]
    assert mul.operand_widths[1] <= 3


def test_optimize_pipeline_reaches_fixpoint():
    b = RegionBuilder("t", is_loop=False)
    x = b.read("x", 16)
    v = b.add(b.mul(x, b.const(4, 16)), b.const(0, 16))
    dup = b.add(b.mul(x, b.const(4, 16)), b.const(0, 16))
    b.write("y", b.add(v, dup))
    region = b.build()
    stats = optimize(region)
    assert sum(stats.values()) > 0
    region.dfg.validate()
    assert _sem(region, {"x": [3]}, 1)["y"] == [24]

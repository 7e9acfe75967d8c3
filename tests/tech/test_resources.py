"""Resource instances and pools: occupancy, exclusivity, regrading."""

import pytest

from repro.cdfg import OpKind, Predicate
from repro.cdfg.dfg import DFG
from repro.tech import ResourcePool, artisan90


@pytest.fixture()
def lib():
    return artisan90()


def _op(dfg, kind=OpKind.MUL, pred=None, width=32):
    op = dfg.add_op(kind, width, predicate=pred)
    op.operand_widths = (width, width)
    return op


def test_instance_naming_stable_across_regrade(lib):
    pool = ResourcePool()
    inst = pool.add(lib.typical(OpKind.MUL, 32))
    name_before = inst.name
    pool.regrade(inst, lib.regrade(inst.rtype, "ultra"))
    assert inst.name == name_before
    assert inst.rtype.grade == "ultra"


def test_regrade_rejects_other_family(lib):
    pool = ResourcePool()
    inst = pool.add(lib.typical(OpKind.MUL, 32))
    with pytest.raises(ValueError):
        pool.regrade(inst, lib.typical(OpKind.ADD, 32))


def test_occupancy_conflict(lib):
    dfg = DFG("t")
    pool = ResourcePool()
    inst = pool.add(lib.typical(OpKind.MUL, 32))
    op1, op2 = _op(dfg), _op(dfg)
    inst.occupy(op1, [0, 2])
    assert not inst.is_free(op2, [2])
    assert inst.is_free(op2, [1])
    with pytest.raises(ValueError):
        inst.occupy(op2, [2])


def test_mutually_exclusive_ops_share_state(lib):
    dfg = DFG("t")
    pool = ResourcePool()
    inst = pool.add(lib.typical(OpKind.MUL, 32))
    taken = _op(dfg, pred=Predicate.of((99, True)))
    nottaken = _op(dfg, pred=Predicate.of((99, False)))
    inst.occupy(taken, [1])
    assert inst.is_free(nottaken, [1])
    inst.occupy(nottaken, [1])
    assert len(inst.occupants(1)) == 2


def test_pool_compatible_filters_by_kind_and_width(lib):
    dfg = DFG("t")
    pool = ResourcePool()
    mul32 = pool.add(lib.typical(OpKind.MUL, 32))
    add32 = pool.add(lib.typical(OpKind.ADD, 32))
    mul_op = _op(dfg, OpKind.MUL)
    add_op = _op(dfg, OpKind.ADD)
    wide = _op(dfg, OpKind.MUL, width=64)
    assert pool.compatible(mul_op) == [mul32]
    assert pool.compatible(add_op) == [add32]
    assert pool.compatible(wide) == []  # 64-bit op does not fit 32-bit mul


def test_pool_counting_and_area(lib):
    pool = ResourcePool()
    pool.add(lib.typical(OpKind.MUL, 32))
    pool.add(lib.typical(OpKind.MUL, 32))
    pool.add(lib.typical(OpKind.ADD, 32))
    assert pool.count("mul", 32) == 2
    assert pool.count("add", 32) == 1
    assert len(pool) == 3
    assert pool.total_area() == pytest.approx(2 * 6996.0 + 1124.0)
    assert pool.summary() == {"add_32": 1, "mul_32": 2}

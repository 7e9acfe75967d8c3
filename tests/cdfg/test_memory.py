"""Memory declarations, bank analysis and dependence-edge emission."""

import pytest

from repro.cdfg import DFGError, OpKind, RegionBuilder
from repro.cdfg.memory import (
    MemoryDecl,
    MemoryError_,
    min_conflict_distance,
    static_bank,
)


def _order_edges(region):
    return [(e.src, e.dst, e.distance, e.min_gap)
            for op in region.dfg.ops
            for e in region.dfg.in_edges(op.uid) if e.order]


# ----------------------------------------------------------------------
# declarations
# ----------------------------------------------------------------------
def test_memory_decl_validation():
    with pytest.raises(MemoryError_):
        MemoryDecl("a", depth=0, width=32)
    with pytest.raises(MemoryError_):
        MemoryDecl("a", depth=8, width=32, banks=16)
    with pytest.raises(MemoryError_):
        MemoryDecl("a", depth=8, width=32, ports=3)
    with pytest.raises(MemoryError_):
        MemoryDecl("a", depth=2, width=32, init=(1, 2, 3))
    decl = MemoryDecl("a", depth=10, width=16, banks=4, init=(7,))
    assert decl.bank_depth == 3
    assert decl.bits == 160
    assert decl.contents() == (7,) + (0,) * 9


def test_array_redeclaration_rejected():
    b = RegionBuilder("m", is_loop=True)
    b.array("a", 8)
    with pytest.raises(DFGError):
        b.array("a", 8)


def test_load_width_must_match_decl():
    b = RegionBuilder("m", is_loop=True)
    a = b.array("a", 8, width=16)
    v = b.load(a, offset=0, stride=1)
    assert v.width == 16
    b.write("y", v)
    b.set_trip_count(8)
    region = b.build()
    region.dfg.op(v.op.uid).width = 32  # corrupt
    with pytest.raises(DFGError):
        region.validate()


def test_undeclared_memory_rejected():
    b = RegionBuilder("m", is_loop=True)
    with pytest.raises(DFGError):
        b.load("ghost", offset=0)


# ----------------------------------------------------------------------
# bank analysis
# ----------------------------------------------------------------------
def test_static_bank_requires_stride_multiple():
    b = RegionBuilder("m", is_loop=True)
    a = b.array("a", 16, banks=2)
    aligned = b.load(a, offset=3, stride=4)
    drifting = b.load(a, offset=0, stride=1)
    assert static_bank(aligned.op, 2, dynamic=False) == 1
    assert static_bank(drifting.op, 2, dynamic=False) is None
    assert static_bank(aligned.op, 2, dynamic=True) is None
    assert static_bank(drifting.op, 1, dynamic=False) == 0


def test_min_conflict_distance_affine():
    b = RegionBuilder("m", is_loop=True)
    a = b.array("a", 16)
    ld = b.load(a, offset=0, stride=2)      # addr = 2k
    st = b.store(a, 1, offset=4, stride=2)  # addr = 2k + 4
    # st@k touches what ld reads at k+2: ld of iter k reads addr of
    # st at iter k-(-2)... forward: st(earlier none). Check both:
    assert min_conflict_distance(st, False, ld.op, False, 1, lo=0) == 2
    assert min_conflict_distance(ld.op, False, st, False, 1, lo=1) is None


# ----------------------------------------------------------------------
# dependence-edge emission
# ----------------------------------------------------------------------
def test_raw_war_waw_edges():
    b = RegionBuilder("m", is_loop=True)
    a = b.array("a", 8)
    ld = b.load(a, offset=0, stride=1, name="ld")
    st = b.store(a, b.add(ld, 1), offset=0, stride=1, name="st")
    b.write("y", ld)
    b.set_trip_count(8)
    region = b.build()
    edges = _order_edges(region)
    # same-iteration WAR (ld -> st, gap 0) and carried RAW
    # (st of iter k-1 wrote addr k-1; ld of iter k reads addr k -> no
    # carried RAW since addresses differ by the stride... the pair
    # conflicts only at distance 0 (same address same iteration)
    assert (ld.op.uid, st.uid, 0, 0) in edges


def test_store_store_waw_edge():
    b = RegionBuilder("m", is_loop=True)
    a = b.array("a", 8)
    s1 = b.store(a, 1, offset=0, stride=1, name="s1")
    s2 = b.store(a, 2, offset=0, stride=1, name="s2")
    b.write("y", b.const(0, 32))
    b.set_trip_count(8)
    region = b.build()
    assert (s1.uid, s2.uid, 0, 1) in _order_edges(region)


def test_carried_raw_for_constant_address():
    b = RegionBuilder("m", is_loop=True)
    a = b.array("a", 8)
    ld = b.load(a, 3, name="ld")          # constant address 3
    st = b.store(a, b.add(ld, 1), 3, name="st")
    b.write("y", ld)
    b.set_trip_count(8)
    region = b.build()
    edges = _order_edges(region)
    assert (ld.op.uid, st.uid, 0, 0) in edges       # WAR, same iter
    assert (st.uid, ld.op.uid, 1, 1) in edges       # RAW, next iter


def test_banking_relaxes_dependence_edges():
    def build(banks):
        b = RegionBuilder("m", is_loop=True)
        a = b.array("a", 8, banks=banks)
        st = b.store(a, 5, offset=0, stride=2, name="st")
        ld = b.load(a, offset=1, stride=2, name="ld")
        b.write("y", ld)
        b.set_trip_count(4)
        return b.build()

    # single bank: the pair may alias (conservative for the tool's
    # affine test? offsets 0 vs 1 with equal strides never collide)
    banked = build(2)
    assert _order_edges(banked) == []


def test_dynamic_address_is_conservative():
    b = RegionBuilder("m", is_loop=True)
    a = b.array("a", 8, banks=2)
    idx = b.read("idx", 3)
    st = b.store(a, 1, idx, name="st")
    ld = b.load(a, offset=0, stride=2, name="ld")
    b.write("y", ld)
    b.set_trip_count(4)
    region = b.build()
    edges = _order_edges(region)
    assert (st.uid, ld.op.uid, 0, 1) in edges  # RAW, may alias
    assert region.access_is_dynamic(st)
    assert not region.access_is_dynamic(ld.op)


def test_loads_never_conflict():
    b = RegionBuilder("m", is_loop=True)
    a = b.array("a", 8)
    l1 = b.load(a, offset=0, stride=1)
    l2 = b.load(a, offset=0, stride=1)
    b.write("y", b.add(l1, l2))
    b.set_trip_count(4)
    assert _order_edges(b.build()) == []


# ----------------------------------------------------------------------
# transforms
# ----------------------------------------------------------------------
def test_dead_code_keeps_stores():
    b = RegionBuilder("m", is_loop=True)
    a = b.array("a", 8)
    b.store(a, 7, offset=0, stride=1, name="st")
    b.write("y", b.const(1, 32))
    b.set_trip_count(4)
    region = b.build()
    from repro.cdfg.transforms.dead_code import dead_code_elimination
    dead_code_elimination(region)
    assert region.dfg.ops_of_kind(OpKind.STORE)


def test_cse_never_merges_loads():
    b = RegionBuilder("m", is_loop=True)
    a = b.array("a", 8)
    l1 = b.load(a, offset=0, stride=1)
    st = b.store(a, 9, offset=0, stride=1)
    l2 = b.load(a, offset=0, stride=1)
    b.write("y", b.add(l1, l2))
    b.set_trip_count(4)
    region = b.build()
    from repro.cdfg.transforms.cse import common_subexpressions
    assert common_subexpressions(region) == 0
    assert len(region.dfg.ops_of_kind(OpKind.LOAD)) == 2

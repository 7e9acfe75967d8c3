"""DFG structure: edges, validation, SCCs, topological order."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cdfg import DFG, DFGError, OpKind
from repro.cdfg.builder import RegionBuilder


def _simple_dfg():
    dfg = DFG("t")
    a = dfg.add_op(OpKind.READ, 32, payload="a")
    b = dfg.add_op(OpKind.READ, 32, payload="b")
    s = dfg.add_op(OpKind.ADD, 32)
    s.operand_widths = (32, 32)
    dfg.connect(a, s, 0)
    dfg.connect(b, s, 1)
    w = dfg.add_op(OpKind.WRITE, 32, payload="y")
    dfg.connect(s, w, 0)
    return dfg, (a, b, s, w)


def test_add_and_connect():
    dfg, (a, b, s, w) = _simple_dfg()
    assert len(dfg) == 4
    assert [e.src for e in dfg.in_edges(s.uid)] == [a.uid, b.uid]
    assert dfg.operand(s.uid, 1) is b
    dfg.validate()


def test_duplicate_port_rejected():
    dfg, (a, b, s, w) = _simple_dfg()
    with pytest.raises(DFGError):
        dfg.connect(a, s, 0)


def test_arity_validation():
    dfg = DFG("t")
    s = dfg.add_op(OpKind.ADD, 32)
    with pytest.raises(DFGError):
        dfg.validate()  # ADD needs 2 inputs


def test_write_must_be_sink():
    dfg, (a, b, s, w) = _simple_dfg()
    extra = dfg.add_op(OpKind.NEG, 32)
    dfg.connect(w, extra, 0)
    with pytest.raises(DFGError):
        dfg.validate()


def test_carried_edge_only_into_loopmux():
    dfg, (a, b, s, w) = _simple_dfg()
    bad = dfg.add_op(OpKind.NEG, 32)
    dfg.connect(s, bad, 0, distance=1)
    with pytest.raises(DFGError):
        dfg.validate()


def test_loopmux_needs_distance_one():
    dfg = DFG("t")
    c = dfg.add_op(OpKind.CONST, 32, payload=0)
    m = dfg.add_op(OpKind.LOOPMUX, 32)
    n = dfg.add_op(OpKind.NEG, 32)
    dfg.connect(c, m, 0)
    dfg.connect(m, n, 0)
    dfg.connect(n, m, 1)  # distance 0: illegal
    with pytest.raises(DFGError):
        dfg.validate()


def test_topological_order_respects_deps():
    dfg, (a, b, s, w) = _simple_dfg()
    order = [op.uid for op in dfg.topological_order()]
    assert order.index(a.uid) < order.index(s.uid) < order.index(w.uid)


def test_intra_iteration_cycle_detected():
    dfg = DFG("t")
    x = dfg.add_op(OpKind.NEG, 32)
    y = dfg.add_op(OpKind.NEG, 32)
    dfg.connect(x, y, 0)
    dfg.connect(y, x, 0)
    with pytest.raises(DFGError):
        dfg.topological_order()


def test_sccs_found_through_carried_edges():
    b = RegionBuilder("acc")
    x = b.read("x", 32)
    acc = b.loop_var("acc", b.const(0, 32))
    nxt = b.add(acc, x)
    acc.set_next(nxt)
    b.write("y", nxt)
    region = b.build()
    sccs = region.dfg.sccs()
    assert len(sccs) == 1
    names = {region.dfg.op(u).name for u in sccs[0]}
    assert "acc_loopmux" in names
    assert any(n.startswith("add") for n in names)


def test_no_scc_without_feedback():
    dfg, _ops = _simple_dfg()
    assert dfg.sccs() == []


def test_replace_input():
    dfg, (a, b, s, w) = _simple_dfg()
    c = dfg.add_op(OpKind.READ, 32, payload="c")
    dfg.replace_input(s, 1, c)
    assert dfg.operand(s.uid, 1) is c
    assert s.uid not in [e.dst for e in dfg.out_edges(b.uid)]


def test_remove_op_requires_disconnect():
    dfg, (a, b, s, w) = _simple_dfg()
    with pytest.raises(DFGError):
        dfg.remove_op(s)
    for e in list(dfg.in_edges(s.uid)) + list(dfg.out_edges(s.uid)):
        dfg.disconnect(e)
    dfg.remove_op(s)
    assert s.uid not in dfg


def test_fanout_cone_size():
    dfg, (a, b, s, w) = _simple_dfg()
    assert dfg.fanout_cone_size(a.uid) == 2  # s and w
    assert dfg.fanout_cone_size(w.uid) == 0


@st.composite
def _digraphs(draw):
    """(node count, edge list) over at most 9 nodes; self-loops and
    parallel edges included."""
    n = draw(st.integers(1, 9))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)),
                          max_size=3 * n))
    return n, edges


def _reachability(n, edges):
    """reach[u] = nodes reachable from u by one or more edges."""
    reach = [set() for _ in range(n)]
    for src, dst in edges:
        reach[src].add(dst)
    for mid in range(n):  # Warshall
        for src in range(n):
            if mid in reach[src]:
                reach[src] |= reach[mid]
    return reach


@given(_digraphs())
def test_sccs_match_mutual_reachability_oracle(graph):
    n, edges = graph
    dfg = DFG("random")
    ops = [dfg.add_op(OpKind.ADD, 8) for _ in range(n)]
    for port, (src, dst) in enumerate(edges):
        dfg.connect(ops[src], ops[dst], port, distance=1)
    reach = _reachability(n, edges)
    # u, v share a non-trivial component iff each reaches the other;
    # a lone node counts only when it reaches itself (a self-loop cycle)
    expected = []
    for u in range(n):
        comp = {v for v in range(n)
                if v == u or (v in reach[u] and u in reach[v])}
        if min(comp) == u and (len(comp) > 1 or u in reach[u]):
            expected.append({ops[v].uid for v in comp})
    assert dfg.sccs() == expected


def test_stats():
    dfg, _ = _simple_dfg()
    stats = dfg.stats()
    assert stats["total"] == 4
    assert stats["read"] == 2
    assert stats["edges"] == 3


def test_to_networkx_roundtrip():
    dfg, _ = _simple_dfg()
    graph = dfg.to_networkx()
    assert graph.number_of_nodes() == 4
    assert graph.number_of_edges() == 3

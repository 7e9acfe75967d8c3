"""False combinational cycle detection (paper Figure 6)."""

from hypothesis import given, settings, strategies as st

from repro.timing.cycles import CombCycleGuard

from tests.conftest import property_examples


def test_no_cycle_on_dag_edges():
    guard = CombCycleGuard()
    assert not guard.would_cycle([("a", "b")])
    guard.commit([("a", "b")])
    assert not guard.would_cycle([("b", "c")])
    guard.commit([("b", "c")])
    assert not guard.would_cycle([("a", "c")])


def test_direct_cycle_detected():
    guard = CombCycleGuard()
    guard.commit([("a", "b")])
    assert guard.would_cycle([("b", "a")])


def test_figure6_scenario():
    """s1: add16 chains into add32; s2: add32 chains into add16 ->
    the second binding closes a false combinational cycle and must be
    rejected even though no control state sensitizes both paths."""
    guard = CombCycleGuard()
    guard.commit([("add_16#0", "add_32#0")])  # s1: y = x + c
    assert guard.would_cycle([("add_32#0", "add_16#0")])  # s2: v = w[15:0]+q
    # using a fresh adder instead avoids the cycle (the paper's fix)
    assert not guard.would_cycle([("add_32#0", "add_16#1")])


def test_transitive_cycle():
    guard = CombCycleGuard()
    guard.commit([("a", "b"), ("b", "c")])
    assert guard.would_cycle([("c", "a")])


def test_self_edge_is_cycle():
    guard = CombCycleGuard()
    assert guard.would_cycle([("x", "x")])


def test_would_cycle_does_not_mutate():
    guard = CombCycleGuard()
    guard.commit([("a", "b")])
    assert guard.would_cycle([("b", "a")])
    # the query must not have inserted anything: b still reaches nothing
    assert not guard.would_cycle([("c", "b")])
    assert not guard.would_cycle([("a", "b")])


def test_multi_edge_batch_checked_together():
    guard = CombCycleGuard()
    # the two new edges are individually fine but jointly cyclic
    assert guard.would_cycle([("p", "q"), ("q", "p")])
    # ... and the rejected batch left no edge behind
    assert not guard.would_cycle([("p", "q")])
    assert not guard.would_cycle([("q", "p")])


def test_same_destination_batch():
    guard = CombCycleGuard()
    guard.commit([("d", "x"), ("x", "y")])
    assert not guard.would_cycle([("a", "d"), ("b", "d")])
    assert guard.would_cycle([("a", "d"), ("y", "d")])
    assert guard.would_cycle([("a", "d"), ("d", "d")])


def test_batch_chains_through_earlier_edges():
    guard = CombCycleGuard()
    # w -> x (second edge) -> y (first edge) closes with y -> w
    assert guard.would_cycle([("x", "y"), ("w", "x"), ("y", "w")])
    guard.commit([("y", "z")])
    assert guard.would_cycle([("x", "y"), ("w", "x"), ("z", "w")])
    assert not guard.would_cycle([("x", "y"), ("w", "x"), ("z", "v")])


def _brute_force_cycle(edges, new_edges):
    """Reference: DFS over the committed edges plus the whole batch."""
    succs = {}
    for src, dst in list(edges) + list(new_edges):
        succs.setdefault(src, set()).add(dst)
    for src, dst in new_edges:
        seen, stack = set(), [dst]
        while stack:
            cur = stack.pop()
            if cur == src:
                return True
            if cur not in seen:
                seen.add(cur)
                stack.extend(succs.get(cur, ()))
    return False


_NODE = st.sampled_from("abcdefg")
_BATCH = st.one_of(
    # same destination (the scheduler's chain batches)
    st.tuples(st.lists(_NODE, min_size=1, max_size=4), _NODE).map(
        lambda t: [(src, t[1]) for src in t[0]]),
    # arbitrary destinations, self edges included
    st.lists(st.tuples(_NODE, _NODE), min_size=0, max_size=4),
)


@given(steps=st.lists(st.tuples(st.booleans(), _BATCH), max_size=30))
@settings(max_examples=property_examples(200), deadline=None)
def test_would_cycle_matches_brute_force(steps):
    """Over random commit/query sequences, the incremental closure
    answers every query exactly as a DFS over the committed edges
    plus the batch does -- also once a committed batch closed a cycle,
    which the scheduler itself never commits."""
    guard = CombCycleGuard()
    edges = []
    for commit, batch in steps:
        expected = _brute_force_cycle(edges, batch)
        assert guard.would_cycle(batch) == expected
        if commit:
            guard.commit(batch)
            edges.extend(batch)

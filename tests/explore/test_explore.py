"""Design-space exploration: sweeps and Pareto analysis."""

from hypothesis import given, settings, strategies as st
import pytest

from repro.explore import (
    DesignPoint,
    InfeasiblePoint,
    Microarch,
    group_by_microarch,
    pareto_front,
)
from repro.explore.pareto import dominates
from repro.flow import run_sweep, synthesize_design_point
from repro.tech import artisan90
from repro.workloads.fir import build_fir


@pytest.fixture(scope="module")
def lib():
    return artisan90()


def _pt(label, delay, area, power=1.0):
    return DesignPoint(label=label, microarch=label, clock_ps=1000.0,
                       ii=1, latency=1, delay_ps=delay, area=area,
                       power_mw=power)


def _naive_front(points, metrics):
    """The quadratic reference implementation the sweep replaced."""
    out = [p for p in points
           if not any(dominates(q, p, metrics) for q in points)]
    out.sort(key=lambda p: getattr(p, metrics[0]))
    return out


def test_pareto_front_filters_dominated():
    pts = [_pt("a", 10, 10), _pt("b", 20, 5), _pt("c", 20, 20),
           _pt("d", 5, 30)]
    front = pareto_front(pts)
    assert [p.label for p in front] == ["d", "a", "b"]


def test_pareto_front_keeps_ties():
    pts = [_pt("a", 10, 10), _pt("b", 10, 10)]
    assert len(pareto_front(pts)) == 2


def test_pareto_front_empty():
    assert pareto_front([]) == []


@given(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)),
                max_size=40))
@settings(max_examples=120, deadline=None)
def test_pareto_front_matches_naive_reference(coords):
    pts = [_pt(f"p{i}", float(d), float(a))
           for i, (d, a) in enumerate(coords)]
    assert {p.label for p in pareto_front(pts)} == \
        {p.label for p in _naive_front(pts, ("delay_ps", "area"))}


def test_dominates_requires_strict_improvement():
    assert dominates(_pt("a", 1, 1), _pt("b", 1, 2))
    assert not dominates(_pt("a", 1, 1), _pt("b", 1, 1))
    assert not dominates(_pt("a", 1, 5), _pt("b", 5, 1))


@pytest.mark.parametrize("latency,ii", [(0, None), (-1, None), (4, 0),
                                        (4, -2)])
def test_microarch_rejects_latency_or_ii_below_one(latency, ii):
    with pytest.raises(ValueError, match="must be >= 1"):
        Microarch("m", latency, ii=ii)


def test_design_point_json_round_trip():
    point = _pt("a", 10.0, 20.0, power=1.25)
    assert DesignPoint.from_json(point.to_json()) == point


def test_infeasible_point_json_round_trip():
    point = InfeasiblePoint("Pipelined 16", 1250.0,
                            "II 8 unreachable: port conflict")
    payload = point.to_json()
    assert payload == {"microarch": "Pipelined 16", "clock_ps": 1250.0,
                       "reason": "II 8 unreachable: port conflict"}
    assert InfeasiblePoint.from_json(payload) == point
    # stable through an actual JSON encode/decode cycle
    import json
    assert InfeasiblePoint.from_json(
        json.loads(json.dumps(payload))) == point


def test_group_by_microarch_sorts_by_delay():
    pts = [_pt("m", 30, 1), _pt("m", 10, 2), _pt("m", 20, 3)]
    curves = group_by_microarch(pts)
    assert [p.delay_ps for p in curves["m"]] == [10, 20, 30]


def test_synthesize_point_fixed_latency(lib):
    micro = Microarch("NP-4", 4)
    point = synthesize_design_point(build_fir, lib, micro, 1600.0)
    assert isinstance(point, DesignPoint)
    assert point.latency == 4
    assert point.ii == 4
    assert point.delay_ps == pytest.approx(4 * 1600.0)


def test_synthesize_point_pipelined(lib):
    micro = Microarch("P-4", 4, ii=2)
    point = synthesize_design_point(build_fir, lib, micro, 1600.0)
    assert isinstance(point, DesignPoint)
    assert point.ii == 2
    assert point.delay_ps == pytest.approx(2 * 1600.0)


def test_infeasible_point_is_recorded(lib):
    micro = Microarch("NP-1", 1)  # FIR cannot finish in one state
    bad = synthesize_design_point(build_fir, lib, micro, 400.0)
    assert isinstance(bad, InfeasiblePoint)
    assert bad.reason  # the scheduler's explanation is preserved


def test_sweep_returns_points(lib):
    micros = (Microarch("NP-3", 3), Microarch("P-4", 4, ii=2))
    points = run_sweep(build_fir, lib, micros,
                       clocks_ps=(1600.0, 2400.0)).points
    assert len(points) >= 3
    assert {p.microarch for p in points} <= {"NP-3", "P-4"}

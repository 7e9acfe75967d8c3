"""Library characterization: Table 1 calibration, scaling, grades."""

import pytest

from repro.cdfg import OpKind
from repro.tech import artisan90, generic45
from repro.tech.library import DEFAULT_GRADES, SpeedGrade


@pytest.fixture(scope="module")
def lib():
    return artisan90()


def test_table1_matches_paper(lib):
    """The exact delays of the paper's Table 1."""
    row = lib.table1()
    assert row == {"mul": 930, "add": 350, "gt": 220, "neq": 60,
                   "ff": "40/70", "mux2": 110, "mux3": 115}


def test_ff_spec(lib):
    assert lib.ff.clk_to_q_ps == 40.0
    assert lib.ff.setup_ps == 40.0
    assert lib.ff.alt_delay_ps == 70.0


def test_width_buckets(lib):
    assert lib.bucket(1) == 1
    assert lib.bucket(9) == 16
    assert lib.bucket(32) == 32
    assert lib.bucket(33) == 64
    assert lib.bucket(200) == 64  # clamps to the largest bucket


def test_delay_scales_down_with_width(lib):
    d32 = lib.typical(OpKind.MUL, 32).delay_ps
    d16 = lib.typical(OpKind.MUL, 16).delay_ps
    d8 = lib.typical(OpKind.MUL, 8).delay_ps
    assert d8 < d16 < d32


def test_mul_area_superlinear(lib):
    a32 = lib.typical(OpKind.MUL, 32).area
    a16 = lib.typical(OpKind.MUL, 16).area
    assert a32 / a16 > 2.5  # steeper than linear


def test_add_area_linear(lib):
    a32 = lib.typical(OpKind.ADD, 32).area
    a16 = lib.typical(OpKind.ADD, 16).area
    assert abs(a32 / a16 - 2.0) < 0.01


def test_grades_monotone(lib):
    ladder = lib.upsizing_ladder(lib.typical(OpKind.MUL, 32))
    delays = [t.delay_ps for t in ladder]
    areas = [t.area for t in ladder]
    energies = [t.energy_pj for t in ladder]
    assert delays == sorted(delays, reverse=True)
    assert areas == sorted(areas)
    assert energies == sorted(energies)
    assert len(ladder) == len(DEFAULT_GRADES)


def test_candidates_cover_all_grades(lib):
    cands = lib.candidates(OpKind.ADD, 32)
    assert len(cands) == len(DEFAULT_GRADES)
    assert cands[0].grade == "typical"  # cheapest first
    assert cands == sorted(cands, key=lambda r: r.area)


def test_fastest_is_ultra(lib):
    fastest = lib.fastest(OpKind.MUL, 32)
    assert fastest.grade == "ultra"
    assert fastest.delay_ps < 930


def test_regrade_within_family(lib):
    typ = lib.typical(OpKind.MUL, 32)
    fast = lib.regrade(typ, "fast")
    assert fast.family == typ.family
    assert fast.width == typ.width
    assert fast.delay_ps < typ.delay_ps
    assert fast.area > typ.area


def test_mux_delay_ladder(lib):
    assert lib.mux.delay(1) == 0.0
    assert lib.mux.delay(2) == 110.0
    assert lib.mux.delay(3) == 115.0
    assert lib.mux.delay(9) == 2 * 115.0  # two tree levels


def test_mux_area(lib):
    assert lib.mux.area(1, 32) == 0.0
    assert lib.mux.area(2, 32) == 12.0 * 32
    assert lib.mux.area(3, 32) == 20.0 * 32
    assert lib.mux.area(5, 32) > lib.mux.area(3, 32)


def test_kind_coverage(lib):
    for kind in (OpKind.ADD, OpKind.SUB, OpKind.MUL, OpKind.DIV,
                 OpKind.GT, OpKind.LT, OpKind.EQ, OpKind.NEQ,
                 OpKind.AND, OpKind.SHL, OpKind.CALL):
        assert lib.families_for(kind), kind


def test_multicycle_families(lib):
    assert lib.typical(OpKind.MUL, 32).multicycle_ok
    assert lib.typical(OpKind.DIV, 32).multicycle_ok
    assert not lib.typical(OpKind.ADD, 32).multicycle_ok


def test_generic45_is_faster_and_smaller():
    a90, g45 = artisan90(), generic45()
    assert (g45.typical(OpKind.MUL, 32).delay_ps
            < a90.typical(OpKind.MUL, 32).delay_ps)
    assert (g45.typical(OpKind.MUL, 32).area
            < a90.typical(OpKind.MUL, 32).area)


def test_speed_grade_validation():
    with pytest.raises(ValueError):
        SpeedGrade("bad", 1.5, 1.0, 1.0)
    with pytest.raises(ValueError):
        SpeedGrade("bad", 0.9, 0.8, 1.0)


def test_register_area_and_leakage(lib):
    assert lib.register_area(32) == 32 * 30.0
    assert lib.ff.leakage_per_bit_uw > 0

"""Parameter spaces: validation and analytic pruning."""

import pytest

from repro.dse import (
    Candidate,
    DesignSpace,
    SpaceError,
    admissible_clocks,
    paper_space,
)
from repro.explore import Microarch


def _space():
    return DesignSpace((Microarch("NP4", 4), Microarch("P8", 8, ii=4)),
                       (2000.0, 1000.0))


def test_clocks_sorted_ascending_and_size():
    space = _space()
    assert space.clocks_ps == (1000.0, 2000.0)
    assert space.size == 4
    labels = [c.label for c in space.candidates()]
    assert labels == ["NP4@1000", "NP4@2000", "P8@1000", "P8@2000"]


def test_validation():
    with pytest.raises(SpaceError):
        DesignSpace((), (1000.0,))
    with pytest.raises(SpaceError):
        DesignSpace((Microarch("m", 4),), ())
    for clock in (-5.0, float("nan"), float("inf")):
        with pytest.raises(SpaceError):
            DesignSpace((Microarch("m", 4),), (1000.0, clock))
    with pytest.raises(SpaceError):
        DesignSpace((Microarch("m", 4), Microarch("m", 8)), (1000.0,))


def test_paper_space_matches_figure10_grid():
    space = paper_space()
    assert space.size == 25
    assert len(space.microarchs) == 5


def test_predicted_delay_is_analytic():
    cand = Candidate(Microarch("P8", 8, ii=4), 1500.0)
    assert cand.predicted_delay_ps == 6000.0


def test_admissible_clocks_filters_on_predicted_delay():
    space = _space()
    np4, p8 = space.microarchs
    assert admissible_clocks(space, np4, None) == (1000.0, 2000.0)
    # NP4: 4 * 2000 = 8000 > 5000, only the 1000 ps clock fits
    assert admissible_clocks(space, np4, 5000.0) == (1000.0,)
    # P8 (ii=4) has the same effective II
    assert admissible_clocks(space, p8, 5000.0) == (1000.0,)
    assert admissible_clocks(space, np4, 100.0) == ()

"""Predicate algebra: conjunction, disjointness, implication."""

import pytest

from repro.cdfg.predicates import Predicate


def test_true_predicate_is_empty():
    assert Predicate.true().is_true
    assert str(Predicate.true()) == "1"


def test_literal_construction_and_str():
    p = Predicate.of((3, True), (5, False))
    assert not p.is_true
    assert str(p) == "p3&!p5"


def test_and_merges_literals():
    a = Predicate.of((1, True))
    b = Predicate.of((2, False))
    assert a.and_(b).literals == frozenset({(1, True), (2, False)})


def test_and_contradiction_raises():
    a = Predicate.of((1, True))
    b = Predicate.of((1, False))
    with pytest.raises(ValueError):
        a.and_(b)


def test_and_idempotent_on_same_literal():
    a = Predicate.of((1, True))
    assert a.and_(a) == a


def test_disjoint_on_opposite_polarity():
    taken = Predicate.of((7, True))
    nottaken = Predicate.of((7, False))
    assert taken.disjoint(nottaken)
    assert nottaken.disjoint(taken)


def test_not_disjoint_with_unrelated_conditions():
    a = Predicate.of((1, True))
    b = Predicate.of((2, False))
    assert not a.disjoint(b)


def test_true_never_disjoint():
    assert not Predicate.true().disjoint(Predicate.of((1, True)))


def test_nested_branches_disjoint_inner():
    # if (c1) { if (c2) A else B }: A and B are exclusive
    a = Predicate.of((1, True), (2, True))
    b = Predicate.of((1, True), (2, False))
    assert a.disjoint(b)


def test_nested_branch_vs_outer_else():
    a = Predicate.of((1, True), (2, True))
    outer_else = Predicate.of((1, False))
    assert a.disjoint(outer_else)


def test_with_literal_strengthens():
    p = Predicate.true().with_literal(4, False)
    assert p.literals == frozenset({(4, False)})


def test_condition_uids():
    p = Predicate.of((1, True), (9, False))
    assert p.condition_uids() == frozenset({1, 9})

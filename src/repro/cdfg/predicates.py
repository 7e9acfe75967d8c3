"""Execution predicates produced by if-conversion.

After predicate conversion (paper Fig. 4) every operation that originated
inside a conditional branch carries a *predicate*: the condition under
which its result is architecturally used.  We represent a predicate as a
conjunction of literals, each literal being ``(condition_op_uid, polarity)``
-- the operation producing the branch condition and whether the branch is
the taken (``True``) or fall-through (``False``) side.

The empty conjunction is the always-true predicate.

Predicates are used in two places:

* **Resource sharing** -- two operations whose predicates are mutually
  exclusive can share one resource instance even on the same (or an
  equivalent, when pipelining) control step (paper section V, step I.2).
* **Allocation lower bounds** -- mutually exclusive operations do not both
  contribute to resource demand in the same interval (paper section IV.A).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Tuple

Literal = Tuple[int, bool]


@dataclass(frozen=True)
class Predicate:
    """A conjunction of branch-condition literals.

    ``literals`` maps condition-op uids to the required polarity.  A
    predicate with no literals is always true (the operation executes
    unconditionally).
    """

    literals: FrozenSet[Literal] = field(default_factory=frozenset)

    @staticmethod
    def true() -> "Predicate":
        """The always-true predicate."""
        return _TRUE

    @staticmethod
    def of(*literals: Literal) -> "Predicate":
        """Build a predicate from ``(cond_uid, polarity)`` literals."""
        return Predicate(frozenset(literals))

    @property
    def is_true(self) -> bool:
        """Whether this predicate is the unconditional (empty) one."""
        return not self.literals

    def and_(self, other: "Predicate") -> "Predicate":
        """Conjunction with another predicate.

        Raises ``ValueError`` when the conjunction is unsatisfiable, i.e.
        the two predicates require opposite polarities for one condition.
        """
        merged = set(self.literals) | set(other.literals)
        conds = [uid for uid, _pol in merged]
        if len(conds) != len(set(conds)):
            raise ValueError("contradictory predicate conjunction")
        return Predicate(frozenset(merged))

    def with_literal(self, cond_uid: int, polarity: bool) -> "Predicate":
        """This predicate strengthened with one more literal."""
        return self.and_(Predicate.of((cond_uid, polarity)))

    def condition_uids(self) -> FrozenSet[int]:
        """The uids of all condition operations referenced."""
        return frozenset(uid for uid, _pol in self.literals)

    def disjoint(self, other: "Predicate") -> bool:
        """Whether the two predicates can never hold simultaneously.

        True iff some condition appears in both with opposite polarity --
        the structural mutual-exclusivity test used for branch-born
        operations (the only one decidable without value analysis).
        Internally contradictory predicates (never satisfiable) are
        disjoint with everything, including themselves.
        """
        for uid, pol in self.literals:
            if (uid, not pol) in self.literals \
                    or (uid, not pol) in other.literals:
                return True
        for uid, pol in other.literals:
            if (uid, not pol) in other.literals:
                return True
        return False

    def __str__(self) -> str:
        if self.is_true:
            return "1"
        parts = []
        for uid, pol in sorted(self.literals):
            parts.append(f"p{uid}" if pol else f"!p{uid}")
        return "&".join(parts)


_TRUE = Predicate(frozenset())


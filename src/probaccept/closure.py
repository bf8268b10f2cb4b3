"""Bounded deductive closure for probabilistically accepted statements.

Single accepted statements can be closed under consequence for free: if
P(T) clears the level and T entails W, then P(W) >= P(T) by monotonicity.
Conjoining k statements costs precision instead of consistency: with
every P(A_i) >= 1 - epsilon, the union bound gives

    P(A_1 & ... & A_k) >= 1 - k * epsilon

with no independence assumed, and the same floor carries to anything the
k statements entail.  A contradiction (probability 0) therefore needs at
least ceil(1/epsilon) premises, which is exactly the size of the lottery
that makes the threshold paradoxical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .accept import AcceptanceLevel
from .formulas import Formula, FormulaSet, conj
from .sat import _own_background, entails
from .worlds import BeliefBase, WorldModel

__all__ = [
    "LeveledStatement",
    "conjunction_support",
    "consequence_level",
    "contradiction_bound",
]


@dataclass(frozen=True)
class LeveledStatement:
    """A statement with its guaranteed support floor.

    ``support_lower_bound`` is the level-derived floor max(0, 1 - k*eps);
    ``exact_probability`` is the model-computed value when available and
    is never below the floor.
    """

    statement: Formula
    support_lower_bound: Fraction
    premise_count: int
    exact_probability: Fraction | None = None

    def __post_init__(self):
        if (
            self.exact_probability is not None
            and self.exact_probability < self.support_lower_bound
        ):
            raise ValueError(
                f"exact probability {self.exact_probability} below the "
                f"guaranteed floor {self.support_lower_bound}"
            )


def _bound(k: int, level: AcceptanceLevel) -> Fraction:
    floor = 1 - k * level.epsilon
    return floor if floor > 0 else Fraction(0)


def _require_at_level(
    model: WorldModel, statements: FormulaSet, level: AcceptanceLevel
) -> None:
    for statement in statements:
        p = model.probability(statement)
        if not level.met_by(p):
            raise ValueError(
                f"statement {statement} has probability {p}, below the "
                f"acceptance threshold {level.threshold}"
            )


def conjunction_support(
    model: WorldModel, statements: FormulaSet, level: AcceptanceLevel
) -> LeveledStatement:
    """Conjunction of k statements accepted at level 1 - eps, supported at
    least at 1 - k*eps.  The floor is tight: on a fair 100-ticket lottery
    three lose statements conjoin to exactly 97/100."""
    statements = FormulaSet(statements)
    if not statements:
        raise ValueError("need at least one statement")
    _require_at_level(model, statements, level)
    k = len(statements)
    conjunction = conj(*statements)
    exact = model.probability(conjunction)
    floor = _bound(k, level)
    if exact < floor:
        raise RuntimeError(
            f"conjunction probability {exact} fell below the union-bound "
            f"floor {floor}; this should be impossible"
        )
    return LeveledStatement(conjunction, floor, k, exact)


def consequence_level(
    model: WorldModel,
    premises: FormulaSet,
    conclusion: Formula,
    level: AcceptanceLevel,
    background: FormulaSet | None = None,
) -> LeveledStatement:
    """A conclusion entailed by k premises accepted at level 1 - eps is
    supported at least at 1 - k*eps.

    Background formulas may assist the entailment; they must have
    probability exactly 1 and then do not count toward k (each would add
    a slack of zero).  With k = 1 this is plain membership preservation:
    the conclusion's exact probability is at least the premise's.

    The entailment is ``sat.entails`` over a belief base's own background,
    which names the model's worlds: a background that is already a base's
    own over ``model`` goes through as it is, since its base checked it to
    be certain, and once a policy has run on that base, premises drawn
    from its candidates are answered by the base's solver from its masks.
    Any other background is checked certain through a new base's.
    """
    premises = FormulaSet(premises)
    if not premises:
        raise ValueError("need at least one premise")
    if not _own_background(background, model):
        # certain, or raises; a base's own background names the model for ``entails``
        background = BeliefBase(model, background or ()).background
    _require_at_level(model, premises, level)
    exact = model.probability(conclusion)  # checks its atoms before entailment
    if not entails(background, premises, conclusion):
        raise ValueError(
            f"premises do not entail the conclusion {conclusion}"
        )
    k = len(premises)
    floor = _bound(k, level)
    if exact < floor:
        raise RuntimeError(
            f"consequence probability {exact} fell below the floor {floor}; "
            "this should be impossible"
        )
    return LeveledStatement(conclusion, floor, k, exact)


def contradiction_bound(level: AcceptanceLevel) -> int:
    """Minimum number of level-1-eps premises it takes to entail a
    contradiction (or anything of probability 0): ceil(1/epsilon)."""
    return math.ceil(1 / level.epsilon)

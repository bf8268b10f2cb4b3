"""Living with weakly inconsistent statement sets.

A weakly inconsistent set still has useful structure.  Its maximal
consistent subsets each describe one way things could coherently be; the
minimum number of consistent subsets needed to cover every statement
measures how inconsistent the set is (degree 1 means not at all, an
n-ticket lottery sits at degree 2 for every n >= 2).

A :class:`Strand` wraps one maximal consistent subset as a query target:
its deductive closure is infinite, so it is never materialized, but
entailment against it is decidable and every strand stays consistent.
"""

from __future__ import annotations

from dataclasses import dataclass

from .formulas import Formula, FormulaSet
from .sat import DEFAULT_CANDIDATE_CAP, _check_cap, _consistent_family, entails
from .sat import maximal_consistent_subsets

__all__ = [
    "Strand",
    "strands",
    "strand_entails",
    "degree_of_inconsistency",
]


@dataclass(frozen=True)
class Strand:
    """A maximal consistent subset (the kernel) over a background; stands
    in for its deductive closure."""

    kernel: FormulaSet
    background: FormulaSet


def strands(
    candidates: FormulaSet,
    background: FormulaSet | None = None,
    cap: int = DEFAULT_CANDIDATE_CAP,
) -> list[Strand]:
    """One strand per maximal consistent subset, in deterministic order.

    Candidates given as a ``FormulaSet`` share one subset walk with
    ``minimal_unsat_subsets``, ``maximal_consistent_subsets`` and
    ``degree_of_inconsistency`` of the same set over the same background.
    A ``FormulaSet`` background is kept as given, so a belief base's own
    still names its model, whose world masks ``strand_entails`` then tests
    first."""
    bg = background if isinstance(background, FormulaSet) else FormulaSet(background or ())
    return [
        Strand(kernel, bg)
        for kernel in maximal_consistent_subsets(candidates, bg, cap)
    ]


def strand_entails(strand: Strand, formula: Formula) -> bool:
    """Does the strand's closure contain the formula?

    The answer is ``sat.entails`` from the kernel over the strand's
    background.  A strand drawn over a belief base's own background, from
    candidates of the base on which a policy has run, is answered by the
    base's solver from its world masks, with no solver of its own; one
    over any other background builds a solver per question."""
    return entails(strand.background, strand.kernel, formula)


def degree_of_inconsistency(
    candidates: FormulaSet,
    background: FormulaSet | None = None,
    cap: int = DEFAULT_CANDIDATE_CAP,
) -> int:
    """Minimum number of background-consistent subsets covering every
    candidate, computed by exact branch-and-bound set cover over the
    family of maximal consistent index sets; 1 for no candidates.

    Covering with arbitrary consistent subsets would give the same
    minimum, since any consistent subset extends to a maximal one.
    Requires every candidate to be individually satisfiable with the
    background (otherwise no consistent subset can cover it).

    Candidates given as a ``FormulaSet`` share one subset walk with
    ``minimal_unsat_subsets``, ``maximal_consistent_subsets`` and
    ``strands`` of the same set over the same background.
    """
    _check_cap(cap)  # before the shortcut, as the enumerators check it
    if not isinstance(candidates, FormulaSet):
        candidates = FormulaSet(candidates)
    if not candidates:  # nothing to cover, so the background goes unchecked
        return 1
    members, mcses, _ = _consistent_family(candidates, background, cap)
    holders = [[s for _, s in mcses if s >> i & 1] for i in range(len(members))]
    # a candidate in no maximal consistent subset is unsatisfiable with the
    # background on its own
    if [] in holders:
        raise ValueError(
            f"candidate {members[holders.index([])][1]} is individually unsatisfiable "
            "with the background"
        )
    return _min_cover(holders)


def _min_cover(holders: list[list[int]]) -> int:
    # Exact branch-and-bound over bit sets, holders[i] listing the sets that
    # hold member i: pick the uncovered member in the fewest sets and try its
    # sets, most newly covered first; the first descent bounds the rest.
    fewest = sorted(range(len(holders)), key=lambda i: len(holders[i]))

    def search(uncovered: int, used: int, bound: int) -> int:
        if not uncovered:
            return used
        if used + 1 >= bound:
            return bound
        element = next(i for i in fewest if uncovered >> i & 1)
        for option in sorted(holders[element], key=lambda s: -(s & uncovered).bit_count()):
            bound = min(bound, search(uncovered & ~option, used + 1, bound))
        return bound

    return search((1 << len(holders)) - 1, 0, len(holders) + 1)

"""Satisfiability, entailment, and subset diagnostics for formula sets.

The decision procedure is a self-contained iterative DPLL search (unit
propagation plus chronological backtracking) over a structure-preserving
clausal translation of the canonical negation normal form.  Subformulas
that are not already clause-shaped get one definitional variable each, so
lottery-style constraint sets translate with no auxiliary variables at
all.  Instances here are desk scale; determinism wins over raw speed.

One solver answers every question.  It translates a background and a
list of members once, straight to integer clauses: atoms and definitional
subformulas share one numbering, in the order the translation meets
them.  A subformula that several members share gets one variable, but
its defining clauses sit in every such member's group, so a query that
leaves one of them out still defines it.  A query splices the
background's clauses with those of the chosen members and decides only
the variables those clauses mention.  A plain satisfiability check is a
solver with no members.

One loop finds each maximal consistent subset (MCS) and each minimal
unsatisfiable subset (MUS) once (MARCO: Liffiton, Previti, Malik &
Marques-Silva, *Constraints* 21(2), 2016).  The DPLL search solves a map
formula over the members for a seed, which is grown to an MCS or shrunk
to a MUS and then blocked.  ``DEFAULT_CANDIDATE_CAP`` bounds the loop.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Sequence

from .formulas import Formula, FormulaSet, neg

__all__ = [
    "DEFAULT_CANDIDATE_CAP",
    "is_satisfiable",
    "entails",
    "minimal_unsat_subsets",
    "maximal_consistent_subsets",
    "shrink_unsat_subset",
]

DEFAULT_CANDIDATE_CAP = 20


def _clauses_for(formula: Formula, index: dict) -> list[tuple[int, ...]]:
    # ``index`` is the solver's one numbering; ``defined`` is this formula's
    # own, so its clauses define every subformula they use.
    clauses: list[tuple[int, ...]] = []
    defined: set[tuple] = set()

    def literal_of(node: tuple) -> int:
        if node[0] == "lit":
            var = index.setdefault(node[1], len(index) + 1)
            return var if node[2] else -var
        var = index.setdefault(node, len(index) + 1)
        if node not in defined:
            defined.add(node)
            # var -> node, enough for satisfiability (positive occurrences only)
            if node[0] == "and":
                for child in node[1]:
                    clauses.append((-var, literal_of(child)))
            else:
                clauses.append((-var, *map(literal_of, node[1])))
        return var

    def top(node: tuple) -> None:
        if node[0] == "and":
            for child in node[1]:
                top(child)
        elif node[0] == "or":
            clauses.append(tuple(map(literal_of, node[1])))
        else:
            clauses.append((literal_of(node),))

    top(formula.nnf())
    return clauses


def _dpll(clauses: Sequence[tuple[int, ...]], nvars: int) -> list[int] | None:
    # A satisfying assignment (1, -1 or 0 for undecided, by variable), or
    # None.  No caller passes an empty clause.  A clause with both polarities
    # of a variable is never unit or falsified: no special case.
    assign = [0] * (nvars + 1)
    occurrences: defaultdict[int, list[int]] = defaultdict(list)
    for ci, clause in enumerate(clauses):
        for lit in clause:
            occurrences[lit].append(ci)
    # branch only on the variables these clauses mention, in index order
    decisions = sorted({abs(lit) for lit in occurrences})
    trail: list[int] = []

    def propagate(queue: list[int]) -> bool:
        qi = 0
        while qi < len(queue):
            lit = queue[qi]
            qi += 1
            var = abs(lit)
            want = 1 if lit > 0 else -1
            current = assign[var]
            if current == want:
                continue
            if current == -want:
                return False
            assign[var] = want
            trail.append(var)
            for ci in occurrences.get(-lit, ()):
                clause = clauses[ci]
                unassigned = 0
                last = 0
                satisfied = False
                for other in clause:
                    value = assign[abs(other)]
                    if value == 0:
                        unassigned += 1
                        last = other
                    elif (value > 0) == (other > 0):
                        satisfied = True
                        break
                if satisfied:
                    continue
                if unassigned == 0:
                    return False
                if unassigned == 1:
                    queue.append(last)
        return True

    queue = [clause[0] for clause in clauses if len(clause) == 1]
    # (position in decisions, trail mark, tried negation); every decision
    # before the one at a position was assigned before its mark
    stack: list[tuple[int, int, bool]] = []
    cursor = 0
    while True:
        if propagate(queue):
            while cursor < len(decisions) and assign[decisions[cursor]] != 0:
                cursor += 1
            if cursor == len(decisions):
                return assign
            stack.append((cursor, len(trail), False))
            queue = [decisions[cursor]]
        else:
            while stack:
                cursor, mark, tried = stack.pop()
                while len(trail) > mark:
                    assign[trail.pop()] = 0
                if not tried:
                    stack.append((cursor, mark, True))
                    queue = [-decisions[cursor]]
                    break
            else:
                return None


class _Solver:
    """One variable numbering over a background and candidate members.
    Each query splices the background's clauses with those of the chosen
    members and decides only the variables those clauses mention."""

    def __init__(
        self, members: Sequence[Formula], background: Iterable[Formula] = ()
    ):
        index: dict = {}
        self.background = list(
            dict.fromkeys(c for f in background for c in _clauses_for(f, index))
        )
        self.per_member = [_clauses_for(f, index) for f in members]
        self.nvars = len(index)

    def satisfiable(self, which: Iterable[int] = ()) -> bool:
        clauses = list(self.background)
        for i in which:
            clauses.extend(self.per_member[i])
        return _dpll(clauses, self.nvars) is not None


def is_satisfiable(formulas: Iterable[Formula]) -> bool:
    """True iff some total valuation satisfies every member."""
    return _Solver((), formulas).satisfiable()


def entails(
    background: Iterable[Formula],
    premises: Iterable[Formula],
    conclusion: Formula,
) -> bool:
    """Classical entailment relative to a background set."""
    members = list(background) + list(premises) + [neg(conclusion)]
    return not is_satisfiable(members)


def _check_cap(cap: int) -> None:
    if not 1 <= cap <= DEFAULT_CANDIDATE_CAP:
        raise ValueError(f"cap must lie between 1 and {DEFAULT_CANDIDATE_CAP}")


def _prepare(
    candidates: Iterable[Formula],
    background: Iterable[Formula] | None,
    cap: int | None = None,
) -> tuple[tuple[Formula, ...], _Solver]:
    members = tuple(FormulaSet(candidates))
    if cap is not None:
        _check_cap(cap)
        if len(members) > cap:
            raise ValueError(
                f"{len(members)} candidates exceed the enumeration cap of {cap}"
            )
    solver = _Solver(members, background or ())
    if not solver.satisfiable():
        raise ValueError("background is unsatisfiable")
    return members, solver


def _consistent_family(
    candidates: Iterable[Formula],
    background: Iterable[Formula] | None,
    cap: int,
) -> tuple[tuple[Formula, ...], list[frozenset[int]], list[frozenset[int]]]:
    """The members, every maximal consistent index set among them (largest
    first) and every minimal unsatisfiable one (smallest first), each list
    then in lexicographic order."""
    members, solver = _prepare(candidates, background, cap)
    n = len(members)
    if solver.satisfiable(range(n)):  # so no blocking clause is empty
        return members, [frozenset(range(n))], []
    mcses, muses, blocks = [], [], []  # blocks: the map, member i as variable i + 1
    while (seed := _dpll(blocks, n)) is not None:
        current = [i for i in range(n) if seed[i + 1] >= 0]  # undecided is chosen
        if solver.satisfiable(current):
            for i in range(n):
                if i not in current and solver.satisfiable([*current, i]):
                    current.append(i)
            mcses.append(frozenset(current))
            blocks.append(tuple(i + 1 for i in range(n) if i not in current))
        else:
            current = _shrink(solver, current)
            muses.append(frozenset(current))
            blocks.append(tuple(-(i + 1) for i in current))
    mcses.sort(key=lambda s: (-len(s), sorted(s)))
    muses.sort(key=lambda s: (len(s), sorted(s)))
    return members, mcses, muses


def _shrink(solver: _Solver, current: list[int]) -> list[int]:
    """Delete members of an unsatisfiable index list, in order, while the
    rest stays unsatisfiable: a minimal unsatisfiable index list."""
    for i in list(current):
        trimmed = [j for j in current if j != i]
        if not solver.satisfiable(trimmed):
            current = trimmed
    return current


def minimal_unsat_subsets(
    candidates: Iterable[Formula],
    background: Iterable[Formula] | None = None,
    cap: int = DEFAULT_CANDIDATE_CAP,
) -> list[FormulaSet]:
    """All subsets of ``candidates`` that are unsatisfiable together with
    ``background`` and minimally so.  Exhaustive and deterministic; raises
    if the background is unsatisfiable or the cap is exceeded."""
    members, _, muses = _consistent_family(candidates, background, cap)
    return [FormulaSet(members[i] for i in sorted(mus)) for mus in muses]


def maximal_consistent_subsets(
    candidates: Iterable[Formula],
    background: Iterable[Formula] | None = None,
    cap: int = DEFAULT_CANDIDATE_CAP,
) -> list[FormulaSet]:
    """All subsets of ``candidates`` satisfiable with ``background`` to
    which no excluded candidate can be added without losing
    satisfiability.  Exhaustive and deterministic under the cap."""
    members, mcses, _ = _consistent_family(candidates, background, cap)
    return [FormulaSet(members[i] for i in sorted(mcs)) for mcs in mcses]


def shrink_unsat_subset(
    candidates: Iterable[Formula],
    background: Iterable[Formula] | None = None,
) -> FormulaSet | None:
    """Deletion-based extraction of one minimal unsatisfiable subset.

    Linear in the number of candidates, so usable far beyond the
    exhaustive-enumeration cap.  Returns None when the candidates are
    satisfiable with the background.  The result is a minimal
    unsatisfiable subset but not necessarily a smallest one.
    """
    members, solver = _prepare(candidates, background)
    if solver.satisfiable(range(len(members))):
        return None
    return FormulaSet(members[i] for i in _shrink(solver, list(range(len(members)))))

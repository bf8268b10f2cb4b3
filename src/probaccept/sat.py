"""Satisfiability, entailment, and subset diagnostics for formula sets.

The decision procedure is a self-contained iterative DPLL search (unit
propagation with two watched literals per clause, as in Chaff: Moskewicz
et al., DAC 2001, plus chronological backtracking) over a
structure-preserving clausal translation of the canonical negation normal
form.  Subformulas that are not already clause-shaped get one
definitional variable each, so lottery-style constraint sets translate
with no auxiliary variables at all.  Instances here are desk scale;
determinism wins over raw speed.

Every consistency question goes to ``oracle._Solver``, the package's one
consistency oracle, which answers from world masks first and comes here
only for a query the masks leave open: this module holds its clause
store, the translation into it and the search.  ``entails`` is the
oracle's, given here by name: it reads a base's masks before any search,
so ``closure`` takes it from ``oracle`` and loads this module only at an
entailment the masks leave open.  A deletion shrink with a model keeps
the mask of the members kept so far and suffix masks of those not yet
tried, so each deletion costs one ``&``.

The solver translates a background and a list of members once, straight
to integer clauses: atoms and definitional subformulas share one
numbering, in the order the translation meets them.  A subformula that
several members share gets one variable, but its defining clauses sit in
every such member's group, so a query that leaves one of them out still
defines it.  The solver indexes all its clauses once, in one store with
one group for the background and one per member.  A query switches the
background's group and the chosen members' groups on, skips the clauses
of the others, and decides, in index order, only the variables the
switched-on clauses mention.  Each query starts with every variable
undecided, so the watches the previous query left are valid as they
stand.  A plain satisfiability check is a solver with no members.  A
formula's top level is one loop over the parts of its canonical
conjunction, one clause per part: the canonical form flattens a
conjunction inside a conjunction, so no part is one.

An ``exactly_one`` of distinct atoms, a lottery's background, is
translated straight from its sorted names, without its canonical node,
wherever it sits among a solver's formulas: one clause that at least one
of the names holds, and one at-most-one row over the same literals, with
no auxiliary variables (a native cardinality constraint, as in Minicard:
Liffiton & Maglalang, SAT 2012).  That is n + 1 literals where the
pairwise encoding has n(n-1)/2 binary clauses.  The search propagates a
row directly: when one of its literals becomes true every other becomes
false, and a second true literal is a conflict.  Any other
``exactly_one``, negated, nested or parsed, keeps the pairwise clauses
of its canonical node.

One loop finds each maximal consistent subset (MCS) and each minimal
unsatisfiable subset (MUS) once, by the hitting-set duality between them:
a set is unsatisfiable exactly when it lies in no MCS, that is, when it
meets every MCS's complement, so the MUSes are the minimal transversals
of the MCS complements (Reiter, *AI* 32, 1987; Bailey & Stuckey, PADL
2005; Liffiton & Sakallah, *JAR* 40, 2008).  The loop keeps, as bit sets
over the members, the MUSes found so far and the minimal transversals of
the complements of the MCSes found so far, updated by Berge's step as
each MCS is found.  Each round takes the first transversal that is no
known MUS.  It holds none, since a known MUS is a transversal too and
this one is minimal.  The round grows it, in member order, by each
member whose addition leaves it holding no known MUS: a bit test, not a
query.  The grown set meets every known MCS's complement, so it lies in
no known MCS.  If it is
satisfiable it is an MCS, and a new one: any member left out would
complete a known MUS.  Otherwise it holds a MUS, which the deletion
shrink finds, and which is new, since the set holds no known MUS.  The
loop ends when every transversal is a known MUS.  Then every MCS is
known: one not yet found would lie in no known MCS, so it would hold a
transversal and with it a MUS.  So the transversals are then exactly the
MUSes.  The first round grows the empty set to every member, and its
shrink raises when the background alone is unsatisfiable.  On a model
that lists every valuation satisfying the background (and that some
world satisfies), every MCS is read off the worlds instead: the MCSes
are the maximal rows "the members true at world w" over the background's
worlds.  Every MCS is then known, so by the same duality the minimal
transversals of their complements are the MUSes, and no round runs: the
walk makes no query and builds no clause store.  ``DEFAULT_CANDIDATE_CAP``
bounds the loop.  The walk is kept with the candidate set: a
``FormulaSet`` of candidates holds the family it last gave, for one
background, so the minimal unsatisfiable subsets, the maximal consistent
ones, the degree of inconsistency and the strands of one set over one
background cost one walk between them, and a call that finds the walk
kept builds no solver.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import reduce

from .formulas import Formula, FormulaSet, _ExactlyOne
from .oracle import _on_base, _Solver, entails

__all__ = [
    "DEFAULT_CANDIDATE_CAP",
    "is_satisfiable",
    "entails",
    "minimal_unsat_subsets",
    "maximal_consistent_subsets",
    "shrink_unsat_subset",
]

DEFAULT_CANDIDATE_CAP = 20

_Lits = tuple[int, ...]  # a clause, or an at-most-one row, of literals
_Translation = tuple[Sequence[_Lits], Sequence[_Lits]]  # its clauses and rows
_Subset = tuple[list[int], int]  # a subset of members: its sorted indices, its bit set


def _translate(formula: Formula, index: dict) -> _Translation:
    """The formula's clauses and at-most-one rows, numbered on from
    ``index``, the solver's one numbering."""
    names = formula._names if isinstance(formula, _ExactlyOne) else ()
    if names:
        # at least one and at most one of the names, numbered in sorted order
        row = tuple(index.setdefault(name, len(index) + 1) for name in names)
        return [row], [row]
    # ``defined`` is this formula's own, so its clauses define every
    # subformula they use.
    clauses: list[_Lits] = []
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

    # one clause per part of the top conjunction, which holds no conjunction
    # since the canonical form flattens them
    node = formula.nnf()
    for part in node[1] if node[0] == "and" else (node,):
        if part[0] == "or":
            clauses.append(tuple(map(literal_of, part[1])))
        else:
            clauses.append((literal_of(part),))
    return clauses, []


class _Clauses:
    """Clauses and at-most-one rows in groups, indexed once: two watched
    literals (positions 0 and 1) for each clause of two or more literals,
    each group's unit clauses apart, and each row under every literal it
    holds, with its group.  A query switches groups on; the clauses and
    rows of a group that is off are skipped, and its clauses keep their
    watches."""

    def __init__(self, nvars: int, groups: Iterable[_Translation]):
        self.clauses: list[Sequence[int]] = []
        self.owner: list[int] = []  # each clause's group
        # by literal: a negative literal indexes from the end of the list
        self.watches: list[list[int]] = [[] for _ in range(2 * nvars + 1)]
        self.rows: list[list[tuple[int, _Lits]]] = [[] for _ in range(2 * nvars + 1)]
        self.units: list[list[int]] = []
        for group, (clauses, rows) in enumerate(groups):
            start = len(self.clauses)
            # a watch moves only within a longer clause, so only that is mutable
            new = [list(c) if len(c) > 2 else c for c in clauses]
            self.clauses += new
            self.owner += [group] * len(new)
            units: list[int] = []
            self.units.append(units)
            for ci, clause in enumerate(new, start):
                if len(clause) == 1:
                    units.append(clause[0])
                else:
                    self.watches[clause[0]].append(ci)
                    self.watches[clause[1]].append(ci)
            for row in rows:
                for lit in row:
                    self.rows[lit].append((group, row))


def _dpll(
    store: _Clauses, on: bytes, units: list[int], decisions: list[int]
) -> list[int] | None:
    # A satisfying assignment by literal (1 true, -1 false, 0 undecided; a
    # variable's value is its positive literal's), or None.  Only clauses and
    # rows of groups that ``on`` marks count.  Every variable starts
    # undecided, so the watches an earlier query left are valid.  No caller
    # passes an empty clause.  A clause with both polarities of a variable is
    # never unit or falsified: no special case.
    clauses, owner, watches, rows = store.clauses, store.owner, store.watches, store.rows
    value = [0] * len(watches)
    trail: list[int] = []

    def propagate(lits: list[int]) -> bool:
        head = len(trail)
        for lit in lits:
            if value[lit] < 0:
                return False
            if value[lit] == 0:
                value[lit] = 1
                value[-lit] = -1
                trail.append(lit)
        while head < len(trail):
            true = trail[head]
            head += 1
            # a true literal of a switched-on row makes the row's other
            # literals false; a second true one is a conflict
            for group, row in rows[true]:
                if on[group]:
                    for lit in row:
                        if lit != true:
                            if value[lit] > 0:
                                return False
                            if value[lit] == 0:
                                value[lit] = -1
                                value[-lit] = 1
                                trail.append(-lit)
            # each clause watching the literal now false needs another watch
            falsified = -true
            watching = watches[falsified]
            kept = 0
            for pos, ci in enumerate(watching):
                clause = clauses[ci]
                if on[owner[ci]]:
                    at = 0 if clause[0] == falsified else 1
                    other = clause[1 - at]
                    if value[other] <= 0:
                        for k in range(2, len(clause)):
                            lit = clause[k]
                            if value[lit] >= 0:
                                clause[at] = lit
                                clause[k] = falsified
                                watches[lit].append(ci)
                                break
                        else:  # unit or falsified: the watch stays
                            if value[other] < 0:
                                del watching[kept:pos]
                                return False
                            value[other] = 1
                            value[-other] = -1
                            trail.append(other)
                        if clause[at] != falsified:  # the watch moved
                            continue
                watching[kept] = ci
                kept += 1
            del watching[kept:]
        return True

    # (position in decisions, trail mark, tried negation); every decision
    # before the one at a position was assigned before its mark
    stack: list[tuple[int, int, bool]] = []
    cursor = 0
    lits = units
    while True:
        if propagate(lits):
            while cursor < len(decisions) and value[decisions[cursor]] != 0:
                cursor += 1
            if cursor == len(decisions):
                return value
            stack.append((cursor, len(trail), False))
            lits = [decisions[cursor]]
        else:
            while stack:
                cursor, mark, tried = stack.pop()
                while len(trail) > mark:
                    lit = trail.pop()
                    value[lit] = value[-lit] = 0
                if not tried:
                    stack.append((cursor, mark, True))
                    lits = [-decisions[cursor]]
                    break
            else:
                return None


def is_satisfiable(formulas: Iterable[Formula]) -> bool:
    """True iff some total valuation satisfies every member."""
    return _Solver((), formulas).satisfiable()


def _check_cap(cap: int) -> None:
    if isinstance(cap, bool) or not isinstance(cap, int):  # True is no cap
        raise ValueError(f"cap must be an integer, not {cap!r}")
    if not 1 <= cap <= DEFAULT_CANDIDATE_CAP:
        raise ValueError(f"cap must lie between 1 and {DEFAULT_CANDIDATE_CAP}")


def _prepare(
    candidates: Iterable[Formula],
    background: Iterable[Formula] | None,
    cap: int | None = None,
) -> tuple[tuple[tuple[str, Formula], ...], Iterable[Formula]]:
    """The members as (canonical key, formula) pairs and the background,
    read once (it may be a generator) unless it is a ``FormulaSet``, which
    is returned as it was given, so that a base's own still names its
    model to the solver; the members' types, the cap and the background's
    types are checked, in that order.  A set of members is built from the
    pairs by ``FormulaSet._of``."""
    members = candidates if isinstance(candidates, FormulaSet) else FormulaSet(candidates)
    if cap is not None:
        _check_cap(cap)
        if len(members) > cap:
            raise ValueError(
                f"{len(members)} candidates exceed the enumeration cap of {cap}"
            )
    if not isinstance(background, FormulaSet):  # whose members are formulas
        background = tuple(background or ())
        for f in background:
            if not isinstance(f, Formula):
                raise TypeError(f"satisfiability needs formulas, got {f!r}")
    return tuple(members._keys.items()), background


def _solver_for(members: Sequence[tuple[str, Formula]], background) -> tuple[_Solver, list[int]]:
    """A solver over the members and the background, and each member's
    position in it.  A belief base's own background names the base's
    solver once a policy has run, and members that are all candidates of
    the base, such as an accepted set's statements, are asked of it by
    their candidate positions.  Any other call gets a new solver, member j
    at position j."""
    return _on_base(background, (key for key, _ in members)) or (
        _Solver([f for _, f in members], background), [*range(len(members))]
    )


def _consistent_family(
    candidates: Iterable[Formula],
    background: Iterable[Formula] | None,
    cap: int,
) -> tuple[tuple[tuple[str, Formula], ...], tuple[_Subset, ...], tuple[_Subset, ...]]:
    """The members as (canonical key, formula) pairs, every maximal
    consistent index set among them (largest first) and every minimal
    unsatisfiable one (smallest first), each list then in lexicographic
    order.  Each set is given twice, as its sorted indices and as a bit
    set, member i being bit i.

    Candidates given as a ``FormulaSet`` keep the family in its ``_family``
    slot, with the canonical keys of the background it was walked over.  A
    later call on that set with a background of the same keys returns it
    without a walk, once the arguments have passed every check, and builds
    no solver."""
    members, background = _prepare(candidates, background, cap)
    key = frozenset(f.canonical_key for f in background)
    kept = getattr(candidates, "_family", None)  # unset until a walk, and on a list
    if kept is not None and kept[0] == key:
        return members, kept[1], kept[2]
    mcses, muses = (
        [([i for i in range(len(members)) if bits >> i & 1], bits) for bits in found]
        for found in _walk(*_solver_for(members, background))
    )
    mcses.sort(key=lambda s: (-len(s[0]), s[0]))
    muses.sort(key=lambda s: (len(s[0]), s[0]))
    mcses, muses = tuple(mcses), tuple(muses)
    if isinstance(candidates, FormulaSet):
        candidates._family = (key, mcses, muses)
    return members, mcses, muses


def _walk(solver: _Solver, positions: list[int]) -> tuple[list[int], list[int]]:
    """Every MCS and every MUS of the members at ``positions`` in the
    solver, unsorted, as bit sets (the member at ``positions[i]`` is bit
    i), by the loop the module docstring describes: ``transversals`` are
    the minimal transversals of the complements of the MCSes found so far,
    and ``muses`` the MUSes found, each also listed under every member it
    holds, since only those can keep a seed from growing by that member.
    On a complete model ``_maximal_rows`` gives every MCS, and then the
    transversals are the MUSes: no round runs."""
    n, masks = len(positions), [solver.masks[p] for p in positions]
    full = (1 << n) - 1
    mcses = _maximal_rows(solver.shared, masks) if solver.shared and solver.complete else []
    muses: set[int] = set()
    holding: dict[int, list[int]] = {}  # the known MUSes by member
    transversals = [0]  # the one minimal transversal of no complement
    for mcs in mcses:
        transversals = _transversals(transversals, full ^ mcs)
    if mcses:  # read off the worlds, so every MCS is known
        return mcses, transversals
    while (seed := next((t for t in transversals if t not in muses), None)) is not None:
        for i in range(n):  # bit tests, not a query; the seed holds no known MUS
            if not seed >> i & 1 and 0 not in map((~(seed | 1 << i)).__and__, holding.get(i, ())):
                seed |= 1 << i
        current = [i for i in range(n) if seed >> i & 1]
        if solver.satisfiable(chosen := [positions[i] for i in current]):
            mcses.append(seed)
            transversals = _transversals(transversals, full ^ seed)
        else:
            kept = [current[k] for k in _shrink(solver, chosen)]
            muses.add(mus := sum(1 << i for i in kept))
            for i in kept:
                holding.setdefault(i, []).append(mus)
    return mcses, list(muses)


def _transversals(family: list[int], edge: int) -> list[int]:
    """Berge's step: the minimal transversals of a hypergraph with one more
    edge, from ``family``, those of the hypergraph without it.  Each set of
    ``family`` that meets the edge stays; each that misses it grows by
    every member of the edge, and a grown set stays unless a set that
    stayed lies within it."""
    kept = [t for t in family if t & edge]
    bits = [1 << i for i in range(edge.bit_length()) if edge >> i & 1]
    grown = (t | bit for t in family if not t & edge for bit in bits)
    return kept + [g for g in grown if all(k & ~g for k in kept)]


def _maximal_rows(shared: int, masks: Sequence[int]) -> list[int]:
    """Every maximal consistent index set over a complete model, as a bit
    set, from its worlds: the maximal rows "the members true at world w"
    over the worlds of ``shared``.  ``masks[i]`` is member i's worlds within
    ``shared``.

    Each step takes the lowest world whose row no set found so far holds,
    grows its row by every member, in order, that leaves a world with all
    chosen so far, and then drops every world whose row the grown set
    holds: those that no member outside it covers.  The grown set is a
    maximal row, holds the world's row and so is new; a maximal row is the
    row of each world in its joint mask, so every one is found.  A step
    costs ``2 * len(masks)`` mask operations, and there is one per MCS."""
    found: list[int] = []
    left = shared  # the worlds whose rows no set found so far holds
    while left:
        world = left & -left
        joint = reduce(int.__and__, filter(world.__and__, masks), shared)
        chosen = outside = 0
        for i, mask in enumerate(masks):
            if mask & joint:  # every member of the world's row passes
                joint &= mask
                chosen |= 1 << i
            else:
                outside |= mask
        found.append(chosen)
        left &= outside
    return found


def _shrink(solver: _Solver, current: list[int]) -> list[int]:
    """Delete members of an unsatisfiable list of positions, in order,
    while the rest stays unsatisfiable: the indices into ``current`` of a
    minimal unsatisfiable sublist.

    The query that leaves ``current[k]`` out asks about the members kept
    before it and every member after it.  Its mask is the kept members'
    mask and the suffix mask of those after, one ``&``; only an empty mask
    goes to ``_search``."""
    masks = solver.masks
    # suffix[k]: the worlds of the background and of current[k:]
    suffix = [solver.shared] * (len(current) + 1)
    for k in range(len(current) - 1, -1, -1):
        suffix[k] = suffix[k + 1] & masks[current[k]]
    kept: list[int] = []
    prefix = -1  # the kept members' worlds; -1 has every world's bit
    for k, i in enumerate(current):
        if prefix & suffix[k + 1] or solver._search([current[j] for j in kept] + current[k + 1:]):
            # satisfiable without current[k], so it stays
            kept.append(k)
            prefix &= masks[i]
    if not kept:  # exactly when the background alone is unsatisfiable
        raise ValueError("background is unsatisfiable")
    return kept


def minimal_unsat_subsets(
    candidates: Iterable[Formula],
    background: Iterable[Formula] | None = None,
    cap: int = DEFAULT_CANDIDATE_CAP,
) -> list[FormulaSet]:
    """All subsets of ``candidates`` that are unsatisfiable together with
    ``background`` and minimally so.  Exhaustive and deterministic; raises
    if the background is unsatisfiable or the cap is exceeded.

    Candidates given as a ``FormulaSet`` keep the subset walk, so that
    ``maximal_consistent_subsets``, ``degree_of_inconsistency`` and
    ``strands`` of the same set over the same background do not repeat it."""
    members, _, muses = _consistent_family(candidates, background, cap)
    return [FormulaSet._of(map(members.__getitem__, mus)) for mus, _ in muses]


def maximal_consistent_subsets(
    candidates: Iterable[Formula],
    background: Iterable[Formula] | None = None,
    cap: int = DEFAULT_CANDIDATE_CAP,
) -> list[FormulaSet]:
    """All subsets of ``candidates`` satisfiable with ``background`` to
    which no excluded candidate can be added without losing
    satisfiability.  Exhaustive and deterministic under the cap.

    Candidates given as a ``FormulaSet`` keep the subset walk, which
    ``minimal_unsat_subsets``, ``degree_of_inconsistency`` and ``strands``
    of the same set over the same background then read."""
    members, mcses, _ = _consistent_family(candidates, background, cap)
    return [FormulaSet._of(map(members.__getitem__, mcs)) for mcs, _ in mcses]


def shrink_unsat_subset(
    candidates: Iterable[Formula],
    background: Iterable[Formula] | None = None,
) -> FormulaSet | None:
    """Deletion-based extraction of one minimal unsatisfiable subset.

    Linear in the number of candidates, so usable far beyond the
    exhaustive-enumeration cap.  Returns None when the candidates are
    satisfiable with the background.  The result is a minimal
    unsatisfiable subset but not necessarily a smallest one.

    Over a belief base's own background, which names the base's model,
    the candidates are tested against its world masks first: a deletion
    that leaves a shared world costs one ``&`` and no search.  The formulas
    of an accepted set over it are asked of the base's solver.
    """
    members, background = _prepare(candidates, background)
    solver, positions = _solver_for(members, background)
    if solver.satisfiable(positions):
        return None
    return FormulaSet._of(members[k] for k in _shrink(solver, positions))

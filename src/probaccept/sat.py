"""Satisfiability, entailment, and subset diagnostics for formula sets.

The decision procedure is a self-contained iterative DPLL search (unit
propagation with two watched literals per clause, as in Chaff: Moskewicz
et al., DAC 2001, plus chronological backtracking) over a
structure-preserving clausal translation of the canonical negation normal
form.  Subformulas that are not already clause-shaped get one
definitional variable each, so lottery-style constraint sets translate
with no auxiliary variables at all.  Instances here are desk scale;
determinism wins over raw speed.

One solver answers every question, and it is the package's one
consistency oracle: every "is this set consistent with the background?"
that the acceptance policies, ``enumerate_extensions`` and ``diagnose``
ask goes to ``_Solver``.  The public functions below take formulas, not
a model.  One set names a model: a belief base's own background, which
holds with probability 1 in the base's model.  A solver over that
background reads the model from it, and no other code reads it.  Then
a query first tests the joint world mask of the background and the
chosen members: a world in it is a satisfying valuation, the witness.  A
model that lists every valuation that can satisfy the background answers
from its masks alone, since there an empty mask means unsatisfiable: one
that lists all ``2**len(atoms)`` valuations (every independent lottery),
and one that lists every valuation of a background ``exactly_one`` of
distinct atoms, which it shows by the count of its worlds that satisfy it
(every one-winner lottery built by ``fair_lottery`` or ``biased_lottery``).
Only a query the masks leave open reaches the search, and the clause
store is built at the first such query.  A call over any other
background, or with an atom the model lacks, searches every query.  The
answers never depend on which model it is, or whether there is one.
A deletion shrink with a model keeps the mask of the members kept so far
and suffix masks of those not yet tried, so each deletion costs one
``&``.

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
conjunction inside a conjunction, so no part is one.  A belief base
keeps one solver over its background and candidates, which every
acceptance policy and ``enumerate_extensions`` ask about that base, so
its store is built at most once.

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
unsatisfiable subset (MUS) once (MARCO: Liffiton, Previti, Malik &
Marques-Silva, *Constraints* 21(2), 2016).  The same DPLL search solves a
map formula over the members for a seed; it decides members true first,
in order, so each seed is a maximal model of the map: an MCS as it stands
if satisfiable, else shrunk to a MUS.  Each block joins the map's own
clause store, which is extended, never rebuilt.  On a model that lists
every valuation satisfying the background, the MCSes are read off the
worlds first: they are the maximal rows "the members true at world w"
over the background's worlds, and the MUSes are their minimal hitting
sets (Reiter, *AI* 32, 1987; Liffiton & Sakallah, *JAR* 40, 2008).  Each
MCS is blocked in the map before the loop, so every seed is
unsatisfiable and shrinks to a MUS by masks alone: the loop makes one map
search per MUS and one more.  ``DEFAULT_CANDIDATE_CAP`` bounds the loop.
The walk is kept with the candidate set: a
``FormulaSet`` of candidates holds the family it last gave, for one
background, so the minimal unsatisfiable subsets, the maximal consistent
ones, the degree of inconsistency and the strands of one set over one
background cost one walk between them, and a call that finds the walk
kept builds no solver.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import cached_property, reduce
from itertools import chain, compress

from .formulas import Formula, FormulaSet, _ExactlyOne, neg

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
        for clauses, rows in groups:
            self.units.append([])
            self.add(len(self.units) - 1, clauses, rows)

    def add(self, group: int, clauses: Sequence[_Lits], rows: Sequence[_Lits] = ()) -> None:
        start = len(self.clauses)
        # a watch moves only within a longer clause, so only that is mutable
        new = [list(c) if len(c) > 2 else c for c in clauses]
        self.clauses += new
        self.owner += [group] * len(new)
        watches, units = self.watches, self.units[group]
        for ci, clause in enumerate(new, start):
            if len(clause) == 1:
                units.append(clause[0])
            else:
                watches[clause[0]].append(ci)
                watches[clause[1]].append(ci)
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


class _Solver:
    """The one consistency oracle: is the background, with the chosen
    members, satisfiable?

    A background that names a world model (a belief base's own, whose
    ``_model`` is the base's model) lets a query first test the joint world
    mask of the background and the chosen members.  ``shared`` is the
    background's mask and ``masks[i]`` member i's, already met with it, so
    the acceptance policies read a candidate's worlds here by position.
    A world in a query's mask is a satisfying valuation.  A model that
    lists every valuation that can satisfy the background answers from the
    mask alone, since an empty mask there means no valuation satisfies them
    (``complete``): a model of all ``2**len(atoms)`` valuations, or one
    whose worlds satisfying some background ``exactly_one`` of k distinct
    atoms number ``k << (m - k)`` over its m atoms, as a one-winner
    lottery's do.  The loop that checks every background formula and member
    is a formula also drops the model when one has an atom the model lacks.
    With no model every mask is empty, as for a model that lists no world.
    ``_search``, which every empty mask reaches, asks ``complete``, and so
    does the subset walk, which reads the MCSes off such a model's worlds.

    Any other query goes to the clause store, built at the first such
    query: one variable numbering over the background (group 0) and the
    members (member i is group i + 1).  A query switches on the background
    and the chosen members and decides, in index order, only the variables
    their clauses mention.  The background's clauses and rows are stored as
    translated: two formulas may give the same clause or row, and one
    stored twice is indexed twice and answers the same."""

    def __init__(self, members: Sequence[Formula], background: Iterable[Formula] = ()):
        model = getattr(background, "_model", None)  # set on a base's own background
        self.members, self.background = members, tuple(background)
        known = None if model is None else set(model.atoms)
        for f in chain(self.background, members):
            if not isinstance(f, Formula):
                raise TypeError(f"satisfiability needs formulas, got {f!r}")
            if known is not None and not f.atoms() <= known:
                known = model = None  # an atom the model lacks: its masks cannot tell
        self.model = model
        if model is None:  # no world is known, so every query is searched
            self.shared, self.masks = 0, [0] * len(members)
        else:
            self.shared = model.joint_mask(self.background)
            self.masks = [self.shared & model.satisfying_mask(f) for f in members]

    @cached_property
    def complete(self) -> bool:
        """Whether an empty mask means unsatisfiable: the model lists every
        valuation that satisfies the background.  Read at the first empty
        mask, so a query with a witness world pays nothing for it."""
        model = self.model
        if model is None:
            return False
        m = len(model.atoms)
        if model.full_mask().bit_count() == 1 << m:  # every valuation
            return True
        # An exactly_one of k distinct atoms holds in k << (m - k) valuations.
        # The model lists no valuation twice, so when that many worlds satisfy
        # it, every valuation that satisfies the background is listed.
        return any(
            model.satisfying_mask(f).bit_count() == len(f._names) << (m - len(f._names))
            for f in self.background
            if isinstance(f, _ExactlyOne) and f._names
        )

    @cached_property
    def store(self) -> _Clauses:
        # built at the first query that the masks leave open
        index: dict = {}
        parts = [_translate(f, index) for f in self.background]
        shared = (
            [clause for clauses, _ in parts for clause in clauses],
            [row for _, rows in parts for row in rows],
        )
        # the background's clauses mention exactly variables 1..nshared; a
        # row's literals are those of its at-least-one clause
        self.nshared = len(index)
        groups = [shared, *(_translate(f, index) for f in self.members)]
        # per member, once: the variables of its clauses that the background
        # does not mention, which a query decides when the member is chosen
        self.own = [
            tuple({v for v in map(abs, chain.from_iterable(clauses)) if v > self.nshared})
            for clauses, _ in groups[1:]
        ]
        return _Clauses(len(index), groups)

    def satisfiable(self, which: Sequence[int] = ()) -> bool:
        mask = reduce(int.__and__, map(self.masks.__getitem__, which), self.shared)
        return bool(mask) or self._search(which)

    def _search(self, which: Sequence[int]) -> bool:
        """``satisfiable(which)`` for a query whose joint mask is empty:
        false on a ``complete`` model, else decided by the clause store."""
        if self.complete:
            return False
        store = self.store
        chosen = bytearray(len(self.members))
        for i in which:
            chosen[i] = 1
        units = [*store.units[0], *chain.from_iterable(compress(store.units[1:], chosen))]
        own = set(chain.from_iterable(compress(self.own, chosen)))
        decisions = [*range(1, self.nshared + 1), *sorted(own)]
        return _dpll(store, b"\x01" + chosen, units, decisions) is not None


def is_satisfiable(formulas: Iterable[Formula]) -> bool:
    """True iff some total valuation satisfies every member."""
    return _Solver((), formulas).satisfiable()


def entails(
    background: Iterable[Formula],
    premises: Iterable[Formula],
    conclusion: Formula,
) -> bool:
    """Classical entailment relative to a background set."""
    if not isinstance(conclusion, Formula):
        raise TypeError(f"the conclusion must be a formula, got {conclusion!r}")
    # a plain background is read once, before the premises
    background = background if isinstance(background, FormulaSet) else [*background]
    members = [*premises, neg(conclusion)]
    return not _Solver(members, background).satisfiable(range(len(members)))


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


def _consistent_family(
    candidates: Iterable[Formula],
    background: Iterable[Formula] | None,
    cap: int,
) -> tuple[tuple[tuple[str, Formula], ...], list[frozenset[int]], list[frozenset[int]]]:
    """The members as (canonical key, formula) pairs, every maximal
    consistent index set among them (largest first) and every minimal
    unsatisfiable one (smallest first), each list then in lexicographic
    order.

    When the background has a world and the model lists every valuation
    that satisfies it (``complete``), ``_maximal_rows`` reads the MCSes off
    the worlds and each one's block joins the map before the loop, so the
    map yields only unsatisfiable seeds, each shrunk to a MUS by masks
    alone.  Otherwise the loop finds both kinds.

    Candidates given as a ``FormulaSet`` keep the family in its ``_family``
    slot, with the canonical keys of the background it was walked over.  A
    later call on that set with a background of the same keys returns it
    without a walk, once the arguments have passed every check, and builds
    no solver; the lists returned are new on every call."""
    members, background = _prepare(candidates, background, cap)
    key = frozenset(f.canonical_key for f in background)
    kept = getattr(candidates, "_family", None)  # unset until a walk, and on a list
    if kept is not None and kept[0] == key:
        return members, list(kept[1]), list(kept[2])
    mcses, muses = _walk(_Solver([f for _, f in members], background), len(members))
    mcses.sort(key=lambda s: (-len(s), sorted(s)))
    muses.sort(key=lambda s: (len(s), sorted(s)))
    if isinstance(candidates, FormulaSet):
        candidates._family = (key, tuple(mcses), tuple(muses))
    return members, mcses, muses


def _walk(solver: _Solver, n: int) -> tuple[list[frozenset[int]], list[frozenset[int]]]:
    """Every MCS and every MUS of the solver's ``n`` members, unsorted."""
    mcses: list[frozenset[int]] = []
    muses: list[frozenset[int]] = []
    blocks = _Clauses(n, [((), ())])  # the map: member i as variable i + 1
    mentioned: set[int] = set()
    if solver.shared and solver.complete:
        mcses = _maximal_rows(solver.shared, solver.masks)
        if len(mcses[0]) == n:  # the only MCS, so no MUS
            return mcses, muses
        blocked = [tuple(i + 1 for i in range(n) if i not in mcs) for mcs in mcses]
        blocks.add(0, blocked)
        mentioned.update(*blocked)
    while (
        seed := _dpll(blocks, b"\x01", blocks.units[0], sorted(mentioned))
    ) is not None:
        current = [i for i in range(n) if seed[i + 1] >= 0]  # undecided is chosen
        if solver.satisfiable(current):
            # maximal as it is, since the map search decides true first; were
            # it to decide false first, the seed would need a grow step
            mcses.append(frozenset(current))
            if len(current) == n:  # the only MCS; its block would be empty
                break
            block = tuple(i + 1 for i in range(n) if i not in current)
        else:
            current = _shrink(solver, current)
            muses.append(frozenset(current))
            block = tuple(-(i + 1) for i in current)
        blocks.add(0, [block])
        mentioned.update(map(abs, block))
    return mcses, muses


def _maximal_rows(shared: int, masks: Sequence[int]) -> list[frozenset[int]]:
    """Every maximal consistent index set over a complete model, from its
    worlds: the maximal rows "the members true at world w" over the worlds
    of ``shared``.  ``masks[i]`` is member i's worlds within ``shared``.

    Each step takes the lowest world whose row no set found so far holds,
    grows its row by every member, in order, that leaves a world with all
    chosen so far, and then drops every world whose row the grown set
    holds: those that no member outside it covers.  The grown set is a
    maximal row, holds the world's row and so is new; a maximal row is the
    row of each world in its joint mask, so every one is found.  A step
    costs ``2 * len(masks)`` mask operations, and there is one per MCS."""
    found: list[frozenset[int]] = []
    left = shared  # the worlds whose rows no set found so far holds
    while left:
        world = left & -left
        joint = reduce(int.__and__, filter(world.__and__, masks), shared)
        chosen, outside = [], 0
        for i, mask in enumerate(masks):
            if mask & joint:  # every member of the world's row passes
                joint &= mask
                chosen.append(i)
            else:
                outside |= mask
        found.append(frozenset(chosen))
        left &= outside
    return found


def _shrink(solver: _Solver, current: list[int]) -> list[int]:
    """Delete members of an unsatisfiable index list, in order, while the
    rest stays unsatisfiable: a minimal unsatisfiable index list.

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
        if prefix & suffix[k + 1] or solver._search([*kept, *current[k + 1:]]):
            # satisfiable without current[k], so it stays
            kept.append(i)
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
    return [FormulaSet._of(members[i] for i in sorted(mus)) for mus in muses]


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
    return [FormulaSet._of(members[i] for i in sorted(mcs)) for mcs in mcses]


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
    that leaves a shared world costs one ``&`` and no search.
    """
    members, background = _prepare(candidates, background)
    solver = _Solver([f for _, f in members], background)
    if solver.satisfiable(range(len(members))):
        return None
    return FormulaSet._of(members[i] for i in _shrink(solver, list(range(len(members)))))

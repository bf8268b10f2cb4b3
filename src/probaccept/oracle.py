"""The package's one consistency oracle, answered from world masks first.

Every "is this set consistent with the background?" that the acceptance
policies, ``enumerate_extensions`` and ``diagnose`` ask goes to
``_Solver``.  The public functions of ``sat`` take formulas, not a
model.  One set names a model: a belief base's own background, which
holds with probability 1 in the base's model.  A solver over that
background reads the model from it, and no other code reads it, but
``_own_background``, by which ``closure.consequence_level`` keeps
such a set, already checked certain, as its background.  Then a query
first tests the joint world mask of the background and the chosen
members: a world in it is a satisfying valuation, the witness.  A model
that lists every valuation that can satisfy the background answers from
its masks alone, since there an empty mask means unsatisfiable: one that
lists all ``2**len(atoms)`` valuations (every independent lottery), and
one that lists every valuation of background ``exactly_one``s over
disjoint sets of distinct atoms, which it shows by the count of its
worlds that satisfy them (every one-winner lottery built by
``fair_lottery`` or ``biased_lottery``, and products of such lotteries).
Only a query the masks leave open reaches the search, and the clause
store is built at the first such query.  A call over any other
background, or with an atom the model lacks, searches every query.  The
answers never depend on which model it is, or whether there is one.

The search, the clause store and the translation they read are ``sat``'s,
imported at the first query the masks leave open, so a command whose
every verdict a mask decides, such as ``accept`` on a lottery, never
loads ``sat``.

A belief base keeps one solver over its background and candidates, which
every acceptance policy and ``enumerate_extensions`` ask about that base,
so its store is built at most once.  ``accept._solver`` builds it at the
base's first policy run, by ``_Solver`` or, for a base from a lottery
builder, by ``_Solver._complete`` from the closed form the builder wrote,
and names it on the base's own background.  Over that background the
``sat`` diagnostics ask it too, for members that are all candidates of
the base (an accepted set's statements): by candidate position, sharing
its masks, its ``complete`` and its store, with no solver of their own.
``entails``, which ``sat`` gives by name, asks it as well, for premises
that are all candidates, by the joint mask of their positions less the
conclusion's worlds; only what those masks leave open gets a solver of
its own.  So ``closure``, which takes ``entails`` and ``_own_background``
from here, loads ``sat`` only at an entailment the masks leave open.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import cached_property, reduce
from itertools import chain, compress
from math import prod

from .formulas import Formula, FormulaSet, _ExactlyOne, neg


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
    (``complete``): one whose worlds satisfying the background's
    ``exactly_one``s over disjoint sets of k_i distinct atoms number
    ``prod(k_i) << (m - sum(k_i))`` over its m atoms, as a one-winner
    lottery's and a product of them do, and all ``2**m`` valuations when
    there is none.  The loop that checks every background formula and member
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

    @classmethod
    def _complete(cls, members, background, model, shared: int, masks: list[int]) -> _Solver:
        """The solver ``cls(members, background)`` over a ``complete``
        model, given ``shared`` and ``masks`` as it would find them: a
        lottery builder writes them in closed form, and ``accept._solver``
        hands them over, so no formula is read or masked."""
        solver = cls.__new__(cls)
        solver.members, solver.background, solver.model = members, tuple(background), model
        solver.shared, solver.masks, solver.complete = shared, masks, True  # before any read
        return solver

    @cached_property
    def complete(self) -> bool:
        """Whether an empty mask means unsatisfiable: the model lists every
        valuation that satisfies the background.  Read at the first empty
        mask, so a query with a witness world pays nothing for it."""
        model = self.model
        if model is None:
            return False
        # exactly_ones over disjoint sets of k_i distinct atoms, taken in
        # order, hold together in prod(k_i) << (m - sum(k_i)) valuations, all
        # 2**m for none.  The model lists no valuation twice, so when that
        # many worlds satisfy them, every valuation that satisfies the
        # background is listed.
        rows: list[Formula] = []
        taken: set[str] = set()
        for f in self.background:
            if isinstance(f, _ExactlyOne) and f._names and taken.isdisjoint(f._names):
                rows.append(f)
                taken.update(f._names)
        count = prod(len(f._names) for f in rows) << (len(model.atoms) - len(taken))
        return model.joint_mask(rows).bit_count() == count

    @cached_property
    def store(self):
        # built at the first query that the masks leave open
        from .sat import _Clauses, _translate

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

    @cached_property
    def position(self) -> dict[str, int]:
        """Each member's position by its canonical key, built at the first
        question asked by key (a diagnostic or an entailment over a base's
        own background); a repeated key gives its last position."""
        return {f.canonical_key: i for i, f in enumerate(self.members)}

    def satisfiable(self, which: Sequence[int] = ()) -> bool:
        mask = reduce(int.__and__, map(self.masks.__getitem__, which), self.shared)
        return bool(mask) or self._search(which)

    def _search(self, which: Sequence[int]) -> bool:
        """``satisfiable(which)`` for a query whose joint mask is empty:
        false on a ``complete`` model, else decided by the clause store."""
        if self.complete:
            return False
        from .sat import _dpll

        store = self.store
        chosen = bytearray(len(self.members))
        for i in which:
            chosen[i] = 1
        units = [*store.units[0], *chain.from_iterable(compress(store.units[1:], chosen))]
        own = set(chain.from_iterable(compress(self.own, chosen)))
        decisions = [*range(1, self.nshared + 1), *sorted(own)]
        return _dpll(store, b"\x01" + chosen, units, decisions) is not None


def entails(
    background: Iterable[Formula],
    premises: Iterable[Formula],
    conclusion: Formula,
) -> bool:
    """Classical entailment relative to a background set.

    Over a belief base's own background, once a policy has run on the
    base, premises that are all candidates of the base are asked of the
    base's solver by position: the joint mask of the background and the
    premises, less the conclusion's worlds.  A world left in it satisfies
    the background and the premises and falsifies the conclusion, so the
    premises do not entail it; with none left on a ``complete`` model they
    do.  Any other call, a conclusion with an atom the model lacks, and an
    empty mask on a model that is not complete build a solver over the
    premises and the negated conclusion, which tests its own masks first
    over a base's background and searches what they leave open."""
    if not isinstance(conclusion, Formula):
        raise TypeError(f"the conclusion must be a formula, got {conclusion!r}")
    # a plain background is read once, before the premises
    background = background if isinstance(background, FormulaSet) else [*background]
    premises = [*premises]
    if all(isinstance(f, Formula) for f in premises) and (
        asked := _on_base(background, (f.canonical_key for f in premises))
    ):
        solver, positions = asked
        model = solver.model
        if model._atom_masks.keys() >= conclusion.atoms():
            left = reduce(int.__and__, map(solver.masks.__getitem__, positions), solver.shared)
            if left & ~model.satisfying_mask(conclusion):
                return False
            if solver.complete:
                return True
    members = [*premises, neg(conclusion)]
    return not _Solver(members, background).satisfiable(range(len(members)))


def _own_background(background, model) -> bool:
    """Whether ``background`` is a belief base's own set over ``model``,
    whose formulas the base checked to be certain in it."""
    return getattr(background, "_model", None) is model


def _on_base(background, keys: Iterable[str]) -> tuple[_Solver, list[int]] | None:
    """The solver that a belief base's own background names once a policy
    has run on the base, and the candidate positions of the members with
    canonical ``keys``; None when the background names no solver or a
    member is no candidate of the base."""
    if (solver := getattr(background, "_base_solver", None)) is not None:
        position = solver.position
        if None not in (positions := [position.get(key) for key in keys]):
            return solver, positions
    return None

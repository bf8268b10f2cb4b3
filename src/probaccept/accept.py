"""Acceptance policies over belief bases.

Four ways of turning "probable enough" into "accepted"; the two ordered
ones run by one candidate scan (``_scan``) that carries the joint world
mask of the background and the statements accepted so far:

* ``threshold_accept`` takes every candidate whose probability clears the
  acceptance level, consistency be damned; with a fair n-ticket lottery
  at level 1 - 1/n this reproduces the classic jointly-unsatisfiable
  accepted set.
* ``lehrer_accept`` additionally demands that a candidate be strictly
  more probable than every candidate contrary to it (contrary: the pair
  is unsatisfiable together with the background), so ties block; it
  accepts, in base order, the candidates no contrary matches.
* ``sequential_accept`` scans candidates in a given order and keeps each
  one that clears the level and preserves satisfiability.  The outcome
  depends on the order.
* ``teng_accept`` scans in order but thresholds the probability of each
  candidate conditional on what is already accepted: a fixed-point rule,
  accept what is probable relative to what you have accepted.

``lehrer_cascade`` iterates the dominance rule with conditioning, which
on a biased lottery accepts lose-statement after lose-statement until it
ends up accepting that the last remaining ticket wins.  It is a greedy
conditional scan, whose records ``_accepted`` builds as it does Teng's.
``enumerate_extensions``, in the module ``extensions``, surfaces the
order dependence by running a policy over many candidate orders and
collecting the distinct outcomes; this module still gives it, its result
class and ``MAX_PERMUTATIONS`` by name (a module ``__getattr__``), so a
policy run never compiles it.

Every policy reads a candidate's worlds from the one solver that
``_solver`` keeps on the base, which names candidates by their position
in ``base.candidates``: ``shared`` is the background's world mask and
``masks[i]`` candidate i's, already met with it.  ``_solver`` builds it
at the base's first run, from the formulas, or from the closed form that
a lottery builder left on the base, and names it on the base's own
background, where the ``sat`` diagnostics of an accepted set and
``sat.entails`` from premises among the candidates find it.
Every consistency question about a base (a scan's verdict, a sequential
admission, a Lehrer contrary, the conjunction of the extensions) goes to
that solver, once.  A world in the carried mask answers most of them
first; a conditional run (``teng``, the cascade) keeps one by
construction, so its verdict asks nothing.

The solver also weighs each candidate once per base: ``weights[i]`` is
the integer numerator of ``masks[i]`` over the model's common denominator
``D``, which is the numerator of the candidate's probability, since the
background has probability 1.  A run turns its level into one integer,
the least numerator over ``D`` that meets it (``AcceptanceLevel._cut``,
read from epsilon's integers, so no ``Fraction`` at all), and compares
weights with it: ``threshold`` in one comprehension over the weights.
A conditional weight comes from ``_within``: the candidate's complement
in the background's worlds weighs ``D - weights[i]``, so within a carried
mask it weighs the whole mask, nothing, or (only where the complement
straddles the mask) what the model weighs.  ``teng`` and the cascade's
later stages read it; on a one-winner lottery every complement is one
world, and the model weighs nothing.  Before any acceptance it is
``weights[i]`` itself, which the cascade's first stage reads.  The
cascade's lone winner is read off its last stage's weights: a ticket's
worlds within the carried mask are its lose statement's complement there.
An accepted candidate's unconditional ``Acceptance`` (support equal to
probability) is built the first time a run accepts it and kept in the
solver's ``acceptances[i]``, shared by every later ``threshold``,
``lehrer`` and ``sequential`` run; for ``teng`` and the cascade's stages
``_accepted`` builds conditional records from its fields.
``enumerate_extensions`` runs ``_scan`` alone for each order and makes an
``AcceptedSet`` only for the first order of each distinct outcome.

What depends on the base alone is kept beside them, each built by the
first run that needs it: the label-to-position map of the ordered runs
(``positions``), Lehrer's world counts and sorted rivals (``rivals``),
and the cascade's ticket names by position (``tickets``, a list kept
only once every candidate has passed its shape check).  A warm run pays
for its own scan and records, and for every check of its arguments.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from fractions import Fraction
from functools import cached_property
from itertools import takewhile

from .formulas import Formula, FormulaSet, atom
from .oracle import _Solver
from .rationals import as_fraction
from .records import record
from .worlds import BeliefBase

__all__ = [
    "AcceptanceLevel",
    "Acceptance",
    "AcceptedSet",
    "ExtensionEnumeration",
    "stakes_threshold",
    "threshold_accept",
    "lehrer_accept",
    "lehrer_cascade",
    "sequential_accept",
    "teng_accept",
    "enumerate_extensions",
    "DEFAULT_SEED",
]

DEFAULT_SEED = 0


@record
class AcceptanceLevel:
    """Acceptance at level 1 - epsilon.

    The threshold comparison is non-strict by default (probability >= 1 -
    epsilon), which is what lets the n-ticket lottery at epsilon = 1/n go
    through; set ``strict`` for the strictly-greater variant.
    """

    def __init__(self, epsilon: Fraction, strict: bool = False):
        eps = as_fraction(epsilon)
        if not 0 < eps.numerator < eps.denominator:
            raise ValueError(f"epsilon must lie strictly between 0 and 1, got {eps}")
        if not isinstance(strict, bool):  # "false" would be taken as true
            raise ValueError(f"strict must be a bool, not {strict!r}")
        self.__dict__.update(epsilon=eps, strict=strict)

    # reports and messages read it; frozen still leaves the instance __dict__
    @cached_property
    def threshold(self) -> Fraction:
        return 1 - self.epsilon

    def met_by(self, p: Fraction) -> bool:
        p = as_fraction(p)
        return p.numerator >= self._cut(p.denominator)

    def _cut(self, denominator: int) -> int:
        """The least numerator that meets the level over a positive
        ``denominator``: with epsilon ``p/q``, the ceiling of ``(q - p) *
        denominator / q``, or its floor plus 1 when strict.  It reads the
        integers p and q, so a fresh level builds no ``Fraction`` for it.  A
        policy compares a weight, an integer numerator, with the cut over
        its denominator."""
        q = self.epsilon.denominator
        scaled = (q - self.epsilon.numerator) * denominator
        return scaled // q + 1 if self.strict else -(-scaled // q)


@record
class Acceptance:
    """One accepted statement.

    ``probability`` is the statement's unconditional probability in the
    model; ``support`` is the value that was actually compared against
    the threshold when the statement was accepted (for the conditional
    policies these differ).
    """

    def __init__(self, label: str, statement: Formula, probability: Fraction, support: Fraction):
        self.__dict__.update(
            label=label, statement=statement, probability=probability, support=support
        )


@record
class AcceptedSet:
    """The output of one policy run: accepted statements in acceptance
    order, the background they sit on, and a weak-consistency verdict.

    A run's background is its base's own, the one set that names the
    base's world model, so that the ``sat`` diagnostics over it test the
    model's world masks first; a shallow copy shares it, while a deep copy
    or a pickle rebuilds it and names none."""

    def __init__(
        self,
        policy: str,
        level: AcceptanceLevel,
        accepted: tuple[Acceptance, ...],
        background: FormulaSet,
        weakly_consistent: bool,
    ):
        self.__dict__.update(
            policy=policy,
            level=level,
            accepted=accepted,
            background=background,
            weakly_consistent=weakly_consistent,
        )

    @property
    def order(self) -> tuple[str, ...]:
        return tuple(a.label for a in self.accepted)

    @property
    def accepted_formulas(self) -> FormulaSet:
        """The accepted statements, as a new plain set."""
        return FormulaSet(a.statement for a in self.accepted)

    @property
    def statements(self) -> FormulaSet:
        return self.background.union(a.statement for a in self.accepted)


def stakes_threshold(max_benefit_to_cost) -> AcceptanceLevel:
    """Acceptance level for a class of circumstances whose benefit-to-cost
    ratios never exceed r: epsilon = 1/(1+r), threshold r/(1+r).

    Above that threshold no available bet in the circumstance class is
    worth taking against the statement, so r = 3 already flattens the
    difference between probability 3/4 and probability 1.
    """
    ratio = as_fraction(max_benefit_to_cost)
    if ratio < 1:
        raise ValueError(f"stakes ratio must be at least 1, got {ratio}")
    return AcceptanceLevel(Fraction(1, 1) / (1 + ratio))


def _solver(base: BeliefBase) -> _Solver:
    """The base's one solver over its background and candidates, member i
    being candidate i; built at the base's first policy run and kept on
    the base.  A lottery builder leaves the solver's closed form
    ``(shared, masks, weights)`` on the base, which becomes the solver as
    it stands, with no formula read.  The base's own background names the
    solver, so that the ``sat`` diagnostics over it of sets drawn from the
    candidates, such as an accepted set's statements, ask it too.

    Beside the solver's ``shared`` and ``masks[i]`` it holds what the
    policies weigh, once per base: ``weights[i]``, the numerator of
    ``masks[i]`` over the model's common denominator, which is candidate
    i's probability's numerator because the background has probability 1;
    and ``acceptances[i]``, candidate i's unconditional ``Acceptance``,
    which ``_acceptance`` builds when a run first accepts it.  Its
    ``positions``, ``rivals`` and ``tickets`` start empty: the first
    ordered, Lehrer and cascade run builds each, so that a run that needs
    none, such as a ``diagnose`` command's threshold run, pays for none."""
    if (solver := base._solver) is None or isinstance(solver, tuple):
        members = [f for _, f in base.candidates]
        if solver is None:
            solver = _Solver(members, base.background)
            weights = [base.model._numerator(mask) for mask in solver.masks]
        else:
            shared, masks, weights = solver
            solver = _Solver._complete(members, base.background, base.model, shared, masks)
        solver.weights, solver.acceptances = weights, [None] * len(members)
        solver.positions = solver.rivals = solver.tickets = None  # built when first read
        base.background._base_solver = solver
        object.__setattr__(base, "_solver", solver)
    return solver


def _acceptance(base: BeliefBase, i: int) -> Acceptance:
    """Candidate i's unconditional acceptance, its support the probability,
    ``weights[i] / D``, as the model keeps it: built once per base, and
    shared by every run that accepts the candidate."""
    solver = base._solver
    if solver.acceptances[i] is None:
        label, formula = base.candidates[i]
        p = base.model.probability(formula)
        solver.acceptances[i] = Acceptance(label, formula, p, p)
    return solver.acceptances[i]


def _within(base: BeliefBase, current: int, given: int, i: int) -> int:
    """Candidate i's weight within the carried mask ``current``, a subset of
    the solver's ``shared`` worlds of numerator ``given``: the numerator of
    ``current & masks[i]``.

    The background has probability 1, so ``shared`` weighs ``D`` and the
    candidate's complement there, ``shared ^ masks[i]``, weighs ``D -
    weights[i]``.  A complement that misses ``current`` leaves it whole, of
    weight ``given``; one inside it takes its whole weight away.  Only a
    complement that straddles ``current`` is weighed by the model.  Exact
    on any base: on a one-winner lottery every complement is one world, so
    the model weighs nothing."""
    solver = base._solver
    outside = solver.shared ^ solver.masks[i]
    met = outside & current
    if not met:
        return given
    if met == outside:
        return given - base.model._denominator + solver.weights[i]
    return base.model._numerator(current & solver.masks[i])


def _scan(
    base: BeliefBase, order: Iterable[int], level: AcceptanceLevel, conditional: bool = False
) -> tuple[list[int], list[int]]:
    """Visit the candidates at the positions in ``order``; return the accepted
    candidates' positions and, with ``conditional`` (``teng``), their
    supports' numerators.  Without it (``sequential``) a support is the
    probability and the accepted set must stay satisfiable; with it a
    support is the weight within the carried mask over its weight.

    Every weight is an integer numerator over the model's common
    denominator ``D``, compared with the level's cut, the least numerator
    that meets it (``AcceptanceLevel._cut``).  A probability is the
    solver's ``weights[i]``, against the cut over ``D``, computed once per
    run.  A conditional support is ``_within`` the carried mask, over its
    numerator: ``D`` before the first acceptance (the background's), where
    it is ``weights[i]``, and after each the accepted candidate's weight,
    which moves the cut.  That numerator never reaches 0: a cut is at least
    1 for any epsilon below 1, and an accepted weight at least its cut.

    The carried mask starts as the solver's ``shared`` worlds and meets
    candidate i's, ``masks[i]``, at each acceptance.  A world in it settles
    a sequential admission; an empty one asks the solver, by the accepted
    candidates' positions."""
    model, solver = base.model, _solver(base)
    weights, masks = solver.weights, solver.masks
    current, given = solver.shared, model._denominator
    cut = level._cut(given)
    taken, supports = [], []
    for i in order:
        if conditional:
            weight = _within(base, current, given, i)
            if weight < cut:
                continue
            supports.append(weight)
            current, given, cut = current & masks[i], weight, level._cut(weight)
        else:
            if weights[i] < cut:
                continue
            joint = current & masks[i]
            if not joint and not solver._search([*taken, i]):  # no world settles it
                continue
            current = joint
        taken.append(i)
    return taken, supports


def _accepted(
    policy: str, base: BeliefBase, level: AcceptanceLevel, taken: list[int], supports=()
) -> AcceptedSet:
    """The ``AcceptedSet`` of a ``_scan`` that accepted the candidates at
    ``taken``: their shared acceptances, or with ``supports`` (a
    conditional run's, each over the one before it, the first over ``D``)
    new records of the conditional supports.  A sequential, Teng or cascade
    run is weakly consistent without asking: a sequential run's last
    admission, or the background of probability 1, answered it, and a
    conditional run's carried mask keeps a positive weight, so a world.
    Any other asks the solver, which a world in the accepted candidates'
    joint mask answers first."""
    kept = base._solver.acceptances
    accepted = [kept[i] or _acceptance(base, i) for i in taken]
    if supports:
        over = [base.model._denominator, *supports]
        accepted = [
            Acceptance(a.label, a.statement, a.probability, Fraction(w, d))
            for a, w, d in zip(accepted, supports, over)
        ]
    verdict = policy in ("sequential", "teng", "cascade") or base._solver.satisfiable(taken)
    return AcceptedSet(policy, level, tuple(accepted), base.background, verdict)


def _positions(base: BeliefBase, order: Sequence[str]) -> list[int]:
    """The candidates' positions in ``order``, which must list every label
    once.  The labels are distinct strings, so an order of as many strings
    that holds every label is a permutation; checking that needs no sort,
    which fails on items of mixed types.  The label map is built at the
    base's first ordered run and kept as the solver's ``positions``; every
    order is checked against it."""
    solver = _solver(base)
    if (position := solver.positions) is None:
        position = solver.positions = {label: i for i, (label, _) in enumerate(base.candidates)}
    if not (
        len(order) == len(position)
        and all(isinstance(label, str) for label in order)
        and position.keys() == set(order)
    ):
        raise ValueError("order must be a permutation of the candidate labels")
    return [position[label] for label in order]


def threshold_accept(base: BeliefBase, level: AcceptanceLevel) -> AcceptedSet:
    """Accept every candidate whose probability clears the level; weak
    consistency of the result is reported, not enforced.  One comparison of
    each of the solver's ``weights`` with the level's cut over ``D``."""
    cut = level._cut(base.model._denominator)
    taken = [i for i, w in enumerate(_solver(base).weights) if w >= cut]
    return _accepted("threshold", base, level, taken)


def _undominated(base: BeliefBase, level: AcceptanceLevel) -> list[int]:
    """The positions of the candidates that clear the level and that no
    contrary rival (any candidate jointly unsatisfiable with it and the
    background) matches or beats in weight.

    A pair with a shared world is satisfiable, and two masks inside the
    ``room`` worlds of the background (the solver keeps each candidate's
    met with them) whose counts add up to more than ``room`` share one.
    So only a candidate with ``count_i <= room - low``, ``low`` the least
    count, can be in a contrary pair.  Those are sorted by count, and each
    visits the prefix of rivals with ``count_j <= room - count_i``,
    testing each by mask, weight and solver.  A one-winner lottery sorts
    nothing and visits no pair.  ``room``, the counts, ``low`` and the
    sorted rivals depend on the base alone: the first run keeps them as
    the solver's ``rivals``."""
    solver = _solver(base)
    weights, masks = solver.weights, solver.masks
    if solver.rivals is None:
        room = solver.shared.bit_count()
        counts = [mask.bit_count() for mask in masks]
        low = min(counts, default=0)
        rivals = sorted((j for j, c in enumerate(counts) if c <= room - low), key=counts.__getitem__)
        solver.rivals = room, counts, low, rivals
    room, counts, low, rivals = solver.rivals
    cut = level._cut(base.model._denominator)
    return [
        i
        for i, w in enumerate(weights)
        if w >= cut
        and not (
            counts[i] <= room - low
            and any(
                # the cheap mask test first: a shared world settles most pairs
                not (masks[i] & masks[j]) and weights[j] >= w and not solver.satisfiable((i, j))
                for j in takewhile(lambda r: counts[r] <= room - counts[i], rivals)
                if j != i
            )
        )
    ]


def lehrer_accept(base: BeliefBase, level: AcceptanceLevel) -> AcceptedSet:
    """Accept a candidate only when it clears the level and is strictly
    more probable than every candidate contrary to it.  Ties between
    contraries block both sides, which empties the two-ticket fair
    lottery."""
    return _accepted("lehrer", base, level, _undominated(base, level))


def _ticket_atom(formula: Formula) -> str:
    if formula.op == "not" and formula.args[0].op == "atom":
        return formula.args[0].name  # type: ignore[return-value]
    raise ValueError(
        "cascade needs lottery-shaped candidates (each the negation of one "
        f"outcome atom); got {formula}"
    )


def lehrer_cascade(base: BeliefBase, level: AcceptanceLevel) -> AcceptedSet:
    """Iterated dominance with conditioning on prior acceptances.

    At each stage the most probable unaccepted lose-statement, measured
    conditional on everything accepted so far, is accepted if it clears
    the level; a tie for the top halts the cascade (strict dominance is
    the rule's own requirement).  When exactly one ticket remains able to
    win, the cascade accepts that it wins, if that too clears the level.

    It is a greedy conditional scan: each stage's leader goes to ``taken``
    and its weight to ``supports``, as in ``_scan``, and ``_accepted``
    builds the stage records.  A stage's conditionals share the
    denominator ``given``, the numerator of the carried mask, so they are
    ranked and tied as integer numerators: the solver's ``weights`` at the
    first stage, then each remaining candidate's weight ``_within`` the
    carried mask.  The winner is read off the last stage's weights: a
    remaining lose statement that weighs less than ``given`` leaves its
    ticket worlds of positive weight, and its ticket's support is ``given``
    less that weight, over ``given``.  Tickets are counted by name, so one
    lose statement under two labels is one ticket.

    The ticket names by position are kept as the solver's ``tickets``, but
    only once every candidate has passed the shape check, so that a base
    of another shape raises on every call.
    """
    solver = _solver(base)
    if (tickets := solver.tickets) is None:
        tickets = solver.tickets = [_ticket_atom(f) for _, f in base.candidates]
    current, given = solver.shared, base.model._denominator
    remaining = list(range(len(tickets)))  # by position
    weights = solver.weights
    taken, supports = [], []
    while remaining:  # given stays above 0, as in ``_scan``
        best = max(weights)
        if weights.count(best) != 1 or best < level._cut(given):
            break
        i = remaining.pop(weights.index(best))
        taken.append(i)
        supports.append(best)
        current, given = current & solver.masks[i], best
        weights = [_within(base, current, given, j) for j in remaining]
    result = _accepted("cascade", base, level, taken, supports)
    alive = ((tickets[j], w) for j, w in zip(remaining, weights) if w < given)
    winner, w = next(alive, (None, given))
    # a second ticket able to win ends the search; a second label of the winner's does not
    if winner is not None and all(name == winner for name, _ in alive):
        if given - w >= level._cut(given):
            win = atom(winner)
            won = Acceptance(winner, win, base.model.probability(win), Fraction(given - w, given))
            result = AcceptedSet("cascade", level, (*result.accepted, won), base.background, True)
    return result


def sequential_accept(
    base: BeliefBase, order: Sequence[str], level: AcceptanceLevel
) -> AcceptedSet:
    """Accept candidates in order when probable enough, skipping any that
    would make the accepted set (with background) unsatisfiable.  Always
    weakly consistent; which statements get in depends on the order."""
    taken, _ = _scan(base, _positions(base, order), level)
    return _accepted("sequential", base, level, taken)


def teng_accept(
    base: BeliefBase, order: Sequence[str], level: AcceptanceLevel
) -> AcceptedSet:
    """Fixed-point acceptance: scan candidates in order and accept each
    one whose probability conditional on the already-accepted statements
    (and background) clears the level.

    On the fair 100-ticket lottery at epsilon 1/100 this stops after a
    single lose statement, because 98/99 < 99/100 exactly.
    """
    return _accepted("teng", base, level, *_scan(base, _positions(base, order), level, True))


# Every policy under its command-line name: the function that runs it and
# whether it takes a candidate order (called as ``run(base, order, level)``
# rather than ``run(base, level)``).
POLICY_TABLE: dict[str, tuple[Callable[..., AcceptedSet], bool]] = {
    "threshold": (threshold_accept, False),
    "lehrer": (lehrer_accept, False),
    "cascade": (lehrer_cascade, False),
    "sequential": (sequential_accept, True),
    "teng": (teng_accept, True),
}


def __getattr__(name):
    if name in ("ExtensionEnumeration", "enumerate_extensions", "MAX_PERMUTATIONS"):
        from . import extensions

        return getattr(extensions, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

"""Acceptance policies over belief bases.

Four ways of turning "probable enough" into "accepted", all run by one
candidate scan (``_scan``) that carries the joint world mask of the
background and the statements accepted so far:

* ``threshold_accept`` takes every candidate whose probability clears the
  acceptance level, consistency be damned; with a fair n-ticket lottery
  at level 1 - 1/n this reproduces the classic jointly-unsatisfiable
  accepted set.
* ``lehrer_accept`` additionally demands that a candidate be strictly
  more probable than every candidate contrary to it (contrary: the pair
  is unsatisfiable together with the background), so ties block; the
  dominated candidates are dropped before the scan.
* ``sequential_accept`` scans candidates in a given order and keeps each
  one that clears the level and preserves satisfiability.  The outcome
  depends on the order.
* ``teng_accept`` scans in order but thresholds the probability of each
  candidate conditional on what is already accepted: a fixed-point rule,
  accept what is probable relative to what you have accepted.

``lehrer_cascade`` iterates the dominance rule with conditioning, which
on a biased lottery accepts lose-statement after lose-statement until it
ends up accepting that the last remaining ticket wins.
``enumerate_extensions`` surfaces the order dependence by running a
policy over many candidate orders and collecting the distinct outcomes.

Every consistency question about a base (a scan's verdict, a
sequential admission, a Lehrer contrary, the conjunction of the
extensions) goes to the one solver that ``_solver`` keeps on the base,
which names candidates by their position in ``base.candidates``.  A
world in the carried mask answers most of them first, and always the
cascade's verdict.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import permutations, takewhile

from .formulas import Formula, FormulaSet, atom
from .rationals import as_fraction
from .sat import _Solver
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

# 7! orders; ``enumerate_extensions`` may list all of them in memory.
MAX_PERMUTATIONS = 5040
# a candidate's position in ``base.candidates``, label, formula and probability
_Candidate = tuple[int, str, Formula, Fraction]


@dataclass(frozen=True)
class AcceptanceLevel:
    """Acceptance at level 1 - epsilon.

    The threshold comparison is non-strict by default (probability >= 1 -
    epsilon), which is what lets the n-ticket lottery at epsilon = 1/n go
    through; set ``strict`` for the strictly-greater variant.
    """

    epsilon: Fraction
    strict: bool = False

    def __post_init__(self):
        eps = as_fraction(self.epsilon)
        if not (0 < eps < 1):
            raise ValueError(f"epsilon must lie strictly between 0 and 1, got {eps}")
        if not isinstance(self.strict, bool):  # "false" would be taken as true
            raise ValueError(f"strict must be a bool, not {self.strict!r}")
        object.__setattr__(self, "epsilon", eps)

    # met_by reads it per statement; frozen still leaves the instance __dict__
    @cached_property
    def threshold(self) -> Fraction:
        return 1 - self.epsilon

    def met_by(self, p: Fraction) -> bool:
        p = as_fraction(p)
        return self._met_by_ratio(p.numerator, p.denominator)

    def _met_by_ratio(self, numerator: int, denominator: int) -> bool:
        """``met_by(Fraction(numerator, denominator))`` for a positive
        ``denominator``, decided by cross-multiplying integers."""
        threshold = self.threshold
        left = numerator * threshold.denominator
        right = threshold.numerator * denominator
        return left > right if self.strict else left >= right


@dataclass(frozen=True)
class Acceptance:
    """One accepted statement.

    ``probability`` is the statement's unconditional probability in the
    model; ``support`` is the value that was actually compared against
    the threshold when the statement was accepted (for the conditional
    policies these differ).
    """

    label: str
    statement: Formula
    probability: Fraction
    support: Fraction


@dataclass(frozen=True)
class AcceptedSet:
    """The output of one policy run: accepted statements in acceptance
    order, the background they sit on, and a weak-consistency verdict.

    A run's background is its base's own, the one set that names the
    base's world model, so that the ``sat`` diagnostics over it test the
    model's world masks first; a shallow copy shares it, while a deep copy
    or a pickle rebuilds it and names none."""

    policy: str
    level: AcceptanceLevel
    accepted: tuple[Acceptance, ...]
    background: FormulaSet
    weakly_consistent: bool

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
    being candidate i; built at the first question and kept on the base."""
    if base._solver is None:
        solver = _Solver([f for _, f in base.candidates], base.background)
        object.__setattr__(base, "_solver", solver)
    return base._solver


def _scan(
    policy: str,
    base: BeliefBase,
    candidates: Sequence[_Candidate],
    level: AcceptanceLevel,
    conditional: bool = False,
    consistent: bool = False,
) -> AcceptedSet:
    """Visit ``(position, label, formula, probability)`` candidates in
    order.  The support is the probability, or with ``conditional`` the
    weight within the carried mask over its weight; it must meet the level
    and, with ``consistent``, the accepted set must stay satisfiable.  A
    world in the carried mask settles that and the run's verdict; an empty
    one asks the base's solver, by the accepted candidates' positions.

    Every conditional support of a run is over the model's common
    denominator, so weights stay integer numerators, compared with the
    carried mask's numerator ``given``; only an accepted support becomes
    a ``Fraction``."""
    model = base.model
    current = model.joint_mask(base.background)
    given = model._numerator(current) if conditional else None
    accepted: list[Acceptance] = []
    taken: list[int] = []  # the accepted candidates' positions
    for i, label, formula, p in candidates:
        if conditional and given == 0:
            raise RuntimeError(f"{policy} conditioning set reached probability 0")
        joint = current & model.satisfying_mask(formula)
        if conditional:
            weight = model._numerator(joint)
            if not level._met_by_ratio(weight, given):
                continue
        elif not level.met_by(p):
            continue
        if consistent and not joint and not _solver(base).satisfiable([*taken, i]):
            continue
        support = Fraction(weight, given) if conditional else p
        accepted.append(Acceptance(label, formula, p, support))
        taken.append(i)
        current = joint
        if conditional:
            given = weight  # the numerator of the new ``current``
    verdict = bool(current) or _solver(base).satisfiable(taken)
    return AcceptedSet(policy, level, tuple(accepted), base.background, verdict)


def _weighed(base: BeliefBase, order: Sequence[str] | None = None) -> list[_Candidate]:
    """The candidates with their positions and probabilities, in ``order``
    when one is given (it must list every label once).  The labels are
    distinct strings, so an order of as many strings that holds every label
    is a permutation; checking that needs no sort, which fails on items of
    mixed types."""
    pairs = list(enumerate(base.candidates))
    if order is not None:
        position = {label: i for i, (label, _) in pairs}
        if not (
            len(order) == len(position)
            and all(isinstance(label, str) for label in order)
            and position.keys() == set(order)
        ):
            raise ValueError("order must be a permutation of the candidate labels")
        pairs = [pairs[position[label]] for label in order]
    return [(i, label, f, base.model.probability(f)) for i, (label, f) in pairs]


def threshold_accept(base: BeliefBase, level: AcceptanceLevel) -> AcceptedSet:
    """Accept every candidate whose probability clears the level; weak
    consistency of the result is reported, not enforced."""
    return _scan("threshold", base, _weighed(base), level)


def _undominated(base: BeliefBase, level: AcceptanceLevel) -> list[_Candidate]:
    """The weighed candidates that clear the level and that no contrary
    rival (any candidate jointly unsatisfiable with it and the background)
    matches or beats in probability.

    A pair with a shared world is satisfiable, and two masks inside the
    ``room`` shared worlds whose counts add up to more than ``room`` share
    one.  So only a candidate with ``count_i <= room - low``, ``low`` the
    least count, can be in a contrary pair.  Those are sorted by count, and
    each visits the prefix of rivals with ``count_j <= room - count_i``,
    testing each by mask, probability and solver.  A one-winner lottery
    sorts nothing and visits no pair."""
    weighed = _weighed(base)
    solver = _solver(base)
    masks = [solver.shared & mask for mask in solver.masks]
    counts = [mask.bit_count() for mask in masks]
    room = solver.shared.bit_count()
    low = min(counts, default=0)
    rivals = sorted((j for j, c in enumerate(counts) if c <= room - low), key=counts.__getitem__)
    return [
        (i, label, f, p)
        for i, label, f, p in weighed
        if level.met_by(p)
        and not (
            counts[i] <= room - low
            and any(
                # the cheap mask test first: a shared world settles most pairs
                not (masks[i] & masks[j]) and weighed[j][3] >= p and not solver.satisfiable((i, j))
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
    return _scan("lehrer", base, _undominated(base, level), level)


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
    win, the cascade accepts that it wins.

    A stage's conditionals share the denominator ``given``, the numerator
    of the carried mask, so they are ranked and tied as the integer
    numerators of their joint masks; only the leader's support becomes a
    ``Fraction``.
    """
    model = base.model
    tickets = dict.fromkeys(_ticket_atom(f) for _, f in base.candidates)
    current = model.joint_mask(base.background)
    accepted: list[Acceptance] = []
    remaining = dict(base.candidates)
    while remaining:
        given = model._numerator(current)
        if given == 0:
            raise RuntimeError("cascade conditioning set reached probability 0")
        weights = {
            label: model._numerator(current & model.satisfying_mask(f))
            for label, f in remaining.items()
        }
        best = max(weights.values())
        leaders = [label for label, weight in weights.items() if weight == best]
        if len(leaders) != 1 or not level._met_by_ratio(best, given):
            break
        label = leaders[0]
        formula = remaining.pop(label)
        support = Fraction(best, given)
        accepted.append(Acceptance(label, formula, model.probability(formula), support))
        current &= model.satisfying_mask(formula)
    # the ticket names are atoms of the model: the base checked its candidates
    weights = {name: model._numerator(current & model._atom_masks[name]) for name in tickets}
    alive = [name for name, weight in weights.items() if weight > 0]
    if len(alive) == 1:
        win = atom(alive[0])
        support = Fraction(weights[alive[0]], model._numerator(current))
        accepted.append(Acceptance(alive[0], win, model.probability(win), support))
        current &= model.satisfying_mask(win)
    # The carried mask is never empty: the background has weight 1, and the
    # threshold 1 - epsilon is above 0, so every accepted stage and the
    # winner kept positive weight.  A world in it settles the verdict, which
    # the solver could not be asked: the winner atom is no candidate, so it
    # has no position.
    verdict = bool(current)
    return AcceptedSet("cascade", level, tuple(accepted), base.background, verdict)


def sequential_accept(
    base: BeliefBase, order: Sequence[str], level: AcceptanceLevel
) -> AcceptedSet:
    """Accept candidates in order when probable enough, skipping any that
    would make the accepted set (with background) unsatisfiable.  Always
    weakly consistent; which statements get in depends on the order."""
    return _scan("sequential", base, _weighed(base, order), level, consistent=True)


def teng_accept(
    base: BeliefBase, order: Sequence[str], level: AcceptanceLevel
) -> AcceptedSet:
    """Fixed-point acceptance: scan candidates in order and accept each
    one whose probability conditional on the already-accepted statements
    (and background) clears the level.

    On the fair 100-ticket lottery at epsilon 1/100 this stops after a
    single lose statement, because 98/99 < 99/100 exactly.
    """
    return _scan("teng", base, _weighed(base, order), level, conditional=True)


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


@dataclass(frozen=True)
class ExtensionEnumeration:
    """Distinct accepted sets of an order-dependent policy across
    candidate orders, plus their conjunctive and disjunctive merges."""

    policy: str
    level: AcceptanceLevel
    extensions: tuple[AcceptedSet, ...]
    witness_orders: tuple[tuple[str, ...], ...]
    conjunction: FormulaSet
    conjunction_weakly_consistent: bool
    intersection: FormulaSet
    exhaustive: bool
    permutation_count: int
    seed: int


def enumerate_extensions(
    base: BeliefBase,
    policy: str,
    level: AcceptanceLevel,
    max_permutations: int = 720,
    seed: int = DEFAULT_SEED,
) -> ExtensionEnumeration:
    """Run a policy over candidate orders and collect distinct outcomes.

    All permutations are tried when their count is at most
    ``max_permutations`` (itself at most ``MAX_PERMUTATIONS``); otherwise
    a deterministic sample of that many shuffles, seeded by ``seed`` (an
    integer in [0, 2**64), checked on every call), is used.  Taken
    conjunctively the extensions may be weakly inconsistent again; taken
    disjunctively (the intersection) they may license nothing beyond the
    background.
    """
    ordered = sorted(name for name, (_, takes) in POLICY_TABLE.items() if takes)
    if policy not in ordered:
        raise ValueError(f"policy must be one of {ordered}")
    if isinstance(max_permutations, bool) or not isinstance(max_permutations, int):
        raise ValueError(f"max_permutations must be an integer, not {max_permutations!r}")
    if not 1 <= max_permutations <= MAX_PERMUTATIONS:
        raise ValueError(f"max_permutations must lie between 1 and {MAX_PERMUTATIONS}")
    if isinstance(seed, bool) or not (isinstance(seed, int) and 0 <= seed < 2**64):
        raise ValueError(f"seed must be an integer between 0 and 2**64 - 1, got {seed!r}")
    run = POLICY_TABLE[policy][0]
    labels = list(base.candidate_labels)
    total = math.factorial(len(labels))
    exhaustive = total <= max_permutations
    if exhaustive:
        orders = [tuple(p) for p in permutations(labels)]
    else:
        import random  # only sampling needs it

        rng = random.Random(seed)
        shuffles = []
        for _ in range(max_permutations):
            shuffled = labels[:]
            rng.shuffle(shuffled)
            shuffles.append(tuple(shuffled))
        orders = list(dict.fromkeys(shuffles))  # distinct, first-drawn order

    # each distinct outcome, by its signature, with the first order giving it
    found: dict[frozenset[str], tuple[AcceptedSet, tuple[str, ...]]] = {}
    for order in orders:
        result = run(base, order, level)
        signature = frozenset(a.statement.canonical_key for a in result.accepted)
        found.setdefault(signature, (result, order))
    # every order yields a result, so there is at least one extension
    extensions, witness = zip(*found.values())
    union = base.background.union(a.statement for ext in extensions for a in ext.accepted)
    common = frozenset.intersection(*found)
    intersection = base.background.union(
        f for _, f in base.candidates if f.canonical_key in common
    )
    # the candidates that occur in some extension, by position
    occurring = frozenset().union(*found)
    members = [i for i, (_, f) in enumerate(base.candidates) if f.canonical_key in occurring]
    return ExtensionEnumeration(
        policy=policy,
        level=level,
        extensions=extensions,
        witness_orders=witness,
        conjunction=union,
        conjunction_weakly_consistent=_solver(base).satisfiable(members),
        intersection=intersection,
        exhaustive=exhaustive,
        permutation_count=len(orders),
        seed=seed,
    )

"""Property tests for canonical identity, the world-mask primitive and
the policy scan.

``exactly_one`` builds its canonical form directly and its pair tree on
first read; both are checked against the same tree built by hand, which
canonicalises node by node.  Over distinct atoms its key, world mask,
satisfiability and minimal unsatisfiable subsets are also read before
either is built, and checked against that tree and the truth tables.

Formula equality is checked against an unordered canonical form built
straight from the formula tree, and keys against parsing and negation.

Formula masks are checked against world-by-world evaluation, mask
weights against a per-world sum, and every consistency verdict against
the truth-table oracle.  The scanned policies are checked against their
definitions, computed from the same two oracles, and ``diagnose`` (run
through the CLI, exhaustive and beyond a cap of one) against the
brute-force MUS, MCS and cover oracles.  So are the four public subset
diagnostics, called in any order on one candidate set that keeps its
subset walk, over two backgrounds in turn, each passed in any form, and
these with ``shrink_unsat_subset`` on the accepted statements and the
candidates, which name their base's model, against the same formulas as
a plain list, also over a background with an atom the model lacks.  The
bases' models either list only some valuations, so a set with no model
world in common may still be satisfiable and reaches the SAT fallback
behind the world witness, or list every valuation, so an empty mask
alone answers that the set is unsatisfiable.  Either kind gives some
worlds zero weight.  A third kind holds an ``exactly_one`` of some or all
atoms in the background, beside other formulas, and lists every valuation
that satisfies it, or all but one: every solver answer, policy run,
diagnostic, shrink and entailment on it is checked against the oracles.
With every valuation listed no query is searched; with one missing, the
query that only it could satisfy is.

Every policy, the cascade too, is also run on biased one-winner
lotteries with tied and zero weights and on independent lotteries,
strict and not, at a level that sits exactly on a support the run
compares, and its whole ``AcceptedSet`` is checked against
``ReferenceScan``, a plain-``Fraction`` scan over truth tables.

The lottery builders write their models' columns in closed form; each
model is checked against the generic constructor fed its own worlds, and
its worlds against the lottery's definition.  They also build their win
atoms and lose statements canonical and write their masks and weights
into the fresh model: each built base is checked against the same base
built the generic way, formula by formula, cache entry by cache entry
and policy run by policy run.

Lottery files, as ``dumps`` writes them and with one mutation each, are
read by ``loads`` and by a reader by hand made of ``parse``,
``WorldModel`` and ``BeliefBase``: the bases must be equal, with the same
worlds and candidates in the same order.  Text the hand reader refuses
must make ``loads`` raise the message it raises with the closed-form
background reading declined and nothing kept from one world line to
the next.

The readers of a name, ``atom``, ``parse``, a file's atom list and world
line, and a candidate label, take a short drawn string exactly when it is
an ASCII identifier.
"""

import json
import os
import re
import string
import tempfile
from contextlib import redirect_stdout
from fractions import Fraction
from functools import lru_cache
from io import StringIO
from itertools import combinations, permutations, product
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from probaccept import (
    Acceptance,
    AcceptanceLevel,
    AcceptedSet,
    BeliefBase,
    BeliefBaseFormatError,
    Formula,
    FormulaSet,
    UnknownAtomError,
    WorldModel,
    ZeroProbabilityError,
    atom,
    biased_lottery,
    conj,
    consequence_level,
    degree_of_inconsistency,
    disj,
    dumps,
    entails,
    enumerate_extensions,
    exactly_one,
    fair_lottery,
    iff,
    implies,
    independent_lottery,
    loads,
    maximal_consistent_subsets,
    minimal_unsat_subsets,
    neg,
    parse,
    render,
    shrink_unsat_subset,
    strand_entails,
    strands,
    teng_accept,
    threshold_accept,
)
from probaccept import basefile
from probaccept import formulas as formulas_module
from probaccept import sat
from probaccept.accept import POLICY_TABLE
from probaccept.basefile import dump
from probaccept.cli import main
from probaccept.sat import is_satisfiable

from helpers import (
    LONG_BICONDITIONAL_CHAIN,
    brute_mask_weight,
    brute_maximal_consistent_subsets,
    brute_min_cover_over_consistent_subsets,
    brute_minimal_unsat_subsets,
    canonical,
    evaluate,
    truth_table_satisfiable,
)

NAMES = ("a", "b", "c")

# 17-bit primes: fifteen weights of at most 6/p sum to far less than one,
# and their common denominator has up to about 250 bits.
PRIMES = (
    100003, 100019, 100043, 100049, 100057, 100069, 100103, 100109, 100129,
    100151, 100153, 100169, 100183, 100189, 100193, 100207, 100213, 100237,
)

TICKET_PROBABILITIES = st.integers(2, 60).flatmap(
    lambda q: st.integers(1, q - 1).map(lambda a: Fraction(a, q))
)


# Thresholds from 1/2 down to 1/10 accept many candidates, so joint masks
# often come out empty.
LEVELS = st.sampled_from(
    [Fraction(1, 2), Fraction(2, 3), Fraction(9, 10)]
).map(AcceptanceLevel)


@lru_cache(maxsize=None)
def formulas(names: tuple[str, ...]):
    """Random formulas over ``names``, shaped like helpers.random_formula.
    Cached, so each strategy is built and validated once."""

    def extend(children):
        pairs = st.tuples(children, children)
        lists = st.lists(children, min_size=2, max_size=3)
        return st.one_of(
            children.map(neg),
            lists.map(lambda parts: conj(*parts)),
            lists.map(lambda parts: disj(*parts)),
            pairs.map(lambda pair: implies(*pair)),
            pairs.map(lambda pair: iff(*pair)),
        )

    return st.recursive(st.sampled_from(names).map(atom), extend, max_leaves=8)


@st.composite
def models(draw, partial=False, complete=False):
    """A model over the first one to three names listing a nonempty subset
    of the valuations, with nonnegative weights not all zero.  A partial
    model has two or three atoms and lists two worlds up to half the
    valuations; a complete one lists every valuation, in any order."""
    width = draw(st.integers(2 if partial else 1, len(NAMES)))
    valuations = list(product((False, True), repeat=width))
    if complete:
        listed = draw(st.permutations(valuations))
    else:
        fewest, most = (2, len(valuations) // 2) if partial else (1, len(valuations))
        listed = draw(
            st.lists(st.sampled_from(valuations), min_size=fewest, max_size=most, unique=True)
        )
    weights = draw(st.lists(st.integers(0, 4), min_size=len(listed), max_size=len(listed)))
    if not any(weights):
        weights[0] = 1
    total = sum(weights)
    worlds = [(v, Fraction(w, total)) for v, w in zip(listed, weights)]
    return WorldModel(NAMES[:width], worlds)


@st.composite
def weighted_models(draw):
    """A model over one to four atoms whose weights are one of: integers
    over their total, zeros among them; all the weight on one world; or
    pairwise coprime prime denominators, the last world taking the
    remainder, so that the common denominator is a long product."""
    names = ("a", "b", "c", "d")[: draw(st.integers(1, 4))]
    valuations = list(product((False, True), repeat=len(names)))
    listed = draw(
        st.lists(st.sampled_from(valuations), min_size=1, max_size=len(valuations), unique=True)
    )
    kind = draw(st.sampled_from(["integers", "single", "coprime"]))
    if kind == "integers":
        raw = draw(
            st.lists(
                st.just(0) | st.integers(1, 10**6), min_size=len(listed), max_size=len(listed)
            ).filter(any)
        )
        weights = [Fraction(w, sum(raw)) for w in raw]
    elif kind == "single":
        weights = [Fraction(0)] * len(listed)
        weights[draw(st.integers(0, len(listed) - 1))] = Fraction(1)
    else:
        primes = draw(st.permutations(PRIMES))[: len(listed) - 1]
        weights = [Fraction(draw(st.integers(0, 6)), p) for p in primes]
        weights.append(1 - sum(weights))
    return WorldModel(names, list(zip(listed, weights)))


@st.composite
def bases(draw, max_candidates=5):
    """A base on a partial or a complete model, with a background of
    certain formulas and two or more candidates."""
    model = draw(models(partial=True) | models(complete=True))
    names = model.atoms
    background = [
        f
        for f in draw(st.lists(formulas(names), max_size=2))
        if model.probability(f) == 1
    ]
    # Literals on a partial model make sets that no listed world satisfies
    # but an unlisted valuation does.
    literals = st.sampled_from([atom(n) for n in names] + [neg(atom(n)) for n in names])
    candidates = draw(
        st.lists(literals | formulas(names), min_size=2, max_size=max_candidates)
    )
    return BeliefBase(
        model, background, [(f"C{i}", f) for i, f in enumerate(candidates)]
    )


def fresh(f: Formula) -> Formula:
    """A copy of ``f`` that has built no canonical form yet."""
    return Formula(f.op, tuple(fresh(a) for a in f.args), f.name)


def mirrored(f: Formula) -> Formula:
    """``f`` with the arguments of every conjunction and disjunction reversed."""
    args = tuple(mirrored(a) for a in f.args)
    return Formula(f.op, args[::-1] if f.op in ("and", "or") else args, f.name)


@given(st.data())
def test_canonical_identity_matches_the_unordered_oracle(data):
    # two names, so that independently drawn formulas are sometimes equal
    f = data.draw(formulas(NAMES[:2]))
    g = data.draw(formulas(NAMES[:2]) | st.just(mirrored(f)))
    for left in (f, neg(f)):
        assert (left == g) == (canonical(left) == canonical(g))
        if left == g:
            assert hash(left) == hash(g)
    assert parse(render(f)) == f
    assert parse(f.canonical_key) == f
    assert neg(neg(f)) == f
    negated_first = fresh(f)
    negated_key = neg(negated_first).canonical_key
    positive_first = fresh(f)
    key = positive_first.canonical_key
    assert negated_first.canonical_key == key == f.canonical_key
    assert neg(positive_first).canonical_key == negated_key


# String order differs from index order: "wins_10" < "wins_2".
WIN_NAMES = ("wins_1", "wins_2", "wins_10", "wins_11")


@st.composite
def outcome_lists(draw):
    """One to seven outcomes over WIN_NAMES: atoms, negated atoms and
    compound formulas, drawn from a pool of at most four, so that repeats
    are common."""
    names = st.sampled_from(WIN_NAMES)
    pool = draw(st.lists(
        names.map(atom) | names.map(lambda name: neg(atom(name))) | formulas(WIN_NAMES),
        min_size=1, max_size=4,
    ))
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=7))


def exactly_one_by_hand(outcomes):
    """The tree ``exactly_one`` builds, from fresh copies, canonicalising
    nothing ahead."""
    outcomes = [fresh(o) for o in outcomes]
    if len(outcomes) == 1:
        return outcomes[0]
    exclusions = [neg(conj(a, b)) for i, a in enumerate(outcomes) for b in outcomes[i + 1:]]
    return conj(disj(*outcomes), *exclusions)


def _key_error(f: Formula) -> str:
    with pytest.raises(ValueError, match="exceeds the limit") as raised:
        f.nnf()
    return str(raised.value)


def assert_same_tree(f: Formula, g: Formula) -> None:
    """``f`` and ``g`` have the same connectives, names and argument order
    all the way down."""
    assert (f.op, f.name, len(f.args)) == (g.op, g.name, len(g.args))
    for a, b in zip(f.args, g.args):
        assert_same_tree(a, b)


@given(outcome_lists())
@example([atom("wins_10")])
@example([atom("wins_2"), atom("wins_10")])
@example([atom("wins_2"), atom("wins_2")])
@example([atom("wins_1"), neg(atom("wins_1"))])
def test_exactly_one_matches_the_tree_built_by_hand(outcomes):
    by_hand = exactly_one_by_hand(outcomes)
    # the tree, read before any canonical form, from a list changed later
    caller_list = [fresh(o) for o in outcomes]
    unread = exactly_one(caller_list)
    caller_list.reverse()
    caller_list.append(atom("wins_1"))
    assert_same_tree(unread, by_hand)
    assert render(unread) == render(by_hand)
    # the negated form, asked for before anything read the tree
    negated_first = exactly_one([fresh(o) for o in outcomes])
    assert neg(negated_first).canonical_key == neg(by_hand).canonical_key
    assert_same_tree(negated_first, by_hand)
    built = exactly_one(outcomes)
    assert built.nnf() == by_hand.nnf()
    assert built.canonical_key == by_hand.canonical_key
    assert built.atoms() == by_hand.atoms()
    assert is_satisfiable([built]) == truth_table_satisfiable([by_hand])
    model = WorldModel(
        WIN_NAMES, [(v, Fraction(1, 16)) for v in product((False, True), repeat=4)]
    )
    expected = 0
    for i, (valuation, _) in enumerate(model.worlds):
        assignment = dict(zip(WIN_NAMES, valuation))
        holds = evaluate(by_hand, assignment)
        assert holds == (sum(evaluate(o, assignment) for o in outcomes) == 1)
        expected |= holds << i
    assert model.satisfying_mask(built) == expected
    # the tree, read after the canonical form, the mask and the SAT check
    assert_same_tree(built, by_hand)
    assert render(built) == render(by_hand)
    assert neg(built).canonical_key == neg(by_hand).canonical_key
    # one character under the key: both reject it, naming the same bound
    with patch.object(formulas_module, "MAX_KEY_LENGTH", len(by_hand.canonical_key) - 1):
        assert _key_error(exactly_one([fresh(o) for o in outcomes])) == _key_error(
            exactly_one_by_hand(outcomes)
        )


def test_exactly_one_checks_its_outcomes_when_called():
    for outcomes in ([atom("a"), "b"], ["a", atom("b")], [atom("a"), atom("b"), None]):
        with pytest.raises(ValueError, match="bad arguments"):
            exactly_one(outcomes)
    with pytest.raises(ValueError, match="at least one outcome"):
        exactly_one([])


def test_exactly_one_past_the_key_limit_rejected_as_its_tree():
    chain = parse(LONG_BICONDITIONAL_CHAIN)
    outcomes = [chain, atom("b")]
    built = exactly_one(outcomes)  # builds no canonical form yet
    assert built.atoms() == frozenset({"a", "b"})
    assert render(built) == render(exactly_one_by_hand(outcomes))
    assert _key_error(built) == _key_error(exactly_one_by_hand(outcomes))
    with pytest.raises(ValueError, match="exceeds the limit"):
        is_satisfiable([built])


@st.composite
def ticket_lists(draw):
    """Two to thirty distinct atoms ``wins_i`` in shuffled order, and
    candidates over them: some tickets' negations and up to three tickets,
    at most twenty in all."""
    n = draw(st.integers(2, 30))
    names = draw(st.permutations([f"wins_{i}" for i in range(1, n + 1)]))
    lose = draw(st.lists(st.sampled_from(names), unique=True, max_size=min(n, 17)))
    win = draw(st.lists(st.sampled_from(names), unique=True, max_size=3))
    return names, [neg(atom(x)) for x in lose] + [atom(x) for x in win]


TWELVE_SHUFFLED = [f"wins_{i}" for i in (7, 12, 2, 10, 1, 5, 11, 3, 9, 6, 4, 8)]


def _keysets(family):
    return {frozenset(f.canonical_key for f in subset) for subset in family}


@given(ticket_lists())
@example((["wins_10", "wins_2"], [neg(atom("wins_2")), neg(atom("wins_10"))]))
@example((TWELVE_SHUFFLED, [neg(atom(x)) for x in TWELVE_SHUFFLED]))
def test_exactly_one_of_distinct_atoms_read_before_its_tree(lottery):
    names, candidates = lottery
    n = len(names)
    by_hand = exactly_one_by_hand([atom(x) for x in names])

    def unread():
        """A fresh ``exactly_one``, whose node and tree nothing has read."""
        return exactly_one([atom(x) for x in names])

    assert unread().canonical_key == by_hand.canonical_key
    # no winner, each single winner, the first two, every ticket
    valuations = list(dict.fromkeys([  # at n = 2 the first two are every ticket
        (False,) * n,
        *((False,) * i + (True,) + (False,) * (n - i - 1) for i in range(n)),
        (True, True) + (False,) * (n - 2),
        (True,) * n,
    ]))
    model = WorldModel(names, [(v, Fraction(1, len(valuations))) for v in valuations])
    expected = 0
    for i, (valuation, _) in enumerate(model.worlds):
        holds = evaluate(by_hand, dict(zip(names, valuation)))
        assert holds == (sum(valuation) == 1)
        expected |= holds << i
    assert model.satisfying_mask(unread()) == expected
    for members in ([], candidates):
        satisfiable = is_satisfiable([unread(), *members])
        assert satisfiable == is_satisfiable([by_hand, *members])
        if n <= 10:
            assert satisfiable == truth_table_satisfiable([by_hand, *members])
    muses = _keysets(minimal_unsat_subsets(candidates, [unread()]))
    assert muses == _keysets(minimal_unsat_subsets(candidates, [by_hand]))
    if n <= 6:
        assert muses == brute_minimal_unsat_subsets(candidates, [by_hand])
    # the node and the tree, built after the key and the clauses
    read = unread()
    assert read.canonical_key == by_hand.canonical_key
    assert is_satisfiable([read, *candidates]) == is_satisfiable([by_hand, *candidates])
    assert read.nnf() == by_hand.nnf()
    assert_same_tree(read, by_hand)
    assert render(read) == render(by_hand)


@given(st.data())
def test_exactly_one_of_distinct_atoms_anywhere_matches_truth_table(data):
    """Placed after other formulas, the ``exactly_one`` is translated into
    a numbering they have begun, some of its names numbered already."""
    names = data.draw(st.lists(st.sampled_from(WIN_NAMES), min_size=2, unique=True))
    literal = st.sampled_from(WIN_NAMES).map(atom)
    literal |= literal.map(neg)
    members = data.draw(st.lists(literal | formulas(WIN_NAMES), max_size=4))
    position = data.draw(st.integers(0, len(members)))
    members.insert(position, exactly_one([atom(x) for x in names]))
    assert is_satisfiable(members) == truth_table_satisfiable(members)


@given(st.data())
def test_satisfying_mask_matches_world_by_world_evaluation(data):
    model = data.draw(models())
    formula = data.draw(formulas(model.atoms))
    expected = 0
    for i, (valuation, _) in enumerate(model.worlds):
        if evaluate(formula, dict(zip(model.atoms, valuation))):
            expected |= 1 << i
    assert model.satisfying_mask(formula) == expected


@given(st.data())
def test_weights_match_the_per_world_sum(data):
    model = data.draw(weighted_models())
    mask = data.draw(st.integers(0, model.full_mask()))
    assert model.mask_weight(mask) == brute_mask_weight(model, mask)
    formula, condition = data.draw(st.tuples(formulas(model.atoms), formulas(model.atoms)))
    formula_mask = model.satisfying_mask(formula)
    assert model.probability(formula) == brute_mask_weight(model, formula_mask)
    given_mask = model.satisfying_mask(condition)
    given_weight = brute_mask_weight(model, given_mask)
    if given_weight == 0:
        with pytest.raises(ZeroProbabilityError):
            model.conditional_probability(formula, [condition])
    else:
        joint = brute_mask_weight(model, given_mask & formula_mask)
        assert model.conditional_probability(formula, [condition]) == joint / given_weight


@given(bases(), LEVELS)
def test_threshold_verdict_matches_truth_table(base, level):
    result = threshold_accept(base, level)
    assert result.weakly_consistent == truth_table_satisfiable(result.statements)


class ReferenceScan:
    """Every policy by its definition in plain ``Fraction`` arithmetic, over
    truth tables: which listed worlds satisfy a formula comes from
    ``evaluate``, a weight is a sum of world weights, and a set of
    statements is satisfiable when some valuation that satisfies the
    background satisfies them all.  Those valuations come from a truth
    table over up to ten atoms; past that the base must be a one-winner
    lottery, whose background holds at exactly the one-hot valuations.

    ``compared`` lists every support a run tested against the level."""

    def __init__(self, base: BeliefBase):
        self.base = base
        atoms = base.model.atoms
        self.worlds = [(dict(zip(atoms, v)), w) for v, w in base.model.worlds]
        if len(atoms) <= 10:
            table = (dict(zip(atoms, v)) for v in product((False, True), repeat=len(atoms)))
            self.valuations = [a for a in table if all(evaluate(b, a) for b in base.background)]
        else:
            assert list(base.background) == [exactly_one([atom(x) for x in atoms])]
            self.valuations = [{x: x == winner for x in atoms} for winner in atoms]
        self.compared: list[Fraction] = []

    def holds(self, f: Formula) -> frozenset[int]:
        return frozenset(i for i, (a, _) in enumerate(self.worlds) if evaluate(f, a))

    def weight(self, worlds) -> Fraction:
        return sum((self.worlds[i][1] for i in worlds), Fraction(0))

    def satisfiable(self, formulas) -> bool:
        return any(all(evaluate(f, a) for f in formulas) for a in self.valuations)

    def meets(self, support: Fraction, level: AcceptanceLevel) -> bool:
        self.compared.append(support)
        threshold = 1 - level.epsilon
        return support > threshold if level.strict else support >= threshold

    def run(self, policy: str, level: AcceptanceLevel, order=None) -> AcceptedSet:
        if policy == "cascade":
            accepted = self.cascade(level)
        else:
            accepted = self.scan(policy, level, order)
        verdict = self.satisfiable([a.statement for a in accepted])
        return AcceptedSet(policy, level, tuple(accepted), self.base.background, verdict)

    def scan(self, policy, level, order) -> list[Acceptance]:
        candidates = self.base.candidates
        p = {label: self.weight(self.holds(f)) for label, f in candidates}
        if policy in ("sequential", "teng"):
            formulas = dict(candidates)
            visit = [(label, formulas[label]) for label in order]
        elif policy == "lehrer":
            visit = [
                (label, f)
                for label, f in candidates
                if self.meets(p[label], level)
                and all(
                    p[label] > p[other]
                    for other, g in candidates
                    if other != label and not self.satisfiable([f, g])
                )
            ]
        else:
            visit = list(candidates)
        kept: list[Formula] = []
        worlds = frozenset(range(len(self.worlds)))  # the kept statements' worlds
        accepted = []
        for label, f in visit:
            joint = worlds & self.holds(f)
            if policy == "teng":
                support = self.weight(joint) / self.weight(worlds)
            else:
                support = p[label]
            if not self.meets(support, level):
                continue
            if policy == "sequential" and not self.satisfiable(kept + [f]):
                continue
            kept.append(f)
            worlds = joint
            accepted.append(Acceptance(label, f, p[label], support))
        return accepted

    def cascade(self, level) -> list[Acceptance]:
        remaining = dict(self.base.candidates)
        worlds = frozenset(range(len(self.worlds)))
        accepted = []
        while remaining:
            conditional = {
                label: self.weight(worlds & self.holds(f)) / self.weight(worlds)
                for label, f in remaining.items()
            }
            best = max(conditional.values())
            leaders = [label for label, c in conditional.items() if c == best]
            if len(leaders) != 1 or not self.meets(best, level):
                break
            f = remaining.pop(leaders[0])
            accepted.append(Acceptance(leaders[0], f, self.weight(self.holds(f)), best))
            worlds &= self.holds(f)
        tickets = dict.fromkeys(f.args[0].name for _, f in self.base.candidates)
        alive = [x for x in tickets if self.weight(worlds & self.holds(atom(x))) > 0]
        if len(alive) == 1:
            win = atom(alive[0])
            support = self.weight(worlds & self.holds(win)) / self.weight(worlds)
            accepted.append(Acceptance(alive[0], win, self.weight(self.holds(win)), support))
        return accepted


def assert_same_run(result: AcceptedSet, expected: AcceptedSet) -> None:
    """Equal in every field, with every probability and support a Fraction."""
    assert result == expected
    assert all(
        type(a.probability) is Fraction and type(a.support) is Fraction
        for a in result.accepted
    )


@pytest.mark.parametrize("policy", ["threshold", "lehrer", "sequential", "teng"])
@given(base=bases(), level=LEVELS, data=st.data())
def test_scanned_policies_match_their_definitions(policy, base, level, data):
    run, ordered = POLICY_TABLE[policy]
    if ordered:
        order = data.draw(st.permutations(base.candidate_labels))
        result = run(base, order, level)
    else:
        order = None
        result = run(base, level)
    assert_same_run(result, ReferenceScan(base).run(policy, level, order))


@given(base=bases(), data=st.data())
def test_runs_on_one_base_match_their_definitions(base, data):
    """Three to six runs and one enumeration of extensions, in a drawn
    order, all on one base: each run after the first asks the solver that
    an earlier one left on the base."""
    scanned = st.sampled_from(["threshold", "lehrer", "sequential", "teng"])
    steps = data.draw(st.lists(st.tuples(scanned, LEVELS), min_size=3, max_size=6))
    steps.insert(data.draw(st.integers(0, len(steps))), None)  # the enumeration
    for step in steps:
        if step is None:
            ordered = data.draw(st.sampled_from(["sequential", "teng"]))
            outcome = enumerate_extensions(base, ordered, data.draw(LEVELS))
            assert outcome.conjunction_weakly_consistent == truth_table_satisfiable(
                outcome.conjunction
            )
            continue
        policy, level = step
        run, takes_order = POLICY_TABLE[policy]
        order = data.draw(st.permutations(base.candidate_labels)) if takes_order else None
        result = run(base, order, level) if takes_order else run(base, level)
        assert_same_run(result, ReferenceScan(base).run(policy, level, order))


def test_every_order_of_one_base_with_a_repeated_formula():
    """One formula under two labels, on three of the four valuations of a
    and b: an empty joint mask leaves the question to the clause store,
    which must name each candidate by its place in the base, whatever the
    order of the run."""
    a, b = atom("a"), atom("b")
    model = WorldModel(
        ["a", "b"], [((1, 1), Fraction(1, 2)), ((1, 0), Fraction(1, 4)), ((0, 1), Fraction(1, 4))]
    )
    base = BeliefBase(
        model, (), [("A", a), ("B", b), ("TWIN", a), ("NAB", disj(neg(a), neg(b))), ("NA", neg(a))]
    )
    reference = ReferenceScan(base)
    for level in map(AcceptanceLevel, (Fraction(3, 4), Fraction(1, 2))):
        for policy in ("threshold", "lehrer"):
            assert_same_run(POLICY_TABLE[policy][0](base, level), reference.run(policy, level))
        for order in permutations(base.candidate_labels):
            for policy in ("sequential", "teng"):
                result = POLICY_TABLE[policy][0](base, order, level)
                assert_same_run(result, reference.run(policy, level, order))


def two_atom_base(worlds, background, candidates) -> BeliefBase:
    """A base over atoms a and b with ``worlds`` as ``(a, b, weight)``."""
    model = WorldModel(["a", "b"], [((x, y), w) for x, y, w in worlds])
    return BeliefBase(model, background, candidates)


_A, _B = atom("a"), atom("b")
# Bases at the edges of the count bound by which ``lehrer_accept`` skips
# rivals: two masks inside the shared worlds whose counts add up to more
# than the shared count must share a world.
RIVAL_BASES = {
    # a and ~a fill the two worlds: their counts add up to exactly the
    # shared count, and they are contrary
    "tied": lambda: two_atom_base(
        [(1, 0, "1/2"), (0, 0, "1/2")], (), [("A", _A), ("NA", neg(_A))]
    ),
    "untied": lambda: two_atom_base(
        [(1, 0, "2/3"), (0, 0, "1/3")], (), [("A", _A), ("NA", neg(_A))]
    ),
    # every valuation listed, two of weight 0: a zero-weight world counts,
    # and a shared one makes ~b and ~a no contrary pair
    "zero_weight": lambda: two_atom_base(
        [(1, 0, "1/2"), (0, 1, "1/2"), (0, 0, 0), (1, 1, 0)],
        (),
        [("X", conj(_A, neg(_B))), ("NA", neg(_A)), ("NB", neg(_B))],
    ),
    # a & b holds in no listed world but in an unlisted valuation: an empty
    # mask, of count 0, whose pairs the solver decides
    "empty_mask": lambda: two_atom_base(
        [(1, 0, "1/2"), (0, 1, "1/2")],
        (),
        [("AB", conj(_A, _B)), ("A", _A), ("B", _B), ("NA", neg(_A))],
    ),
    # the background b removes two worlds: a and ~a are counted inside the
    # two that remain, where they add up to exactly the shared count
    "background": lambda: two_atom_base(
        [(1, 1, "1/2"), (0, 1, "1/2"), (1, 0, 0), (0, 0, 0)],
        [_B],
        [("A", _A), ("NA", neg(_A))],
    ),
    "background_untied": lambda: two_atom_base(
        [(1, 1, "2/3"), (0, 1, "1/3"), (1, 0, 0), (0, 0, 0)],
        [_B],
        [("A", _A), ("NA", neg(_A))],
    ),
}


@pytest.mark.parametrize("build", RIVAL_BASES.values(), ids=RIVAL_BASES)
def test_rival_filter_bases_match_their_definitions(build):
    """Every scanned policy, strict and not, at each level, and every order
    of the ordered ones, on a fresh base for each run."""
    reference = ReferenceScan(build())
    levels = [
        AcceptanceLevel(epsilon, strict)
        for epsilon in (Fraction(1, 2), Fraction(2, 3), Fraction(9, 10))
        for strict in (False, True)
    ]
    for level in levels:
        for policy in ("threshold", "lehrer"):
            assert_same_run(POLICY_TABLE[policy][0](build(), level), reference.run(policy, level))
        for order in permutations(reference.base.candidate_labels):
            for policy in ("sequential", "teng"):
                result = POLICY_TABLE[policy][0](build(), order, level)
                assert_same_run(result, reference.run(policy, level, order))


def lottery_shaped(base: BeliefBase) -> bool:
    return all(f.op == "not" and f.args[0].op == "atom" for _, f in base.candidates)


@st.composite
def lottery_bases(draw):
    """A biased one-winner lottery of two to seven tickets whose weights
    are small integers over their total, so that ties and zeros are common;
    or an independent lottery of one to four tickets, with or without its
    candidate ``some_wins``."""
    if draw(st.booleans()):
        raw = draw(st.lists(st.integers(0, 3), min_size=2, max_size=7))
        if not any(raw):
            raw[0] = 1
        return biased_lottery([Fraction(r, sum(raw)) for r in raw])
    base = independent_lottery(draw(st.integers(1, 4)), draw(TICKET_PROBABILITIES))
    if draw(st.booleans()):
        return base
    return BeliefBase(base.model, base.background, base.candidates[:-1])


@pytest.mark.parametrize("policy", list(POLICY_TABLE))
@given(base=lottery_bases(), strict=st.booleans(), data=st.data())
def test_policies_match_the_reference_scan_on_lotteries(policy, base, strict, data):
    """The level sits exactly on a support that a run at another level
    compared, often the first, which every level compares: there ``>=``
    and ``>`` part."""
    run, ordered = POLICY_TABLE[policy]
    order = data.draw(st.permutations(base.candidate_labels)) if ordered else None
    if policy == "cascade" and not lottery_shaped(base):
        with pytest.raises(ValueError, match="lottery-shaped"):
            run(base, AcceptanceLevel(Fraction(1, 2)))
        return
    reference = ReferenceScan(base)
    probe = AcceptanceLevel(data.draw(st.sampled_from([Fraction(1, 10), Fraction(1, 2)])))
    reference.run(policy, probe, order)
    supports = sorted({c for c in reference.compared if 0 < c < 1})
    threshold = data.draw(st.sampled_from(supports)) if supports else 1 - probe.epsilon
    level = AcceptanceLevel(1 - threshold, strict)
    result = run(base, order, level) if ordered else run(base, level)
    assert_same_run(result, reference.run(policy, level, order))


# Teng on the fair 100-ticket lottery: after k acceptances the conditional
# is (99-k)/(100-k).  At 1/100 the second is 98/99 < 99/100; at 1/50 the
# 51st is 49/50 itself, accepted unless the comparison is strict.
@pytest.mark.parametrize(
    "epsilon, strict, count",
    [
        (Fraction(1, 100), False, 1),
        (Fraction(1, 100), True, 0),
        (Fraction(1, 50), False, 51),
        (Fraction(1, 50), True, 50),
    ],
)
def test_teng_on_the_fair_hundred_matches_the_reference(lottery100, epsilon, strict, count):
    level = AcceptanceLevel(epsilon, strict)
    reference = ReferenceScan(lottery100)
    for order in (lottery100.candidate_labels, lottery100.candidate_labels[::-1]):
        result = teng_accept(lottery100, order, level)
        assert len(result.accepted) == count
        assert_same_run(result, reference.run("teng", level, order))


@given(bases(max_candidates=4), LEVELS, st.sampled_from(["sequential", "teng"]))
def test_conjunction_verdict_matches_truth_table(base, level, policy):
    outcome = enumerate_extensions(base, policy, level)
    assert outcome.conjunction_weakly_consistent == truth_table_satisfiable(
        outcome.conjunction
    )


def run_diagnose(base: BeliefBase, level: AcceptanceLevel, cap) -> dict:
    """The ``diagnostics`` block of ``probaccept --json diagnose`` on the
    base, written to a file, with ``--max-candidates cap`` unless None."""
    options = [] if cap is None else ["--max-candidates", str(cap)]
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "base.bb")
        dump(base, path)
        out = StringIO()
        with redirect_stdout(out):
            code = main(
                ["--json", *options, "diagnose", "--epsilon", str(level.epsilon), path]
            )
    assert code == 0
    return json.loads(out.getvalue())["diagnostics"]


@given(bases(), LEVELS, st.sampled_from([None, 1]))
def test_diagnose_matches_the_oracles(base, level, cap):
    diagnostics = run_diagnose(base, level, cap)
    expected = ReferenceScan(base).run("threshold", level)
    accepted = [a.statement for a in expected.accepted]
    consistent = expected.weakly_consistent
    background = list(base.background)
    muses = brute_minimal_unsat_subsets(accepted, background)
    assert diagnostics["weakly_consistent"] is consistent
    assert consistent == (not muses)
    if cap is None or len(set(accepted)) <= cap:
        assert diagnostics["mus_method"] == "exhaustive"
        assert diagnostics["mus_min_size"] == min(map(len, muses), default=None)
        mcses = brute_maximal_consistent_subsets(accepted, background)
        assert diagnostics["mcs_count"] == len(mcses)
        assert diagnostics["degree"] == brute_min_cover_over_consistent_subsets(
            accepted, background
        )
    else:
        # a deletion shrink finds a minimal unsatisfiable subset, not
        # necessarily a smallest one
        assert diagnostics["mus_method"] == "deletion_shrink"
        if consistent:
            assert diagnostics["mus_min_size"] is None
        else:
            assert diagnostics["mus_min_size"] in set(map(len, muses))
        assert diagnostics["mcs_count"] is None and diagnostics["degree"] is None


DIAGNOSTICS = (
    minimal_unsat_subsets, maximal_consistent_subsets, degree_of_inconsistency, strands
)

# the forms a background is passed in; a generator can be read only once
BACKGROUND_FORMS = {
    "list": list,
    "tuple": tuple,
    "generator": lambda formulas: (f for f in formulas),
    "set": FormulaSet,
}


def diagnostics_by_oracle(candidates, background) -> dict:
    """What each diagnostic must give over ``background``: keysets for the
    subset families, the cover for the degree, or words of the error it
    raises."""
    if not truth_table_satisfiable(background):
        return dict.fromkeys(DIAGNOSTICS, "background is unsatisfiable")
    mcses = brute_maximal_consistent_subsets(candidates, background)
    try:
        degree = brute_min_cover_over_consistent_subsets(candidates, background)
    except AssertionError:  # a candidate that no consistent subset holds
        degree = "individually unsatisfiable"
    return {
        minimal_unsat_subsets: brute_minimal_unsat_subsets(candidates, background),
        maximal_consistent_subsets: mcses,
        degree_of_inconsistency: degree,
        strands: mcses,
    }


def diagnose_or_error(function, candidates, background):
    try:
        return function(candidates, background)
    except ValueError as error:
        return str(error)


def assert_as_oracle(function, result, expected) -> None:
    """The diagnostic's result, or error message, is what the oracle said."""
    if isinstance(result, str):
        assert isinstance(expected, str) and expected in result
    elif function is degree_of_inconsistency:
        assert result == expected
    else:
        family = [s.kernel for s in result] if function is strands else result
        assert _keysets(family) == expected
        assert len(family) == len(expected)  # no subset twice


@given(bases(), st.data())
def test_kept_subset_walk_matches_the_oracles(base, data):
    candidates = base.candidate_formulas
    names = base.model.atoms
    first = list(base.background)
    second = data.draw(st.lists(formulas(names), max_size=2), label="second background")
    backgrounds = (first, second)
    expected = [diagnostics_by_oracle(candidates, bg) for bg in backgrounds]
    rounds = [data.draw(st.permutations(DIAGNOSTICS), label="order") for _ in range(2)]
    for function in rounds[0] + rounds[1]:
        which = data.draw(st.sampled_from([0, 1]), label="background")
        form = data.draw(st.sampled_from(sorted(BACKGROUND_FORMS)), label="form")
        background = backgrounds[which]
        result = diagnose_or_error(function, candidates, BACKGROUND_FORMS[form](background))
        assert_as_oracle(function, result, expected[which][function])
        # a rebuilt set walks afresh and gives the same result, in order
        assert result == diagnose_or_error(function, FormulaSet(list(candidates)), background)
    # after a call is kept (the base's background is certain, so
    # satisfiable), every check still runs before the kept walk is read
    maximal_consistent_subsets(candidates, first)
    absurd = [*first, conj(atom(names[0]), neg(atom(names[0])))]
    for function in DIAGNOSTICS:
        if len(candidates) > 1:
            with pytest.raises(ValueError, match="exceed the enumeration cap"):
                function(candidates, first, cap=len(candidates) - 1)
        with pytest.raises(TypeError, match="got 'a'"):
            function(candidates, [*first, "a"])
        for _ in range(2):
            with pytest.raises(ValueError, match="background is unsatisfiable"):
                function(candidates, absurd)
        result = diagnose_or_error(function, candidates, first)
        assert_as_oracle(function, result, expected[0][function])


def shrink_by_oracle(candidates, background):
    """What ``shrink_unsat_subset`` must give: None, the minimal
    unsatisfiable subsets one of which it returns, or the error's words."""
    if not truth_table_satisfiable(background):
        return "background is unsatisfiable"
    return brute_minimal_unsat_subsets(candidates, background) or None


@given(bases(), LEVELS, st.data())
def test_sets_drawn_from_a_base_answer_as_plain_lists(base, level, data):
    # Only the base's own background names its model, whose masks the
    # diagnostics then test first; the accepted statements and the
    # candidates are plain sets.  Over that background, over the same
    # formulas as a list or a generator, and over a list with an atom the
    # model lacks, where the call falls back to the search, each set must
    # give what a plain list of its formulas gives and what the oracles say.
    names = base.model.atoms
    foreign = data.draw(st.sampled_from([conj, disj, iff]), label="join")(
        atom("z"), data.draw(formulas(names), label="foreign")
    )
    backgrounds = {
        "named": base.background,
        "list": list(base.background),
        "generator": list(base.background),
        "foreign atom": [*base.background, foreign],
    }
    assert base.background._model is base.model
    for drawn in (threshold_accept(base, level).accepted_formulas, base.candidate_formulas):
        assert not hasattr(drawn, "_model")
        plain = list(drawn)
        for form, background in backgrounds.items():
            def passed(formulas):
                return (f for f in formulas) if form == "generator" else formulas

            expected = diagnostics_by_oracle(plain, background)
            if not plain:  # nothing to cover, so the background goes unchecked
                expected[degree_of_inconsistency] = 1
            for function in DIAGNOSTICS:
                result = diagnose_or_error(function, drawn, passed(background))
                assert_as_oracle(function, result, expected[function])
                assert result == diagnose_or_error(function, plain, passed(background))
            shrunk = diagnose_or_error(shrink_unsat_subset, drawn, passed(background))
            assert shrunk == diagnose_or_error(shrink_unsat_subset, plain, passed(background))
            oracle = shrink_by_oracle(plain, background)
            if isinstance(oracle, set):
                assert isinstance(shrunk, FormulaSet) and _keysets([shrunk]) <= oracle
            else:
                assert shrunk == oracle


@given(bases(), LEVELS, st.data())
def test_entailment_over_a_named_background_matches_truth_tables(base, level, data):
    # A base's own background names its model, so ``entails`` over it, the
    # strands drawn over it and ``consequence_level`` (which builds a base's
    # background of its own) test the model's masks before they search.
    # Over the same formulas as a list or a generator, which name no model,
    # and for a conclusion with an atom the model lacks, they search.  Each
    # must give what the truth tables say.
    names = base.model.atoms
    candidates = list(base.candidate_formulas)
    premises = data.draw(st.lists(st.sampled_from(candidates), max_size=3), label="premises")
    conclusion = data.draw(formulas(names), label="conclusion")
    foreign = data.draw(st.sampled_from([conj, disj, iff]), label="join")(atom("z"), conclusion)
    forms = {
        "named": lambda: base.background,
        "list": lambda: list(base.background),
        "generator": lambda: (f for f in base.background),
    }

    def entailed(background, premises, conclusion):
        return not truth_table_satisfiable([*background, *premises, neg(conclusion)])

    for target in (conclusion, foreign):
        expected = entailed(base.background, premises, target)
        for form, background in forms.items():
            assert entails(background(), premises, target) == expected, form
    for form in ("named", "list"):
        for strand in strands(base.candidate_formulas, forms[form]()):
            for target in (conclusion, foreign):
                expected = entailed(base.background, strand.kernel, target)
                assert strand_entails(strand, target) == expected, form
    accepted = [f for f in candidates if level.met_by(base.model.probability(f))]
    if not accepted:
        return
    premises = data.draw(
        st.lists(st.sampled_from(accepted), min_size=1, max_size=3), label="accepted premises"
    )
    expected = entailed(base.background, premises, conclusion)
    for form, background in forms.items():
        try:
            leveled = consequence_level(base.model, premises, conclusion, level, background())
        except ValueError as error:
            assert not expected and "do not entail" in str(error), form
        else:
            assert expected, form
            assert leveled.exact_probability == base.model.probability(conclusion)
        with pytest.raises(UnknownAtomError, match="z"):
            consequence_level(base.model, premises, foreign, level, background())


@st.composite
def one_hot_bases(draw):
    """A base over two to four atoms whose background holds an
    ``exactly_one`` of two or more of them, before, between or after other
    certain formulas, and the one valuation its model misses, or None.

    The model lists every valuation in which exactly one of those atoms
    holds (the other atoms free), or all of them but one, in any order,
    beside up to two zero-weight worlds where the ``exactly_one`` fails."""
    names = ("a", "b", "c", "d")[: draw(st.integers(2, 4), label="width")]
    hot = draw(st.lists(st.sampled_from(names), min_size=2, unique=True), label="hot")
    valuations = list(product((False, True), repeat=len(names)))
    one_hot = [v for v in valuations if sum(v[names.index(x)] for x in hot) == 1]
    missing = draw(st.none() | st.sampled_from(one_hot), label="missing")
    listed = [v for v in one_hot if v != missing]
    weights = draw(st.lists(st.integers(0, 3), min_size=len(listed), max_size=len(listed)))
    if not any(weights):
        weights[0] = 1
    worlds = [(v, Fraction(w, sum(weights))) for v, w in zip(listed, weights)]
    others = [v for v in valuations if v not in one_hot]
    worlds += [(v, 0) for v in draw(st.lists(st.sampled_from(others), unique=True, max_size=2))]
    model = WorldModel(names, draw(st.permutations(worlds)))
    background = [
        f for f in draw(st.lists(formulas(names), max_size=2)) if model.probability(f) == 1
    ]
    background.insert(
        draw(st.integers(0, len(background))), exactly_one([atom(x) for x in hot])
    )
    literals = st.sampled_from([atom(n) for n in names] + [neg(atom(n)) for n in names])
    candidates = draw(st.lists(literals | formulas(names), min_size=2, max_size=5))
    base = BeliefBase(model, background, [(f"C{i}", f) for i, f in enumerate(candidates)])
    return base, missing


@given(one_hot_bases(), LEVELS, st.data())
def test_one_hot_backgrounds_match_the_oracles(drawn, level, data):
    """A model that lists every valuation of a background ``exactly_one``
    of distinct atoms answers an empty mask from the masks alone; one that
    misses a valuation must search it.  Either way every answer is the
    truth tables' and the brute-force oracles'."""
    base, _ = drawn
    background = list(base.background)
    members = list(base.candidate_formulas)
    solver = sat._Solver(members, base.background)
    for size in range(len(members) + 1):
        for which in combinations(range(len(members)), size):
            chosen = [members[i] for i in which]
            assert solver.satisfiable(which) == truth_table_satisfiable([*background, *chosen])
    reference = ReferenceScan(base)
    for policy, (run, ordered) in POLICY_TABLE.items():
        order = data.draw(st.permutations(base.candidate_labels)) if ordered else None
        if policy == "cascade" and not lottery_shaped(base):
            continue
        result = run(base, order, level) if ordered else run(base, level)
        assert_same_run(result, reference.run(policy, level, order))
    for drawn_set in (threshold_accept(base, level).accepted_formulas, base.candidate_formulas):
        plain = list(drawn_set)
        expected = diagnostics_by_oracle(plain, background)
        if not plain:  # nothing to cover, so the background goes unchecked
            expected[degree_of_inconsistency] = 1
        for function in DIAGNOSTICS:
            result = diagnose_or_error(function, drawn_set, base.background)
            assert_as_oracle(function, result, expected[function])
        shrunk = diagnose_or_error(shrink_unsat_subset, drawn_set, base.background)
        oracle = shrink_by_oracle(plain, background)
        if isinstance(oracle, set):
            assert isinstance(shrunk, FormulaSet) and _keysets([shrunk]) <= oracle
        else:
            assert shrunk == oracle
    premises = data.draw(st.lists(st.sampled_from(members), max_size=3), label="premises")
    conclusion = data.draw(formulas(base.model.atoms), label="conclusion")
    expected = not truth_table_satisfiable([*background, *premises, neg(conclusion)])
    assert entails(base.background, premises, conclusion) == expected
    for strand in strands(base.candidate_formulas, base.background):
        expected = not truth_table_satisfiable([*background, *strand.kernel, neg(conclusion)])
        assert strand_entails(strand, conclusion) == expected


@given(one_hot_bases(), LEVELS)
def test_one_hot_backgrounds_search_only_a_missing_valuation(drawn, level):
    """Every policy run, a deletion shrink and two entailments over the
    base's own background.  With every valuation of the ``exactly_one``
    listed, none of them searches, even for an empty mask such as that of
    the entailed disjunction of its atoms.  With one missed, the query that
    only that valuation could satisfy is searched."""
    base, missing = drawn
    names = base.model.atoms
    hot = next(f for f in base.background if getattr(f, "_names", ()))._names
    one_hot = [v for v, _ in base.model.worlds if sum(v[names.index(x)] for x in hot) == 1]
    pinned = one_hot[0] if missing is None else missing
    valuation = conj(*(atom(x) if holds else neg(atom(x)) for x, holds in zip(names, pinned)))
    made = []
    search = sat._dpll

    def counted(*args):
        made.append(args)
        return search(*args)

    with patch.object(sat, "_dpll", counted):
        for policy, (run, ordered) in POLICY_TABLE.items():
            if policy != "cascade" or lottery_shaped(base):
                run(base, base.candidate_labels, level) if ordered else run(base, level)
        shrink_unsat_subset(base.candidate_formulas, base.background)
        assert entails(base.background, [], disj(*map(atom, hot)))
        before = len(made)
        answer = entails(base.background, [], neg(valuation))
    assert answer == (not truth_table_satisfiable([*base.background, valuation]))
    if missing is None:
        assert made == []
    else:
        assert len(made) > before  # no listed world satisfies the query


def assert_same_columns(model: WorldModel) -> None:
    """``model`` equals the generic constructor's model of its worlds in
    identity and in every stored column."""
    generic = WorldModel(model.atoms, model.worlds)
    assert model == generic and hash(model) == hash(generic)
    assert list(model._atom_masks.items()) == list(generic._atom_masks.items())
    assert model._planes == generic._planes
    assert model._denominator == generic._denominator
    assert model._full == generic._full


def assert_independent_worlds(model: WorldModel, n: int, p: Fraction) -> None:
    assert model.atoms == tuple(f"wins_{i}" for i in range(1, n + 1))
    assert [v for v, _ in model.worlds] == list(product((False, True), repeat=n))
    for valuation, weight in model.worlds:
        assert weight == p ** sum(valuation) * (1 - p) ** (n - sum(valuation))


def assert_one_winner_worlds(model: WorldModel, weights: list[Fraction]) -> None:
    n = len(weights)
    assert model.atoms == tuple(f"wins_{i}" for i in range(1, n + 1))
    assert [v for v, _ in model.worlds] == [
        tuple(i == j for j in range(n)) for i in range(n)
    ]
    assert [w for _, w in model.worlds] == weights


@given(st.integers(1, 10), TICKET_PROBABILITIES)
@example(1, Fraction(1, 2))
@example(10, Fraction(59, 60))
def test_independent_lottery_matches_the_generic_constructor(n, p):
    model = independent_lottery(n, p).model
    assert_independent_worlds(model, n, p)
    assert_same_columns(model)


@st.composite
def ticket_weights(draw):
    """One to forty nonnegative weights summing to 1, zeros among them: raw
    ratios over small denominators, scaled by their total."""
    raw = draw(
        st.lists(
            st.tuples(st.just(0) | st.integers(1, 100), st.integers(1, 30)),
            min_size=1,
            max_size=40,
        ).filter(lambda pairs: any(r for r, _ in pairs))
    )
    weights = [Fraction(r, d) for r, d in raw]
    total = sum(weights)
    return [w / total for w in weights]


@given(ticket_weights())
@example([Fraction(0), Fraction(1, 2), Fraction(1, 2)])
@example([Fraction(1)])
def test_biased_lottery_matches_the_generic_constructor(weights):
    model = biased_lottery(weights).model
    assert_one_winner_worlds(model, weights)
    assert_same_columns(model)


def test_largest_independent_lottery_matches_the_generic_constructor():
    model = independent_lottery(16, Fraction(1, 3)).model
    assert_independent_worlds(model, 16, Fraction(1, 3))
    assert_same_columns(model)


def test_largest_fair_lottery_matches_the_generic_constructor():
    model = fair_lottery(300).model
    assert_one_winner_worlds(model, [Fraction(1, 300)] * 300)
    assert_same_columns(model)


def generic_lottery(base: BeliefBase) -> BeliefBase:
    """The base a lottery builder's ``base`` stands for, built the generic
    way: the constructor's model of its worlds, ``exactly_one`` of the win
    atoms as the background if ``base`` has one, and ``neg(atom(name))``
    per ticket, then ``some_wins`` if ``base`` has it, as the candidates."""
    atoms = base.model.atoms
    wins = [atom(name) for name in atoms]
    candidates = [(f"L{i}", neg(atom(name))) for i, name in enumerate(atoms, 1)]
    if "some_wins" in base.candidate_labels:
        candidates.append(("some_wins", disj(*wins)))
    background = [exactly_one(wins)] if base.background else ()
    return BeliefBase(WorldModel(atoms, base.model.worlds), background, candidates)


def assert_same_formula(built: Formula, generic: Formula) -> None:
    """Equal slot for slot: connective, arguments, name, the canonical
    node of either polarity, key, atoms and key bounds."""
    assert (built.op, built.args, built.name) == (generic.op, generic.args, generic.name)
    assert built.nnf() == generic.nnf()
    assert built._nnf_of(False) == generic._nnf_of(False)
    assert built.canonical_key == generic.canonical_key
    assert built.atoms() == generic.atoms()
    assert built._key_bounds() == generic._key_bounds()


def outcome(run, *args) -> AcceptedSet | str:
    """A policy run's result, or the message of the ``ValueError`` it raises."""
    try:
        return run(*args)
    except ValueError as error:
        return str(error)


def assert_built_like_the_generic_base(base: BeliefBase) -> None:
    """A freshly built lottery matches ``generic_lottery``: every built
    formula slot for slot, every entry its model holds, which is exactly
    one per win atom, lose statement and background formula, and every
    policy's ``AcceptedSet``, strict and not, at an epsilon equal to the
    least, the median and the greatest world weight inside (0, 1): for a
    one-winner lottery, a ticket's weight, which puts the level exactly on
    its lose statement's probability.  The builders store their parts past
    the constructor's checks, which the same parts pass, giving an equal
    base."""
    generic = generic_lottery(base)
    assert base == generic
    checked = BeliefBase(base.model, base.background, base.candidates)
    assert (checked, checked.candidates) == (base, base.candidates)
    assert base.background._model is base.model
    candidates = [(f, g) for (_, f), (_, g) in zip(base.candidates, generic.candidates)]
    loses = candidates[:len(base.model.atoms)]
    built = [*candidates, *((f.args[0], g.args[0]) for f, g in loses)]
    built += zip(base.background, generic.background)
    for f, g in built:
        assert_same_formula(f, g)
    seeded = {g.canonical_key: g for f, g in built if f.op != "or"}  # not some_wins
    model, other = base.model, generic.model
    assert set(model._mask_cache) == set(model._probability_cache) == set(seeded)
    for key, g in seeded.items():
        assert model._mask_cache[key] == other.satisfying_mask(g)
        assert model._probability_cache[key] == other.probability(g)
        assert type(model._probability_cache[key]) is Fraction
    labels = base.candidate_labels
    weights = sorted({w for _, w in model.worlds if 0 < w < 1}) or [Fraction(1, 2)]
    for epsilon in {weights[0], weights[len(weights) // 2], weights[-1]}:
        for level in (AcceptanceLevel(epsilon), AcceptanceLevel(epsilon, True)):
            for run, ordered in POLICY_TABLE.values():
                for args in [(labels, level), (labels[::-1], level)] if ordered else [(level,)]:
                    assert outcome(run, base, *args) == outcome(run, generic, *args)


@given(ticket_weights())
@example([Fraction(0), Fraction(1, 2), Fraction(1, 2)])
@example([Fraction(1)])
def test_biased_lottery_is_built_like_the_generic_base(weights):
    assert_built_like_the_generic_base(biased_lottery(weights))


# Each draw reads the background's pair tree of n(n-1)/2 nodes on both
# bases, about 1.4 s at n = 300, so fewer draws than the profile's.
@settings(max_examples=10)
@given(st.integers(1, 300))
@example(1)
@example(2)
@example(300)
def test_fair_lottery_is_built_like_the_generic_base(n):
    assert_built_like_the_generic_base(fair_lottery(n))


@given(st.integers(1, 10), TICKET_PROBABILITIES)
@example(1, Fraction(1, 2))
@example(10, Fraction(59, 60))
def test_independent_lottery_is_built_like_the_generic_base(n, p):
    assert_built_like_the_generic_base(independent_lottery(n, p))


# ---------------------------------------------------------------------------
# Lottery files: ``loads`` against a reader by hand.
# ---------------------------------------------------------------------------

MUTATIONS = (
    "none", "swap", "space", "repeat", "invalid", "foreign", "order", "duplicate",
    "late_atom", "weight", "key_limit",
)
BAD_WEIGHTS = ("1/0", "0.5", "one", "-1/3", "1/2 1/2", "")
# Two names whose one-winner key, 4 * 500,002 + 17 characters long, is
# past ``MAX_KEY_LENGTH``.
LONG_NAMES = ("k" * 500_000 + "_1", "k" * 500_000 + "_2")


def _rename(line: str, old: str, new: str) -> str:
    return re.sub(rf"\b{old}\b", new, line)


@st.composite
def lottery_files(draw, mutation: str):
    """``dumps`` of a fair or biased lottery of 2 to 40 tickets or an
    independent one of 2 to 9, with ``mutation`` applied: a pair of the
    background written the other way round, or two pairs in the other
    order; a space doubled or made a tab; a second name made the first in
    the background, which is then ``exactly_one`` of a repeated atom; a
    name made invalid, in the background or everywhere; a name foreign to
    the model in the background; world lines not in ``ATOMS`` order; a
    repeated ``ATOMS`` name, perhaps assigned twice on every world line;
    the last ``ATOMS`` name moved to a second ``ATOMS`` section, on its
    header line or the next, after the first world line, which leaves it
    unassigned; a bad weight; a background past the key-length limit.  A
    mutation that needs a background leaves a file with none as it is,
    except the last, which adds one."""
    family = draw(st.sampled_from(["fair", "biased", "independent"]))
    if family == "fair":
        base = fair_lottery(draw(st.integers(2, 40)))
    elif family == "biased":
        base = biased_lottery(draw(ticket_weights().filter(lambda w: len(w) >= 2)))
    else:
        base = independent_lottery(draw(st.integers(2, 9)), draw(TICKET_PROBABILITIES))
    lines = dumps(base).splitlines()
    atoms = base.model.atoms
    worlds_at = lines.index("WORLDS:") + 1
    world_lines = range(worlds_at, worlds_at + len(base.model.worlds))
    at = lines.index("BACKGROUND:") + 1 if "BACKGROUND:" in lines else None
    first, second = draw(st.permutations(atoms))[:2]
    if mutation == "swap" and at is not None:
        pairs = [f"~({a} & {b})" for i, a in enumerate(atoms) for b in atoms[i + 1:]]
        k = draw(st.integers(0, len(pairs) - 1))
        if k + 1 < len(pairs) and draw(st.booleans()):
            one, two = pairs[k], pairs[k + 1]
            lines[at] = lines[at].replace(f"{one} & {two}", f"{two} & {one}")
        else:
            a, b = pairs[k][2:-1].split(" & ")
            lines[at] = lines[at].replace(pairs[k], f"~({b} & {a})")
    elif mutation == "space":
        i = draw(st.sampled_from([i for i, line in enumerate(lines) if " " in line]))
        spaces = [j for j, c in enumerate(lines[i]) if c == " "]
        j = draw(st.sampled_from(spaces))
        lines[i] = lines[i][:j] + draw(st.sampled_from(["  ", "\t"])) + lines[i][j + 1:]
    elif mutation in ("repeat", "foreign") and at is not None:
        lines[at] = _rename(lines[at], second, first if mutation == "repeat" else "zz")
    elif mutation == "invalid":
        scope = [at] if at is not None and draw(st.booleans()) else range(len(lines))
        for i in scope:
            lines[i] = _rename(lines[i], second, "0" + second)
    elif mutation == "order":
        scope = world_lines if draw(st.booleans()) else [draw(st.sampled_from(world_lines))]
        for i in scope:
            label, *cells, word, weight = lines[i].split(" ")
            lines[i] = " ".join([label, *cells[::-1], word, weight])
    elif mutation == "duplicate":
        lines[0] += " " + first
        if draw(st.booleans()):  # and assigned twice on every world line
            for i in world_lines:
                label, *cells, word, weight = lines[i].split(" ")
                lines[i] = " ".join([label, *cells, cells[atoms.index(first)], word, weight])
    elif mutation == "late_atom":
        lines[0] = lines[0].rsplit(" ", 1)[0]
        label, *cells, word, weight = lines[worlds_at].split(" ")
        lines[worlds_at] = " ".join([label, *cells[:-1], word, weight])
        late = [f"ATOMS: {atoms[-1]}"] if draw(st.booleans()) else ["ATOMS:", atoms[-1]]
        lines[worlds_at + 1:worlds_at + 1] = [*late, "WORLDS:"]
    elif mutation == "weight":
        i = draw(st.sampled_from(world_lines))
        lines[i] = lines[i].rsplit(" ", 1)[0] + " " + draw(st.sampled_from(BAD_WEIGHTS))
    elif mutation == "key_limit":
        a, b = LONG_NAMES
        long_line = f"({a} | {b}) & ~({a} & {b})"
        if at is None:
            lines[lines.index("CANDIDATES:"):0] = ["BACKGROUND:", long_line]
        else:
            lines[at] = long_line
    return "\n".join(lines) + "\n"


_WEIGHT_RE = re.compile(r"[+-]?\d+(?:/\d+)?")


def read_by_hand(text: str) -> BeliefBase:
    """The base a lottery file's text stands for, read with the public
    ``parse``, ``WorldModel`` and ``BeliefBase`` alone; any text that is
    not one raises."""
    section, atoms, worlds, background, candidates = None, [], [], [], []
    for line in text.splitlines():
        words = line.split()
        if words[0] in ("ATOMS:", "WORLDS:", "BACKGROUND:", "CANDIDATES:"):
            section = words[0]
            atoms += words[1:]  # only an ATOMS header has names after it
        elif section == "ATOMS:":
            atoms += words
        elif section == "WORLDS:":
            _, body = line.split(":", 1)
            *cells, word, weight = body.split()
            values = dict(cell.split("=", 1) for cell in cells)
            if (
                word != "weight"
                or not _WEIGHT_RE.fullmatch(weight)
                or len(values) != len(cells)
                or sorted(values) != sorted(atoms)
                or not set(values.values()) <= {"0", "1"}
            ):
                raise ValueError(f"bad world line {line!r}")
            worlds.append((tuple(values[a] == "1" for a in atoms), Fraction(weight)))
        elif section == "BACKGROUND:":
            background.append(parse(line))
        else:
            label, body = line.split(":", 1)
            candidates.append((label.strip(), parse(body)))
    return BeliefBase(WorldModel(atoms, worlds), background, candidates)


def loads_generic(text: str) -> BeliefBase:
    """``loads`` with the closed form declined and nothing kept from line
    to line: every formula line is parsed, and every world line read token
    by token against a set of the atoms listed so far, made for that line."""
    by_token = basefile._parse_world

    def parse_world(line, lineno, atoms, known, cells, weights):
        return by_token(line, lineno, atoms, set(atoms), {}, {})

    with patch.object(basefile, "render", lambda formula: None), \
            patch.object(basefile, "_parse_world", parse_world):
        return loads(text)


@pytest.mark.parametrize("mutation", MUTATIONS)
@settings(max_examples=12)
@given(data=st.data())
def test_lottery_files_read_as_the_generic_reader_reads_them(mutation, data):
    text = data.draw(lottery_files(mutation))
    try:
        expected = read_by_hand(text)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(BeliefBaseFormatError) as fast:
            loads(text)
        with pytest.raises(BeliefBaseFormatError) as generic:
            loads_generic(text)
        assert str(fast.value) == str(generic.value)
        return
    for base in (loads(text), loads_generic(text)):
        assert base == expected
        assert base.model.worlds == expected.model.worlds
        assert base.candidates == expected.candidates


@example("é")
@example("1a")
@example("_")
@given(st.text(alphabet=string.ascii_letters + string.digits + "_-é", min_size=1, max_size=4))
def test_name_readers_agree(text):
    # an atom name, a parsed atom, a file's atom and a candidate label have
    # one grammar: ASCII identifiers
    model = WorldModel(["a"], [((True,), 1)])
    readers = [
        lambda: atom(text).name == text,
        lambda: parse(text) == atom(text),
        lambda: loads(f"ATOMS: {text}\nWORLDS:\nw1: {text}=1 weight 1\n").model.atoms == (text,),
        lambda: BeliefBase(model, [], [(text, atom("a"))]).candidate_labels == (text,),
    ]
    read = []
    for reader in readers:
        try:
            read.append(reader())
        except ValueError:
            read.append(False)
    assert read == [text.isascii() and text.isidentifier()] * len(readers)

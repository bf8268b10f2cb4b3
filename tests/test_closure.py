import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from probaccept import (
    AcceptanceLevel,
    FormulaSet,
    UnknownAtomError,
    atom,
    conj,
    conjunction_support,
    consequence_level,
    contradiction_bound,
    disj,
    entails,
    fair_lottery,
    independent_lottery,
    neg,
    parse,
)

from helpers import random_formula, random_model


class TestConjunctionSupport:
    def test_two_statements_at_ninety_nine(self, lottery100):
        level = AcceptanceLevel(Fraction(1, 100))
        statements = FormulaSet([lottery100.candidate("L1"), lottery100.candidate("L2")])
        result = conjunction_support(lottery100.model, statements, level)
        assert result.support_lower_bound == Fraction(98, 100)
        assert result.premise_count == 2

    def test_single_statement_is_its_own_conjunction(self, lottery100):
        level = AcceptanceLevel(Fraction(1, 100))
        statements = FormulaSet([lottery100.candidate("L5")])
        result = conjunction_support(lottery100.model, statements, level)
        assert result.statement == lottery100.candidate("L5")
        assert result.support_lower_bound == Fraction(99, 100)
        assert result.exact_probability == Fraction(99, 100)

    def test_lottery_triple_attains_the_bound(self, lottery100):
        # exactly three of the hundred worlds are excluded, so the union
        # bound is tight with no independence anywhere in sight
        level = AcceptanceLevel(Fraction(1, 100))
        statements = FormulaSet(lottery100.candidate(f"L{i}") for i in (1, 2, 3))
        result = conjunction_support(lottery100.model, statements, level)
        assert result.support_lower_bound == Fraction(97, 100)
        assert result.exact_probability == Fraction(97, 100)

    def test_floor_clamps_at_zero(self, lottery100):
        level = AcceptanceLevel(Fraction(1, 100))
        statements = FormulaSet(lottery100.candidate(f"L{i}") for i in range(1, 101))
        result = conjunction_support(lottery100.model, statements, level)
        assert result.support_lower_bound == 0
        assert result.exact_probability == 0

    def test_below_threshold_statement_rejected(self, lottery100):
        level = AcceptanceLevel(Fraction(1, 200))
        statements = FormulaSet([lottery100.candidate("L1")])
        with pytest.raises(ValueError):
            conjunction_support(lottery100.model, statements, level)

    def test_empty_statements_rejected(self, lottery100):
        with pytest.raises(ValueError):
            conjunction_support(lottery100.model, FormulaSet(), AcceptanceLevel(Fraction(1, 2)))

    def test_bound_holds_randomized(self):
        # no independence assumptions: random models, random statements
        rng = random.Random(20260808)
        for _ in range(200):
            model = random_model(rng, max_atoms=5)
            names = list(model.atoms)
            k = rng.randint(1, 5)
            statements = []
            for _ in range(k):
                f = random_formula(rng, names, depth=2)
                if model.probability(f) == 0:
                    f = parse(f"~({f})")
                statements.append(f)
            statements = FormulaSet(statements)
            p_min = min(model.probability(f) for f in statements)
            eps = Fraction(1, 1000) if p_min == 1 else 1 - p_min
            level = AcceptanceLevel(eps)
            result = conjunction_support(model, statements, level)
            assert result.exact_probability >= result.support_lower_bound


class TestConsequenceLevel:
    def test_single_premise_preserves_membership(self, lottery100):
        # conjunction accepted as one statement; its conjunct keeps the level
        level = AcceptanceLevel(Fraction(1, 25))
        premise = conj(lottery100.candidate("L1"), lottery100.candidate("L2"))
        result = consequence_level(
            lottery100.model, FormulaSet([premise]), lottery100.candidate("L1"), level
        )
        assert result.premise_count == 1
        assert result.support_lower_bound == Fraction(24, 25)
        assert result.exact_probability == Fraction(99, 100)
        assert result.exact_probability >= lottery100.model.probability(premise)

    def test_ninety_nine_premises_pin_the_winner(self, lottery100):
        level = AcceptanceLevel(Fraction(1, 100))
        premises = FormulaSet(lottery100.candidate(f"L{i}") for i in range(1, 100))
        result = consequence_level(
            lottery100.model,
            premises,
            atom("wins_100"),
            level,
            background=lottery100.background,
        )
        assert result.premise_count == 99
        assert result.support_lower_bound == Fraction(1, 100)
        assert result.exact_probability == Fraction(1, 100)

    def test_entailment_on_a_one_winner_lottery_is_not_searched(self, searches, stores):
        # the premises' and ~wins_7's joint mask is empty, and the model lists
        # every valuation that satisfies the background, so that is the proof
        base = fair_lottery(7)
        level = AcceptanceLevel(Fraction(1, 7))
        premises = FormulaSet(base.candidate(f"L{i}") for i in range(1, 7))
        result = consequence_level(
            base.model, premises, atom("wins_7"), level, background=base.background
        )
        assert result.support_lower_bound == result.exact_probability == Fraction(1, 7)
        assert searches == [] and stores == []

    def test_no_premises_rejected(self, lottery100):
        level = AcceptanceLevel(Fraction(1, 100))
        with pytest.raises(ValueError, match="need at least one premise"):
            consequence_level(lottery100.model, FormulaSet(), atom("wins_1"), level)

    def test_non_entailment_rejected(self, lottery100):
        level = AcceptanceLevel(Fraction(1, 100))
        premises = FormulaSet([lottery100.candidate("L1")])
        with pytest.raises(ValueError):
            consequence_level(lottery100.model, premises, atom("wins_100"), level)

    @pytest.mark.parametrize("conclusion", ["zz", "zz | ~zz"])
    def test_unknown_conclusion_atom_rejected(self, lottery100, conclusion):
        # named whether or not the premises entail the conclusion
        level = AcceptanceLevel(Fraction(1, 100))
        premises = FormulaSet([lottery100.candidate("L1")])
        with pytest.raises(UnknownAtomError, match="unknown atoms: zz$"):
            consequence_level(
                lottery100.model,
                premises,
                parse(conclusion),
                level,
                background=lottery100.background,
            )

    def test_premise_below_threshold_rejected(self, lottery100):
        level = AcceptanceLevel(Fraction(1, 1000))
        premises = FormulaSet([lottery100.candidate("L1")])
        with pytest.raises(ValueError):
            consequence_level(lottery100.model, premises, parse("~wins_1 | wins_2"), level)

    def test_uncertain_background_rejected(self, lottery100):
        level = AcceptanceLevel(Fraction(1, 100))
        premises = FormulaSet([lottery100.candidate("L1")])
        with pytest.raises(
            ValueError, match="background formula wins_2 has probability 1/100, not 1"
        ):
            consequence_level(
                lottery100.model,
                premises,
                atom("wins_2"),
                level,
                background=FormulaSet([atom("wins_2")]),
            )


class TestContradictionBound:
    @pytest.mark.parametrize(
        "eps,expected",
        [
            (Fraction(1, 100), 100),
            (Fraction(1, 3), 3),
            (Fraction(3, 200), 67),
            (Fraction(2, 5), 3),
        ],
    )
    def test_ceiling_of_reciprocal(self, eps, expected):
        assert contradiction_bound(AcceptanceLevel(eps)) == expected

    def test_lottery_mus_size_meets_bound(self):
        from probaccept import minimal_unsat_subsets, threshold_accept

        for n in (3, 5, 8):
            base = fair_lottery(n)
            level = AcceptanceLevel(Fraction(1, n))
            accepted = threshold_accept(base, level)
            muses = minimal_unsat_subsets(accepted.accepted_formulas, base.background)
            bound = contradiction_bound(level)
            assert all(len(m) >= bound for m in muses)


class TestTheoremProperties:
    def test_conjunction_floor_randomized(self):
        rng = random.Random(7)
        for _ in range(200):
            model = random_model(rng, max_atoms=4)
            names = list(model.atoms)
            statements = [random_formula(rng, names, depth=2) for _ in range(rng.randint(1, 4))]
            probs = [model.probability(f) for f in statements]
            slack = sum(1 - p for p in probs)
            assert model.probability(conj(*statements)) >= 1 - slack

    def test_entailment_monotonicity_randomized(self):
        rng = random.Random(8)
        for _ in range(200):
            model = random_model(rng, max_atoms=4)
            names = list(model.atoms)
            premise = random_formula(rng, names, depth=2)
            other = random_formula(rng, names, depth=2)
            consequence = disj(premise, other)
            assert entails([], [premise], consequence)
            assert model.probability(consequence) >= model.probability(premise)

    def test_independent_statements_multiply(self):
        # product model: the conjunction hits the independence refinement
        base = independent_lottery(3, Fraction(1, 3))
        losses = [base.candidate(f"L{i}") for i in (1, 2, 3)]
        joint = base.model.probability(conj(*losses))
        product = Fraction(1)
        for f in losses:
            product *= base.model.probability(f)
        assert joint == product == Fraction(8, 27)


@st.composite
def closure_problems(draw):
    """A random model over one to four atoms, one to five premises of
    positive probability, a level that every premise meets, and a
    conclusion that the premises entail: their conjunction or anything."""
    rng = draw(st.randoms(use_true_random=False))
    model = random_model(rng, max_atoms=4)
    names = list(model.atoms)
    premises = []
    for _ in range(draw(st.integers(1, 5))):
        f = random_formula(rng, names, depth=2)
        premises.append(f if model.probability(f) > 0 else neg(f))
    premises = FormulaSet(premises)
    slack = 1 - min(model.probability(f) for f in premises)
    epsilon = slack + (1 - slack) * Fraction(draw(st.integers(0, 9)), 10)
    level = AcceptanceLevel(epsilon or Fraction(1, 100))
    members = list(premises)
    joint = conj(*members) if len(members) > 1 else members[0]
    conclusion = disj(joint, random_formula(rng, names, depth=2))
    return model, premises, conclusion, level


@given(closure_problems())
def test_closure_floor_is_the_union_bound(problem):
    model, premises, conclusion, level = problem
    k = len(premises)
    floor = max(Fraction(0), 1 - k * level.epsilon)
    assert all(level.met_by(model.probability(f)) for f in premises)
    for result in (
        conjunction_support(model, premises, level),
        consequence_level(model, premises, conclusion, level),
    ):
        assert result.premise_count == k
        assert result.support_lower_bound == floor
        assert result.exact_probability >= floor

import copy
import dataclasses
import gc
import pickle
import random
import re
import sys
from fractions import Fraction
from itertools import product

import pytest

from probaccept import (
    AcceptanceLevel,
    AcceptedSet,
    BeliefBase,
    Formula,
    FormulaSet,
    ProbabilityBound,
    UnknownAtomError,
    WorldModel,
    ZeroProbabilityError,
    atom,
    biased_lottery,
    conj,
    entails,
    enumerate_extensions,
    fair_lottery,
    independent_lottery,
    is_satisfiable,
    maximal_consistent_subsets,
    neg,
    parse,
    render,
    shrink_unsat_subset,
    threshold_accept,
)
from probaccept import worlds
from probaccept.accept import POLICY_TABLE, _solver
from probaccept.formulas import MAX_KEY_LENGTH
from probaccept.worlds import INDEPENDENT_LOTTERY_CAP, ONE_WINNER_LOTTERY_CAP

from helpers import brute_mask_weight, past_digit_limit_weights, random_formula, random_model

needs_digit_limit = pytest.mark.skipif(
    not sys.get_int_max_str_digits(), reason="needs the interpreter's digit limit"
)


def live_formulas() -> int:
    gc.collect()
    return sum(isinstance(o, Formula) for o in gc.get_objects())


class TestProbability:
    def test_fair_lottery_lose_probability(self, lottery100):
        assert lottery100.model.probability(lottery100.candidate("L7")) == Fraction(99, 100)

    def test_tautology_has_probability_one(self, lottery100):
        assert lottery100.model.probability(parse("wins_1 | ~wins_1")) == 1

    def test_independent_pair_someone_wins(self):
        base = independent_lottery(2, Fraction(1, 2))
        assert base.model.probability(parse("wins_1 | wins_2")) == Fraction(3, 4)
        assert base.model.probability(parse("~wins_1 & ~wins_2")) == Fraction(1, 4)

    def test_single_ticket_lottery(self):
        base = fair_lottery(1)
        assert base.model.probability(base.candidate("L1")) == 0

    def test_unknown_atom_rejected(self, lottery100):
        with pytest.raises(UnknownAtomError):
            lottery100.model.probability(atom("nonexistent"))

    def test_probability_memo_is_per_model_and_invisible(self):
        """A formula's probability is memoized in its own model: two models
        that share a formula keep their own values, values read before and
        after policy runs agree with the per-world sum, and equality, hash
        and immutability do not see the memo, nor the base's kept solver."""
        left = biased_lottery([Fraction(1, 4), Fraction(3, 4)]).model
        right = biased_lottery([Fraction(3, 4), Fraction(1, 4)]).model
        shared = neg(atom("wins_1"))
        for _ in range(2):
            assert left.probability(shared) == Fraction(3, 4)
            assert right.probability(shared) == Fraction(1, 4)

        weights = [Fraction(k, 10) for k in (1, 2, 3, 4)]
        base = biased_lottery(weights)
        model = base.model
        key = hash(model)
        probes = [f for _, f in base.candidates] + [*base.background, atom("wins_2")]
        late = parse("wins_1 | wins_4")  # first asked after the runs

        def expected(f):
            return brute_mask_weight(model, model.satisfying_mask(f))

        before = [model.probability(f) for f in probes]
        assert before == [expected(f) for f in probes]
        for epsilon in (Fraction(1, 10), Fraction(7, 10)):
            for strict in (False, True):
                level = AcceptanceLevel(epsilon, strict)
                for run, ordered in POLICY_TABLE.values():
                    if ordered:
                        run(base, base.candidate_labels[::-1], level)
                    else:
                        run(base, level)
                enumerate_extensions(base, "teng", level)
        assert [model.probability(f) for f in probes] == before
        assert model.probability(late) == expected(late) == Fraction(1, 2)
        assert all(type(model.probability(f)) is Fraction for f in [*probes, late])

        fresh = biased_lottery(weights).model  # nothing memoized yet
        assert model == fresh and hash(model) == hash(fresh) == key
        assert {fresh: "found"}[model] == "found"
        for name in ("atoms", "_probability_cache", "_mask_cache"):
            with pytest.raises(AttributeError, match="^WorldModel is immutable$"):
                setattr(model, name, {})
        for name in ("model", "candidates", "_solver"):
            with pytest.raises(AttributeError, match="^BeliefBase is immutable$"):
                setattr(base, name, None)

    def test_complement_rule_randomized(self):
        rng = random.Random(11)
        for _ in range(100):
            model = random_model(rng)
            f = random_formula(rng, list(model.atoms), depth=2)
            assert model.probability(f) + model.probability(neg(f)) == 1

    def test_monotone_under_entailment(self):
        rng = random.Random(12)
        for _ in range(100):
            model = random_model(rng)
            names = list(model.atoms)
            f = random_formula(rng, names, depth=2)
            g = random_formula(rng, names, depth=2)
            weaker = parse(f"({f}) | ({g})")
            assert entails([], [f], weaker)
            assert model.probability(f) <= model.probability(weaker)

    def test_union_bound_randomized(self):
        rng = random.Random(13)
        for _ in range(100):
            model = random_model(rng)
            names = list(model.atoms)
            f = random_formula(rng, names, depth=2)
            g = random_formula(rng, names, depth=2)
            disjunction = parse(f"({f}) | ({g})")
            assert model.probability(disjunction) <= model.probability(f) + model.probability(g)


class TestConditionalProbability:
    def test_fair_lottery_conditional(self, lottery100):
        p = lottery100.model.conditional_probability(
            lottery100.candidate("L2"), [lottery100.candidate("L1")]
        )
        assert p == Fraction(98, 99)

    def test_self_conditioning(self):
        base = fair_lottery(4)
        f = base.candidate("L1")
        assert base.model.conditional_probability(f, [f]) == 1

    def test_zero_probability_condition_rejected(self):
        base = fair_lottery(3)
        impossible = conj(*(f for _, f in base.candidates), *base.background)
        with pytest.raises(ZeroProbabilityError):
            base.model.conditional_probability(base.candidate("L1"), [impossible])

    def test_product_identity_randomized(self):
        rng = random.Random(14)
        for _ in range(100):
            model = random_model(rng)
            names = list(model.atoms)
            f = random_formula(rng, names, depth=2)
            g = random_formula(rng, names, depth=2)
            pg = model.probability(g)
            if pg == 0:
                continue
            joint = model.probability(conj(f, g))
            assert model.conditional_probability(f, [g]) * pg == joint


class TestLotteries:
    def test_fair_structure(self):
        base = fair_lottery(3)
        assert base.model.atoms == ("wins_1", "wins_2", "wins_3")
        assert [v for v, _ in base.model.worlds] == [
            (True, False, False), (False, True, False), (False, False, True)
        ]
        assert all(w == Fraction(1, 3) for _, w in base.model.worlds)
        assert base.candidate_labels == ("L1", "L2", "L3")
        assert base.model.probability(base.candidate("L1")) == Fraction(2, 3)

    def test_fair_all_lose_probabilities(self, lottery100):
        for label in lottery100.candidate_labels:
            assert lottery100.model.probability(lottery100.candidate(label)) == Fraction(99, 100)

    def test_background_certain(self):
        for base in (fair_lottery(4), biased_lottery(["1/4", "1/4", "1/2"])):
            for f in base.background:
                assert base.model.probability(f) == 1

    def test_biased_lose_probabilities(self):
        base = biased_lottery([Fraction(1, 100), Fraction(9, 100), Fraction(90, 100)])
        expected = [Fraction(99, 100), Fraction(91, 100), Fraction(10, 100)]
        for label, want in zip(base.candidate_labels, expected):
            assert base.model.probability(base.candidate(label)) == want

    def test_uniform_bias_equals_fair(self):
        assert biased_lottery([Fraction(1, 3)] * 3) == fair_lottery(3)

    def test_weights_from_an_iterator_read_once(self):
        weights = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)]
        assert biased_lottery(w for w in weights) == biased_lottery(weights)
        assert biased_lottery(iter(["1/4", "3/4"])) == biased_lottery(["1/4", "3/4"])
        with pytest.raises(ValueError, match="^lottery needs at least one ticket$"):
            biased_lottery(w for w in [])

    def test_bad_weights_rejected(self):
        with pytest.raises(ValueError):
            biased_lottery([Fraction(1, 4), Fraction(1, 4)])  # sums to 1/2
        with pytest.raises(ValueError):
            biased_lottery([Fraction(3, 2), Fraction(-1, 2)])
        with pytest.raises(ValueError):
            fair_lottery(0)

    def test_independent_structure(self):
        base = independent_lottery(2, Fraction(1, 2))
        assert len(base.model.worlds) == 4
        assert len(base.background) == 0
        assert base.candidate_labels == ("L1", "L2", "some_wins")

    def test_independent_single_ticket(self):
        base = independent_lottery(1, Fraction(3, 7))
        assert base.model.probability(base.candidate("some_wins")) == Fraction(3, 7)

    def test_independent_ten_tickets(self):
        base = independent_lottery(10, Fraction(1, 2))
        assert base.model.probability(base.candidate("L3")) == Fraction(1, 2)
        assert base.model.probability(base.candidate("some_wins")) == Fraction(1023, 1024)

    def test_one_winner_cap(self):
        over = ONE_WINNER_LOTTERY_CAP + 1
        with pytest.raises(ValueError, match="capped"):
            fair_lottery(over)
        with pytest.raises(ValueError, match="capped"):
            biased_lottery([Fraction(1, over)] * over)

    def test_largest_lottery_within_key_limit(self):
        base = fair_lottery(ONE_WINNER_LOTTERY_CAP)
        (background,) = base.background
        assert len(background.canonical_key) == 1_137_001 <= MAX_KEY_LENGTH

    def test_one_winner_pairs_built_only_when_read(self):
        """Building, accepting and shrinking a 60-ticket lottery, and
        rendering its background, make none of the 2 * 1,770 nodes of the
        background's pair tree; reading the background's ``args`` makes
        them all."""
        n = 60
        before = live_formulas()
        base = fair_lottery(n)
        result = threshold_accept(base, AcceptanceLevel(Fraction(1, n)))
        assert len(result.accepted) == n
        mus = shrink_unsat_subset(result.accepted_formulas, base.background)
        assert len(mus) == n
        built = live_formulas()
        assert built - before < n * (n - 1) // 2
        (background,) = base.background
        text = render(background)
        assert live_formulas() == built
        assert len(background.args) == 1 + n * (n - 1) // 2
        assert live_formulas() - built >= n * (n - 1)
        assert render(parse(text)) == text

    def test_one_winner_pairs_not_built_behind_another_formula(self):
        """A lottery's background placed second in a satisfiability check is
        translated from its names as well: none of its 3,540 pair nodes."""
        n = 60
        (background,) = fair_lottery(n).background
        members = [neg(atom("wins_1")), background]
        before = live_formulas()
        assert is_satisfiable(members)
        assert live_formulas() == before

    def test_one_winner_lottery_built_accepted_and_shrunk_with_no_walk(self, walks):
        """The builder hands over its formulas canonical, masked and weighed:
        building a 40-ticket lottery, accepting its lose statements and
        shrinking them renders no key and folds no mask."""
        base = fair_lottery(40)
        result = threshold_accept(base, AcceptanceLevel(Fraction(1, 40)))
        assert len(result.accepted) == 40
        assert len(shrink_unsat_subset(result.accepted_formulas, base.background)) == 40
        assert walks == {"folds": [], "keys": []}

    def test_independent_lose_statements_weighed_with_no_walk(self, walks):
        """Of an independent lottery's candidates only ``some_wins`` is
        rendered and folded; the lose statements come weighed."""
        base = independent_lottery(8, Fraction(1, 3))
        result = threshold_accept(base, AcceptanceLevel(Fraction(1, 3)))
        assert len(result.accepted) == 9
        some_wins = base.candidate("some_wins").nnf()
        assert walks == {"folds": [some_wins], "keys": [some_wins]}

    def test_largest_lotteries_built_accepted_and_shrunk_with_no_listing(self, listings):
        """No policy, mask, weight, shrink or ``repr`` reads a model's worlds:
        building the largest lotteries, running every policy on the fair
        one and the threshold on the independent one, and shrinking their
        accepted sets lists none of them."""
        fair = fair_lottery(ONE_WINNER_LOTTERY_CAP)
        level = AcceptanceLevel(Fraction(1, ONE_WINNER_LOTTERY_CAP))
        for run, ordered in POLICY_TABLE.values():
            run(fair, fair.candidate_labels, level) if ordered else run(fair, level)
        independent = independent_lottery(INDEPENDENT_LOTTERY_CAP, Fraction(1, 3))
        for base, epsilon in ((fair, level.epsilon), (independent, Fraction(1, 3))):
            result = threshold_accept(base, AcceptanceLevel(epsilon))
            assert not result.weakly_consistent  # read at an empty mask
            assert shrink_unsat_subset(result.accepted_formulas, base.background)
            repr(base)
        assert listings == []
        assert len(independent.model.worlds) == 2**INDEPENDENT_LOTTERY_CAP
        assert listings == [independent.model]

    def test_independent_weights_by_winner_count(self):
        p = Fraction(2, 7)
        base = independent_lottery(5, p)
        for valuation, weight in base.model.worlds:
            k = sum(valuation)
            assert weight == p**k * (1 - p) ** (5 - k)

    def test_independent_cap(self):
        with pytest.raises(ValueError, match=f"capped at {INDEPENDENT_LOTTERY_CAP} tickets"):
            independent_lottery(INDEPENDENT_LOTTERY_CAP + 1, Fraction(1, 2))
        with pytest.raises(ValueError):
            independent_lottery(3, Fraction(1, 1))

    def test_ticket_count_must_be_an_int(self):
        for count in (True, False, 2.0, "3", Fraction(3)):
            with pytest.raises(ValueError, match="ticket count must be an integer"):
                fair_lottery(count)
            with pytest.raises(ValueError, match="ticket count must be an integer"):
                independent_lottery(count, Fraction(1, 3))

    def test_common_denominator_capped_before_building(self, monkeypatch):
        """Both builders refuse a denominator past the plane bound with the
        constructor's message, before any weight plane is built."""
        with pytest.raises(ValueError, match="common denominator of more than 4096 bits"):
            independent_lottery(INDEPENDENT_LOTTERY_CAP, Fraction(1, 10**100))
        monkeypatch.setattr(worlds, "MAX_PLANE_BITS", 64)
        independent_lottery(2, Fraction(1, 2**7))  # 15 bits over 4 worlds
        biased_lottery([Fraction(1, 2**31), 1 - Fraction(1, 2**31)])

        def unbuilt(*args):
            raise AssertionError("a weight plane was built")

        monkeypatch.setattr(worlds, "_column_masks", unbuilt)
        with pytest.raises(ValueError, match="common denominator of more than 16 bits"):
            independent_lottery(2, Fraction(1, 2**8))
        with pytest.raises(ValueError, match="common denominator of more than 32 bits"):
            biased_lottery([Fraction(1, 2**32), 1 - Fraction(1, 2**32)])


class TestModelValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            WorldModel(["a"], [((True,), Fraction(1, 2))])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            WorldModel(
                ["a"],
                [((True,), Fraction(3, 2)), ((False,), Fraction(-1, 2))],
            )

    def test_duplicate_atom_names_rejected(self):
        with pytest.raises(ValueError, match="^duplicate atom names$"):
            WorldModel(["a", "a"], [((True, True), 1)])

    def test_duplicate_valuations_rejected(self):
        with pytest.raises(ValueError, match=r"duplicate world valuation \(True,\)"):
            WorldModel(
                ["a"],
                [((True,), Fraction(1, 2)), ((True,), Fraction(1, 2))],
            )

    @pytest.mark.parametrize("entry", ["0", "1", None, 2, 0.5])
    def test_valuation_entries_must_be_truth_values(self, entry):
        # bool() would read "0" as true and None as false
        with pytest.raises(ValueError, match=f"valuation entry {entry!r} is not a bool"):
            WorldModel(["a", "b"], [((entry, True), "1/2"), ((False, False), "1/2")])

    @pytest.mark.parametrize("valuation", [(True,), (True, False, True)])
    def test_valuation_length_must_match_the_atoms(self, valuation):
        with pytest.raises(ValueError, match="valuation length does not match atom list"):
            WorldModel(["a", "b"], [(valuation, 1)])

    def test_bool_and_zero_one_valuations_accepted(self):
        model = WorldModel(["a", "b"], [((0, 1), "1/2"), ((True, False), "1/4"), ([1, 1], "1/4")])
        assert [v for v, _ in model.worlds] == [(False, True), (True, False), (True, True)]
        assert all(type(x) is bool for v, _ in model.worlds for x in v)
        with pytest.raises(ValueError, match=r"duplicate world valuation \(False, True\)"):
            WorldModel(["a", "b"], [((0, 1), "1/2"), ((False, True), "1/2")])

    def test_float_weights_rejected(self):
        with pytest.raises(ValueError):
            WorldModel(["a"], [((True,), 0.5), ((False,), 0.5)])
        with pytest.raises(ValueError, match="zero denominator in '1/0'"):
            WorldModel(["a"], [((True,), "1/0"), ((False,), 1)])
        # strings follow the one p/q-or-integer grammar of as_fraction
        for text in ("0.5", "1e-3", "1_000/3"):
            message = re.escape(f"expected a rational p/q or integer, got {text!r}")
            with pytest.raises(ValueError, match=message):
                WorldModel(["a"], [((True,), text), ((False,), "1/2")])
        model = WorldModel(["a"], [((True,), "3 / 4"), ((False,), "1/4")])
        assert model.probability(atom("a")) == Fraction(3, 4)

    def test_bool_weight_is_no_rational(self):
        # True is an int, but no weight: it is refused as unreadable, not
        # as inexact like a float
        message = re.escape("expected a rational p/q or integer, got True")
        with pytest.raises(ValueError, match=message):
            WorldModel(["a"], [((True,), True), ((False,), 0)])

    def test_common_denominator_capped(self, monkeypatch):
        monkeypatch.setattr(worlds, "MAX_PLANE_BITS", 64)
        WorldModel(["a"], [((True,), Fraction(1, 2**31)), ((False,), 1 - Fraction(1, 2**31))])
        with pytest.raises(ValueError, match="common denominator of more than 32 bits"):
            WorldModel(
                ["a"], [((True,), Fraction(1, 2**32)), ((False,), 1 - Fraction(1, 2**32))]
            )

    @needs_digit_limit
    def test_denominator_past_the_digit_limit_rejected(self):
        """Weights that each fit the digit limit, over a common denominator
        that does not, build no model in any constructor."""
        digits = sys.get_int_max_str_digits()
        message = f"the weights of 4 worlds need a common denominator of more than {digits} digits"
        weights = past_digit_limit_weights(digits)
        with pytest.raises(ValueError, match=message):
            WorldModel(["a", "b"], zip(product((True, False), repeat=2), weights))
        with pytest.raises(ValueError, match=message):
            biased_lottery(weights)
        # (10**k + 1)**2 has 2k + 1 digits
        with pytest.raises(ValueError, match=message):
            independent_lottery(2, Fraction(1, 10 ** (digits // 2 + 1) + 1))

    @needs_digit_limit
    def test_denominator_at_the_digit_limit_allowed(self):
        digits = sys.get_int_max_str_digits()
        edge = Fraction(1, 10 ** (digits - 1))  # a denominator of exactly that many digits
        assert biased_lottery([edge, 1 - edge]).model.probability(atom("wins_1")) == edge
        past = Fraction(1, 10**digits)
        with pytest.raises(ValueError, match=f"of more than {digits} digits"):
            WorldModel(["a"], [((True,), past), ((False,), 1 - past)])

    def test_plane_bound_checked_before_the_digit_limit(self, monkeypatch):
        def two_worlds(q):
            return WorldModel(["a"], [((True,), Fraction(1, q)), ((False,), 1 - Fraction(1, q))])

        monkeypatch.setattr(worlds, "MAX_PLANE_BITS", 64)
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 5)
        two_worlds(99_999)
        with pytest.raises(ValueError, match="common denominator of more than 5 digits"):
            two_worlds(100_000)
        with pytest.raises(ValueError, match="common denominator of more than 32 bits"):
            two_worlds(2**32)
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)  # no limit
        two_worlds(2**31)

    @pytest.mark.parametrize("limit", [0, 1, 5, 12])
    def test_one_digit_limit_check_matches_the_power(self, monkeypatch, limit):
        # past the limit means at least 10**limit; no limit means never
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: limit)
        for base in [1, 2, 3, 7, 9, 10, 11, 99, 100, 101, 2**20 - 1, 2**20, 10**12 + 1]:
            for exponent in range(1, 14):
                past = bool(limit) and base**exponent >= 10**limit
                assert worlds._past_digit_limit(base, exponent) == (limit if past else 0)

    def test_zero_weight_worlds_allowed(self):
        model = WorldModel(["a"], [((True,), 1), ((False,), 0)])
        assert model.probability(atom("a")) == 1


class TestBeliefBase:
    def test_background_below_one_rejected(self):
        model = WorldModel(
            ["a"], [((True,), Fraction(1, 2)), ((False,), Fraction(1, 2))]
        )
        with pytest.raises(ValueError):
            BeliefBase(model, FormulaSet([atom("a")]), [])

    def test_candidate_atoms_must_exist(self):
        model = WorldModel(["a"], [((True,), 1)])
        with pytest.raises(UnknownAtomError):
            BeliefBase(model, [], [("C", atom("b"))])

    @pytest.mark.parametrize(
        "candidates, message",
        [
            ([("L1", "wins_1")], "candidates must be formulas, got 'wins_1'"),
            ([("L1",)], r"candidates must be \(label, formula\) pairs, got \('L1',\)"),
            ([("L1", atom("wins_1"), "x")], r"candidates must be \(label, formula\) pairs"),
            (["L1"], r"candidates must be \(label, formula\) pairs, got 'L1'"),
            ([(1, atom("wins_1"))], "candidate labels must be strings, got 1"),
        ],
    )
    def test_non_formula_candidates_refused(self, candidates, message):
        model = fair_lottery(3).model
        with pytest.raises(TypeError, match=message):
            BeliefBase(model, (), candidates)
        with pytest.raises(TypeError, match="FormulaSet members must be formulas, got 'wins_1'"):
            BeliefBase(model, ["wins_1"], ())

    def test_duplicate_labels_rejected(self):
        model = WorldModel(["a"], [((True,), 1)])
        with pytest.raises(ValueError):
            BeliefBase(model, [], [("C", atom("a")), ("C", neg(atom("a")))])

    @pytest.mark.parametrize("label", ["", "1C", "C-1", "C 1"])
    def test_labels_must_be_identifiers(self, label):
        model = WorldModel(["a"], [((True,), 1)])
        with pytest.raises(ValueError, match=f"invalid candidate label {label!r}"):
            BeliefBase(model, [], [(label, atom("a"))])


COPIERS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda obj: pickle.loads(pickle.dumps(obj)),
}


class TestCopies:
    """Copies and pickles are rebuilt through the constructors; the caches
    and the base's solver are not carried."""

    BASES = {
        "fair": lambda: fair_lottery(4),
        "biased": lambda: biased_lottery([Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)]),
        "independent": lambda: independent_lottery(3, Fraction(1, 3)),
        "parsed": lambda: BeliefBase(
            WorldModel(["a", "b"], [((True, False), "1/2"), ((False, True), "1/2")]),
            [parse("a | b")],
            [("A", atom("a")), ("B", atom("b")), ("C", parse("a -> b"))],
        ),
    }

    @pytest.mark.parametrize("copier", COPIERS.values(), ids=COPIERS)
    @pytest.mark.parametrize("build", BASES.values(), ids=BASES)
    def test_base_copy_is_equal_and_accepts_alike(self, build, copier):
        base = build()
        level = AcceptanceLevel(Fraction(1, 3))
        expected = threshold_accept(base, level)  # fills the model's caches
        assert _solver(base) is base._solver  # built and kept on the base
        copied = copier(base)
        assert copied == base and copied is not base
        assert copied.model == base.model
        assert copied._solver is None
        # the copy builds its own background, which names the copy's model
        assert copied.background._model is copied.model
        assert threshold_accept(copied, level) == expected

    @pytest.mark.parametrize("copier", COPIERS.values(), ids=COPIERS)
    def test_lottery_background_copies_from_its_outcomes(self, copier):
        # an exactly_one is rebuilt from its outcomes, so neither the
        # original nor its copy builds the n(n-1)/2 pair tree
        background = fair_lottery(ONE_WINNER_LOTTERY_CAP).background
        copied = copier(background)
        assert copied == background and hash(copied) == hash(background)
        (original,), (rebuilt,) = background, copied
        assert rebuilt.canonical_key == original.canonical_key
        for f in (original, rebuilt):
            with pytest.raises(AttributeError):
                Formula.args.__get__(f)  # the slot itself, not the lazy build

    @pytest.mark.parametrize("copier", COPIERS.values(), ids=COPIERS)
    def test_model_copy_is_equal(self, copier):
        model = independent_lottery(3, Fraction(1, 3)).model
        model.probability(atom("wins_1"))
        copied = copier(model)
        assert copied == model and hash(copied) == hash(model)
        assert copied._mask_cache == {} and copied._probability_cache == {}
        assert copied.probability(atom("wins_1")) == Fraction(1, 3)

    @pytest.mark.parametrize("copier", COPIERS.values(), ids=COPIERS)
    def test_formula_set_copy_leaves_the_walk_behind(self, copier):
        base = fair_lottery(3)
        candidates = base.candidate_formulas
        maximal_consistent_subsets(candidates, base.background)
        assert candidates._family is not None
        copied = copier(candidates)
        assert copied == candidates and repr(copied) == repr(candidates)
        assert list(copied) == list(candidates)
        assert not hasattr(copied, "_family")

    @pytest.mark.parametrize("copier", COPIERS.values(), ids=COPIERS)
    @pytest.mark.parametrize("which", ["candidate_formulas", "background"])
    def test_formula_set_copy_leaves_the_model_behind(self, which, copier):
        # the base's own background names its model, its candidates none;
        # a copy of either names none
        base = fair_lottery(3)
        drawn = getattr(base, which)
        assert getattr(drawn, "_model", None) is (base.model if which == "background" else None)
        copied = copier(drawn)
        assert copied == drawn and hash(copied) == hash(drawn)
        assert repr(copied) == repr(drawn) and list(copied) == list(drawn)
        assert not hasattr(copied, "_model")

    @pytest.mark.parametrize("copier", COPIERS.values(), ids=COPIERS)
    @pytest.mark.parametrize("policy", POLICY_TABLE)
    def test_accepted_set_copy_names_the_model_of_its_background(self, policy, copier):
        base = fair_lottery(4)
        run, takes_order = POLICY_TABLE[policy]
        level = AcceptanceLevel(Fraction(1, 4))
        result = run(base, base.candidate_labels, level) if takes_order else run(base, level)
        assert not hasattr(result, "_model")  # the background names it
        assert result.background is base.background
        assert not hasattr(result.accepted_formulas, "_model")
        copied = copier(result)
        assert copied == result and copied is not result
        assert repr(copied) == repr(result)
        assert not hasattr(copied, "_model")
        if copier is copy.copy:  # shares the base's background, model and all
            assert copied.background is base.background
            assert copied.background._model is base.model
        else:  # rebuilds the background, which then names no model
            assert not hasattr(copied.background, "_model")
        assert not hasattr(copied.accepted_formulas, "_model")
        assert list(copied.accepted_formulas) == list(result.accepted_formulas)

    def test_the_model_is_no_field_of_an_accepted_set(self):
        base = fair_lottery(4)
        result = threshold_accept(base, AcceptanceLevel(Fraction(1, 4)))
        names = ["policy", "level", "accepted", "background", "weakly_consistent"]
        assert [field.name for field in dataclasses.fields(AcceptedSet)] == names
        values = dataclasses.asdict(result)
        assert list(values) == names
        # built from its fields alone it is equal and alike, and its
        # background names the model; its accepted statements name none
        bare = AcceptedSet(*(getattr(result, name) for name in names))
        assert not hasattr(bare, "_model")
        assert bare.background._model is base.model
        assert not hasattr(bare.accepted_formulas, "_model")
        assert bare == result and repr(bare) == repr(result)
        assert dataclasses.asdict(bare) == values
        replaced = dataclasses.replace(result, policy="threshold")
        assert replaced.background._model is base.model
        # a rebuilt background names no model
        plain = dataclasses.replace(result, background=FormulaSet(base.background))
        assert plain == result and not hasattr(plain.background, "_model")


# each producer of a model, built afresh on every call
PRODUCERS = {
    "constructor": lambda: WorldModel(
        ["a", "b"], [((1, 0), "1/3"), ((0, 1), "2/3"), ((1, 1), 0)]
    ),
    "biased": lambda: biased_lottery([Fraction(1, 2), Fraction(0), Fraction(1, 2)]).model,
    "independent": lambda: independent_lottery(3, Fraction(1, 3)).model,
}


class TestWorldListing:
    """A model lists its worlds at the first read of ``worlds``; until then
    it compares, hashes, copies and prints like a model that has listed
    them, and like the constructor's model of the same worlds."""

    @staticmethod
    def listed_and_generic(produce):
        listed = produce()
        return listed, WorldModel(listed.atoms, listed.worlds)

    @pytest.mark.parametrize("produce", PRODUCERS.values(), ids=PRODUCERS)
    def test_unlisted_model_equals_listed_ones(self, produce):
        for other in self.listed_and_generic(produce):
            for compare in (
                lambda model: model == other,
                lambda model: other == model,
                lambda model: hash(model) == hash(other),
            ):
                model = produce()
                assert model._worlds is None
                assert compare(model)
        model = produce()
        assert model.worlds is model.worlds  # listed once

    @pytest.mark.parametrize("copier", COPIERS.values(), ids=COPIERS)
    @pytest.mark.parametrize("produce", PRODUCERS.values(), ids=PRODUCERS)
    def test_unlisted_model_copies_equal_listed_ones(self, produce, copier):
        for other in self.listed_and_generic(produce):
            assert copier(produce()) == other
            assert hash(copier(produce())) == hash(other)
            assert other == copier(produce())

    @pytest.mark.parametrize("produce", PRODUCERS.values(), ids=PRODUCERS)
    def test_repr_lists_no_world(self, produce, listings):
        model = produce()
        text = repr(model)
        assert listings == []
        assert text == repr(WorldModel(model.atoms, model.worlds))
        assert text.endswith(f"worlds={len(model.worlds)})")


class TestProbabilityBound:
    def test_point_bound(self):
        b = ProbabilityBound(Fraction(1, 2))
        assert b.lower == b.upper == Fraction(1, 2)

    def test_interval_ordering_enforced(self):
        with pytest.raises(ValueError):
            ProbabilityBound(Fraction(3, 4), Fraction(1, 4))
        with pytest.raises(ValueError):
            ProbabilityBound(Fraction(-1, 4), Fraction(1, 4))

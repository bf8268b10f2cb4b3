import dataclasses
import random
import re
from fractions import Fraction

import pytest

from probaccept import (
    AcceptanceLevel,
    BeliefBase,
    WorldModel,
    atom,
    biased_lottery,
    enumerate_extensions,
    entails,
    fair_lottery,
    independent_lottery,
    is_satisfiable,
    lehrer_accept,
    lehrer_cascade,
    parse,
    sequential_accept,
    stakes_threshold,
    teng_accept,
    threshold_accept,
)
from probaccept import accept as accept_module
from probaccept import sat
from probaccept.accept import MAX_PERMUTATIONS, POLICY_TABLE

from helpers import lottery_missing_a_winner, truth_table_satisfiable

BIASED = [Fraction(1, 100), Fraction(9, 100), Fraction(90, 100)]


def coin_base(heads_weight=Fraction(3, 4), extra_candidates=()):
    model = WorldModel(
        ["heads"], [((True,), heads_weight), ((False,), 1 - heads_weight)]
    )
    candidates = [("H", atom("heads"))] + list(extra_candidates)
    return BeliefBase(model, [], candidates)


class TestAcceptanceLevel:
    def test_threshold(self):
        level = AcceptanceLevel(Fraction(1, 100))
        assert level.threshold == Fraction(99, 100)
        assert level.met_by(Fraction(99, 100))
        assert not level.met_by(Fraction(98, 99))
        # exact rationals only, as everywhere in the package
        assert level.met_by(1) and level.met_by("99/100") and not level.met_by(0)
        with pytest.raises(ValueError, match="refusing inexact weight 0.995"):
            level.met_by(0.995)

    def test_replaced_level_has_its_own_threshold(self):
        level = AcceptanceLevel(Fraction(1, 100))
        assert level.threshold == Fraction(99, 100)  # read, so cached on level
        wider = dataclasses.replace(level, epsilon=Fraction(1, 10))
        assert wider.threshold == Fraction(9, 10)
        assert wider.met_by(Fraction(9, 10))
        assert level.threshold == Fraction(99, 100)
        assert wider != level
        assert dataclasses.asdict(wider) == {"epsilon": Fraction(1, 10), "strict": False}

    def test_strict_mode_excludes_boundary(self):
        level = AcceptanceLevel(Fraction(1, 100), strict=True)
        assert not level.met_by(Fraction(99, 100))
        assert level.met_by(Fraction(991, 1000))

    @pytest.mark.parametrize("strict", ["false", "no", "", 0, 1, None])
    def test_non_bool_strict_rejected(self, strict):
        # a truthy "false" would build a strict level, at which a 4-ticket
        # lottery at 1/4 accepts none of its tickets
        with pytest.raises(ValueError, match=r"^strict must be a bool, not "):
            AcceptanceLevel(Fraction(1, 4), strict=strict)
        level = AcceptanceLevel(Fraction(1, 4))
        with pytest.raises(ValueError, match=r"^strict must be a bool, not "):
            dataclasses.replace(level, strict=strict)
        assert len(threshold_accept(fair_lottery(4), level).accepted) == 4

    @pytest.mark.parametrize("eps", [0, 1, Fraction(3, 2), Fraction(-1, 4)])
    def test_epsilon_range_enforced(self, eps):
        with pytest.raises(ValueError):
            AcceptanceLevel(Fraction(eps))

    def test_float_epsilon_rejected(self):
        with pytest.raises(ValueError):
            AcceptanceLevel(0.01)
        for text in ("1/0", "0/0"):
            with pytest.raises(ValueError, match=f"zero denominator in '{text}'"):
                AcceptanceLevel(text)
            with pytest.raises(ValueError, match=f"zero denominator in '{text}'"):
                stakes_threshold(text)
        # strings follow the one p/q-or-integer grammar of as_fraction
        for text in ("0.5", "1e-3", "1_000/3"):
            message = re.escape(f"expected a rational p/q or integer, got {text!r}")
            with pytest.raises(ValueError, match=message):
                AcceptanceLevel(text)
            with pytest.raises(ValueError, match=message):
                stakes_threshold(text)
        assert AcceptanceLevel("3 / 4").epsilon == Fraction(3, 4)
        assert stakes_threshold("9 / 3").epsilon == Fraction(1, 4)

    def test_bool_epsilon_is_no_rational(self):
        # True is an int, but no level: refused as unreadable, not as inexact
        message = re.escape("expected a rational p/q or integer, got True")
        with pytest.raises(ValueError, match=message):
            AcceptanceLevel(True)

    @pytest.mark.parametrize(
        "eps, shown", [(0, "0"), (1, "1"), (Fraction(-1, 2), "-1/2"), (Fraction(3, 2), "3/2"),
                       ("0", "0"), ("1", "1")],
    )
    def test_epsilon_range_message(self, eps, shown):
        message = re.escape(f"epsilon must lie strictly between 0 and 1, got {shown}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            AcceptanceLevel(eps)

    def test_a_policy_run_builds_no_threshold(self):
        # the cut is read from epsilon's integers; only a report builds the
        # threshold Fraction, and then keeps it
        level = AcceptanceLevel(Fraction(1, 10))
        threshold_accept(fair_lottery(10), level)
        assert "threshold" not in level.__dict__
        assert level.threshold == Fraction(9, 10)
        assert "threshold" in level.__dict__


class TestStakesThreshold:
    def test_three_to_one_stakes(self):
        # with cost:benefit confined to 1:3 .. 3:1 there is no difference
        # between probability 3/4 and probability 1
        level = stakes_threshold(3)
        assert level.threshold == Fraction(3, 4)
        assert level.epsilon == Fraction(1, 4)

    def test_even_stakes(self):
        assert stakes_threshold(1).threshold == Fraction(1, 2)

    def test_hundred_to_one(self):
        assert stakes_threshold(100).threshold == Fraction(100, 101)

    def test_ratio_below_one_rejected(self):
        with pytest.raises(ValueError):
            stakes_threshold(Fraction(1, 2))

    def test_bool_ratio_is_no_rational(self):
        message = re.escape("expected a rational p/q or integer, got True")
        with pytest.raises(ValueError, match=message):
            stakes_threshold(True)


class TestThresholdAccept:
    def test_lottery_paradox(self, lottery100):
        result = threshold_accept(lottery100, AcceptanceLevel(Fraction(1, 100)))
        assert len(result.accepted) == 100
        assert not result.weakly_consistent
        assert not is_satisfiable(result.statements)

    def test_threshold_above_candidates_accepts_nothing(self):
        base = fair_lottery(4)
        result = threshold_accept(base, AcceptanceLevel(Fraction(1, 8)))
        assert result.accepted == ()
        assert result.weakly_consistent

    def test_tautology_always_accepted(self):
        base = coin_base(extra_candidates=[("TAUT", parse("heads | ~heads"))])
        result = threshold_accept(base, AcceptanceLevel(Fraction(1, 1000)))
        assert result.order == ("TAUT",)

    def test_strict_mode_drops_boundary_candidates(self, lottery100):
        level = AcceptanceLevel(Fraction(1, 100), strict=True)
        assert threshold_accept(lottery100, level).accepted == ()

    def test_background_included_in_statements(self):
        base = fair_lottery(3)
        result = threshold_accept(base, AcceptanceLevel(Fraction(1, 2)))
        for f in base.background:
            assert f in result.statements

    def test_membership_is_exactly_the_threshold_set(self):
        base = biased_lottery(BIASED)
        level = AcceptanceLevel(Fraction(1, 4))
        result = threshold_accept(base, level)
        for label, formula in base.candidates:
            p = base.model.probability(formula)
            assert (label in result.order) == level.met_by(p)

    def test_independent_lottery_paradox_without_dependence(self):
        # all candidates clear the even-odds threshold yet cannot hold together
        base = independent_lottery(10, Fraction(1, 2))
        result = threshold_accept(base, AcceptanceLevel(Fraction(1, 2)))
        assert len(result.accepted) == 11
        assert not result.weakly_consistent

    @pytest.mark.parametrize("n", range(2, 13))
    def test_lottery_family_accepts_all_and_breaks(self, n):
        base = fair_lottery(n)
        result = threshold_accept(base, AcceptanceLevel(Fraction(1, n)))
        assert len(result.accepted) == n
        assert not truth_table_satisfiable(result.statements)


class TestLehrerAccept:
    def test_two_ticket_tie_blocks_both(self):
        result = lehrer_accept(fair_lottery(2), AcceptanceLevel(Fraction(1, 2)))
        assert result.accepted == ()

    def test_biased_lottery_takes_the_clear_leaders(self):
        result = lehrer_accept(biased_lottery(BIASED), AcceptanceLevel(Fraction(1, 4)))
        assert result.order == ("L1", "L2")
        assert result.weakly_consistent

    def test_vacuous_dominance_single_candidate(self):
        result = lehrer_accept(coin_base(), AcceptanceLevel(Fraction(1, 3)))
        assert result.order == ("H",)

    def test_subset_of_threshold_policy(self):
        level = AcceptanceLevel(Fraction(1, 4))
        for base in (fair_lottery(2), fair_lottery(5), biased_lottery(BIASED)):
            lehrer = set(lehrer_accept(base, level).order)
            threshold = set(threshold_accept(base, level).order)
            assert lehrer <= threshold

    def test_wide_lottery_has_no_pairwise_contraries(self):
        # with three or more tickets, two lose statements are mutually
        # satisfiable under the background, so dominance never triggers
        base = fair_lottery(3)
        level = AcceptanceLevel(Fraction(1, 3))
        assert lehrer_accept(base, level).order == threshold_accept(base, level).order

    def test_largest_lottery_asks_the_solver_no_pair(self, monkeypatch):
        """Two lose statements of a 300-ticket lottery cover 299 worlds each
        of 300, so no pair can be contrary: the solver is asked only the
        run's verdict, over all 300 accepted."""
        asked = []
        satisfiable = sat._Solver.satisfiable

        def counted(solver, which=()):
            asked.append(tuple(which))
            return satisfiable(solver, which)

        monkeypatch.setattr(sat._Solver, "satisfiable", counted)
        result = lehrer_accept(fair_lottery(300), AcceptanceLevel(Fraction(1, 300)))
        assert len(result.accepted) == 300 and not result.weakly_consistent
        assert asked == [tuple(range(300))]


class TestLehrerCascade:
    def test_biased_cascade_reaches_the_winner(self):
        result = lehrer_cascade(biased_lottery(BIASED), AcceptanceLevel(Fraction(1, 10)))
        assert result.order == ("L1", "L2", "wins_3")
        supports = [a.support for a in result.accepted]
        assert supports == [Fraction(99, 100), Fraction(90, 99), Fraction(1)]
        assert result.weakly_consistent

    def test_equiprobable_tie_halts_immediately(self):
        result = lehrer_cascade(fair_lottery(3), AcceptanceLevel(Fraction(1, 10)))
        assert result.accepted == ()

    def test_single_ticket_accepts_the_win_directly(self):
        result = lehrer_cascade(fair_lottery(1), AcceptanceLevel(Fraction(1, 10)))
        assert result.order == ("wins_1",)
        assert result.accepted[0].support == 1

    def test_threshold_halts_cascade_midway(self):
        # second stage conditional 90/99 misses a 99/100 threshold
        result = lehrer_cascade(biased_lottery(BIASED), AcceptanceLevel(Fraction(1, 100)))
        assert result.order == ("L1",)

    def test_non_lottery_candidates_rejected(self):
        base = coin_base()
        with pytest.raises(ValueError):
            lehrer_cascade(base, AcceptanceLevel(Fraction(1, 4)))


class TestSequentialAccept:
    def test_natural_order_completes_the_outcome(self, lottery100):
        level = AcceptanceLevel(Fraction(1, 100))
        order = list(lottery100.candidate_labels)
        result = sequential_accept(lottery100, order, level)
        assert len(result.accepted) == 99
        assert "L100" not in result.order
        assert result.weakly_consistent
        # the accepted set plus background decides the whole lottery
        assert entails(lottery100.background, result.accepted_formulas, atom("wins_100"))

    def test_reverse_order_rejects_the_other_end(self, lottery100):
        level = AcceptanceLevel(Fraction(1, 100))
        order = list(reversed(lottery100.candidate_labels))
        result = sequential_accept(lottery100, order, level)
        assert len(result.accepted) == 99
        assert "L1" not in result.order

    def test_no_candidates_leaves_background_only(self):
        model = WorldModel(["a"], [((True,), 1)])
        base = BeliefBase(model, [atom("a")], [])
        result = sequential_accept(base, [], AcceptanceLevel(Fraction(1, 2)))
        assert result.accepted == ()
        assert result.statements == base.background

    def test_order_must_be_permutation(self):
        base = fair_lottery(3)
        level = AcceptanceLevel(Fraction(1, 3))
        for bad in (["L1", "L2"], ["L1", "L2", "L2"], ["L1", "L2", "L4"]):
            with pytest.raises(ValueError):
                sequential_accept(base, bad, level)

    @pytest.mark.parametrize("policy", ["sequential", "teng"])
    def test_order_with_an_item_of_another_type_rejected(self, policy):
        """Items of mixed types are refused with the permutation message, not
        the ``TypeError`` that sorting them would raise."""
        base = fair_lottery(3)
        level = AcceptanceLevel(Fraction(1, 3))
        run = POLICY_TABLE[policy][0]
        for bad in (["L1", "L2", 3], [3, "L1", "L2"], ["L1", "L2", None], [1, 2, 3]):
            with pytest.raises(ValueError, match="order must be a permutation"):
                run(base, bad, level)
        # an iterator is no sequence: refused, not consumed into an empty run
        with pytest.raises(TypeError):
            run(base, iter(["L1", "L2", "L3"]), level)

    def test_always_weakly_consistent_randomized(self):
        rng = random.Random(55)
        base = fair_lottery(5)
        labels = list(base.candidate_labels)
        for _ in range(20):
            rng.shuffle(labels)
            eps = Fraction(rng.randint(1, 9), 10)
            result = sequential_accept(base, labels, AcceptanceLevel(eps))
            assert result.weakly_consistent
            assert is_satisfiable(result.statements)


class TestTengAccept:
    def test_single_acceptance_at_the_lottery_level(self, lottery100):
        level = AcceptanceLevel(Fraction(1, 100))
        result = teng_accept(lottery100, list(lottery100.candidate_labels), level)
        assert result.order == ("L1",)
        # the second candidate fails on exactly this comparison
        assert Fraction(98, 99) < Fraction(99, 100)

    def test_order_symmetry(self, lottery100):
        level = AcceptanceLevel(Fraction(1, 100))
        order = list(reversed(lottery100.candidate_labels))
        result = teng_accept(lottery100, order, level)
        assert result.order == ("L100",)

    def test_fifty_level_accepts_while_conditional_holds(self, lottery100):
        # conditional after k acceptances is (99-k)/(100-k); it stays at or
        # above 49/50 through k = 50 and first fails at 48/49 < 49/50
        level = AcceptanceLevel(Fraction(1, 50))
        result = teng_accept(lottery100, list(lottery100.candidate_labels), level)
        assert len(result.accepted) == 51
        assert result.accepted[-1].support == Fraction(49, 50)
        assert Fraction(48, 49) < Fraction(49, 50)

    def test_tautology_accepted_anywhere(self):
        base = fair_lottery(3)
        augmented = BeliefBase(
            base.model,
            base.background,
            list(base.candidates) + [("TAUT", parse("wins_1 | ~wins_1"))],
        )
        level = AcceptanceLevel(Fraction(1, 3))
        result = teng_accept(augmented, ["L1", "L2", "L3", "TAUT"], level)
        assert "TAUT" in result.order
        taut = [a for a in result.accepted if a.label == "TAUT"][0]
        assert taut.support == 1

    def test_acceptances_replay_at_threshold(self, lottery100):
        # every recorded acceptance support is the conditional probability
        # at the moment of acceptance, and it met the threshold
        level = AcceptanceLevel(Fraction(1, 50))
        result = teng_accept(lottery100, list(lottery100.candidate_labels), level)
        replayed = list(lottery100.background)
        for acceptance in result.accepted:
            conditional = lottery100.model.conditional_probability(
                acceptance.statement, replayed
            )
            assert conditional == acceptance.support
            assert level.met_by(conditional)
            replayed.append(acceptance.statement)

    def test_always_weakly_consistent_randomized(self):
        rng = random.Random(56)
        base = biased_lottery(BIASED)
        labels = list(base.candidate_labels)
        for _ in range(20):
            rng.shuffle(labels)
            eps = Fraction(rng.randint(1, 9), 10)
            result = teng_accept(base, labels, AcceptanceLevel(eps))
            assert result.weakly_consistent


class TestPolicyTable:
    @pytest.mark.parametrize("name", list(POLICY_TABLE))
    def test_result_names_its_table_key(self, name):
        run, ordered = POLICY_TABLE[name]
        base = biased_lottery(BIASED)
        level = AcceptanceLevel(Fraction(1, 10))
        result = run(base, base.candidate_labels, level) if ordered else run(base, level)
        assert result.policy == name


class TestOneSolverPerBase:
    """Every policy at three levels, then every order of a sequential
    enumeration, on a 5-ticket lottery: one solver, kept on the base,
    answers all of them, and builds its clause store at most once."""

    @staticmethod
    def run_everything(base, eps, monkeypatch):
        built = []

        class CountedSolver(sat._Solver):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

            @classmethod
            def _complete(cls, *args):  # a lottery's solver, from its closed form
                built.append(args)
                return super()._complete(*args)

        monkeypatch.setattr(accept_module, "_Solver", CountedSolver)
        levels = [AcceptanceLevel(eps), AcceptanceLevel(eps, True), AcceptanceLevel(eps / 2)]
        for run, ordered in POLICY_TABLE.values():
            for level in levels:
                run(base, base.candidate_labels, level) if ordered else run(base, level)
        outcome = enumerate_extensions(base, "sequential", levels[0], max_permutations=120)
        assert outcome.exhaustive and outcome.permutation_count == 120
        assert not outcome.conjunction_weakly_consistent
        return built

    def test_every_run_and_order_on_a_base_builds_one_solver_and_one_store(
        self, monkeypatch, stores
    ):
        # the model misses a valuation that satisfies the background, so the
        # jointly unsatisfiable sets are searched, all by one store
        base = lottery_missing_a_winner(5)
        built = self.run_everything(base, Fraction(1, 4), monkeypatch)
        assert len(built) == 1
        assert len(stores) == 1
        # the solver it keeps is no part of the base's value
        assert base == lottery_missing_a_winner(5)
        assert repr(base) == repr(lottery_missing_a_winner(5))

    def test_every_run_and_order_on_a_fair_lottery_builds_one_solver_and_no_store(
        self, monkeypatch, stores
    ):
        # the model lists all 5 valuations that satisfy the background, so
        # an empty mask means unsatisfiable: no search
        base = fair_lottery(5)
        built = self.run_everything(base, Fraction(1, 5), monkeypatch)
        assert len(built) == 1
        assert len(stores) == 0
        assert base == fair_lottery(5) and repr(base) == repr(fair_lottery(5))


    def test_a_second_run_reads_every_candidate_mask_from_the_solver(self, monkeypatch):
        # once each policy has run, the solver's mask list holds every
        # candidate's worlds: a second run asks the model for no mask, the
        # cascade too, whose winner is read off its last stage's weights
        base = biased_lottery(BIASED)
        level = AcceptanceLevel(Fraction(1, 10))

        def run(name):
            policy, ordered = POLICY_TABLE[name]
            return policy(base, base.candidate_labels, level) if ordered else policy(base, level)

        first = {name: run(name) for name in POLICY_TABLE}
        asked = []
        mask = WorldModel.satisfying_mask

        def counted(model, formula):
            asked.append(formula)
            return mask(model, formula)

        monkeypatch.setattr(WorldModel, "satisfying_mask", counted)
        for name in POLICY_TABLE:
            assert run(name) == first[name]
            assert asked == [], name
        assert first["cascade"].order[-1] == "wins_3"  # it ends on a winner

    def test_a_sequential_verdict_repeats_no_query(self, searches):
        # the model lists no world for wins_5, so L4's admission and L5's
        # refusal are searched; the verdict is L4's answer, not a third search
        base = lottery_missing_a_winner(5)
        level = AcceptanceLevel(Fraction(1, 4))
        result = sequential_accept(base, base.candidate_labels, level)
        assert len(searches) == 2
        q = Fraction(3, 4)
        accepted = tuple(
            accept_module.Acceptance(label, f, q, q) for label, f in base.candidates[:4]
        )
        assert result == accept_module.AcceptedSet(
            "sequential", level, accepted, base.background, True
        )


class TestWeighedOncePerBase:
    """The base's solver weighs each candidate once: a later run reads its
    weight there and shares its acceptance, and an enumeration builds an
    accepted set only for the first order of each outcome."""

    def test_a_second_threshold_run_weighs_nothing_and_builds_no_acceptance(self, monkeypatch):
        base = fair_lottery(100)
        level = AcceptanceLevel(Fraction(1, 100))
        first = threshold_accept(base, level)
        weighed, built = [], []
        probability = WorldModel.probability

        def counted(model, formula):
            weighed.append(formula)
            return probability(model, formula)

        class CountedAcceptance(accept_module.Acceptance):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(WorldModel, "probability", counted)
        monkeypatch.setattr(accept_module, "Acceptance", CountedAcceptance)
        second = threshold_accept(base, level)
        assert weighed == [] and built == []
        assert second == first
        assert len(second.accepted) == 100
        assert all(a is b for a, b in zip(second.accepted, first.accepted))

    def test_an_enumeration_builds_one_accepted_set_per_extension(self, monkeypatch):
        scans, built = [], []
        scan = accept_module._scan

        def counted(*args, **kwargs):
            scans.append(args)
            return scan(*args, **kwargs)

        class CountedSet(accept_module.AcceptedSet):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(accept_module, "_scan", counted)
        monkeypatch.setattr(accept_module, "AcceptedSet", CountedSet)
        outcome = enumerate_extensions(fair_lottery(5), "sequential", AcceptanceLevel(Fraction(1, 5)))
        assert outcome.exhaustive and outcome.permutation_count == 120
        assert len(scans) == 120
        # each extension leaves out the ticket whose lose statement came last
        assert len(outcome.extensions) == 5
        assert len(built) == 5


BIASED_TWELVE = [Fraction(i, 78) for i in range(1, 13)]


class TestWarmBase:
    """What a base keeps for later runs (its label positions, Lehrer's
    rivals, the cascade's ticket names) changes no check, and a conditional
    run on a lottery weighs no mask once the base has its solver."""

    @pytest.mark.parametrize(
        "build", [lambda: fair_lottery(30), lambda: biased_lottery(BIASED_TWELVE)],
        ids=["fair", "biased"],
    )
    def test_conditional_runs_on_a_lottery_weigh_no_mask(self, build, numerators):
        base = build()
        level = AcceptanceLevel(Fraction(1, 2))
        threshold_accept(base, level)  # the base now has its solver
        numerators.clear()
        n = len(base.candidates)
        for order in (base.candidate_labels, base.candidate_labels[::-1]):
            # every lose statement but one, each weighed within the last
            assert len(teng_accept(base, order, level).accepted) == n - 1
        cascade = lehrer_cascade(base, level)
        assert numerators == []
        if n == 12:  # the biased cascade runs every stage and names the winner
            assert cascade.order == (*(f"L{i}" for i in range(1, 12)), "wins_12")
            assert cascade.accepted[-1].support == 1
        else:  # a fair one halts at the first tie
            assert cascade.accepted == ()

    def test_an_ordered_run_leaves_every_order_check_in_place(self):
        base = fair_lottery(3)
        level = AcceptanceLevel(Fraction(1, 3))
        for policy in ("sequential", "teng"):
            run = POLICY_TABLE[policy][0]
            good = run(base, ["L3", "L1", "L2"], level)
            bad_orders = (
                ["L1", "L2", "L2"],  # a duplicate
                ["L1", "L2", "L4"],  # a label missing and one extra
                ["L1", "L2", 3],  # an item that is no label
                ["L1", "L2"],  # too short
                ["L1", "L2", "L3", "L1"],  # too long
            )
            for _ in range(2):
                for bad in bad_orders:
                    with pytest.raises(ValueError, match="^order must be a permutation"):
                        run(base, bad, level)
                assert run(base, ["L3", "L1", "L2"], level) == good

    def test_a_base_of_another_shape_is_refused_by_every_cascade(self):
        base = coin_base()
        level = AcceptanceLevel(Fraction(1, 4))
        for _ in range(3):
            with pytest.raises(ValueError, match="lottery-shaped"):
                lehrer_cascade(base, level)
            threshold_accept(base, level)
            lehrer_accept(base, level)

    @pytest.mark.parametrize(
        "build", [lambda: biased_lottery([Fraction(1, 3), Fraction(2, 3)]),
                  lambda: lottery_missing_a_winner(4)],
        ids=["contrary_pair", "searched"],
    )
    def test_lehrer_runs_at_every_level_read_the_kept_rivals(self, build):
        # each run on one base reads the rivals its first run kept, and
        # accepts what a run on a fresh base accepts
        base = build()
        levels = [
            AcceptanceLevel(eps, strict)
            for eps in (Fraction(2, 3), Fraction(1, 4), Fraction(1, 2))
            for strict in (False, True)
        ]
        for level in levels:
            assert lehrer_accept(base, level) == lehrer_accept(build(), level)


class TestEnumerateExtensions:
    def test_fair_three_sequential(self):
        base = fair_lottery(3)
        outcome = enumerate_extensions(base, "sequential", AcceptanceLevel(Fraction(1, 3)))
        assert outcome.exhaustive and outcome.permutation_count == 6
        assert len(outcome.extensions) == 3
        assert all(len(ext.accepted) == 2 for ext in outcome.extensions)
        # disjunctive intersection keeps no candidate at all
        candidate_keys = {f.canonical_key for f in base.candidate_formulas}
        assert not candidate_keys & {f.canonical_key for f in outcome.intersection}
        # conjunctive merge lands back in inconsistency
        assert not outcome.conjunction_weakly_consistent

    def test_teng_extensions_are_singletons_here(self):
        base = fair_lottery(3)
        outcome = enumerate_extensions(base, "teng", AcceptanceLevel(Fraction(1, 3)))
        assert len(outcome.extensions) == 3
        assert all(len(ext.accepted) == 1 for ext in outcome.extensions)

    def test_consistent_candidates_single_extension(self):
        model = WorldModel(
            ["a", "b"],
            [
                ((True, True), Fraction(9, 16)),
                ((True, False), Fraction(3, 16)),
                ((False, True), Fraction(3, 16)),
                ((False, False), Fraction(1, 16)),
            ],
        )
        base = BeliefBase(model, [], [("A", atom("a")), ("B", atom("b"))])
        outcome = enumerate_extensions(base, "sequential", AcceptanceLevel(Fraction(1, 2)))
        assert len(outcome.extensions) == 1
        assert outcome.conjunction_weakly_consistent

    def test_sampling_is_deterministic(self):
        base = fair_lottery(5)
        level = AcceptanceLevel(Fraction(1, 5))
        first = enumerate_extensions(base, "sequential", level, max_permutations=10, seed=7)
        second = enumerate_extensions(base, "sequential", level, max_permutations=10, seed=7)
        assert not first.exhaustive
        assert first.witness_orders == second.witness_orders
        assert [e.order for e in first.extensions] == [e.order for e in second.extensions]

    def test_max_permutations_capped_before_any_order_is_built(self):
        # 12! orders would exhaust memory if the cap were checked late
        base = fair_lottery(12)
        level = AcceptanceLevel(Fraction(1, 12))
        with pytest.raises(ValueError, match="max_permutations"):
            enumerate_extensions(base, "sequential", level, max_permutations=10**9)
        with pytest.raises(ValueError, match="max_permutations"):
            enumerate_extensions(base, "sequential", level, max_permutations=MAX_PERMUTATIONS + 1)
        # True would run one sampled order, 2.5 would fail inside the sampler
        for count in (True, 2.5):
            with pytest.raises(ValueError, match="max_permutations must be an integer"):
                enumerate_extensions(base, "sequential", level, max_permutations=count)

    @pytest.mark.parametrize("seed", [-1, -5, 2**64, "7", True])
    def test_seed_outside_u64_rejected(self, seed):
        # random.Random seeds on abs(), so -5 would draw what 5 draws
        base = fair_lottery(5)
        level = AcceptanceLevel(Fraction(1, 5))
        with pytest.raises(ValueError, match="seed must be an integer between 0 and 2"):
            enumerate_extensions(base, "sequential", level, max_permutations=10, seed=seed)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_seed_at_the_u64_ends_accepted(self, seed):
        base = fair_lottery(5)
        level = AcceptanceLevel(Fraction(1, 5))
        outcome = enumerate_extensions(base, "sequential", level, max_permutations=10, seed=seed)
        assert not outcome.exhaustive
        assert outcome.seed == seed

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            enumerate_extensions(fair_lottery(2), "threshold", AcceptanceLevel(Fraction(1, 2)))

import copy
import pickle
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from probaccept import (
    AcceptanceLevel,
    BinomialTestSpec,
    Decision,
    ProbabilityBound,
    binomial_pmf,
    binomial_rejection_region,
    combine_tests,
    contradiction_bound,
    rejection_to_acceptance,
    run_test,
)
from probaccept.stattests import MAX_BINOMIAL_TRIALS, SIDEDNESS

from helpers import binomial_region_oracle, binomial_tail_sum

# p0 = a/q strictly inside (0, 1), and epsilon in (0, 1], 1 included.
P0S = st.integers(2, 100).flatmap(lambda q: st.integers(1, q - 1).map(lambda a: Fraction(a, q)))
EPSILONS = st.integers(1, 10**4).flatmap(lambda d: st.integers(1, d).map(lambda k: Fraction(k, d)))


def spec(n=100, p0=Fraction(1, 2), eps=Fraction(1, 100), sided="two_sided"):
    return BinomialTestSpec(n=n, p0=p0, epsilon=eps, sided=sided)


class TestSpecValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            BinomialTestSpec(n=0, p0=Fraction(1, 2), epsilon=Fraction(1, 100))
        with pytest.raises(ValueError):
            BinomialTestSpec(n=10, p0=Fraction(1, 1), epsilon=Fraction(1, 100))
        with pytest.raises(ValueError):
            BinomialTestSpec(n=10, p0=Fraction(1, 2), epsilon=Fraction(0, 1))
        with pytest.raises(ValueError):
            BinomialTestSpec(n=10, p0=Fraction(1, 2), epsilon=Fraction(1, 100), sided="both")

    def test_sample_size_capped(self):
        # the cli benchmark draws sample sizes up to 1000
        assert MAX_BINOMIAL_TRIALS >= 1000
        assert spec(n=MAX_BINOMIAL_TRIALS).n == MAX_BINOMIAL_TRIALS
        for n in (MAX_BINOMIAL_TRIALS + 1, 10**9):
            with pytest.raises(ValueError, match=f"between 1 and {MAX_BINOMIAL_TRIALS}"):
                spec(n=n)

    @pytest.mark.skipif(
        not 0 < sys.get_int_max_str_digits() < 3 * MAX_BINOMIAL_TRIALS,
        reason="needs a digit limit that some allowed n passes",
    )
    def test_fractions_beyond_the_digit_limit_rejected(self):
        # 1000**n has 3n + 1 digits
        n = (sys.get_int_max_str_digits() - 1) // 3
        assert spec(n=n, p0=Fraction(1, 1000)).n == n
        with pytest.raises(ValueError, match=f"p0 = 1/1000 over n = {n + 1} trials"):
            spec(n=n + 1, p0=Fraction(1, 1000))

    def test_rejects_bool_sample_size(self):
        # bool is an int subclass; True must not pass as n = 1
        with pytest.raises(ValueError, match="sample size"):
            BinomialTestSpec(n=True, p0=Fraction(1, 2), epsilon=Fraction(1, 100))

    def test_vacuous_significance_allowed(self):
        assert spec(eps=Fraction(1)).epsilon == 1


class TestRejectionRegion:
    def test_golden_two_sided_hundred_trials(self):
        region = binomial_rejection_region(spec())
        assert region.rejected_counts == frozenset(range(0, 37)) | frozenset(range(64, 101))
        assert region.achieved_size <= Fraction(1, 100)
        # independent exact recomputation of the size
        assert region.achieved_size == binomial_tail_sum(
            100, Fraction(1, 2), region.rejected_counts
        )

    def test_vacuous_budget_takes_everything_one_sided(self):
        for sided in ("upper", "lower"):
            region = binomial_rejection_region(spec(n=6, eps=Fraction(1), sided=sided))
            assert region.rejected_counts == frozenset(range(7))
            assert region.achieved_size == 1

    def test_single_trial_two_sided_quarter_is_empty(self):
        region = binomial_rejection_region(spec(n=1, eps=Fraction(1, 4)))
        assert region.rejected_counts == frozenset()
        assert region.achieved_size == 0

    def test_one_sided_regions_are_extreme_tails(self):
        upper = binomial_rejection_region(spec(n=20, eps=Fraction(1, 20), sided="upper"))
        if upper.rejected_counts:
            assert upper.rejected_counts == frozenset(range(min(upper.rejected_counts), 21))
        lower = binomial_rejection_region(spec(n=20, eps=Fraction(1, 20), sided="lower"))
        if lower.rejected_counts:
            assert lower.rejected_counts == frozenset(range(0, max(lower.rejected_counts) + 1))

    @pytest.mark.parametrize("n", [1, 5, 10, 37])
    @pytest.mark.parametrize("p0", [Fraction(1, 2), Fraction(1, 3), Fraction(9, 10)])
    @pytest.mark.parametrize("eps", [Fraction(1, 100), Fraction(1, 20), Fraction(1, 4)])
    def test_one_sided_matches_brute_scan(self, n, p0, eps):
        pmf = [binomial_pmf(n, p0, x) for x in range(n + 1)]
        region = binomial_rejection_region(spec(n=n, p0=p0, eps=eps, sided="upper"))
        expected: set[int] = set()
        mass = Fraction(0)
        for x in range(n, -1, -1):
            if mass + pmf[x] <= eps:
                mass += pmf[x]
                expected.add(x)
            else:
                break
        assert region.rejected_counts == frozenset(expected)
        assert region.achieved_size == mass <= eps

    @given(n=st.integers(1, 60), p0=P0S, eps=EPSILONS, sided=st.sampled_from(SIDEDNESS))
    @example(n=6, p0=Fraction(1, 3), eps=Fraction(1), sided="two_sided")
    @example(n=6, p0=Fraction(1, 3), eps=Fraction(1), sided="upper")
    @example(n=6, p0=Fraction(1, 3), eps=Fraction(1), sided="lower")
    @example(n=1, p0=Fraction(1, 2), eps=Fraction(1, 4), sided="two_sided")
    def test_matches_greedy_fraction_oracle(self, n, p0, eps, sided):
        region = binomial_rejection_region(spec(n=n, p0=p0, eps=eps, sided=sided))
        assert (region.rejected_counts, region.achieved_size) == binomial_region_oracle(
            n, p0, eps, sided
        )

    @pytest.mark.parametrize("sided", ["two_sided", "upper", "lower"])
    def test_size_never_exceeds_significance(self, sided):
        rng = random.Random(90)
        for _ in range(40):
            n = rng.randint(1, 40)
            p0 = Fraction(rng.randint(1, 9), 10)
            eps = Fraction(1, rng.randint(2, 50))
            region = binomial_rejection_region(spec(n=n, p0=p0, eps=eps, sided=sided))
            recomputed = binomial_tail_sum(n, p0, region.rejected_counts)
            assert recomputed == region.achieved_size
            assert recomputed <= eps


class TestRunTest:
    def test_reject_in_region(self):
        region = binomial_rejection_region(spec())
        assert run_test(region, 30) is Decision.REJECT
        assert run_test(region, 99) is Decision.REJECT

    def test_fail_to_reject_at_the_mode(self):
        region = binomial_rejection_region(spec())
        assert run_test(region, 50) is Decision.FAIL_TO_REJECT

    def test_out_of_range_observation(self):
        region = binomial_rejection_region(spec())
        with pytest.raises(ValueError):
            run_test(region, -1)
        with pytest.raises(ValueError):
            run_test(region, 101)

    def test_bool_observation_rejected(self):
        # True would otherwise count as observed = 1
        region = binomial_rejection_region(spec(n=1, eps=Fraction(1), sided="upper"))
        assert run_test(region, 1) is Decision.REJECT
        with pytest.raises(ValueError, match="got True"):
            run_test(region, True)


class TestRejectionToAcceptance:
    def test_support_is_the_nominal_level(self):
        accepted = rejection_to_acceptance(spec(), Decision.REJECT)
        assert accepted.support.lower == Fraction(99, 100)
        assert accepted.support.upper == 1
        assert accepted.statement == "parameter != 1/2"
        assert not accepted.directional
        # the achieved size is reported alongside and is smaller
        assert accepted.achieved_size < Fraction(1, 100)

    def test_directional_statements(self):
        upper = rejection_to_acceptance(spec(sided="upper"), Decision.REJECT)
        assert upper.statement == "parameter > 1/2"
        assert upper.directional
        lower = rejection_to_acceptance(spec(sided="lower"), Decision.REJECT)
        assert lower.statement == "parameter < 1/2"

    def test_fail_to_reject_accepts_nothing(self):
        with pytest.raises(ValueError):
            rejection_to_acceptance(spec(), Decision.FAIL_TO_REJECT)

    def test_support_is_a_frozen_value(self):
        support = rejection_to_acceptance(spec(), Decision.REJECT).support
        assert type(support) is ProbabilityBound
        assert repr(support) == "ProbabilityBound(99/100, 1)"
        assert support == ProbabilityBound("99/100", 1)
        assert hash(support) == hash(ProbabilityBound(Fraction(99, 100), Fraction(1)))
        assert not hasattr(support, "__dict__")
        with pytest.raises(AttributeError):
            support.lower = Fraction(0)
        # a pickle names the class where it is defined
        assert b"probaccept.stattests" in pickle.dumps(support)
        twins = copy.copy(support), copy.deepcopy(support), pickle.loads(pickle.dumps(support))
        for twin in twins:
            assert twin == support and repr(twin) == repr(support)

    def test_alternative_note_carried(self):
        accepted = rejection_to_acceptance(
            spec(), Decision.REJECT, alternative_note="parameter near 3/5"
        )
        assert accepted.alternative_note == "parameter near 3/5"


class TestCombineTests:
    def _two_rejections(self):
        accepted = rejection_to_acceptance(spec(), Decision.REJECT)
        return [accepted, accepted]

    def test_dependent_bound(self):
        combined = combine_tests(self._two_rejections(), independent=False)
        assert combined.support_lower_bound == Fraction(98, 100)
        assert combined.premise_count == 2

    def test_independent_bound(self):
        combined = combine_tests(self._two_rejections(), independent=True)
        assert combined.support_lower_bound == Fraction(9801, 10000)
        assert combined.support_lower_bound == (1 - Fraction(1, 100)) ** 2

    def test_single_rejection_unchanged(self):
        accepted = rejection_to_acceptance(spec(), Decision.REJECT)
        combined = combine_tests([accepted])
        assert combined.support_lower_bound == Fraction(99, 100)

    @pytest.mark.skipif(
        not sys.get_int_max_str_digits(), reason="needs the interpreter's digit limit"
    )
    @pytest.mark.parametrize("independent", [False, True], ids=["dependent", "independent"])
    def test_floor_past_the_digit_limit_rejected(self, independent):
        # each level fits the limit; the lcm or product of two coprime
        # denominators of k + 1 digits has 2k + 1, more than the limit
        digits = sys.get_int_max_str_digits()
        k = digits // 2 + 1
        rejections = [
            rejection_to_acceptance(spec(eps=Fraction(1, 10**k + d)), Decision.REJECT)
            for d in (1, 3)
        ]
        with pytest.raises(
            ValueError,
            match=f"^the combined support floor of 2 rejections needs exact fractions "
            f"of more than {digits} digits$",
        ):
            combine_tests(rejections, independent=independent)

    @pytest.mark.parametrize("independent", ["no", "false", "", 0, 1, None])
    def test_non_bool_independence_rejected(self, independent):
        # a truthy "no" would take the product bound and report it
        with pytest.raises(ValueError, match=r"^independent must be a bool, not "):
            combine_tests(self._two_rejections(), independent=independent)

    def test_empty_combination_rejected(self):
        with pytest.raises(ValueError):
            combine_tests([])

    @pytest.mark.parametrize("independent", [False, True], ids=["dependent", "independent"])
    def test_rejections_from_an_iterator_read_once(self, independent):
        listed = combine_tests(self._two_rejections(), independent=independent)
        assert combine_tests(iter(self._two_rejections()), independent) == listed
        assert combine_tests((a for a in self._two_rejections()), independent) == listed
        with pytest.raises(ValueError, match="^need at least one accepted rejection$"):
            combine_tests(a for a in [])

    def test_independence_never_hurts(self):
        rng = random.Random(91)
        for _ in range(50):
            rejections = [
                rejection_to_acceptance(
                    spec(n=5, eps=Fraction(1, rng.randint(2, 30))), Decision.REJECT
                )
                for _ in range(rng.randint(1, 4))
            ]
            dependent = combine_tests(rejections, independent=False)
            independent = combine_tests(rejections, independent=True)
            assert independent.support_lower_bound >= dependent.support_lower_bound

    def test_matches_conjunction_floor_at_equal_levels(self):
        # k rejections at the same epsilon reproduce the 1 - k*eps floor
        eps = Fraction(1, 100)
        rejections = [rejection_to_acceptance(spec(eps=eps), Decision.REJECT)] * 3
        combined = combine_tests(rejections, independent=False)
        assert combined.support_lower_bound == 1 - 3 * eps
        # and the k needed to reach floor zero is the contradiction bound
        assert contradiction_bound(AcceptanceLevel(eps)) == 100

    def test_floor_clamps_at_zero(self):
        eps = Fraction(1, 2)
        rejections = [rejection_to_acceptance(spec(eps=eps), Decision.REJECT)] * 3
        assert combine_tests(rejections).support_lower_bound == 0

"""Classical rejection-region tests as acceptance of negations.

A binomial test at significance epsilon rejects its hypothesis on rarely
misleading evidence: the exact null probability of the rejection region
never exceeds epsilon.  Rejecting H is then treated as accepting the bare
negation of H at level 1 - epsilon (the nominal level; the achieved size
is smaller and reported alongside).  Failing to reject accepts nothing.

Accepted rejections combine like any other accepted statements: with no
independence assumption k rejections at epsilon support their conjunction
at 1 - k*epsilon; independent tests support it at prod(1 - eps_i), which
is only marginally better.

Everything is exact integer and rational arithmetic.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Iterable
from enum import Enum
from fractions import Fraction
from itertools import accumulate

from .rationals import _past_digit_limit, as_fraction
from .records import record

__all__ = [
    "ProbabilityBound",
    "Decision",
    "BinomialTestSpec",
    "RejectionRegion",
    "AcceptedRejection",
    "CombinedRejection",
    "binomial_pmf",
    "binomial_rejection_region",
    "run_test",
    "rejection_to_acceptance",
    "combine_tests",
]

SIDEDNESS = ("two_sided", "upper", "lower")

# At the cap the exact two-sided region at epsilon 1/100 takes 3 ms for
# p0 = 1/2, 4 ms for 1/3 and 17-23 ms for 7/100 (best of 15, Python 3.11,
# one Xeon core), and `stat binom` at 7/100 about 0.2 s with interpreter
# start: every integer pmf term has up to the digits of q**n, so the larger
# the denominator q of p0, the longer each term.
MAX_BINOMIAL_TRIALS = 2000


@record
class ProbabilityBound:
    """A closed rational interval [lower, upper] inside [0, 1]; ``upper``
    defaults to ``lower``."""

    __slots__ = ("lower", "upper")

    def __init__(self, lower: Fraction, upper: Fraction | None = None):
        low = as_fraction(lower)
        high = low if upper is None else as_fraction(upper)
        if not (0 <= low <= high <= 1):
            raise ValueError(f"invalid probability bound [{low}, {high}]")
        object.__setattr__(self, "lower", low)
        object.__setattr__(self, "upper", high)

    def __repr__(self):
        return f"ProbabilityBound({self.lower}, {self.upper})"


class Decision(Enum):
    REJECT = "reject"
    FAIL_TO_REJECT = "fail_to_reject"


@record
class BinomialTestSpec:
    """An exact binomial test of H: success probability equals p0, on n
    trials, at significance epsilon."""

    def __init__(self, n: int, p0: Fraction, epsilon: Fraction, sided: str = "two_sided"):
        # bool is an int subclass, but True is no sample size
        if isinstance(n, bool) or not isinstance(n, int) or not 1 <= n <= MAX_BINOMIAL_TRIALS:
            raise ValueError(f"sample size n must lie between 1 and {MAX_BINOMIAL_TRIALS}")
        p0, epsilon = as_fraction(p0), as_fraction(epsilon)
        if not (0 < p0 < 1):
            raise ValueError("null parameter p0 must lie strictly between 0 and 1")
        # epsilon = 1 is allowed (a vacuous size constraint), unlike
        # acceptance levels proper.
        if not (0 < epsilon <= 1):
            raise ValueError("significance epsilon must lie in (0, 1]")
        if sided not in SIDEDNESS:
            raise ValueError(f"sidedness must be one of {SIDEDNESS}")
        # Every exact probability of the test has a denominator dividing
        # q**n; past the interpreter's digit limit it could not be printed.
        if digits := _past_digit_limit(p0.denominator, n):
            raise ValueError(
                f"p0 = {p0} over n = {n} trials needs exact fractions "
                f"of more than {digits} digits"
            )
        self.__dict__.update(n=n, p0=p0, epsilon=epsilon, sided=sided)


@record
class RejectionRegion:
    """The set of observed counts on which H is rejected, with its exact
    null probability (the achieved size)."""

    def __init__(self, n: int, rejected_counts: frozenset[int], achieved_size: Fraction):
        self.__dict__.update(n=n, rejected_counts=rejected_counts, achieved_size=achieved_size)

    def __contains__(self, observed: int) -> bool:
        return observed in self.rejected_counts


def binomial_pmf(n: int, p: Fraction, x: int) -> Fraction:
    return math.comb(n, x) * p**x * (1 - p) ** (n - x)


def binomial_rejection_region(spec: BinomialTestSpec) -> RejectionRegion:
    """Largest region of the requested sidedness with exact size <= eps.

    Two-sided regions give each tail half the budget (equal-tail
    convention) and maximize each tail separately.

    With p0 = a/q every pmf term is an integer numerator over q**n, so a
    tail fits its budget iff its numerators sum to at most
    floor(eps * q**n / share), where share is 2 for two-sided tests.
    """
    n = spec.n
    a, q = spec.p0.numerator, spec.p0.denominator
    b = q - a
    # t_x = comb(n, x) * a**x * b**(n - x); the division is exact.
    pmf = [b**n]
    for x in range(1, n + 1):
        pmf.append(pmf[-1] * ((n - x + 1) * a) // (x * b))
    total = q**n
    share = 2 if spec.sided == "two_sided" else 1
    budget = spec.epsilon.numerator * total // (share * spec.epsilon.denominator)
    counts: set[int] = set()
    if spec.sided != "upper":
        lower_length = bisect_right(list(accumulate(pmf)), budget)
        counts.update(range(lower_length))
    if spec.sided != "lower":
        upper_length = bisect_right(list(accumulate(reversed(pmf))), budget)
        counts.update(range(n + 1 - upper_length, n + 1))
    region = frozenset(counts)
    size = Fraction(sum(pmf[x] for x in region), total)
    if size > spec.epsilon:
        raise RuntimeError(
            f"constructed region has size {size} > {spec.epsilon}; "
            "this should be impossible"
        )
    return RejectionRegion(spec.n, region, size)


def run_test(region: RejectionRegion, observed: int) -> Decision:
    """Reject iff the observed count falls in the region.  Failing to
    reject is not accepting H; it yields nothing."""
    n = region.n
    if isinstance(observed, bool) or not isinstance(observed, int) or not 0 <= observed <= n:
        raise ValueError(
            f"observed count must be an integer in [0, {n}], got {observed!r}"
        )
    return Decision.REJECT if observed in region else Decision.FAIL_TO_REJECT


@record
class AcceptedRejection:
    """The negation of a rejected hypothesis, accepted at the nominal
    level 1 - epsilon.

    ``statement`` is the bare logical negation (or the directional claim
    for one-sided tests); ``alternative_note`` is free text for the
    specific alternative one may actually have in mind, which rejecting H
    does not by itself support.
    """

    def __init__(
        self,
        statement: str,
        epsilon: Fraction,
        support: ProbabilityBound,
        achieved_size: Fraction,
        directional: bool,
        alternative_note: str = "",
    ):
        self.__dict__.update(
            statement=statement,
            epsilon=epsilon,
            support=support,
            achieved_size=achieved_size,
            directional=directional,
            alternative_note=alternative_note,
        )


def rejection_to_acceptance(
    spec: BinomialTestSpec, decision: Decision, alternative_note: str = ""
) -> AcceptedRejection:
    """Turn a rejection at significance eps into acceptance of the
    negated hypothesis with support lower bound 1 - eps (nominal, not the
    smaller achieved size)."""
    if decision is not Decision.REJECT:
        raise ValueError("only a rejection licenses accepting the negation")
    if spec.sided == "upper":
        statement = f"parameter > {spec.p0}"
    elif spec.sided == "lower":
        statement = f"parameter < {spec.p0}"
    else:
        statement = f"parameter != {spec.p0}"
    region = binomial_rejection_region(spec)
    return AcceptedRejection(
        statement=statement,
        epsilon=spec.epsilon,
        support=ProbabilityBound(1 - spec.epsilon, Fraction(1)),
        achieved_size=region.achieved_size,
        directional=spec.sided != "two_sided",
        alternative_note=alternative_note,
    )


@record
class CombinedRejection:
    """The conjunction of several accepted rejections with its support
    floor.  The statement is textual; negated statistical hypotheses are
    not formulas over any world model."""

    def __init__(
        self, statement: str, support_lower_bound: Fraction, premise_count: int, independent: bool
    ):
        self.__dict__.update(
            statement=statement,
            support_lower_bound=support_lower_bound,
            premise_count=premise_count,
            independent=independent,
        )


def combine_tests(
    accepted: Iterable[AcceptedRejection], independent: bool = False
) -> CombinedRejection:
    """Support floor for the conjunction of accepted rejections.

    Independent tests: prod(1 - eps_i).  Otherwise the union bound
    max(0, 1 - sum(eps_i)); two rejections at the 1/100 level leave the
    conjunction at 98/100 either way, give or take 1/10000.
    """
    accepted = tuple(accepted)  # read once: it may be an iterator
    if not accepted:
        raise ValueError("need at least one accepted rejection")
    if not isinstance(independent, bool):  # "no" would be taken as true
        raise ValueError(f"independent must be a bool, not {independent!r}")
    if independent:
        floor = Fraction(1)
        for a in accepted:
            floor *= 1 - a.epsilon
    else:
        slack = sum((a.epsilon for a in accepted), Fraction(0))
        floor = max(Fraction(0), 1 - slack)
    # a floor past the digit limit could not be printed, as in BinomialTestSpec
    if digits := _past_digit_limit(floor.denominator):
        raise ValueError(
            f"the combined support floor of {len(accepted)} rejections needs exact "
            f"fractions of more than {digits} digits"
        )
    statement = " & ".join(f"({a.statement})" for a in accepted)
    return CombinedRejection(
        statement=statement,
        support_lower_bound=floor,
        premise_count=len(accepted),
        independent=independent,
    )

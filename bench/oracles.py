"""Independent oracles that every benchmark operation is checked against.

Nothing here calls the library's decision procedures.  Lottery-shaped
bases are judged with closed-form arithmetic over ticket weights; random
knowledge bases with the truth-table oracle in ``tests/helpers.py``;
binomial regions with its plain tail sum.  The module is imported before
the tracer patches anything, so the helpers keep references to the
unpatched library functions and traced counts cover library calls only.
"""

from __future__ import annotations

import importlib.util
from fractions import Fraction
from itertools import combinations
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HELPERS_PATH = ROOT / "tests" / "helpers.py"


class CheckFailed(Exception):
    """An operation's output disagrees with its oracle."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def load_helpers():
    """Import ``tests/helpers.py`` under a private name."""
    spec = importlib.util.spec_from_file_location("_bench_helpers", HELPERS_PATH)
    if spec is None or not HELPERS_PATH.is_file():
        raise FileNotFoundError(f"oracle module missing: {HELPERS_PATH}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def met(p: Fraction, eps: Fraction, strict: bool) -> bool:
    threshold = 1 - eps
    return p > threshold if strict else p >= threshold


# ---------------------------------------------------------------------------
# Lottery arithmetic.
#
# Statements are named by label: ``L<i>`` (ticket i loses), ``some_wins``
# and ``wins_<i>``.  Every world of these models has positive weight, so a
# set of statements is satisfiable with the background exactly when its
# probability is positive.
# ---------------------------------------------------------------------------


class OneWinner:
    """One-winner lottery with positive ticket weights (fair or biased)."""

    def __init__(self, weights):
        self.weights = [Fraction(w) for w in weights]
        self.n = len(self.weights)
        self.labels = [f"L{i}" for i in range(1, self.n + 1)]
        self.worlds = self.n

    def prob(self, labels) -> Fraction:
        lose: set[int] = set()
        win: set[int] = set()
        for label in labels:
            if label.startswith("wins_"):
                win.add(int(label[5:]))
            else:
                lose.add(int(label[1:]))
        if len(win) > 1:
            return Fraction(0)
        if win:
            (k,) = win
            return Fraction(0) if k in lose else self.weights[k - 1]
        return 1 - sum((self.weights[i - 1] for i in lose), Fraction(0))

    def ticket_of(self, label: str) -> str:
        return "wins_" + label[1:]


class Independent:
    """n independent tickets winning with probability p each, plus the
    candidate ``some_wins``; the background is empty."""

    def __init__(self, n: int, p):
        self.n = n
        self.p = Fraction(p)
        self.labels = [f"L{i}" for i in range(1, n + 1)] + ["some_wins"]
        self.worlds = 2**n

    def prob(self, labels) -> Fraction:
        labels = set(labels)
        some = "some_wins" in labels
        k = len(labels) - some
        q = 1 - self.p
        value = q**k
        if some:
            value *= 1 - q ** (self.n - k)
        return value


def policy_outcome(arith, policy: str, eps: Fraction, strict: bool, order=None):
    """Expected accepted statements as ``(label, probability, support)``
    triples in acceptance order, and the weak-consistency verdict."""
    prob = arith.prob
    out: list[tuple[str, Fraction, Fraction]] = []
    if policy == "threshold":
        for label in arith.labels:
            p = prob([label])
            if met(p, eps, strict):
                out.append((label, p, p))
    elif policy == "lehrer":
        probs = {label: prob([label]) for label in arith.labels}
        for label in arith.labels:
            if not met(probs[label], eps, strict):
                continue
            rivals = [
                other for other in arith.labels
                if other != label and prob([label, other]) == 0
            ]
            if all(probs[label] > probs[other] for other in rivals):
                out.append((label, probs[label], probs[label]))
    elif policy == "cascade":
        accepted: list[str] = []
        remaining = list(arith.labels)
        while remaining:
            base = prob(accepted)
            conditional = {c: prob(accepted + [c]) / base for c in remaining}
            best = max(conditional.values())
            leaders = [c for c in remaining if conditional[c] == best]
            if len(leaders) != 1 or not met(best, eps, strict):
                break
            label = leaders[0]
            remaining.remove(label)
            out.append((label, prob([label]), best))
            accepted.append(label)
        base = prob(accepted)
        if base > 0:
            tickets = [arith.ticket_of(c) for c in arith.labels]
            alive = [t for t in tickets if prob(accepted + [t]) > 0]
            if len(alive) == 1:
                win = alive[0]
                out.append((win, prob([win]), prob(accepted + [win]) / base))
    elif policy == "sequential":
        accepted = []
        for label in order:
            p = prob([label])
            if met(p, eps, strict) and prob(accepted + [label]) > 0:
                out.append((label, p, p))
                accepted.append(label)
    elif policy == "teng":
        accepted = []
        for label in order:
            conditional = prob(accepted + [label]) / prob(accepted)
            if met(conditional, eps, strict):
                out.append((label, prob([label]), conditional))
                accepted.append(label)
    else:
        raise ValueError(f"unknown policy {policy!r}")
    consistent = prob([label for label, _, _ in out]) > 0
    if isinstance(arith, OneWinner) and len(set(arith.weights)) == 1:
        _fair_closed_forms(arith.n, policy, eps, strict, out)
    return out, consistent


def _fair_closed_forms(n: int, policy: str, eps, strict: bool, out) -> None:
    """On a fair n-ticket lottery at 1/n: threshold accepts n, sequential
    n - 1, and teng stops where (n-1-k)/(n-k) drops below the threshold."""
    if eps != Fraction(1, n) or strict or n < 2:
        return
    if policy == "threshold":
        expect(len(out) == n, "oracle: fair threshold closed form")
    elif policy == "sequential":
        expect(len(out) == n - 1, "oracle: fair sequential closed form")
    elif policy == "teng":
        k = 0
        while k < n - 1 and Fraction(n - 1 - k, n - k) >= 1 - eps:
            k += 1
        expect(len(out) == k, "oracle: fair teng closed form")


def check_accepted(result, expected, consistent: bool, policy: str) -> None:
    got = [(a.label, a.probability, a.support) for a in result.accepted]
    expect(got == expected, f"{policy}: accepted {got[:4]}..., expected {expected[:4]}...")
    expect(result.weakly_consistent == consistent, f"{policy}: consistency verdict")


# ---------------------------------------------------------------------------
# Truth-table checks for random knowledge bases.
# ---------------------------------------------------------------------------


class TruthTable:
    """Satisfiability and probability by enumeration, memoized per key set."""

    def __init__(self, helpers, atoms, worlds):
        self._helpers = helpers
        self._atoms = list(atoms)
        self._worlds = worlds
        self._memo: dict[frozenset, bool] = {}

    def satisfiable(self, formulas) -> bool:
        formulas = list(formulas)
        key = frozenset(f.canonical_key for f in formulas)
        cached = self._memo.get(key)
        if cached is None:
            cached = self._helpers.truth_table_satisfiable(formulas)
            self._memo[key] = cached
        return cached

    def probability(self, formula) -> Fraction:
        evaluate = self._helpers.evaluate
        total = Fraction(0)
        for valuation, weight in self._worlds:
            if weight and evaluate(formula, dict(zip(self._atoms, valuation))):
                total += weight
        return total


def check_mus(table, background, mus, universe_keys) -> None:
    members = list(mus)
    expect(members, "empty MUS")
    expect({f.canonical_key for f in members} <= universe_keys, "MUS outside candidates")
    expect(not table.satisfiable(background + members), "MUS is satisfiable")
    for i in range(len(members)):
        rest = members[:i] + members[i + 1:]
        expect(table.satisfiable(background + rest), "MUS is not minimal")


def check_mcs(table, background, mcs, candidates) -> None:
    members = list(mcs)
    keys = {f.canonical_key for f in members}
    expect(keys <= {f.canonical_key for f in candidates}, "MCS outside candidates")
    expect(table.satisfiable(background + members), "MCS is unsatisfiable")
    for extra in candidates:
        if extra.canonical_key not in keys:
            expect(
                not table.satisfiable(background + members + [extra]),
                "MCS is not maximal",
            )


def min_cover(universe: frozenset, family: list[frozenset]) -> int:
    """Smallest number of family members covering the universe, by
    trying every combination of increasing size."""
    if not universe:
        return 1
    for k in range(1, len(family) + 1):
        for pick in combinations(family, k):
            if frozenset().union(*pick) >= universe:
                return k
    raise CheckFailed("family does not cover the candidates")


# ---------------------------------------------------------------------------
# Binomial regions.
# ---------------------------------------------------------------------------


def expand_counts(compact: str) -> list[int]:
    """Inverse of the CLI's run-length rendering ``0..3,97..100``."""
    if compact == "(empty)":
        return []
    counts: list[int] = []
    for part in compact.split(","):
        if ".." in part:
            low, high = part.split("..")
            counts.extend(range(int(low), int(high) + 1))
        else:
            counts.append(int(part))
    return counts


def check_region(helpers, n: int, p0: Fraction, eps: Fraction,
                 counts: list[int], size: Fraction) -> None:
    expect(size == helpers.binomial_tail_sum(n, p0, counts), "region size != tail sum")
    expect(size <= eps, "region size exceeds epsilon")
    expect(all(0 <= x <= n for x in counts), "region count out of range")

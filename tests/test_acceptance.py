"""End-to-end acceptance checks, one per release criterion.

Each test prints a PASS/FAIL line (run with ``pytest -s`` to see them all)
and then asserts.  Everything is exact rational arithmetic; there are no
tolerances anywhere.
"""

import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import probaccept
from probaccept import (
    AcceptanceLevel,
    BinomialTestSpec,
    Decision,
    biased_lottery,
    binomial_rejection_region,
    combine_tests,
    conj,
    degree_of_inconsistency,
    disj,
    entails,
    enumerate_extensions,
    fair_lottery,
    implies,
    is_satisfiable,
    lehrer_cascade,
    maximal_consistent_subsets,
    minimal_unsat_subsets,
    neg,
    rejection_to_acceptance,
    teng_accept,
    threshold_accept,
)

from helpers import (
    binomial_tail_sum,
    brute_min_cover_over_consistent_subsets,
    random_formula,
    random_model,
)


def check(name: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" :: {detail}"
    print(line)
    assert ok, line


def test_criterion_01_lottery_paradox(lottery100):
    result = threshold_accept(lottery100, AcceptanceLevel(Fraction(1, 100)))
    ok = (
        len(result.accepted) == 100
        and not result.weakly_consistent
        and not is_satisfiable(result.statements)
    )
    check(
        "criterion 1: fair lottery n=100 at 1/100 accepts all 100, jointly unsatisfiable",
        ok,
        f"accepted={len(result.accepted)} weakly_consistent={result.weakly_consistent}",
    )


def test_criterion_02_contradiction_needs_n_premises():
    sizes = {}
    for n in range(3, 13):
        base = fair_lottery(n)
        accepted = threshold_accept(base, AcceptanceLevel(Fraction(1, n)))
        muses = minimal_unsat_subsets(
            accepted.accepted_formulas, base.background, cap=20
        )
        sizes[n] = sorted(len(m) for m in muses)
    ok = all(sizes[n] == [n] for n in range(3, 13))
    check(
        "criterion 2: every minimal unsatisfiable subset has exactly ceil(1/eps)=n members, n=3..12",
        ok,
        f"sizes={sizes}",
    )


def test_criterion_03_conjunction_floor_property():
    rng = random.Random(19610308)
    violations = 0
    trials = 1000
    for _ in range(trials):
        model = random_model(rng, max_atoms=6)
        names = list(model.atoms)
        k = rng.randint(1, 5)
        statements = []
        for _ in range(k):
            f = random_formula(rng, names, depth=rng.randint(1, 3))
            if model.probability(f) == 0:
                f = neg(f)  # keep the statements eligible for a real level
            statements.append(f)
        probs = [model.probability(f) for f in statements]
        p_min = min(probs)
        eps = Fraction(1, 1000) if p_min == 1 else 1 - p_min
        if not all(p >= 1 - eps for p in probs):
            violations += 1
            continue
        floor = max(Fraction(0), 1 - k * eps)
        if model.probability(conj(*statements)) < floor:
            violations += 1
    check(
        f"criterion 3: conjunction floor 1-k*eps holds in {trials} randomized models",
        violations == 0,
        f"violations={violations}",
    )


def test_criterion_04_consequence_monotonicity_property():
    rng = random.Random(19740101)
    violations = 0
    trials = 1000
    for _ in range(trials):
        model = random_model(rng, max_atoms=6)
        names = list(model.atoms)
        premise = random_formula(rng, names, depth=rng.randint(1, 3))
        style = rng.randrange(3)
        other = random_formula(rng, names, depth=2)
        if style == 0:
            consequence = premise  # reflexivity
        elif style == 1:
            consequence = disj(premise, other)
        else:
            consequence = implies(other, premise)
        if not entails([], [premise], consequence):
            violations += 1
            continue
        if model.probability(consequence) < model.probability(premise):
            violations += 1
    check(
        f"criterion 4: entailed consequences never lose probability in {trials} randomized pairs",
        violations == 0,
        f"violations={violations}",
    )


def test_criterion_05a_teng_fixed_point_at_the_lottery_level(lottery100):
    level = AcceptanceLevel(Fraction(1, 100))
    orders = [list(lottery100.candidate_labels), list(reversed(lottery100.candidate_labels))]
    rng = random.Random(1996)
    for _ in range(3):
        shuffled = list(lottery100.candidate_labels)
        rng.shuffle(shuffled)
        orders.append(shuffled)
    counts = {len(teng_accept(lottery100, order, level).accepted) for order in orders}
    justification = Fraction(98, 99) < Fraction(99, 100)
    check(
        "criterion 5a: teng at eps=1/100 accepts exactly 1 under every order (98/99 < 99/100)",
        counts == {1} and justification,
        f"counts={sorted(counts)}",
    )


def test_criterion_05b_teng_at_eps_one_fiftieth(lottery100):
    # The fixed-point rule thresholds the probability conditional on prior
    # acceptances.  After k acceptances that conditional is (99-k)/(100-k),
    # which stays >= 49/50 exactly while k <= 50, so the rule accepts 51
    # statements, the last at 49/50; the first rejection is 48/49 < 49/50.
    # The expected count is derived here from that closed form, not from
    # the library.
    threshold = Fraction(49, 50)
    expected = next(k for k in range(100) if Fraction(99 - k, 100 - k) < threshold)
    level = AcceptanceLevel(Fraction(1, 50))
    result = teng_accept(lottery100, list(lottery100.candidate_labels), level)
    last_support = result.accepted[-1].support if result.accepted else None
    stops = Fraction(48, 49) < threshold
    check(
        f"criterion 5b: teng at eps=1/50 accepts exactly {expected}, the last at 49/50 "
        "(48/49 < 49/50)",
        len(result.accepted) == expected and last_support == threshold and stops,
        f"accepted={len(result.accepted)} last_support={last_support}; "
        f"(99-k)/(100-k) >= 49/50 holds for k <= {expected - 1}",
    )


def test_criterion_06_lehrer_cascade():
    base = biased_lottery([Fraction(1, 100), Fraction(9, 100), Fraction(90, 100)])
    result = lehrer_cascade(base, AcceptanceLevel(Fraction(1, 10)))
    ok = (
        result.order == ("L1", "L2", "wins_3")
        and [a.support for a in result.accepted]
        == [Fraction(99, 100), Fraction(90, 99), Fraction(1)]
        and result.weakly_consistent
    )
    check(
        "criterion 6: biased-lottery cascade accepts L1, L2, then wins_3, weakly consistent",
        ok,
        f"order={result.order}",
    )


def test_criterion_07_extensions():
    base = fair_lottery(3)
    outcome = enumerate_extensions(
        base, "sequential", AcceptanceLevel(Fraction(1, 3)), max_permutations=720
    )
    candidate_keys = {f.canonical_key for f in base.candidate_formulas}
    intersection_keys = {f.canonical_key for f in outcome.intersection}
    union_members = list(outcome.conjunction)
    ok = (
        outcome.exhaustive
        and outcome.permutation_count == 6
        and len(outcome.extensions) == 3
        and not (candidate_keys & intersection_keys)
        and not is_satisfiable(union_members)
    )
    check(
        "criterion 7: 6 orders give 3 extensions; intersection keeps no candidate; union is unsatisfiable",
        ok,
        f"extensions={len(outcome.extensions)} exhaustive={outcome.exhaustive}",
    )


def test_criterion_08_mcs_counts_and_degree():
    counts = {}
    degrees = {}
    for n in range(2, 9):
        base = fair_lottery(n)
        family = maximal_consistent_subsets(base.candidate_formulas, base.background)
        counts[n] = len(family)
        degrees[n] = degree_of_inconsistency(base.candidate_formulas, base.background)
    brute_ok = all(
        brute_min_cover_over_consistent_subsets(
            fair_lottery(n).candidate_formulas, list(fair_lottery(n).background)
        )
        == 2
        for n in range(2, 7)
    )
    ok = (
        all(counts[n] == n for n in range(2, 9))
        and all(degrees[n] == 2 for n in range(2, 9))
        and brute_ok
    )
    check(
        "criterion 8: n-ticket lottery has n maximal consistent subsets and degree 2, n=2..8",
        ok,
        f"counts={counts} degrees={degrees}",
    )


def test_criterion_09_statistics_bridge():
    spec = BinomialTestSpec(n=100, p0=Fraction(1, 2), epsilon=Fraction(1, 100))
    rejections = [rejection_to_acceptance(spec, Decision.REJECT)] * 2
    dependent = combine_tests(rejections, independent=False).support_lower_bound
    independent = combine_tests(rejections, independent=True).support_lower_bound
    region = binomial_rejection_region(spec)
    recomputed = binomial_tail_sum(100, Fraction(1, 2), region.rejected_counts)
    ok = (
        dependent == Fraction(98, 100)
        and independent == Fraction(9801, 10000)
        and independent == (1 - Fraction(1, 100)) ** 2
        and recomputed == region.achieved_size
        and recomputed <= Fraction(1, 100)
    )
    check(
        "criterion 9: combined bounds are 98/100 and 9801/10000; region size <= 1/100 by exact summation",
        ok,
        f"dependent={dependent} independent={independent} size={recomputed}",
    )


# The directory holding the probaccept package this process imported, so
# the child runs the same code whether it comes from src/ or an installation.
_IMPORT_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(probaccept.__file__)))


def _run_cli(args, hash_seed):
    env = {
        "PYTHONHASHSEED": hash_seed,
        "PATH": "/usr/bin:/bin",
        "PYTHONPATH": _IMPORT_ROOT,
        "PYTHONDONTWRITEBYTECODE": "1",  # the checkout stays free of bytecode
    }
    return subprocess.run(
        [sys.executable, "-m", "probaccept", *args],
        capture_output=True,
        env=env,
    )


def _failed_run(args, proc):
    """Describe a child run for a failure report: command, exit code, stderr tail."""
    tail = proc.stderr.decode("utf-8", "replace").strip().splitlines()[-3:]
    return f"`{' '.join(args)}` exit={proc.returncode} stderr={' | '.join(tail) or '-'}"


def test_criterion_10_cli_determinism(lottery3_path, tmp_path):
    l5 = tmp_path / "l5.bb"
    setup_args = ["lottery", "fair", "--n", "5", "--out", str(l5)]
    setup = _run_cli(setup_args, "0")
    check(
        "criterion 10 set-up: `lottery fair --n 5 --out` writes a base file",
        setup.returncode == 0,
        _failed_run(setup_args, setup),
    )
    commands = [
        ["lottery", "fair", "--n", "6"],
        ["accept", "--policy", "threshold", "--epsilon", "1/3", lottery3_path],
        ["accept", "--policy", "teng", "--epsilon", "1/3", "--order", "reverse", lottery3_path],
        ["--seed", "9", "extensions", "--policy", "sequential", "--epsilon", "1/5",
         "--max-permutations", "10", str(l5)],
        ["diagnose", "--epsilon", "1/3", lottery3_path],
        ["closure", "--epsilon", "1/3", "--labels", "L1,L2", "--conclusion", "wins_3",
         lottery3_path],
        ["stat", "binom", "--n", "50", "--p0", "1/2", "--epsilon", "1/20",
         "--sided", "two", "--observed", "10"],
        ["--json", "accept", "--policy", "lehrer", "--epsilon", "1/3", lottery3_path],
    ]
    mismatches = []
    for args in commands:
        first = _run_cli(args, "1")
        second = _run_cli(args, "2")
        failed = [_failed_run(args, run) for run in (first, second) if run.returncode != 0]
        if failed:
            mismatches.extend(failed)
        elif first.stdout != second.stdout:
            mismatches.append(f"`{' '.join(args)}` stdout differs")
    check(
        "criterion 10: every CLI command is byte-identical across repeated seeded runs",
        not mismatches,
        f"mismatches={mismatches or 'none'}",
    )

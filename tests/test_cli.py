import builtins
import hashlib
import inspect
import json
import sys
from fractions import Fraction

import pytest

from probaccept import AcceptanceLevel, BeliefBaseFormatError, as_fraction, cli
from probaccept import dump, enumerate_extensions, fair_lottery, load, loads, sat
from probaccept import threshold_accept
from probaccept.accept import DEFAULT_SEED, MAX_PERMUTATIONS
from probaccept.cli import main
from probaccept.sat import DEFAULT_CANDIDATE_CAP
from probaccept.stattests import MAX_BINOMIAL_TRIALS
from probaccept.worlds import INDEPENDENT_LOTTERY_CAP, MAX_WORLDS, ONE_WINNER_LOTTERY_CAP

from helpers import DEEP_NESTING_PROBES, LONG_BICONDITIONAL_CHAIN, lottery_missing_a_winner
from helpers import past_digit_limit_base

needs_digit_limit = pytest.mark.skipif(
    not sys.get_int_max_str_digits(), reason="needs the interpreter's digit limit"
)

ATOM_BASE = """\
ATOMS: a
WORLDS:
w1: a=1 weight 1/2
w2: a=0 weight 1/2
CANDIDATES:
A: a
NA: ~a
"""


@pytest.fixture()
def atom_base_path(tmp_path):
    path = tmp_path / "pair.bb"
    path.write_text(ATOM_BASE, encoding="utf-8")
    return str(path)


# One command per cap, each asking for one more than it allows, and a
# fragment of the message; BASE stands for the 3-ticket lottery file.
ABOVE_CAP = {
    "lottery": (["lottery", "fair", "--n", str(ONE_WINNER_LOTTERY_CAP + 1)], "capped"),
    "independent_lottery": (
        ["lottery", "independent", "--n", str(INDEPENDENT_LOTTERY_CAP + 1), "--p", "1/10"],
        f"capped at {INDEPENDENT_LOTTERY_CAP} tickets",
    ),
    "max_permutations": (
        ["extensions", "--policy", "sequential", "--epsilon", "1/3",
         "--max-permutations", str(MAX_PERMUTATIONS + 1), "BASE"],
        "max_permutations",
    ),
    "binomial_trials": (
        ["stat", "binom", "--n", str(MAX_BINOMIAL_TRIALS + 1), "--p0", "1/2",
         "--epsilon", "1/100"],
        "sample size n",
    ),
    "max_candidates": (
        ["--max-candidates", str(DEFAULT_CANDIDATE_CAP + 1), "diagnose",
         "--epsilon", "1/3", "BASE"],
        f"cap must lie between 1 and {DEFAULT_CANDIDATE_CAP}",
    ),
}


@pytest.fixture(scope="module")
def largest_independent_path(tmp_path_factory):
    """The largest independent lottery, written by the CLI."""
    path = tmp_path_factory.mktemp("bases") / "independent.bb"
    argv = ["lottery", "independent", "--n", str(INDEPENDENT_LOTTERY_CAP), "--p", "1/10"]
    assert main([*argv, "--out", str(path)]) == 0
    return path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestLotteryCommand:
    def test_fair_round_trips(self, capsys, tmp_path):
        out_path = tmp_path / "l4.bb"
        code, out, _ = run_cli(capsys, "lottery", "fair", "--n", "4", "--out", str(out_path))
        assert code == 0
        base = loads(out_path.read_text(encoding="utf-8"))
        assert len(base.model.worlds) == 4

    def test_biased_to_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "lottery", "biased", "--weights", "1/100,9/100,90/100")
        assert code == 0
        base = loads(out)
        assert base.candidate_labels == ("L1", "L2", "L3")

    def test_independent(self, capsys):
        code, out, _ = run_cli(capsys, "lottery", "independent", "--n", "2", "--p", "1/2")
        assert code == 0
        assert len(loads(out).model.worlds) == 4

    def test_missing_parameters(self, capsys):
        code, _, err = run_cli(capsys, "lottery", "fair")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("argv, message", [
        (["lottery", "biased"], "biased lottery needs --weights p/q,p/q,..."),
        (["lottery", "independent", "--n", "3"], "independent lottery needs --n and --p"),
    ], ids=["biased_without_weights", "independent_without_p"])
    def test_missing_parameter_named(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"probaccept: error: {message}\n"

    def test_zero_denominator_weight_is_input_error(self, capsys):
        code, _, err = run_cli(capsys, "lottery", "biased", "--weights", "1/0,1")
        assert code == 2
        assert "zero denominator in '1/0'" in err


class TestLotteryFiles:
    """A one-winner lottery file is written from its names and read back as
    the ``exactly_one`` it renders: no pair tree, and no clause store."""

    def test_fair_forty_read_with_no_store_and_no_pair(
        self, capsys, tmp_path, stores, pairs
    ):
        path = str(tmp_path / "fair_40.bb")
        assert main(["lottery", "fair", "--n", "40", "--out", path]) == 0
        for argv in (
            ["accept", "--policy", "threshold", "--epsilon", "1/40", path],
            ["--json", "accept", "--policy", "lehrer", "--epsilon", "1/40", path],
            ["diagnose", "--epsilon", "1/40", path],
            ["--json", "diagnose", "--epsilon", "1/40", path],
        ):
            code, _, _ = run_cli(capsys, *argv)
            assert code == 0
        assert stores == []
        assert pairs == []

    def test_one_pair_swapped_read_as_a_generic_formula(self, capsys, tmp_path, pairs):
        path = tmp_path / "fair_40.bb"
        assert main(["lottery", "fair", "--n", "40", "--out", str(path)]) == 0
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace("~(wins_1 & wins_2)", "~(wins_2 & wins_1)", 1))
        code, out, _ = run_cli(capsys, "diagnose", "--epsilon", "1/40", str(path))
        assert code == 0
        assert "diagnostics.mus_min_size: 40" in out
        assert len(pairs) == 40 * 39 // 2

    def test_largest_fair_lottery_written_with_no_pair(self, capsys, pairs):
        code, out, _ = run_cli(capsys, "lottery", "fair", "--n", "300")
        assert code == 0
        assert loads(out).background == fair_lottery(300).background
        assert pairs == []


class TestAcceptCommand:
    def test_threshold_on_the_hundred_lottery(self, capsys, lottery100_path):
        code, out, _ = run_cli(
            capsys, "accept", "--policy", "threshold", "--epsilon", "1/100", lottery100_path
        )
        assert code == 0
        assert "accepted_count: 100" in out
        assert "diagnostics.weakly_consistent: false" in out

    def test_teng_accepts_one(self, capsys, lottery100_path):
        code, out, _ = run_cli(
            capsys,
            "accept", "--policy", "teng", "--epsilon", "1/100", "--order", "natural",
            lottery100_path,
        )
        assert code == 0
        assert "accepted_count: 1" in out

    def test_cascade_policy(self, capsys, tmp_path):
        path = tmp_path / "biased.bb"
        run_cli(capsys, "lottery", "biased", "--weights", "1/100,9/100,90/100",
                "--out", str(path))
        code, out, _ = run_cli(
            capsys, "accept", "--policy", "cascade", "--epsilon", "1/10", str(path)
        )
        assert code == 0
        assert "accepted_count: 3" in out
        assert "wins_3" in out

    def test_sequential_explicit_order(self, capsys, lottery3_path):
        code, out, _ = run_cli(
            capsys,
            "accept", "--policy", "sequential", "--epsilon", "1/3",
            "--order", "L3,L1,L2", lottery3_path,
        )
        assert code == 0
        assert "accepted_count: 2" in out
        assert "accepted[0].label: L3" in out

    def test_strict_threshold_flag(self, capsys, lottery3_path):
        code, out, _ = run_cli(
            capsys,
            "--strict-threshold",
            "accept", "--policy", "threshold", "--epsilon", "1/3", lottery3_path,
        )
        assert code == 0
        assert "accepted_count: 0" in out
        assert "provenance.strict_threshold: true" in out

    def test_byte_order_mark_file(self, capsys, tmp_path, lottery3_path):
        # the report is that of the file without the mark, but for the
        # provenance, whose digest is of the bytes read, mark included
        with open(lottery3_path, "rb") as handle:
            data = handle.read()
        marked = tmp_path / "marked.bb"
        marked.write_bytes(b"\xef\xbb\xbf" + data)
        argv = ["accept", "--policy", "threshold", "--epsilon", "1/3"]
        code, out, err = run_cli(capsys, *argv, str(marked))
        assert (code, err) == (0, "")
        assert f"provenance.input_sha256: {hashlib.sha256(marked.read_bytes()).hexdigest()}" in out
        plain = run_cli(capsys, *argv, lottery3_path)[1]
        assert out.split("provenance.")[0] == plain.split("provenance.")[0]

    def test_digest_without_the_builtin_sha256(self, capsys, monkeypatch, lottery3_path):
        # an interpreter built without its own SHA-256 module takes hashlib's
        for name in ("_sha2", "_sha256"):
            monkeypatch.setitem(sys.modules, name, None)  # importing it fails
        argv = ["accept", "--policy", "threshold", "--epsilon", "1/3", lottery3_path]
        code, out, _ = run_cli(capsys, *argv)
        with open(lottery3_path, "rb") as handle:
            digest = hashlib.sha256(handle.read()).hexdigest()
        assert code == 0
        assert f"provenance.input_sha256: {digest}" in out

    def test_missing_file_is_input_error(self, capsys):
        code, _, err = run_cli(
            capsys, "accept", "--policy", "threshold", "--epsilon", "1/100", "/nonexistent.bb"
        )
        assert code == 2
        assert "error" in err

    def test_float_epsilon_rejected(self, capsys, lottery3_path):
        code, _, err = run_cli(
            capsys, "accept", "--policy", "threshold", "--epsilon", "0.01", lottery3_path
        )
        assert code == 2

    def test_zero_denominator_epsilon_is_input_error(self, capsys, lottery3_path):
        code, _, err = run_cli(
            capsys, "accept", "--policy", "threshold", "--epsilon", "1/0", lottery3_path
        )
        assert code == 2
        assert "zero denominator in '1/0'" in err

    def test_order_required_for_teng(self, capsys, lottery3_path):
        code, _, err = run_cli(
            capsys, "accept", "--policy", "teng", "--epsilon", "1/3", lottery3_path
        )
        assert code == 2
        assert "--order" in err

    def test_order_rejected_for_threshold(self, capsys, lottery3_path):
        code, _, _ = run_cli(
            capsys,
            "accept", "--policy", "threshold", "--epsilon", "1/3",
            "--order", "natural", lottery3_path,
        )
        assert code == 2

    @pytest.mark.parametrize("order", ["L1,L2", "L1,,L2,L3,", "L1,L1,L2,L3"])
    def test_bad_order_is_input_error(self, capsys, lottery3_path, order):
        code, _, _ = run_cli(
            capsys,
            "accept", "--policy", "teng", "--epsilon", "1/3",
            "--order", order, lottery3_path,
        )
        assert code == 2

    def test_json_mode(self, capsys, lottery3_path):
        code, out, _ = run_cli(
            capsys,
            "--json",
            "accept", "--policy", "threshold", "--epsilon", "1/3", lottery3_path,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["accepted_count"] == 3
        assert payload["epsilon"] == {"exact": "1/3", "approx": "0.333333"}
        assert payload["diagnostics"]["weakly_consistent"] is False


class TestExtensionsCommand:
    def test_three_extensions(self, capsys, lottery3_path):
        code, out, _ = run_cli(
            capsys, "extensions", "--policy", "sequential", "--epsilon", "1/3", lottery3_path
        )
        assert code == 0
        assert "extension_count: 3" in out
        assert "conjunctive_merge.weakly_consistent: false" in out

    def test_seeded_sampling_repeats_bytes(self, capsys, tmp_path):
        path = tmp_path / "l5.bb"
        run_cli(capsys, "lottery", "fair", "--n", "5", "--out", str(path))
        args = (
            "--seed", "11",
            "extensions", "--policy", "sequential", "--epsilon", "1/5",
            "--max-permutations", "10", str(path),
        )
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        assert "exhaustive: false" in out1


    @pytest.mark.parametrize("seed", ["-1", "-5", str(2**64)])
    def test_seed_outside_u64_is_usage_error(self, capsys, lottery3_path, seed):
        # random.Random seeds on abs(), so -5 would sample what 5 samples
        with pytest.raises(SystemExit) as exc:
            main(["--seed", seed, "extensions", "--policy", "sequential",
                  "--epsilon", "1/3", "--max-permutations", "2", lottery3_path])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert captured.err.endswith(
            f"probaccept: error: argument --seed: must lie between 0 and 2**64 - 1, got {seed}\n"
        )

    def test_largest_seed_samples(self, capsys, lottery3_path):
        code, out, _ = run_cli(
            capsys, "--seed", str(2**64 - 1), "extensions", "--policy", "sequential",
            "--epsilon", "1/3", "--max-permutations", "2", lottery3_path,
        )
        assert code == 0
        assert "exhaustive: false" in out
        assert f"provenance.seed: {2**64 - 1}" in out


class TestDiagnoseCommand:
    def test_small_lottery(self, capsys, lottery3_path):
        code, out, _ = run_cli(capsys, "diagnose", "--epsilon", "1/3", lottery3_path)
        assert code == 0
        assert "diagnostics.mus_min_size: 3" in out
        assert "diagnostics.mcs_count: 3" in out
        assert "diagnostics.degree: 2" in out
        assert "contradiction_bound: 3" in out
        assert "mus_respects_bound: true" in out

    def test_lottery_at_the_cap_sits_at_degree_two(self, capsys, tmp_path):
        # ``strands``: an n-ticket lottery sits at degree 2 for every n, here
        # at the enumeration cap, read off the worlds of the file's model
        path = tmp_path / "fair_20.bb"
        dump(fair_lottery(DEFAULT_CANDIDATE_CAP), path)
        code, out, _ = run_cli(capsys, "diagnose", "--epsilon", "1/20", str(path))
        assert code == 0
        assert "diagnostics.mus_method: exhaustive" in out
        assert "diagnostics.mus_min_size: 20" in out
        assert "diagnostics.mcs_count: 20" in out
        assert "diagnostics.degree: 2" in out

    def test_hundred_lottery_uses_shrink(self, capsys, lottery100_path):
        code, out, _ = run_cli(capsys, "diagnose", "--epsilon", "1/100", lottery100_path)
        assert code == 0
        assert "diagnostics.mus_min_size: 100" in out
        assert "diagnostics.mus_method: deletion_shrink" in out
        assert "contradiction_bound: 100" in out
        assert "mus_respects_bound: true" in out

    def test_consistent_accepted_set(self, capsys, atom_base_path):
        # only one side of the coin clears a 2/3 threshold... nothing does
        code, out, _ = run_cli(capsys, "diagnose", "--epsilon", "1/3", atom_base_path)
        assert code == 0
        assert "diagnostics.weakly_consistent: true" in out
        assert "diagnostics.degree: 1" in out
        assert "diagnostics.mus_min_size: none" in out

    def test_shared_worlds_answer_the_deletion_shrink(
        self, capsys, tmp_path, lottery100_path, searches
    ):
        # the rendered background reads back as the one-winner formula, whose
        # model count shows the file's worlds complete: no query is searched.
        # With one pair swapped it is read as a generic formula; every proper
        # subset of the 100 lose statements still shares a world, so only
        # the full set reaches the search: once for the accepted set's
        # verdict and once at the start of the shrink
        with open(lottery100_path, encoding="utf-8") as handle:
            text = handle.read()
        swapped = tmp_path / "swapped.bb"
        swapped.write_text(text.replace("~(wins_1 & wins_2)", "~(wins_2 & wins_1)", 1))
        for path, expected in ((lottery100_path, 0), (str(swapped), 2)):
            searches.clear()
            code, out, _ = run_cli(capsys, "diagnose", "--epsilon", "1/100", path)
            assert code == 0
            assert "diagnostics.mus_method: deletion_shrink" in out
            assert "diagnostics.mus_min_size: 100" in out
            assert len(searches) == expected

    def test_a_model_of_every_valuation_answers_from_masks(
        self, capsys, tmp_path, searches
    ):
        # the independent lottery lists all 64 valuations of its 6 atoms, so
        # an empty joint mask means unsatisfiable and no query is searched
        path = str(tmp_path / "independent_6.bb")
        assert main(["lottery", "independent", "--n", "6", "--p", "1/10", "--out", path]) == 0
        capsys.readouterr()
        searches.clear()
        code, out, _ = run_cli(
            capsys, "--max-candidates", "5", "diagnose", "--epsilon", "3/5", path
        )
        assert code == 0
        assert "accepted_count: 7" in out
        assert "diagnostics.weakly_consistent: false" in out
        assert "diagnostics.mus_method: deletion_shrink" in out
        assert "diagnostics.mus_min_size: 7" in out
        assert searches == []

    def test_one_subset_walk_per_diagnose(self, capsys, lottery3_path, subset_walks):
        # the MUS list, the MCS count and the degree must share one walk of
        # the accepted set, as one library call makes
        code, out, _ = run_cli(capsys, "diagnose", "--epsilon", "1/3", lottery3_path)
        assert code == 0
        assert "diagnostics.mus_method: exhaustive" in out
        assert len(subset_walks) == 1
        base = load(lottery3_path)
        accepted = threshold_accept(base, AcceptanceLevel(Fraction(1, 3))).accepted_formulas
        assert len(sat.maximal_consistent_subsets(accepted, base.background)) == 3
        assert len(subset_walks) == 2

    def test_diagnose_asks_the_base_solver_and_builds_one_store(self, capsys, tmp_path, stores):
        # the model misses the world where ticket 12 wins, so the accepted
        # set's verdict and the walk are searched; the walk asks the base's
        # solver, by candidate position, and so the verdict's store
        path = tmp_path / "missing.bb"
        dump(lottery_missing_a_winner(12), path)
        code, out, _ = run_cli(capsys, "diagnose", "--epsilon", "1/11", str(path))
        assert code == 0
        assert "diagnostics.mus_min_size: 12" in out
        assert "diagnostics.mcs_count: 12" in out
        assert len(stores) == 1

    def test_strong_inconsistency_reads_the_background(self, capsys, tmp_path):
        # the background's contradiction sits under a disjunction, so the
        # base loads; the exhaustive path must still see it
        path = tmp_path / "nested.bb"
        background = "BACKGROUND:\na | ~a | (a & ~a)\nCANDIDATES:"
        path.write_text(ATOM_BASE.replace("CANDIDATES:", background), encoding="utf-8")
        code, out, _ = run_cli(capsys, "diagnose", "--epsilon", "1/2", str(path))
        assert code == 0
        assert "diagnostics.mus_method: exhaustive" in out
        assert "diagnostics.strong_inconsistency: true" in out

    @pytest.mark.parametrize("cap", [0, DEFAULT_CANDIDATE_CAP + 5])
    def test_cap_checked_above_the_cap_too(self, capsys, lottery100_path, cap):
        # 100 accepted statements take the deletion-shrink path
        code, out, err = run_cli(
            capsys, "--max-candidates", str(cap), "diagnose", "--epsilon", "1/100",
            lottery100_path,
        )
        assert code == 2
        assert out == ""
        assert f"cap must lie between 1 and {DEFAULT_CANDIDATE_CAP}" in err

    def test_contradictory_candidates_degree_two(self, capsys, atom_base_path):
        # at an even-odds threshold both a and ~a are accepted
        code, out, _ = run_cli(capsys, "diagnose", "--epsilon", "1/2", atom_base_path)
        assert code == 0
        assert "accepted_count: 2" in out
        assert "diagnostics.degree: 2" in out
        assert "diagnostics.strong_inconsistency: false" in out


class TestClosureCommand:
    def test_conjunction_and_consequence(self, capsys, lottery3_path):
        code, out, _ = run_cli(
            capsys,
            "closure", "--epsilon", "1/3", "--labels", "L1,L2",
            "--conclusion", "wins_3", lottery3_path,
        )
        assert code == 0
        assert "contradiction_bound: 3" in out
        assert "conjunction.support_lower_bound: 1/3" in out
        assert "consequence.formula: wins_3" in out
        assert "consequence.exact_probability: 1/3" in out

    def test_bound_only(self, capsys, lottery3_path):
        code, out, _ = run_cli(capsys, "closure", "--epsilon", "3/200", lottery3_path)
        assert code == 0
        assert "contradiction_bound: 67" in out

    def test_conclusion_without_labels(self, capsys, lottery3_path):
        code, _, _ = run_cli(
            capsys, "closure", "--epsilon", "1/3", "--conclusion", "wins_3", lottery3_path
        )
        assert code == 2

    def test_unknown_label_is_bad_input(self, capsys, lottery3_path):
        code, out, err = run_cli(
            capsys, "closure", "--epsilon", "1/3", "--labels", "L1,L9", lottery3_path
        )
        assert code == 2
        assert out == ""
        assert err == "probaccept: error: no candidate labeled 'L9'\n"

    @pytest.mark.parametrize("labels", ["L1,L1", "L1, L2,L1"])
    def test_repeated_label_is_bad_input(self, capsys, lottery3_path, labels):
        code, out, err = run_cli(
            capsys, "closure", "--epsilon", "1/3", "--labels", labels, lottery3_path
        )
        assert code == 2
        assert out == ""
        assert err == "probaccept: error: label 'L1' is repeated in --labels\n"

    @pytest.mark.parametrize("options, message", [
        (["--labels", ""], "need at least one statement"),
        (["--labels", "L1", "--conclusion", ""], "expected a formula at offset 0"),
        (["--labels", "L1,,L2"], "empty label in --labels 'L1,,L2'"),
        (["--labels", "L1,"], "empty label in --labels 'L1,'"),
    ], ids=["empty_labels", "empty_conclusion", "empty_inner_label", "empty_last_label"])
    def test_empty_option_value_is_bad_input(self, capsys, lottery3_path, options, message):
        code, out, err = run_cli(
            capsys, "closure", "--epsilon", "1/3", *options, lottery3_path
        )
        assert code == 2
        assert out == ""
        assert err == f"probaccept: error: {message}\n"


class TestStatCommand:
    def test_binom_report(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "stat", "binom", "--n", "100", "--p0", "1/2", "--epsilon", "1/100",
            "--sided", "two", "--observed", "30",
        )
        assert code == 0
        assert "rejection_region: 0..36,64..100" in out
        assert "decision: reject" in out
        assert "accepted_negation.support_lower_bound: 99/100" in out

    def test_fail_to_reject_accepts_nothing(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "stat", "binom", "--n", "100", "--p0", "1/2", "--epsilon", "1/100",
            "--observed", "50",
        )
        assert code == 0
        assert "decision: fail_to_reject" in out
        assert "accepted_negation" not in out

    def test_combined_bounds(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "stat", "binom", "--n", "100", "--p0", "1/2", "--epsilon", "1/100",
            "--observed", "30", "--combine-with", "1/100",
        )
        assert code == 0
        assert "combined.dependent_lower_bound: 49/50" in out
        assert "combined.independent_lower_bound: 9801/10000" in out

    @pytest.mark.parametrize("observed", [[], ["--observed", "50"], ["--observed", "30"]],
                             ids=["no_observation", "fail_to_reject", "reject"])
    @pytest.mark.parametrize("levels, message", [
        ("abc", "expected a rational p/q or integer, got 'abc'"),
        ("1/100,7/2", "significance epsilon must lie in (0, 1]"),
        ("0", "significance epsilon must lie in (0, 1]"),
        ("", "expected a rational p/q or integer, got ''"),
    ])
    def test_bad_combine_with_is_input_error_whatever_the_decision(
        self, capsys, observed, levels, message
    ):
        code, out, err = run_cli(
            capsys,
            "stat", "binom", "--n", "100", "--p0", "1/2", "--epsilon", "1/100",
            *observed, "--combine-with", levels,
        )
        assert code == 2
        assert out == ""
        assert err == f"probaccept: error: {message}\n"

    def test_fractions_beyond_the_digit_limit_are_input_error(self, capsys):
        # 100003**1000 has 5001 digits, past the default limit of 4300
        code, out, err = run_cli(
            capsys,
            "stat", "binom", "--n", "1000", "--p0", "1/100003", "--epsilon", "1/100",
            "--observed", "5",
        )
        assert code == 2
        assert out == ""
        assert "p0 = 1/100003 over n = 1000 trials" in err

    @needs_digit_limit
    def test_combined_floor_past_the_digit_limit_is_input_error(self, capsys):
        digits = sys.get_int_max_str_digits()
        k = digits // 2 + 1  # each level fits the limit, their lcm does not
        code, out, err = run_cli(
            capsys,
            "stat", "binom", "--n", "100", "--p0", "1/2", "--epsilon", "1/100",
            "--observed", "30", "--combine-with", f"1/{10**k + 1},1/{10**k + 3}",
        )
        assert code == 2
        assert out == ""
        assert err == (
            "probaccept: error: the combined support floor of 3 rejections needs "
            f"exact fractions of more than {digits} digits\n"
        )

    def test_region_too_small_to_reject_reads_empty(self, capsys):
        code, out, _ = run_cli(
            capsys, "stat", "binom", "--n", "1", "--p0", "1/2", "--epsilon", "1/10"
        )
        assert code == 0
        assert "rejection_region: (empty)\n" in out

    def test_zero_denominator_p0_is_input_error(self, capsys):
        code, out, err = run_cli(
            capsys, "stat", "binom", "--n", "10", "--p0", "1/0", "--epsilon", "1/10"
        )
        assert code == 2
        assert out == ""
        assert "zero denominator in '1/0'" in err

    def test_out_of_range_observation(self, capsys):
        code, _, _ = run_cli(
            capsys,
            "stat", "binom", "--n", "10", "--p0", "1/2", "--epsilon", "1/10",
            "--observed", "11",
        )
        assert code == 2


# Every report command; BASE stands for the 3-ticket lottery file.
REPORT_COMMANDS = {
    "accept": ["accept", "--policy", "threshold", "--epsilon", "1/3", "BASE"],
    "extensions": ["extensions", "--policy", "sequential", "--epsilon", "1/3", "BASE"],
    "diagnose": ["diagnose", "--epsilon", "1/3", "BASE"],
    "closure": ["closure", "--epsilon", "1/3", "--labels", "L1,L2", "BASE"],
    "stat_binom": ["stat", "binom", "--n", "100", "--p0", "1/2", "--epsilon", "1/100",
                   "--observed", "30", "--combine-with", "1/100"],
}

BASE_COMMANDS = {name: argv for name, argv in REPORT_COMMANDS.items() if "BASE" in argv}

# Every option that reads a rational, with X for its text; BASE stands for
# the 3-ticket lottery file.
RATIONAL_OPTIONS = {
    **{f"{name}_epsilon": [part.replace("1/3", "X") for part in argv]
       for name, argv in BASE_COMMANDS.items()},
    "lottery_weights": ["lottery", "biased", "--weights", "X,1"],
    "lottery_p": ["lottery", "independent", "--n", "3", "--p", "X"],
    "binom_p0": ["stat", "binom", "--n", "10", "--p0", "X", "--epsilon", "1/10"],
    "binom_epsilon": ["stat", "binom", "--n", "10", "--p0", "1/2", "--epsilon", "X"],
    "binom_combine_with": ["stat", "binom", "--n", "10", "--p0", "1/2", "--epsilon", "1/10",
                           "--combine-with", "X"],
}


@pytest.mark.parametrize("text, message", [
    ("1/0", "zero denominator in '1/0'"),
    ("١/٣", "expected a rational p/q or integer, got '١/٣'"),
    ("0.5", "expected a rational p/q or integer, got '0.5'"),
    ("abc", "expected a rational p/q or integer, got 'abc'"),
])
def test_a_bad_rational_has_one_message_wherever_it_is_read(
    capsys, tmp_path, lottery3_path, text, message
):
    with pytest.raises(ValueError) as read:
        as_fraction(text)
    assert str(read.value) == message
    weighed = tmp_path / "weight.bb"
    weighed.write_text(ATOM_BASE.replace("weight 1/2\nCANDIDATES", f"weight {text}\nCANDIDATES"),
                       encoding="utf-8")
    with pytest.raises(BeliefBaseFormatError) as read:
        load(weighed)
    assert str(read.value) == f"line 4: {message}"
    code, out, err = run_cli(capsys, "accept", "--policy", "threshold", "--epsilon", "1/2",
                             str(weighed))
    assert (code, out, err) == (2, "", f"probaccept: error: line 4: {message}\n")
    for name, argv in RATIONAL_OPTIONS.items():
        argv = [lottery3_path if part == "BASE" else part.replace("X", text) for part in argv]
        assert run_cli(capsys, *argv) == (2, "", f"probaccept: error: {message}\n"), name


class TestReportEnvelope:
    @staticmethod
    def _argv_and_provenance(argv, path):
        """``argv`` with BASE filled in, and the provenance it reports."""
        expected = {"seed": 0, "strict_threshold": False}
        if "BASE" in argv:
            with open(path, "rb") as handle:
                digest = hashlib.sha256(handle.read()).hexdigest()
            expected.update(input=path, input_sha256=digest)
        return [path if part == "BASE" else part for part in argv], expected

    @pytest.mark.parametrize("argv", REPORT_COMMANDS.values(), ids=REPORT_COMMANDS)
    def test_text_report_ends_with_provenance(self, capsys, lottery3_path, argv):
        argv, expected = self._argv_and_provenance(argv, lottery3_path)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        lines = out.splitlines()
        tail = [line for line in lines if line.startswith("provenance.")]
        assert lines[-len(tail):] == tail
        assert tail == [
            f"provenance.{key}: {str(value).lower() if isinstance(value, bool) else value}"
            for key, value in expected.items()
        ]

    @pytest.mark.parametrize("argv", BASE_COMMANDS.values(), ids=BASE_COMMANDS)
    def test_base_file_is_opened_once(self, capsys, monkeypatch, lottery3_path, argv):
        # the digest in the provenance is of the bytes that were parsed
        argv, expected = self._argv_and_provenance(argv, lottery3_path)
        opened, real_open = [], builtins.open

        def counting_open(file, *args, **kwargs):
            if file == lottery3_path:
                opened.append(file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        code, out, _ = run_cli(capsys, "--json", *argv)
        assert code == 0
        assert len(opened) == 1
        assert json.loads(out)["provenance"] == expected

    @pytest.mark.parametrize("argv", REPORT_COMMANDS.values(), ids=REPORT_COMMANDS)
    def test_json_report_ends_with_provenance(self, capsys, lottery3_path, argv):
        argv, expected = self._argv_and_provenance(argv, lottery3_path)
        code, out, _ = run_cli(capsys, "--json", *argv)
        assert code == 0
        payload = json.loads(out)
        assert list(payload)[-1] == "provenance"
        assert payload["provenance"] == expected

    def test_nested_fractions_are_exact_and_approx_in_json(self, capsys, lottery3_path):
        code, out, _ = run_cli(
            capsys, "--json", *REPORT_COMMANDS["extensions"][:-1], lottery3_path
        )
        assert code == 0
        two_thirds = {"exact": "2/3", "approx": "0.666667"}
        entries = [entry for ext in json.loads(out)["extensions"] for entry in ext["accepted"]]
        assert len(entries) == 6
        for entry in entries:
            assert entry["probability"] == entry["support_at_acceptance"] == two_thirds
        code, out, _ = run_cli(capsys, "--json", *REPORT_COMMANDS["stat_binom"])
        assert code == 0
        assert json.loads(out)["combined"] == {
            "statement": "(parameter != 1/2) & (parameter != 1/2)",
            "dependent_lower_bound": {"exact": "49/50", "approx": "0.980000"},
            "independent_lower_bound": {"exact": "9801/10000", "approx": "0.980100"},
        }

    def test_lottery_writes_text_under_json(self, capsys):
        argv = ["lottery", "fair", "--n", "3"]
        assert run_cli(capsys, "--json", *argv) == run_cli(capsys, *argv)
        assert run_cli(capsys, *argv)[1].startswith("ATOMS:")

    def test_lottery_out_writes_the_same_lines_under_json(self, capsys, tmp_path):
        plain, as_json = tmp_path / "plain.bb", tmp_path / "json.bb"
        argv = ["lottery", "fair", "--n", "3", "--out"]
        assert run_cli(capsys, *argv, str(plain)) == (0, f"wrote: {plain}\nworlds: 3\n", "")
        assert run_cli(capsys, "--json", *argv, str(as_json)) == (
            0, f"wrote: {as_json}\nworlds: 3\n", ""
        )
        assert as_json.read_bytes() == plain.read_bytes()


class TestParser:
    """The parser is built without importing the library, so it keeps its
    own copy of the policy names and of two defaults."""

    def test_policy_names_are_the_policy_table(self):
        from probaccept.accept import POLICY_TABLE

        table = [(name, ordered) for name, (_, ordered) in POLICY_TABLE.items()]
        assert list(cli._POLICY_NAMES.items()) == table

    def test_defaults_are_the_library_defaults(self):
        args = cli._build_parser().parse_args(["lottery", "fair"])
        assert args.seed == DEFAULT_SEED
        assert args.max_candidates == DEFAULT_CANDIDATE_CAP
        # the extensions command's cap is written in the parser and in the
        # library's signature
        args = cli._build_parser().parse_args(
            ["extensions", "base.bb", "--policy", "sequential", "--epsilon", "1/3"]
        )
        default = inspect.signature(enumerate_extensions).parameters["max_permutations"].default
        assert args.max_permutations == default


class TestExitCodes:
    def test_internal_invariant_violation_is_exit_three(self, capsys, lottery3_path, monkeypatch):
        from probaccept.accept import POLICY_TABLE

        def boom(*_args, **_kwargs):
            raise RuntimeError("invariant violated")

        monkeypatch.setitem(POLICY_TABLE, "threshold", (boom, False))
        code, _, err = run_cli(
            capsys, "accept", "--policy", "threshold", "--epsilon", "1/3", lottery3_path
        )
        assert code == 3
        assert "internal error" in err

    @pytest.mark.parametrize("text", DEEP_NESTING_PROBES.values(), ids=list(DEEP_NESTING_PROBES))
    def test_deep_nesting_is_input_error(self, capsys, tmp_path, text):
        path = tmp_path / "deep.bb"
        path.write_text(ATOM_BASE + f"DEEP: {text}\n", encoding="utf-8")
        code, out, err = run_cli(
            capsys, "accept", "--policy", "threshold", "--epsilon", "1/2", str(path)
        )
        assert code == 2
        assert out == ""
        assert "line 8: bad formula: nesting deeper" in err

    def test_long_biconditional_chain_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "chain.bb"
        path.write_text(ATOM_BASE + f"CHAIN: {LONG_BICONDITIONAL_CHAIN}\n", encoding="utf-8")
        code, out, err = run_cli(
            capsys, "accept", "--policy", "threshold", "--epsilon", "1/2", str(path)
        )
        assert code == 2
        assert out == ""
        assert "line 8: bad formula: canonical form" in err

    @pytest.mark.parametrize("argv, message", ABOVE_CAP.values(), ids=list(ABOVE_CAP))
    def test_above_cap_is_input_error(self, capsys, lottery3_path, argv, message):
        argv = [lottery3_path if arg == "BASE" else arg for arg in argv]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert message in err

    def test_largest_independent_lottery_reads_back(self, capsys, largest_independent_path):
        code, out, _ = run_cli(
            capsys, "accept", "--policy", "threshold", "--epsilon", "1/10",
            str(largest_independent_path),
        )
        assert code == 0
        assert f"accepted_count: {INDEPENDENT_LOTTERY_CAP}" in out

    def test_world_line_above_the_limit_is_input_error(
        self, capsys, tmp_path, largest_independent_path
    ):
        text = largest_independent_path.read_text(encoding="utf-8")
        assert text.count(" weight ") == MAX_WORLDS
        head, tail = text.split("CANDIDATES:")
        path = tmp_path / "more.bb"
        path.write_text(head + "extra: nothing weight 0\nCANDIDATES:" + tail, encoding="utf-8")
        code, out, err = run_cli(
            capsys, "accept", "--policy", "threshold", "--epsilon", "1/10", str(path)
        )
        assert code == 2
        assert out == ""
        assert f"line {MAX_WORLDS + 3}: more than {MAX_WORLDS} worlds" in err

    @needs_digit_limit
    @pytest.mark.parametrize("command", [
        ["accept", "--policy", "threshold", "--epsilon", "1/2"],
        ["diagnose", "--epsilon", "1/2"],
    ], ids=["accept", "diagnose"])
    def test_denominator_past_the_digit_limit_is_input_error(self, capsys, tmp_path, command):
        digits = sys.get_int_max_str_digits()
        path = tmp_path / "digits.bb"
        path.write_text(past_digit_limit_base(digits), encoding="utf-8")
        code, out, err = run_cli(capsys, *command, str(path))
        assert code == 2
        assert out == ""
        assert err == (
            "probaccept: error: the weights of 4 worlds need a common denominator "
            f"of more than {digits} digits\n"
        )

    @needs_digit_limit
    def test_independent_lottery_past_the_digit_limit_is_input_error(self, capsys):
        digits = sys.get_int_max_str_digits()
        q = 10 ** (digits // 2 + 1) + 1  # q**2 has more digits than the limit
        code, out, err = run_cli(capsys, "lottery", "independent", "--n", "2", "--p", f"1/{q}")
        assert code == 2
        assert out == ""
        assert err == (
            "probaccept: error: the weights of 4 worlds need a common denominator "
            f"of more than {digits} digits\n"
        )

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

import random
from fractions import Fraction

import pytest

from probaccept import (
    AcceptanceLevel,
    FormulaSet,
    atom,
    degree_of_inconsistency,
    enumerate_extensions,
    fair_lottery,
    independent_lottery,
    is_satisfiable,
    maximal_consistent_subsets,
    minimal_unsat_subsets,
    neg,
    parse,
    strand_entails,
    strands,
    threshold_accept,
)

from probaccept import sat
from probaccept.sat import DEFAULT_CANDIDATE_CAP

from helpers import (
    brute_min_cover_over_consistent_subsets,
    random_formula,
    truth_table_satisfiable,
)


@pytest.mark.parametrize("cap", [0, DEFAULT_CANDIDATE_CAP + 1, True, "3"])
@pytest.mark.parametrize("function", [
    degree_of_inconsistency, minimal_unsat_subsets, maximal_consistent_subsets, strands,
], ids=lambda function: function.__name__)
def test_cap_checked_with_no_candidates(function, cap):
    message = f"cap must lie between 1 and {DEFAULT_CANDIDATE_CAP}"
    if type(cap) is not int:  # True is no cap, though it equals 1
        message = f"cap must be an integer, not {cap!r}"
    with pytest.raises(ValueError, match=message):
        function(FormulaSet(), cap=cap)


class TestDegreeOfInconsistency:
    def test_satisfiable_set_has_degree_one(self):
        assert degree_of_inconsistency(FormulaSet([parse("a"), parse("a -> b")])) == 1

    def test_contradictory_pair_has_degree_two(self):
        assert degree_of_inconsistency(FormulaSet([parse("a"), parse("~a")])) == 2

    def test_five_ticket_lottery_degree_two(self):
        base = fair_lottery(5)
        assert degree_of_inconsistency(base.candidate_formulas, base.background) == 2

    def test_degree_one_iff_satisfiable(self):
        rng = random.Random(61)
        names = ["a", "b", "c"]
        for _ in range(40):
            formulas = []
            for _ in range(rng.randint(1, 4)):
                f = random_formula(rng, names, depth=2)
                if truth_table_satisfiable([f]):
                    formulas.append(f)
            if not formulas:
                continue
            candidates = FormulaSet(formulas)
            degree = degree_of_inconsistency(candidates)
            assert (degree == 1) == is_satisfiable(candidates)

    def test_individually_unsatisfiable_candidate_rejected(self):
        with pytest.raises(ValueError):
            degree_of_inconsistency(FormulaSet([parse("a & ~a")]))
        # satisfiable on its own, but not with the background
        mixed = FormulaSet([parse("a"), parse("~a"), parse("~c"), parse("b")])
        with pytest.raises(ValueError, match="candidate ~c is individually unsatisfiable"):
            degree_of_inconsistency(mixed, FormulaSet([parse("c")]))

    def test_matches_cover_over_arbitrary_consistent_subsets(self):
        # maximal subsets are enough: the minimum cover count is the same
        # when arbitrary consistent subsets are allowed
        rng = random.Random(62)
        names = ["a", "b"]
        cases = [
            FormulaSet([parse("a"), parse("~a"), parse("b"), parse("~b")]),
            FormulaSet([parse("a"), parse("~a & b"), parse("~a & ~b")]),
            fair_lottery(4).candidate_formulas,
        ]
        backgrounds = [[], [], list(fair_lottery(4).background)]
        for _ in range(20):
            formulas = []
            for _ in range(rng.randint(2, 4)):
                f = random_formula(rng, names, depth=2)
                if truth_table_satisfiable([f]):
                    formulas.append(f)
            if formulas:
                cases.append(FormulaSet(formulas))
                backgrounds.append([])
        for candidates, background in zip(cases, backgrounds):
            got = degree_of_inconsistency(candidates, FormulaSet(background))
            want = brute_min_cover_over_consistent_subsets(candidates, background)
            assert got == want


class TestStrands:
    def test_lottery_strand_count_and_size(self):
        base = fair_lottery(3)
        result = strands(base.candidate_formulas, base.background)
        assert len(result) == 3
        assert all(len(s.kernel) == 2 for s in result)

    def test_strand_count_matches_mcs_count(self):
        for n in (2, 3, 4, 5):
            base = fair_lottery(n)
            family = maximal_consistent_subsets(base.candidate_formulas, base.background)
            assert len(strands(base.candidate_formulas, base.background)) == len(family) == n

    def test_consistent_candidates_form_one_strand(self):
        candidates = FormulaSet([parse("a"), parse("b")])
        result = strands(candidates)
        assert len(result) == 1
        assert result[0].kernel == candidates

    def test_empty_candidates_single_empty_strand(self):
        result = strands(FormulaSet())
        assert len(result) == 1
        assert len(result[0].kernel) == 0


class TestStrandEntailment:
    def test_lottery_strand_decides_the_winner(self):
        base = fair_lottery(3)
        for strand in strands(base.candidate_formulas, base.background):
            excluded = [
                i
                for i in (1, 2, 3)
                if parse(f"~wins_{i}") not in strand.kernel
            ]
            assert len(excluded) == 1
            assert strand_entails(strand, atom(f"wins_{excluded[0]}"))

    def test_every_kernel_member_entailed(self):
        base = fair_lottery(4)
        for strand in strands(base.candidate_formulas, base.background):
            for member in strand.kernel:
                assert strand_entails(strand, member)

    def test_empty_strand_entails_no_contingency(self):
        strand = strands(FormulaSet())[0]
        assert not strand_entails(strand, atom("a"))

    @pytest.mark.parametrize("conclusion", ["a", None, 1])
    def test_non_formula_conclusion_refused(self, conclusion):
        strand = strands(FormulaSet([atom("a")]))[0]
        with pytest.raises(TypeError, match=f"the conclusion must be a formula, got {conclusion!r}"):
            strand_entails(strand, conclusion)

    def test_every_valuation_answers_from_masks(self, searches):
        # the strands keep the base's own background, which names its model;
        # that lists all 2**4 valuations, so an empty mask means entailed
        base = independent_lottery(4, Fraction(1, 3))
        found = strands(base.candidate_formulas, base.background)
        assert all(strand.background is base.background for strand in found)
        targets = [*base.candidate_formulas, parse("wins_1 & ~wins_1"), parse("wins_2 | wins_3")]
        searches.clear()
        answers = [[strand_entails(strand, f) for f in targets] for strand in found]
        assert searches == []
        assert answers == [
            [
                not truth_table_satisfiable([*strand.kernel, neg(f)])
                for f in targets
            ]
            for strand in found
        ]
        assert any(map(any, answers)) and not all(map(all, answers))

    def test_one_winner_lottery_answers_from_masks(self, searches, stores):
        # the strand that drops L_j has an empty joint mask with ~wins_j, and
        # the model lists each valuation that satisfies the background's
        # exactly_one, so that mask means "entailed": no store, no search
        base = fair_lottery(6)
        accepted = threshold_accept(base, AcceptanceLevel(Fraction(1, 6))).accepted_formulas
        found = strands(accepted, base.background)
        searches.clear()
        stores.clear()
        for strand in found:
            (j,) = [i for i in range(1, 7) if parse(f"~wins_{i}") not in strand.kernel]
            assert strand_entails(strand, atom(f"wins_{j}"))
            assert not strand_entails(strand, atom(f"wins_{j % 6 + 1}"))
        assert len(found) == 6
        assert searches == [] and stores == []

    def test_strands_never_entail_contradictions(self):
        absurd = parse("x & ~x")
        base = fair_lottery(4)
        for strand in strands(base.candidate_formulas, base.background):
            assert not strand_entails(strand, absurd)


class TestStrandExtensionCorrespondence:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_sequential_extensions_match_strand_kernels(self, n):
        base = fair_lottery(n)
        level = AcceptanceLevel(Fraction(1, n))
        outcome = enumerate_extensions(base, "sequential", level, max_permutations=720)
        extension_sets = {
            frozenset(f.canonical_key for f in ext.accepted_formulas)
            for ext in outcome.extensions
        }
        kernel_sets = {
            frozenset(f.canonical_key for f in strand.kernel)
            for strand in strands(base.candidate_formulas, base.background)
        }
        assert extension_sets == kernel_sets


class TestOneWalkPerSet:
    """The four diagnostics of one ``FormulaSet`` over one background share
    one subset walk."""

    def test_later_diagnostics_make_no_search(self, subset_walks):
        base = fair_lottery(12)
        level = AcceptanceLevel(Fraction(1, 12))
        accepted = threshold_accept(base, level).accepted_formulas
        muses = minimal_unsat_subsets(accepted, base.background)
        assert len(subset_walks) == 1  # the first call walks
        mcses = maximal_consistent_subsets(accepted, base.background)
        degree = degree_of_inconsistency(accepted, base.background)
        kernels = [strand.kernel for strand in strands(accepted, base.background)]
        assert len(subset_walks) == 1
        assert muses == [accepted] and degree == 2
        assert len(mcses) == 12 and kernels == mcses
        # a rebuilt set has no walk of its own yet, and finds the same family
        rebuilt = FormulaSet(accepted)
        assert maximal_consistent_subsets(rebuilt, base.background) == mcses
        assert minimal_unsat_subsets(rebuilt, base.background) == muses
        assert len(subset_walks) == 2

    def test_later_diagnostics_build_no_solver(self, monkeypatch):
        # a kept walk is read once the arguments pass their checks, before
        # any solver is built
        base = fair_lottery(12)
        accepted = threshold_accept(base, AcceptanceLevel(Fraction(1, 12))).accepted_formulas
        minimal_unsat_subsets(accepted, base.background)
        built = []

        class Counted(sat._Solver):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(sat, "_Solver", Counted)
        assert len(maximal_consistent_subsets(accepted, base.background)) == 12
        assert degree_of_inconsistency(accepted, base.background) == 2
        assert len(strands(accepted, list(base.background))) == 12
        assert built == []
        # another background walks again, with a solver
        maximal_consistent_subsets(accepted)
        assert len(built) == 1

    def test_another_background_walks_again(self, subset_walks):
        base = fair_lottery(4)
        candidates = base.candidate_formulas
        assert len(maximal_consistent_subsets(candidates, base.background)) == 4
        assert maximal_consistent_subsets(candidates) == [candidates]
        assert len(subset_walks) == 2
        # the set keeps only the last background's walk
        assert len(maximal_consistent_subsets(candidates, base.background)) == 4
        assert len(subset_walks) == 3

    def test_each_call_returns_new_results(self):
        base = fair_lottery(3)
        candidates = base.candidate_formulas
        first = maximal_consistent_subsets(candidates, base.background)
        first.clear()
        second = maximal_consistent_subsets(candidates, base.background)
        assert len(second) == 3
        assert second is not maximal_consistent_subsets(candidates, base.background)
        minimal_unsat_subsets(candidates, base.background).append(None)
        assert minimal_unsat_subsets(candidates, base.background) == [candidates]

import pickle
import random
import signal
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from probaccept import (
    DEFAULT_CANDIDATE_CAP,
    AcceptanceLevel,
    FormulaSet,
    atom,
    conj,
    consequence_level,
    degree_of_inconsistency,
    disj,
    entails,
    exactly_one,
    fair_lottery,
    independent_lottery,
    is_satisfiable,
    maximal_consistent_subsets,
    minimal_unsat_subsets,
    neg,
    parse,
    shrink_unsat_subset,
    strand_entails,
    strands,
    threshold_accept,
)
from probaccept import sat

from helpers import (
    BRANCHING_PROBE,
    brute_maximal_consistent_subsets,
    brute_min_cover_over_consistent_subsets,
    brute_minimal_unsat_subsets,
    lottery_missing_a_winner,
    random_formula,
    truth_table_satisfiable,
    two_lotteries,
)


def _keys(formulas):
    return frozenset(f.canonical_key for f in formulas)


def _texts(family):
    return [[str(f) for f in subset] for subset in family]


def _indices(candidates, family):
    """Each subset of canonical keys as its sorted candidate indices, in the
    family's order."""
    position = {f.canonical_key: i for i, f in enumerate(FormulaSet(candidates))}
    return [sorted(position[key] for key in keys) for keys in family]


def _by_size(family, largest_first=False):
    """Index lists in enumeration order: by size (MUSes smallest first, MCSes
    largest first), then lexicographic in candidate order."""
    return sorted(family, key=lambda s: (-len(s) if largest_first else len(s), s))


def _contrary_pairs(k, grouped):
    """``x_i`` and ``~x_i`` for i < k: interleaved (``x0, ~x0, x1, ...``)
    or grouped (``x0, x1, ..., ~x0, ~x1, ...``)."""
    positives = [atom(f"x{i}") for i in range(k)]
    negatives = [neg(p) for p in positives]
    if grouped:
        return positives + negatives
    return [f for pair in zip(positives, negatives) for f in pair]


class _Expired(Exception):
    pass


@contextmanager
def _time_limit(seconds):
    """Fail the test, rather than hang the suite, past ``seconds``.

    The alarm can interrupt an instruction that has no line number, which
    pytest cannot render as a traceback, so the failure carries only a
    message."""

    def expire(signum, frame):
        raise _Expired

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    except _Expired:
        pytest.fail(f"still running after {seconds} s", pytrace=False)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestSatisfiability:
    def test_self_contradiction(self):
        assert not is_satisfiable([parse("s & ~s")])

    def test_empty_set(self):
        assert is_satisfiable([])

    def test_lottery_candidates_with_background(self):
        base = fair_lottery(3)
        members = list(base.background) + [f for _, f in base.candidates]
        assert not is_satisfiable(members)
        assert truth_table_satisfiable(members) is False

    def test_contingent(self):
        assert is_satisfiable([parse("a & ~b"), parse("b | c")])

    def test_matches_truth_table_on_random_sets(self):
        rng = random.Random(4242)
        names = ["a", "b", "c", "d", "e"]
        for _ in range(300):
            formulas = [
                random_formula(rng, names, depth=rng.randint(1, 3))
                for _ in range(rng.randint(1, 4))
            ]
            assert is_satisfiable(formulas) == truth_table_satisfiable(formulas)

    def test_matches_truth_table_on_twelve_atom_lottery(self):
        base = fair_lottery(12)
        members = list(base.background) + [f for _, f in base.candidates][:7]
        assert is_satisfiable(members) == truth_table_satisfiable(members)


class TestEntailment:
    def test_lottery_losses_entail_last_winner(self):
        base = fair_lottery(3)
        premises = FormulaSet([base.candidate("L1"), base.candidate("L2")])
        assert entails(base.background, premises, atom("wins_3"))

    def test_reflexivity(self):
        f = parse("(a -> b) & c")
        assert entails([], [f], f)

    def test_contingent_atom_not_entailed(self):
        assert not entails([], [], atom("a"))

    def test_monotone_in_background(self):
        assert not entails([], [parse("a")], parse("b"))
        assert entails([parse("a -> b")], [parse("a")], parse("b"))

    def test_a_complete_lottery_answers_from_its_solver(self, solvers, stores, searches):
        # once a policy has run, entailment over the base's own background
        # from its candidates reads the base's solver; the model lists every
        # valuation of the background, so no solver is built and none searches
        base = fair_lottery(6)
        level = AcceptanceLevel(Fraction(1, 6))
        accepted = threshold_accept(base, level).accepted_formulas
        losses = list(accepted)
        assert entails(base.background, losses[:5], atom("wins_6"))
        assert not entails(base.background, losses[:4], atom("wins_6"))
        for strand in strands(accepted, base.background):
            (winner,) = {f.args[0] for f in losses} - {f.args[0] for f in strand.kernel}
            assert strand_entails(strand, winner)
            assert not strand_entails(strand, neg(winner))
        two = losses[:2]
        leveled = consequence_level(base.model, two, conj(*two), level, base.background)
        assert leveled.exact_probability == leveled.support_lower_bound == Fraction(2, 3)
        with pytest.raises(ValueError, match="do not entail"):
            consequence_level(base.model, two, atom("wins_1"), level, base.background)
        assert solvers == [] and stores == [] and searches == []


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: is_satisfiable(["a"]), "satisfiability needs formulas, got 'a'"),
        (lambda: is_satisfiable([atom("a"), None]), "satisfiability needs formulas, got None"),
        (lambda: entails([], [], "a"), "the conclusion must be a formula, got 'a'"),
        (lambda: entails(["a"], [], atom("a")), "satisfiability needs formulas, got 'a'"),
        (lambda: entails([], ["a"], atom("a")), "satisfiability needs formulas, got 'a'"),
        (lambda: minimal_unsat_subsets([atom("a")], ["a"]), "needs formulas, got 'a'"),
        (lambda: maximal_consistent_subsets(["a"]), "FormulaSet members must be formulas"),
        (lambda: shrink_unsat_subset([atom("a")], ["a"]), "needs formulas, got 'a'"),
    ],
    ids=[
        "is_satisfiable", "is_satisfiable_none", "entails_conclusion", "entails_background",
        "entails_premises", "minimal_unsat_subsets", "maximal_consistent_subsets",
        "shrink_unsat_subset",
    ],
)
def test_non_formula_input_refused(call, message):
    with pytest.raises(TypeError, match=message):
        call()


class TestMinimalUnsatSubsets:
    def test_fair_lottery_single_mus(self):
        base = fair_lottery(3)
        result = minimal_unsat_subsets(base.candidate_formulas, base.background)
        assert len(result) == 1
        assert _keys(result[0]) == _keys(base.candidate_formulas)

    def test_satisfiable_candidates_no_mus(self):
        assert minimal_unsat_subsets(FormulaSet([parse("a"), parse("b")])) == []

    def test_direct_contradiction_pair(self):
        result = minimal_unsat_subsets(FormulaSet([parse("a"), parse("~a")]))
        assert [_keys(m) for m in result] == [_keys([parse("a"), parse("~a")])]

    def test_unsatisfiable_background_rejected(self):
        with pytest.raises(ValueError):
            minimal_unsat_subsets(FormulaSet([parse("a")]), FormulaSet([parse("b & ~b")]))

    def test_cap_enforced(self):
        candidates = FormulaSet(atom(f"x{i}") for i in range(5))
        with pytest.raises(ValueError):
            minimal_unsat_subsets(candidates, cap=4)

    @pytest.mark.parametrize("cap", [0, DEFAULT_CANDIDATE_CAP + 1])
    @pytest.mark.parametrize(
        "enumerate_subsets",
        [minimal_unsat_subsets, maximal_consistent_subsets, degree_of_inconsistency, strands],
    )
    def test_cap_outside_its_range_rejected(self, enumerate_subsets, cap):
        # checked before any solver is built, however few the candidates
        candidates = FormulaSet([parse("a"), parse("~a")])
        with pytest.raises(ValueError, match=f"between 1 and {DEFAULT_CANDIDATE_CAP}"):
            enumerate_subsets(candidates, cap=cap)

    def test_matches_brute_force(self):
        rng = random.Random(777)
        names = ["a", "b", "c"]
        for _ in range(60):
            candidates = FormulaSet(
                random_formula(rng, names, depth=2) for _ in range(rng.randint(1, 4))
            )
            background = []
            if rng.random() < 0.5:
                candidate_bg = random_formula(rng, names, depth=2)
                if truth_table_satisfiable([candidate_bg]):
                    background = [candidate_bg]
            got = {
                _keys(m)
                for m in minimal_unsat_subsets(candidates, FormulaSet(background))
            }
            assert got == brute_minimal_unsat_subsets(candidates, background)

    def test_nonempty_exactly_when_unsatisfiable(self):
        rng = random.Random(99)
        names = ["a", "b", "c"]
        for _ in range(40):
            candidates = FormulaSet(
                random_formula(rng, names, depth=2) for _ in range(rng.randint(1, 4))
            )
            muses = minimal_unsat_subsets(candidates)
            assert bool(muses) == (not is_satisfiable(candidates))


class TestMaximalConsistentSubsets:
    def test_fair_lottery_counts(self):
        base = fair_lottery(3)
        result = maximal_consistent_subsets(base.candidate_formulas, base.background)
        assert len(result) == 3
        assert all(len(m) == 2 for m in result)

    def test_satisfiable_whole_set_is_unique_mcs(self):
        candidates = FormulaSet([parse("a"), parse("b -> a")])
        result = maximal_consistent_subsets(candidates)
        assert [_keys(m) for m in result] == [_keys(candidates)]

    def test_contradictory_pair_splits(self):
        result = maximal_consistent_subsets(FormulaSet([parse("a"), parse("~a")]))
        assert {_keys(m) for m in result} == {
            _keys([parse("a")]),
            _keys([parse("~a")]),
        }

    def test_matches_brute_force(self):
        rng = random.Random(2024)
        names = ["a", "b", "c"]
        for _ in range(60):
            candidates = FormulaSet(
                random_formula(rng, names, depth=2) for _ in range(rng.randint(1, 4))
            )
            got = {_keys(m) for m in maximal_consistent_subsets(candidates)}
            assert got == brute_maximal_consistent_subsets(candidates, [])

    def test_union_of_mcs_covers_individually_satisfiable(self):
        rng = random.Random(31)
        names = ["a", "b", "c"]
        for _ in range(40):
            candidates = FormulaSet(
                random_formula(rng, names, depth=2) for _ in range(rng.randint(1, 4))
            )
            union = set()
            for mcs in maximal_consistent_subsets(candidates):
                union |= _keys(mcs)
            for f in candidates:
                if is_satisfiable([f]):
                    assert f.canonical_key in union


class TestFamilyOrder:
    """Both lists come back in the enumeration order: MUS by ascending
    size, MCS by descending size, then lexicographic in candidate order."""

    def test_contradiction_beside_a_contradictory_pair(self):
        candidates = [parse("a & ~a"), parse("b"), parse("~b")]
        assert _texts(minimal_unsat_subsets(candidates)) == [["a & ~a"], ["b", "~b"]]
        assert _texts(maximal_consistent_subsets(candidates)) == [["b"], ["~b"]]

    def test_only_contradictions_leave_the_empty_subset(self):
        candidates = [parse("a & ~a"), parse("b & ~b")]
        assert _texts(minimal_unsat_subsets(candidates)) == [["a & ~a"], ["b & ~b"]]
        assert _texts(maximal_consistent_subsets(candidates)) == [[]]

    def test_no_candidates(self):
        assert minimal_unsat_subsets([]) == []
        assert _texts(maximal_consistent_subsets([])) == [[]]
        assert degree_of_inconsistency(FormulaSet()) == 1


class TestResultSets:
    def test_results_are_plain_sets_of_their_members(self):
        """The MUS, MCS and shrink results hold the candidates' own formulas
        and compare, hash, print and pickle like sets built from them, with
        no kept walk or model of their own."""
        base = fair_lottery(4)
        candidates = [*base.candidate_formulas, parse("wins_1 & ~wins_1")]
        results = [
            *minimal_unsat_subsets(candidates, base.background),
            *maximal_consistent_subsets(candidates, base.background),
            shrink_unsat_subset(base.candidate_formulas, base.background),
        ]
        for result in results:
            rebuilt = FormulaSet(list(result))
            assert result == rebuilt and hash(result) == hash(rebuilt)
            assert repr(result) == repr(rebuilt)
            assert pickle.loads(pickle.dumps(result)) == result
            assert all(any(f is g for g in candidates) for f in result)
            assert getattr(result, "_family", None) is None
            assert getattr(result, "_model", None) is None


class TestShrink:
    def test_satisfiable_returns_none(self):
        assert shrink_unsat_subset(FormulaSet([parse("a"), parse("b")])) is None

    def test_lottery_shrinks_to_full_set(self):
        # every lose statement is needed, so deletion keeps all of them
        base = fair_lottery(30)
        result = shrink_unsat_subset(base.candidate_formulas, base.background)
        assert result is not None and len(result) == 30

    def test_hundred_ticket_lottery_shrinks_to_full_set(self, lottery100):
        # far beyond the enumeration cap, every deletion query reuses the
        # one solver's clause index
        level = AcceptanceLevel(Fraction(1, 100))
        accepted = threshold_accept(lottery100, level).accepted_formulas
        with _time_limit(10):
            result = shrink_unsat_subset(accepted, lottery100.background)
        assert result is not None and len(result) == 100
        assert _keys(result) == _keys(lottery100.candidate_formulas)

    def test_result_is_minimal(self):
        candidates = FormulaSet(
            [parse("a"), parse("~a"), parse("b"), parse("a | b")]
        )
        result = shrink_unsat_subset(candidates)
        assert result is not None
        members = list(result)
        assert not is_satisfiable(members)
        for i in range(len(members)):
            assert is_satisfiable(members[:i] + members[i + 1:])


class TestModelWitness:
    """A belief base's own background names its model, whose world masks
    answer the queries that a shared world settles; over the same
    background as a plain list every query is searched."""

    def test_accepted_lottery_shrinks_with_no_search(self, searches, stores):
        # every proper subset of the 40 lose statements shares a world, and
        # the model lists each of the 40 valuations that satisfy the
        # background, so the full set's empty mask means unsatisfiable too
        base = fair_lottery(40)
        accepted = threshold_accept(base, AcceptanceLevel(Fraction(1, 40))).accepted_formulas
        searches.clear()
        shrunk = shrink_unsat_subset(accepted, base.background)
        assert len(searches) == 0
        assert list(shrunk) == list(accepted)
        # the same formulas as a list over the base's background, which
        # names the model: still no search
        assert shrink_unsat_subset(list(accepted), base.background) == shrunk
        assert len(searches) == 0
        assert len(stores) == 0
        # and over that background as a list, which names none: one search
        # per deletion and the first
        assert shrink_unsat_subset(list(accepted), list(base.background)) == shrunk
        assert len(searches) == 41

    def test_lottery_missing_a_winner_searches_each_empty_mask(self, searches, stores):
        # no world for ticket 40: the full set's empty mask and the one left
        # when L40 is dropped are searched, by one store; every other
        # deletion leaves a world
        base = lottery_missing_a_winner(40)
        candidates = base.candidate_formulas
        shrunk = shrink_unsat_subset(candidates, base.background)
        assert list(shrunk) == list(candidates)
        assert len(searches) == 2
        assert len(stores) == 1

    def test_every_valuation_answers_the_walk_from_masks(self, searches, stores):
        # the independent lottery lists all 2**6 valuations, so an empty mask
        # means unsatisfiable: over the base's own background, empty but
        # naming the model, the walk reads every MCS off the worlds and
        # shrinks the one MUS by masks, with no search and no clause store
        base = independent_lottery(6, Fraction(1, 10))
        candidates = base.candidate_formulas
        searches.clear()
        assert minimal_unsat_subsets(candidates, base.background) == [candidates]
        assert searches == []
        assert stores == []


class TestAtTheCap:
    def test_twenty_ticket_lottery_diagnostics(self):
        # one MUS and 20 MCSes: the enumeration's cost follows them, not
        # the 2^20 subsets
        base = fair_lottery(20)
        accepted = threshold_accept(base, AcceptanceLevel(Fraction(1, 20)))
        candidates = accepted.accepted_formulas
        with _time_limit(3):
            muses = minimal_unsat_subsets(candidates, base.background)
            mcses = maximal_consistent_subsets(candidates, base.background)
            degree = degree_of_inconsistency(candidates, base.background)
        assert [len(m) for m in muses] == [20]
        assert [len(m) for m in mcses] == [19] * 20
        assert degree == 2


class TestQueriesDecideOnlyTheirOwnVariables:
    def test_branching_probe_matches_brute_force(self):
        formulas = [parse(text) for text in BRANCHING_PROBE]
        with _time_limit(10):
            muses = minimal_unsat_subsets(formulas)
            mcses = maximal_consistent_subsets(formulas)
        assert {_keys(m) for m in muses} == brute_minimal_unsat_subsets(formulas, [])
        assert {_keys(m) for m in mcses} == brute_maximal_consistent_subsets(
            formulas, []
        )


class TestSharedSubformulas:
    """Two candidates share the subformula ``a & b``.  It has one variable,
    but each candidate must define it, or a query that leaves out the
    first candidate leaves that variable free."""

    def test_each_candidate_defines_the_shared_subformula(self):
        texts = ["(a & b) | c", "(a & b) | d", "~a", "~d"]
        candidates = [parse(text) for text in texts]
        assert _texts(minimal_unsat_subsets(candidates)) == [
            ["a & b | d", "~a", "~d"]
        ]
        assert _texts(maximal_consistent_subsets(candidates)) == [
            ["a & b | c", "a & b | d", "~a"],
            ["a & b | c", "a & b | d", "~d"],
            ["a & b | c", "~a", "~d"],
        ]
        assert [str(f) for f in shrink_unsat_subset(candidates)] == [
            "a & b | d", "~a", "~d"
        ]
        assert degree_of_inconsistency(FormulaSet(candidates)) == 2


class TestManyMaximalConsistentSubsets:
    """k contrary pairs have 2^k MCSes and k two-member MUSes, so the walk
    meets many seeds; each satisfiable one must already be maximal."""

    @pytest.mark.parametrize("contradiction", [False, True])
    @pytest.mark.parametrize("grouped", [False, True])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_lists_match_oracles(self, k, grouped, contradiction):
        candidates = _contrary_pairs(k, grouped)
        if contradiction:  # a one-member MUS, in no MCS, amid the pairs
            candidates.insert(k, parse("a & ~a"))
        muses = minimal_unsat_subsets(candidates)
        mcses = maximal_consistent_subsets(candidates)
        assert _indices(candidates, map(_keys, muses)) == _by_size(
            _indices(candidates, brute_minimal_unsat_subsets(candidates, []))
        )
        assert _indices(candidates, map(_keys, mcses)) == _by_size(
            _indices(candidates, brute_maximal_consistent_subsets(candidates, [])),
            largest_first=True,
        )
        assert len(mcses) == 2**k
        assert [s.kernel for s in strands(FormulaSet(candidates))] == mcses
        if contradiction:
            with pytest.raises(ValueError, match="individually unsatisfiable"):
                degree_of_inconsistency(FormulaSet(candidates))
        else:
            assert degree_of_inconsistency(
                FormulaSet(candidates)
            ) == brute_min_cover_over_consistent_subsets(candidates, [])

    @staticmethod
    def _interleaved_pairs(k, seconds):
        candidates = _contrary_pairs(k, grouped=False)
        with _time_limit(seconds):
            mcses = maximal_consistent_subsets(candidates)
            muses = minimal_unsat_subsets(candidates)
        assert len(mcses) == 2**k and len(set(map(_keys, mcses))) == 2**k
        assert all(len(m) == k for m in mcses)
        assert _texts(mcses[:2]) == [
            [f"x{i}" for i in range(k)],
            [f"x{i}" for i in range(k - 1)] + [f"~x{k - 1}"],
        ]
        assert _texts(muses) == [[f"x{i}", f"~x{i}"] for i in range(k)]

    def test_eight_interleaved_pairs(self):
        self._interleaved_pairs(8, seconds=30)

    def test_ten_interleaved_pairs(self):
        self._interleaved_pairs(10, seconds=10)


class TestKnownMuses:
    """A seed grows only by members that complete no MUS found so far, so
    no query asks again about a known MUS."""

    def test_five_hole_pigeonhole_refutes_once(self, monkeypatch):
        # six pigeons in five holes, no two in one hole: the one MUS is all
        # six pigeons, and the seed of every member is the one query of the
        # set's one walk that the search refutes
        def sits(pigeon, hole):
            return atom(f"p{pigeon}_{hole}")

        candidates = FormulaSet(disj(*(sits(i, h) for h in range(5))) for i in range(6))
        background = [
            disj(neg(sits(a, h)), neg(sits(b, h)))
            for h in range(5) for a in range(6) for b in range(a + 1, 6)
        ]
        refuted = []
        search = sat._dpll

        def counted(*args):
            found = search(*args)
            refuted.append(found is None)
            return found

        monkeypatch.setattr(sat, "_dpll", counted)
        muses = minimal_unsat_subsets(candidates, background)
        mcses = maximal_consistent_subsets(candidates, background)
        assert _indices(candidates, map(_keys, muses)) == [list(range(6))]
        assert _indices(candidates, map(_keys, mcses)) == _by_size(
            [[j for j in range(6) if j != i] for i in range(6)], largest_first=True
        )
        assert refuted.count(True) == 1

    def test_at_most_five_of_ten_atoms(self):
        # a clause per six atoms, one of which is false: every five atoms
        # are an MCS and every six a MUS
        atoms = [atom(f"a{i}") for i in range(10)]
        background = [
            disj(*(neg(atoms[i]) for i in six)) for six in combinations(range(10), 6)
        ]
        muses = minimal_unsat_subsets(atoms, background)
        mcses = maximal_consistent_subsets(atoms, background)
        assert len(muses) == 210 and len(mcses) == 252
        assert _indices(atoms, map(_keys, muses)) == _by_size(
            _indices(atoms, brute_minimal_unsat_subsets(atoms, background))
        )
        assert _indices(atoms, map(_keys, mcses)) == _by_size(
            _indices(atoms, brute_maximal_consistent_subsets(atoms, background)),
            largest_first=True,
        )


class TestWorldRows:
    """Over a base's own background, on a model that lists every valuation
    satisfying it, the MCSes are read off the worlds before the walk, whose
    every seed is then unsatisfiable and shrinks to a MUS by masks: the
    walk makes no search."""

    def test_accepted_lottery_makes_no_search(self, searches):
        base = fair_lottery(12)
        accepted = threshold_accept(base, AcceptanceLevel(Fraction(1, 12))).accepted_formulas
        searches.clear()
        muses = minimal_unsat_subsets(accepted, base.background)
        mcses = maximal_consistent_subsets(accepted, base.background)
        assert searches == []
        assert muses == [accepted]
        assert [len(m) for m in mcses] == [11] * 12

    def test_ten_interleaved_pairs_over_an_independent_lottery(self, searches):
        base = independent_lottery(10, Fraction(1, 2))
        wins = [atom(f"wins_{i}") for i in range(1, 11)]
        candidates = FormulaSet(f for win in wins for f in (win, neg(win)))
        searches.clear()
        with _time_limit(10):
            mcses = maximal_consistent_subsets(candidates, base.background)
            muses = minimal_unsat_subsets(candidates, base.background)
        assert len(mcses) == 1024 and len(set(map(_keys, mcses))) == 1024
        assert all(len(m) == 10 for m in mcses)
        assert _texts(mcses[:2]) == [
            [str(w) for w in wins], [*map(str, wins[:9]), "~wins_10"]
        ]
        assert _texts(muses) == [[str(w), f"~{w}"] for w in wins]
        assert searches == []

    def test_two_lotteries_in_one_model_make_no_search(self, searches):
        # the model lists all 8 * 9 valuations that satisfy its two
        # exactly_ones over disjoint atoms, so it answers from masks alone
        base = two_lotteries(8, 9)
        accepted = threshold_accept(base, AcceptanceLevel(Fraction(1, 8))).accepted_formulas
        searches.clear()
        mcses = maximal_consistent_subsets(accepted, base.background)
        muses = minimal_unsat_subsets(accepted, base.background)
        degree = degree_of_inconsistency(accepted, base.background)
        assert searches == []
        assert len(accepted) == 17 and len(mcses) == 72
        assert all(len(m) == 15 for m in mcses)
        assert [len(m) for m in muses] == [8, 9] and degree == 2


@st.composite
def complete_model_problems(draw):
    """A lottery, whose model lists every valuation that satisfies its
    background (independent with two to six tickets, one-winner with two
    to seven, or two one-winner lotteries of two to four tickets each in
    one model), and one to nine random candidates over its atoms."""
    rng = draw(st.randoms(use_true_random=False))
    kind = draw(st.sampled_from(["independent", "one-winner", "two"]))
    if kind == "independent":
        base = independent_lottery(draw(st.integers(2, 6)), Fraction(1, 2))
    elif kind == "one-winner":
        base = fair_lottery(draw(st.integers(2, 7)))
    else:
        base = two_lotteries(draw(st.integers(2, 4)), draw(st.integers(2, 4)))
    names = list(base.model.atoms)
    candidates = [random_formula(rng, names, depth=3) for _ in range(draw(st.integers(1, 9)))]
    return base, candidates


@given(complete_model_problems())
def test_world_rows_match_oracles(problem):
    base, candidates = problem
    background = list(base.background)
    muses = minimal_unsat_subsets(candidates, base.background)
    mcses = maximal_consistent_subsets(candidates, base.background)
    assert _indices(candidates, map(_keys, muses)) == _by_size(
        _indices(candidates, brute_minimal_unsat_subsets(candidates, background))
    )
    assert _indices(candidates, map(_keys, mcses)) == _by_size(
        _indices(candidates, brute_maximal_consistent_subsets(candidates, background)),
        largest_first=True,
    )


class TestUnsatisfiableBackground:
    """Each diagnostic reports an unsatisfiable background, with or without
    candidates, and after a cap it exceeds."""

    BACKGROUND = FormulaSet([parse("b & ~b")])
    DIAGNOSTICS = [
        minimal_unsat_subsets,
        maximal_consistent_subsets,
        strands,
        shrink_unsat_subset,
        degree_of_inconsistency,
    ]

    @pytest.mark.parametrize("count", [0, 3])
    @pytest.mark.parametrize("diagnose", DIAGNOSTICS)
    def test_rejected(self, diagnose, count):
        # with a contrary pair, so the candidates are unsatisfiable too
        candidates = FormulaSet([parse("x0"), parse("~x0"), parse("x1")][:count])
        if diagnose is degree_of_inconsistency and not count:
            # nothing to cover, so the background goes unchecked
            assert diagnose(candidates, self.BACKGROUND) == 1
            return
        with pytest.raises(ValueError, match="background is unsatisfiable"):
            diagnose(candidates, self.BACKGROUND)

    @pytest.mark.parametrize(
        "diagnose", [d for d in DIAGNOSTICS if d is not shrink_unsat_subset]
    )
    def test_cap_reported_first(self, diagnose):
        candidates = FormulaSet(atom(f"x{i}") for i in range(3))
        with pytest.raises(ValueError, match="3 candidates exceed the enumeration cap of 2"):
            diagnose(candidates, self.BACKGROUND, cap=2)


@st.composite
def subset_problems(draw):
    """Two to eight candidates over five or six atoms, and a background
    that is empty or one satisfiable formula.  The formulas have depth 3,
    so their clauses carry definitional variables; literals among the
    candidates make unsatisfiable subsets common."""
    rng = draw(st.randoms(use_true_random=False))
    names = list("abcdef")[: draw(st.integers(5, 6))]

    def formula():
        if rng.random() < 0.4:
            literal = atom(rng.choice(names))
            return neg(literal) if rng.random() < 0.5 else literal
        return random_formula(rng, names, depth=3)

    candidates = [formula() for _ in range(draw(st.integers(2, 8)))]
    background = [random_formula(rng, names, depth=3)] if draw(st.booleans()) else []
    if not truth_table_satisfiable(background):
        background = []
    return candidates, background


def _one(*names):
    return exactly_one([atom(n) for n in names])


@st.composite
def row_problems(draw):
    """Candidates and a background with at-most-one rows: one to three
    ``exactly_one`` of two to four distinct atoms out of five, so that two
    rows often share an atom, and sometimes the first of them again,
    rebuilt from its atoms in reverse.  Each row goes among the candidates
    or into the background at a drawn position, so that it is sometimes
    the first formula a solver translates; one to three other candidates,
    literals or formulas of depth 2, go with them."""
    rng = draw(st.randoms(use_true_random=False))
    names = list("abcde")
    picks = [
        draw(st.lists(st.sampled_from(names), min_size=2, max_size=4, unique=True))
        for _ in range(draw(st.integers(1, 3)))
    ]
    if draw(st.booleans()):
        picks.append(picks[0][::-1])

    def formula():
        if rng.random() < 0.5:
            literal = atom(rng.choice(names))
            return neg(literal) if rng.random() < 0.5 else literal
        return random_formula(rng, names, depth=2)

    candidates = [formula() for _ in range(draw(st.integers(1, 3)))]
    background = []
    for pick in picks:
        into = background if draw(st.booleans()) else candidates
        into.insert(draw(st.integers(0, len(into))), _one(*pick))
    return candidates, background


def _check_family_orders(candidates, background):
    """Satisfiability, the MUSes and MCSes in enumeration order, strands'
    kernels and a shrink against the oracles, over a satisfiable
    background."""
    assert is_satisfiable(background + candidates) == truth_table_satisfiable(
        background + candidates
    )
    brute_muses = brute_minimal_unsat_subsets(candidates, background)
    muses = minimal_unsat_subsets(candidates, background)
    assert _indices(candidates, map(_keys, muses)) == _by_size(
        _indices(candidates, brute_muses)
    )
    # one solver answers every deletion query, so no state of one query
    # may leak into the next
    shrunk = shrink_unsat_subset(candidates, background)
    if truth_table_satisfiable(background + candidates):
        assert shrunk is None
    else:
        assert shrunk is not None and _keys(shrunk) in brute_muses
    mcses = maximal_consistent_subsets(candidates, background)
    assert _indices(candidates, map(_keys, mcses)) == _by_size(
        _indices(candidates, brute_maximal_consistent_subsets(candidates, background)),
        largest_first=True,
    )
    kernels = [s.kernel for s in strands(FormulaSet(candidates), FormulaSet(background))]
    assert kernels == mcses


@given(subset_problems())
def test_subset_diagnostics_match_oracles(problem):
    candidates, background = problem
    _check_family_orders(candidates, background)
    if all(truth_table_satisfiable(background + [f]) for f in candidates):
        assert degree_of_inconsistency(
            FormulaSet(candidates), FormulaSet(background)
        ) == brute_min_cover_over_consistent_subsets(candidates, background)


def _check_against_oracles(candidates, background):
    everything = background + candidates
    assert is_satisfiable(everything) == truth_table_satisfiable(everything)
    *premises, conclusion = candidates
    assert entails(background, premises, conclusion) == (
        not truth_table_satisfiable(background + premises + [neg(conclusion)])
    )
    if not truth_table_satisfiable(background):
        with pytest.raises(ValueError, match="background is unsatisfiable"):
            shrink_unsat_subset(candidates, background)
        return
    brute_muses = brute_minimal_unsat_subsets(candidates, background)
    assert {_keys(m) for m in minimal_unsat_subsets(candidates, background)} == brute_muses
    assert {_keys(m) for m in maximal_consistent_subsets(candidates, background)} == (
        brute_maximal_consistent_subsets(candidates, background)
    )
    shrunk = shrink_unsat_subset(candidates, background)
    if brute_muses:
        assert shrunk is not None and _keys(shrunk) in brute_muses
    else:
        assert shrunk is None


def _check_kept_translations(candidates, background):
    # Each solver translates its formulas afresh, into one numbering, so
    # the answers must not depend on where a formula sits: the calls repeat
    # a problem, then put its first formula second in a background and
    # among the candidates.  The last background gives the solver every
    # clause of ``first`` twice.
    first, other = (background + candidates)[0], candidates[-1]
    _check_against_oracles(candidates, background)
    _check_against_oracles(candidates, background)
    _check_against_oracles(candidates, [other, first])
    _check_against_oracles([first, *candidates], [other])
    _check_against_oracles(candidates, [first, conj(first, other)])


@given(subset_problems())
def test_kept_translation_answers_as_a_fresh_one(problem):
    _check_kept_translations(*problem)


# Two rows that share ``c``.  With ``a`` and ``d`` each row has its one
# true atom; ``a`` makes ``c`` false through the first row, so ``~d`` leaves
# the second row's clause unsatisfied; ``a`` and ``c`` are two true atoms
# of the first row.
@given(row_problems())
@example(([_one("a", "b", "c"), _one("c", "d"), parse("a"), parse("d")], []))
@example(([_one("a", "b", "c"), _one("c", "d"), parse("c")], []))
@example(([parse("a"), parse("~d")], [_one("a", "b", "c"), _one("c", "d")]))
@example(([_one("a", "b", "c"), _one("c", "d"), parse("a"), parse("c")], []))
def test_rows_match_oracles(problem):
    # A row among the candidates is switched on and off by the queries; the
    # reorderings put a row first and second among a solver's formulas, and
    # nest it under a conjunction, which translates it pairwise.
    candidates, background = problem
    _check_kept_translations(candidates, background)
    if truth_table_satisfiable(background):
        _check_family_orders(candidates, background)

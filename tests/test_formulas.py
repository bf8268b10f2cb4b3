import os
import random
import subprocess
import sys
from unittest.mock import patch

import pytest

from probaccept import (
    Formula,
    FormulaSet,
    FormulaSyntaxError,
    atom,
    conj,
    disj,
    exactly_one,
    has_strong_inconsistency,
    iff,
    implies,
    neg,
    parse,
    render,
)
from probaccept import formulas
from probaccept.formulas import MAX_KEY_LENGTH, MAX_NESTING, nnf_key
from probaccept.sat import is_satisfiable
from probaccept.worlds import WorldModel

from helpers import LONG_BICONDITIONAL_CHAIN, evaluate, random_formula

NESTING_TOKENS = {
    "parentheses": "(",
    "negations": "~",
    "implications": "->",
    "biconditionals": "<->",
}


def nested(kind: str, depth: int) -> str:
    """Text nested ``depth`` levels deep by one kind of nesting over the
    atoms a and b, built so that canonicalization cannot flatten it."""
    if kind == "parentheses":
        text = "a"
        for i in range(depth):
            text = f"({'ab'[i % 2]} {'|&'[i % 2]} {text})"
        return text
    if kind == "negations":
        return "~" * depth + "a"
    sep = f" {NESTING_TOKENS[kind]} "
    return sep.join("ab"[i % 2] for i in range(depth + 1))


class TestParsing:
    @pytest.mark.parametrize("text", ["a ", "a \t\n", " a  "])
    def test_trailing_whitespace_ends_the_text(self, text):
        assert parse(text) == atom("a") and parse(text).op == "atom"

    def test_conjunction_with_negation(self):
        f = parse("a & ~a")
        assert f.op == "and"
        assert f.args[0] == atom("a")
        assert f.args[1] == neg(atom("a"))

    def test_precedence_or_binds_tighter_than_implies(self):
        f = parse("a | b -> c")
        assert f == implies(disj(atom("a"), atom("b")), atom("c"))
        assert f.op == "implies"
        assert f.args[0].op == "or"

    def test_precedence_not_and_or(self):
        assert parse("~a & b | c") == disj(conj(neg(atom("a")), atom("b")), atom("c"))

    def test_implies_right_associative(self):
        f = parse("a -> b -> c")
        assert f == implies(atom("a"), implies(atom("b"), atom("c")))

    def test_iff_chains_left(self):
        f = parse("a <-> b <-> c")
        assert f.op == "iff"
        assert f.args[0].op == "iff"

    def test_parens_override(self):
        assert parse("(a | b) & c").op == "and"
        assert parse("a | (b & c)").op == "or"

    def test_unbalanced_paren_position(self):
        with pytest.raises(FormulaSyntaxError) as err:
            parse("(a")
        assert err.value.position == 2

    def test_bad_character(self):
        with pytest.raises(FormulaSyntaxError):
            parse("a + b")

    def test_empty_input(self):
        with pytest.raises(FormulaSyntaxError):
            parse("")

    def test_trailing_junk(self):
        with pytest.raises(FormulaSyntaxError):
            parse("a b")

    def test_dangling_connective(self):
        with pytest.raises(FormulaSyntaxError):
            parse("a &")

    # Biconditional chains are left out: their canonical form doubles with
    # each link, so no walk of one at the limit finishes.
    @pytest.mark.parametrize("kind", ["parentheses", "negations", "implications"])
    def test_nesting_at_the_limit_survives_every_walk(self, kind):
        f = parse(nested(kind, MAX_NESTING))
        assert parse(render(f)) == f
        assert evaluate(f, {"a": True, "b": False}) in (True, False)
        assert not has_strong_inconsistency([f])
        assert is_satisfiable([f])
        model = WorldModel(["a", "b"], [((True, False), 1)])
        assert model.satisfying_mask(f) in (0, 1)

    @pytest.mark.parametrize("kind", list(NESTING_TOKENS))
    def test_nesting_past_the_limit_is_a_syntax_error(self, kind):
        text = nested(kind, MAX_NESTING + 1)
        with pytest.raises(FormulaSyntaxError, match="nesting deeper") as err:
            parse(text)
        assert err.value.position == text.rindex(NESTING_TOKENS[kind])


class TestKeyLengthLimit:
    def test_long_biconditional_chain_rejected(self):
        for text in (LONG_BICONDITIONAL_CHAIN, " <-> ".join(f"a{i}" for i in range(30))):
            f = parse(text)
            with pytest.raises(ValueError, match="exceeds the limit"):
                f.canonical_key
            with pytest.raises(ValueError, match="exceeds the limit"):
                is_satisfiable([f])

    def test_limit_never_admits_a_longer_key(self):
        # a limit one below a formula's longest key must reject it
        rng = random.Random(91)
        for _ in range(200):
            state = rng.getstate()
            f = random_formula(rng, ["a", "b", "c"], depth=4)
            longest = max(len(nnf_key(f.nnf())), len(nnf_key(neg(f).nnf())))
            rng.setstate(state)
            fresh = random_formula(rng, ["a", "b", "c"], depth=4)
            with patch.object(formulas, "MAX_KEY_LENGTH", longest - 1):
                with pytest.raises(ValueError, match="exceeds the limit"):
                    fresh.nnf()

    def test_chain_below_the_limit_canonicalizes(self):
        f = parse(" <-> ".join(f"a{i}" for i in range(16)))
        assert len(f.canonical_key) == 737_386 <= MAX_KEY_LENGTH


class TestCanonicalIdentity:
    def test_implication_equals_its_disjunctive_form(self):
        assert parse("a -> b") == parse("~a | b")

    def test_commutativity(self):
        assert parse("a & b") == parse("b & a")
        assert parse("a | b | c") == parse("c | b | a")

    def test_double_negation(self):
        assert parse("~~a") == parse("a")

    def test_de_morgan(self):
        assert parse("~(a & b)") == parse("~a | ~b")

    def test_idempotent_duplicates(self):
        assert parse("a & a") == parse("a")

    def test_distinct_formulas_differ(self):
        assert parse("a & b") != parse("a | b")
        assert parse("a") != parse("b")

    def test_canonicalization_idempotent(self):
        f = parse("~(a -> b) <-> (c | ~a)")
        again = parse(f.canonical_key)
        assert again.canonical_key == f.canonical_key

    def test_children_follow_the_node_order(self):
        # nodes sort by tag ("and" < "lit" < "or"), literals by name and
        # then with the negated one first
        assert parse("a | ~a").canonical_key == "(~a | a)"
        assert parse("b & ~a & (c | a)").canonical_key == "(~a & b & (a | c))"
        assert parse("c | (b & a) | ~b").canonical_key == "((a & b) | ~b | c)"

    @pytest.mark.parametrize("n", [2, 3, 12, 300])
    def test_exactly_one_key_is_its_pair_trees(self, n):
        # written from the sorted names (wins_10 before wins_2), one join per
        # name; at n = 2 no pair lies among the names after the least
        outcomes = [atom(f"wins_{i}") for i in range(1, n + 1)]
        pairs = [neg(conj(a, b)) for i, a in enumerate(outcomes) for b in outcomes[i + 1:]]
        tree = conj(disj(*outcomes), *pairs)
        assert exactly_one(outcomes).canonical_key == nnf_key(tree.nnf())

    def test_no_cache_outlives_the_formulas(self):
        # a fresh interpreter, so no earlier test has filled a cache yet
        script = (
            "import gc, tracemalloc\n"
            "from probaccept import fair_lottery\n"
            "tracemalloc.start()\n"
            "base = fair_lottery(300)\n"
            "[f.canonical_key for f in base.background]\n"
            "del base\n"
            "gc.collect()\n"
            "print(tracemalloc.get_traced_memory()[0])\n"
        )
        src = os.path.dirname(os.path.dirname(formulas.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        )
        assert int(done.stdout) < 1_000_000

    def test_hashing_follows_equality(self):
        assert len({parse("a -> b"), parse("~a | b"), parse("b | ~a")}) == 1

    def test_render_parse_round_trip_catalog(self):
        texts = [
            "a",
            "~a",
            "~~(a & b)",
            "a & b & c",
            "a | b -> c",
            "(a -> b) -> c",
            "a -> b -> c",
            "a <-> b <-> c",
            "a <-> (b <-> c)",
            "~(a | b) & (c -> ~d)",
        ]
        for text in texts:
            f = parse(text)
            assert parse(render(f)) == f

    def test_render_parse_round_trip_random(self):
        rng = random.Random(1234)
        names = ["a", "b", "c", "d"]
        for _ in range(300):
            f = random_formula(rng, names)
            assert parse(render(f)) == f


class TestEvaluation:
    def test_connectives(self):
        env = {"a": True, "b": False}
        assert evaluate(parse("a & ~b"), env)
        assert not evaluate(parse("a -> b"), env)
        assert evaluate(parse("b -> a"), env)
        assert evaluate(parse("a <-> a"), env)
        assert not evaluate(parse("a <-> b"), env)

    def test_atoms_collected(self):
        assert parse("a & (b -> a)").atoms() == frozenset({"a", "b"})


class TestStrongInconsistency:
    def test_single_self_contradiction(self):
        assert has_strong_inconsistency([parse("s & ~s")])

    def test_weak_only_pair(self):
        # jointly unsatisfiable, but no member contradicts itself
        assert not has_strong_inconsistency([parse("s"), parse("~s")])

    def test_empty(self):
        assert not has_strong_inconsistency([])

    def test_compound_subformula(self):
        assert has_strong_inconsistency([parse("(a | b) & ~(a | b)")])

    def test_negated_tautology(self):
        assert has_strong_inconsistency([parse("~(a -> a)")])

    def test_nested_under_disjunction(self):
        assert has_strong_inconsistency([parse("t | (s & ~s)")])

    def test_plain_contingency(self):
        assert not has_strong_inconsistency([parse("a & b"), parse("~a | b")])


class TestFormulaSet:
    def test_deduplicates_by_canonical_key(self):
        s = FormulaSet([parse("a -> b"), parse("~a | b"), parse("c")])
        assert len(s) == 2

    def test_preserves_insertion_order(self):
        s = FormulaSet([parse("c"), parse("a"), parse("b")])
        assert [render(f) for f in s] == ["c", "a", "b"]

    def test_membership(self):
        s = FormulaSet([parse("a -> b")])
        assert parse("~a | b") in s
        assert parse("a") not in s

    def test_union_and_add(self):
        s = FormulaSet([parse("a")]) | FormulaSet([parse("b")])
        assert len(s.add(parse("a"))) == 2
        assert len(s.add(parse("c"))) == 3

    def test_equality_ignores_order(self):
        assert FormulaSet([parse("a"), parse("b")]) == FormulaSet(
            [parse("b"), parse("a")]
        )


class TestConstructors:
    def test_invalid_atom_name(self):
        for bad in ("", "1a", "a-b", "a b"):
            with pytest.raises(ValueError):
                atom(bad)

    def test_variadic_singletons_collapse(self):
        assert conj(atom("a")) == atom("a")
        assert disj(atom("a")) == atom("a")

    def test_caller_list_changes_nothing(self):
        args = [atom("a"), atom("b")]
        f = Formula("and", args)
        key = f.canonical_key
        args.append(atom("c"))
        assert render(f) == "a & b"
        assert f.canonical_key == key
        assert f == parse("a & b")
        assert f != parse("a & b & c")

    @pytest.mark.parametrize(
        "args, message",
        [
            (("bogus",), "unknown connective 'bogus'"),
            (("atom", (atom("b"),), "a"), "atoms take no arguments"),
            (("not", (atom("a"),), "a"), "only atoms carry a name"),
        ],
    )
    def test_malformed_nodes_rejected(self, args, message):
        with pytest.raises(ValueError, match=message):
            Formula(*args)

    def test_empty_variadic_rejected(self):
        with pytest.raises(ValueError):
            conj()
        with pytest.raises(ValueError):
            disj()

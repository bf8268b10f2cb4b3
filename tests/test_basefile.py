import tracemalloc
from fractions import Fraction

import pytest

from probaccept import (
    BeliefBase,
    BeliefBaseFormatError,
    as_fraction,
    atom,
    biased_lottery,
    dump,
    dumps,
    fair_lottery,
    independent_lottery,
    loads,
    parse,
    parse_rational,
)

from helpers import DEEP_NESTING_PROBES, LONG_BICONDITIONAL_CHAIN

SAMPLE = """\
# a two-sided coin, candidates on both sides
ATOMS: heads
WORLDS:
w1: heads=1 weight 1/2
w2: heads=0 weight 1/2
CANDIDATES:
H: heads
T: ~heads   # trailing comments are fine
"""


class TestParseRational:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("3/4", Fraction(3, 4)),
            ("2", Fraction(2)),
            (" 10/4 ", Fraction(5, 2)),
            ("3 / 4", Fraction(3, 4)),
        ],
    )
    def test_accepts_rationals(self, text, value):
        assert parse_rational(text) == value

    @pytest.mark.parametrize(
        "text",
        ["0.5", "1e-2", "1e-3", "1_000/3", "", "a/b", "1/2/3", "1/0", "3/00", "١/٣", "1/٣",
         "\u00a01/3", "1\u2003/ 3"],
    )
    def test_rejects_non_rationals(self, text):
        with pytest.raises(ValueError):
            parse_rational(text)

    def test_is_the_one_rational_reader(self):
        assert parse_rational is as_fraction


class TestRoundTrip:
    @pytest.mark.parametrize(
        "base",
        [
            fair_lottery(3),
            biased_lottery([Fraction(1, 100), Fraction(9, 100), Fraction(90, 100)]),
            independent_lottery(2, Fraction(1, 3)),
            # names whose string and numeric orders differ: the loaded
            # background is an exactly_one in outcome order, so equality
            # checks the key written from its sorted names
            fair_lottery(12),
            biased_lottery([Fraction(i, 91) for i in range(1, 14)]),
        ],
        ids=["fair3", "biased3", "independent2", "fair12", "biased13"],
    )
    def test_dumps_loads_identity(self, base):
        assert loads(dumps(base)) == base

    def test_dumps_stable(self):
        base = fair_lottery(4)
        assert dumps(base) == dumps(fair_lottery(4))

    def test_sample_parses(self):
        base = loads(SAMPLE)
        assert base.model.atoms == ("heads",)
        assert base.candidate_labels == ("H", "T")
        assert base.model.probability(base.candidate("H")) == Fraction(1, 2)
        assert len(base.background) == 0

    def test_byte_order_mark_is_skipped(self):
        # an editor may write one at the start of a UTF-8 file
        assert loads("\ufeff" + SAMPLE) == loads(SAMPLE)
        text = "ATOMS: a\nWORLDS:\nw1: a=1 weight 1\n"
        assert loads("\ufeff" + text) == loads(text)

    def test_sample_round_trips(self):
        base = loads(SAMPLE)
        assert loads(dumps(base)) == base

    @pytest.mark.parametrize(
        "label", ["atoms", "Worlds", "background", "CANDIDATES", "aToms", "BackGround"]
    )
    def test_section_name_label_refused(self, label):
        # ``loads`` would read the label's line as a section header
        base = BeliefBase(loads(SAMPLE).model, candidates=[(label, atom("heads"))])
        with pytest.raises(ValueError, match=f"candidate label '{label}'"):
            dumps(base)
        near = BeliefBase(base.model, candidates=[(label + "_1", atom("heads"))])
        assert loads(dumps(near)) == near

    @pytest.mark.parametrize("count", [400, 2000])
    def test_long_leading_group_is_parsed_in_linear_space(self, count):
        # Not a one-winner rendering: the line is parsed, and nothing of the
        # size of its names' count(count - 1)/2 pairs is built on the way.
        # At 2000 names their one-winner key is past MAX_KEY_LENGTH.
        names = [f"x{i}" for i in range(count)]
        line = "(" + " | ".join(names) + ") & y"
        cells = " ".join(f"{name}={int(name == 'x0')}" for name in names)
        text = f"ATOMS: {' '.join(names)} y\nWORLDS:\nw1: {cells} y=1 weight 1\n"
        text += f"BACKGROUND:\n{line}\n"
        tracemalloc.start()
        try:
            base = loads(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert list(base.background) == [parse(line)]
        assert peak < 200 * len(text)

    def test_refused_dump_leaves_the_file_as_it_was(self, tmp_path):
        target = tmp_path / "coin.bb"
        target.write_bytes(SAMPLE.encode())
        base = BeliefBase(loads(SAMPLE).model, candidates=[("Worlds", atom("heads"))])
        with pytest.raises(ValueError, match="candidate label 'Worlds'"):
            dump(base, target)
        assert target.read_bytes() == SAMPLE.encode()


class TestFormatErrors:
    def test_missing_atoms_section(self):
        with pytest.raises(BeliefBaseFormatError):
            loads("WORLDS:\nw1: weight 1\n")

    def test_missing_worlds(self):
        with pytest.raises(BeliefBaseFormatError):
            loads("ATOMS: a\n")

    def test_world_without_weight(self):
        with pytest.raises(BeliefBaseFormatError, match="line 3"):
            loads("ATOMS: a\nWORLDS:\nw1: a=1\n")

    def test_float_weight_rejected(self):
        with pytest.raises(BeliefBaseFormatError):
            loads("ATOMS: a\nWORLDS:\nw1: a=1 weight 0.5\nw2: a=0 weight 0.5\n")

    def test_zero_denominator_weight_reports_line(self):
        text = "ATOMS: a\nWORLDS:\nw1: a=1 weight 1\nw2: a=0 weight 1/0\n"
        with pytest.raises(BeliefBaseFormatError, match="line 4: zero denominator in '1/0'"):
            loads(text)

    def test_unknown_atom_in_world(self):
        with pytest.raises(BeliefBaseFormatError, match="unknown atom"):
            loads("ATOMS: a\nWORLDS:\nw1: a=1 b=0 weight 1\n")

    def test_incomplete_valuation(self):
        with pytest.raises(BeliefBaseFormatError, match="unassigned"):
            loads("ATOMS: a b\nWORLDS:\nw1: a=1 weight 1\n")

    def test_duplicate_candidate_label(self):
        text = (
            "ATOMS: a\nWORLDS:\nw1: a=1 weight 1\n"
            "CANDIDATES:\nC: a\nC: ~a\n"
        )
        with pytest.raises(BeliefBaseFormatError, match="duplicate"):
            loads(text)

    def test_bad_formula_reports_line(self):
        text = "ATOMS: a\nWORLDS:\nw1: a=1 weight 1\nBACKGROUND:\na &\n"
        with pytest.raises(BeliefBaseFormatError, match="line 5"):
            loads(text)

    @pytest.mark.parametrize("text", DEEP_NESTING_PROBES.values(), ids=list(DEEP_NESTING_PROBES))
    def test_deep_nesting_reports_line(self, text):
        base = f"ATOMS: a\nWORLDS:\nw1: a=1 weight 1\nCANDIDATES:\nD: {text}\n"
        with pytest.raises(BeliefBaseFormatError, match="line 5: bad formula: nesting deeper"):
            loads(base)

    def test_long_biconditional_chain_reports_line(self):
        base = f"ATOMS: a\nWORLDS:\nw1: a=1 weight 1\nCANDIDATES:\nD: {LONG_BICONDITIONAL_CHAIN}\n"
        with pytest.raises(BeliefBaseFormatError, match="line 5: bad formula: canonical form"):
            loads(base)

    def test_content_before_section(self):
        with pytest.raises(BeliefBaseFormatError, match="line 1"):
            loads("a=1\nATOMS: a\n")

    def test_invalid_atom_name_reports_its_own_line(self):
        for world in ("w1: a=1 9x=0 weight 1", "w1: a=1 weight 1"):
            with pytest.raises(BeliefBaseFormatError) as caught:
                loads(f"ATOMS: a 9x\nWORLDS:\n{world}\n")
            assert str(caught.value) == "line 1: invalid atom name '9x'"

    def test_invalid_candidate_label_reports_its_line(self):
        text = "ATOMS: a\nWORLDS:\nw1: a=1 weight 1\nCANDIDATES:\n1bad: a\n"
        with pytest.raises(BeliefBaseFormatError) as caught:
            loads(text)
        assert str(caught.value) == "line 5: invalid candidate label '1bad'"

    def test_weights_not_summing_rejected(self):
        text = "ATOMS: a\nWORLDS:\nw1: a=1 weight 1/3\nw2: a=0 weight 1/3\n"
        with pytest.raises(BeliefBaseFormatError, match="world weights sum to 2/3, not 1"):
            loads(text)

    @pytest.mark.parametrize("text, message", [
        ("ATOMS: a\nWORLDS: extra\n", "line 2: unexpected text after WORLDS:"),
        ("ATOMS: a\nWORLDS:\na=1 weight 1\n",
         "line 3: expected '<label>: <atom>=<0|1> ... weight <p/q>'"),
        ("ATOMS: a\nWORLDS:\nw1: a=1 weight 1 1\n", "line 3: expected exactly one weight value"),
        ("ATOMS: a\nWORLDS:\nw1: a=2 weight 1\n", "line 3: bad assignment token 'a=2'"),
        ("ATOMS: a\nWORLDS:\nw1: a=1 a=0 weight 1\n", "line 3: atom 'a' assigned twice"),
        ("ATOMS: a a\nWORLDS:\nw1: a=1 weight 1\n", "line 1: duplicate atom names: 'a'"),
        ("ATOMS: a b\nc\nATOMS: b\nWORLDS:\n", "line 3: duplicate atom names: 'b'"),
        ("ATOMS: a\nWORLDS:\nw1: a=1 weight 1/2\nw1: a=0 weight 1/2\n",
         "line 4: duplicate world label 'w1'"),
    ], ids=["text_after_header", "no_label", "two_weights", "bad_value", "assigned_twice",
            "duplicate_atoms", "duplicate_atoms_later_line", "duplicate_world_label"])
    def test_malformed_input_message(self, text, message):
        with pytest.raises(BeliefBaseFormatError) as caught:
            loads(text)
        assert str(caught.value) == message

    # Lines 1-4: the atom a and its two worlds, each of weight 1/2.
    @pytest.mark.parametrize("tail, message", [
        ("CANDIDATES:\nA: a\nNB: ~b\n", "line 7: formula mentions unknown atoms: b"),
        ("BACKGROUND:\na | ~a\na\n", "line 7: background formula a has probability 1/2, not 1"),
        ("BACKGROUND:\nb | c\n", "line 6: formula mentions unknown atoms: b, c"),
        # the base checks every candidate before any background formula
        ("BACKGROUND:\na\nCANDIDATES:\nA: a\nB: b\n",
         "line 9: formula mentions unknown atoms: b"),
        # the first of two refused background formulas, and a repeat of it
        ("BACKGROUND:\n~a\na\n~a\n", "line 6: background formula ~a has probability 1/2, not 1"),
    ], ids=["candidate_atom", "background_below_one", "background_atom", "candidates_first",
            "first_of_two"])
    def test_refused_formula_reports_its_line(self, tail, message):
        text = "ATOMS: a\nWORLDS:\nw1: a=1 weight 1/2\nw2: a=0 weight 1/2\n" + tail
        with pytest.raises(BeliefBaseFormatError) as caught:
            loads(text)
        assert str(caught.value) == message

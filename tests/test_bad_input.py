"""Bad input exits 2, never 3: mutated belief-base files through every command.

The texts are ``dumps`` of small fair, biased and independent lotteries and
a hand-written base with ``->`` and ``<->`` candidates, each with up to
three mutations: a line deleted, duplicated or swapped, a character
replaced, or the text cut short.  ``accept`` under every policy,
``diagnose``, ``closure --labels`` and ``extensions`` under every ordered
policy then run on the file in process.
Each run returns 0 or 2 and raises nothing; a run that returns 2 writes one
error line.  A text that does not load, or an ``--order`` or ``--labels``
list with an item emptied, repeated or unknown, must return 2.  A text that
does load round-trips through ``dumps``.
"""

import io
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from probaccept import biased_lottery, dumps, fair_lottery, independent_lottery, loads
from probaccept.accept import POLICY_TABLE
from probaccept.cli import main

HAND_BASE = """\
ATOMS: a b c
WORLDS:
w1: a=1 b=1 c=0 weight 1/4
w2: a=0 b=1 c=1 weight 1/4
w3: a=1 b=0 c=1 weight 1/2
BACKGROUND:
a | b
CANDIDATES:
AB: a -> b
BC: b <-> ~c
CA: c -> a
NB: ~(b <-> c)
"""

# (text, candidate labels) of each unmutated base
SEEDS = [
    (text, list(loads(text).candidate_labels))
    for text in [
        *(dumps(fair_lottery(n)) for n in (3, 4, 5)),
        *(dumps(biased_lottery([Fraction(k, 10) for k in ks]))
          for ks in ((1, 2, 7), (1, 2, 3, 4))),
        *(dumps(independent_lottery(n, Fraction(1, 3))) for n in (2, 3)),
        HAND_BASE,
    ]
]
EXTRA_CHARACTERS = "#:=/&|~()"
UNKNOWN = "ZZ"  # no seed text holds a Z, so no mutation spells this label


@st.composite
def mutated(draw, text):
    """``text`` after 0 to 3 line or character mutations."""
    for _ in range(draw(st.integers(0, 3))):
        if not text:
            break
        lines = text.splitlines(keepends=True)
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(["delete", "duplicate", "swap", "replace", "cut"]))
        if kind == "delete":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        elif kind == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        text = "".join(lines)
        if kind == "replace":
            k = draw(st.integers(0, len(text) - 1))
            text = text[:k] + draw(st.sampled_from(text + EXTRA_CHARACTERS)) + text[k + 1:]
        elif kind == "cut":
            text = text[:draw(st.integers(0, len(text) - 1))]
    return text


@st.composite
def label_lists(draw, labels, every=False):
    """``labels`` (or with ``every`` unset, some of them) in some order,
    joined by commas, and whether an item was then emptied, repeated or
    made unknown."""
    items = draw(st.permutations(labels))
    if not every:
        items = items[: draw(st.integers(1, len(labels)))]
    damage = draw(st.sampled_from([None, "empty", "repeat", "unknown"]))
    i = draw(st.integers(0, len(items)))
    if damage == "empty":
        items.insert(i, "")
    elif damage == "repeat":
        items.insert(i, draw(st.sampled_from(items)))
    elif damage == "unknown":
        items.insert(i, UNKNOWN)
    return ",".join(items), damage is not None


@st.composite
def cases(draw):
    text, labels = draw(st.sampled_from(SEEDS))
    order = draw(st.one_of(st.sampled_from([("natural", False), ("reverse", False)]),
                           label_lists(labels, every=True)))
    return (draw(mutated(text)), draw(st.sampled_from(["1/2", "1/3", "1/5", "1/10"])),
            order, draw(label_lists(labels)))


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@given(cases())
def test_mutated_bases_exit_0_or_2_through_every_command(case):
    text, epsilon, (order, bad_order), (labels, bad_labels) = case
    try:
        base = loads(text)
    except ValueError:
        loaded = False
    else:
        loaded = True
        assert loads(dumps(base)) == base
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "base.bb")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        runs = [
            (["diagnose", "--epsilon", epsilon, path], False),
            (["closure", "--epsilon", epsilon, "--labels", labels, path], bad_labels),
        ]
        for policy, (_, ordered) in POLICY_TABLE.items():
            if not ordered:
                runs.append((["accept", "--policy", policy, "--epsilon", epsilon, path], False))
                continue
            runs.append((["accept", "--policy", policy, "--epsilon", epsilon,
                          "--order", order, path], bad_order))
            runs.append((["extensions", "--policy", policy, "--epsilon", epsilon,
                          "--max-permutations", "24", path], False))
        for argv, bad in runs:
            code, err = run(argv)
            assert code in (0, 2), (argv, err)
            if code == 2:
                assert err.startswith("probaccept: error: ") and err.count("\n") == 1, err
            assert code == 2 or (loaded and not bad), (argv, err)

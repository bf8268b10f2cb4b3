"""Fingerprint the bytes the ``probaccept`` CLI writes for a fixed command list.

Run it once per checkout, then compare the two files:

    python tools/cli_bytes.py CHECKOUT OUT.json
    python tools/cli_bytes.py --compare BEFORE.json AFTER.json

``tools/cli_bytes.json`` holds the fingerprint of the committed code, and
``tests/test_cli_bytes.py`` rebuilds its records in process, through
``cli.main``, from the same command list and base files.  A change that
means to alter the CLI's bytes rewrites that file with the first form.

The first form runs every command below as ``python -B -S -m probaccept``
with ``PYTHONHASHSEED=0`` and the checkout's ``src`` as the only import path,
in a fresh directory that holds the belief-base files (written by the
checkout's own ``lottery`` command), so reports name the same relative
paths on every checkout.  ``-B`` leaves no bytecode in the checkout, so a
later benchmark run there imports from source as on a fresh copy.  It
records the SHA-256 of stdout and stderr and the exit code of each
command, and for each ``lottery ... --out`` command the SHA-256 of the
file it writes, under the version of the interpreter that ran them
(``argparse`` help and usage texts differ between Python versions).  The
second form lists the commands whose record differs, each by its
position in the list (``#N``, counted from 0) and its argv cut at
``SHOWN_WIDTH`` characters, and exits 1 if any does; records are matched
by their whole argv.  It says so when the two files were written by
different interpreter versions.

The list covers every ``accept`` policy (in natural, reversed and shuffled
orders, with an empty or a repeated item in ``--order``, on a tie
between contraries, and on one formula under two labels), ``extensions``
(exhaustive, over all 5,040 orders of a 7-ticket lottery too, sampled,
and on one formula under two labels),
``diagnose`` exhaustive (up to a 20-ticket lottery at the
enumeration cap) and beyond the cap (also on a background with a
contradiction nested under a disjunction, on candidates that share a
subformula that is not a clause, and on candidates written with ``->`` and
``<->``; exhaustive also on six interleaved contrary pairs, with 64 MCSes,
and on seven grouped ones, with 128; both ways on an independent lottery,
whose model lists every valuation, at a level where its 7 accepted
statements are inconsistent, with one MUS of all 7; exhaustive on two
lotteries of 8 and 9 tickets in one model, and beyond the cap on two of
21 and 30 tickets, in both candidate orders), ``closure`` (also with an unknown
label, a repeated label, an empty ``--labels`` or ``--conclusion``, an
empty item in ``--labels``, and an unknown atom in a conclusion, entailed
or not), ``accept`` on a lottery at the one-winner cap of 300 tickets,
a ``cascade`` that ends by accepting that the one ticket left wins,
two whose one ticket left misses the level,
``accept`` and ``diagnose`` on a 5-ticket lottery whose background has one
pair written the other way round, so that it is read as a generic formula, a
background past the canonical key-length limit, ``stat binom`` (also with a ``--combine-with`` level
that is no rational in (0, 1] or empty, given no observation or one the
test does not reject, with three levels of 2,001 digits whose combined
floors pass the interpreter's digit limit, and at the cap of 2000
trials with p0 = 7/100 for each ``--sided`` value: two-sided rejecting an
observation with ``--combine-with``, upper rejecting one in ``--json``,
lower with no observation, and a region that rejects no count), ``lottery`` (also independent lotteries of 13
tickets and of 16, the cap, a biased one with a zero-weight world and one
whose three denominators differ, and ``lottery`` under ``--json``, which
writes the same text or ``--out`` file), common denominators past the
interpreter's digit limit (``accept`` and ``diagnose`` on a base whose
weights each fit it, and an independent lottery), a base in which some
worlds share a weight and others do not,
usage errors (among them an
unordered policy given to ``extensions`` and a ``--seed`` below 0 or past
2**64 - 1, next to the largest seed that samples), ``--version`` and the
help of every command, which the parser builds without importing the
library, caps and zero denominators (in each option that reads a rational
and in a world's weight), a base file that begins with a UTF-8 byte-order
mark, one that repeats a world label, one with an atom name and one with
a candidate label outside the name grammar, one with a candidate over an
atom the model lacks and one with a background formula below probability
1, an ``--epsilon`` in digits of another script,
each report command in text and ``--json``.
Stdlib only.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from collections.abc import Callable

# name -> argv of the ``lottery`` command that writes it; epsilon for accept
BASES = {
    "fair_3.bb": (["lottery", "fair", "--n", "3"], "1/3"),
    "fair_12.bb": (["lottery", "fair", "--n", "12"], "1/12"),
    "fair_20.bb": (["lottery", "fair", "--n", "20"], "1/20"),
    "fair_24.bb": (["lottery", "fair", "--n", "24"], "1/24"),
    "fair_100.bb": (["lottery", "fair", "--n", "100"], "1/100"),
    "biased_5.bb": (
        ["lottery", "biased", "--weights", "1/100,9/100,20/100,30/100,40/100"],
        "1/10",
    ),
    "independent_6.bb": (["lottery", "independent", "--n", "6", "--p", "1/10"], "1/10"),
}

# Written like BASES but read by one command each: the largest one-winner
# lottery, at the ticket cap, by ``accept``, a 7-ticket one by
# ``extensions`` over all its 5,040 orders, the most it may run, and a
# biased 3-ticket one by a ``cascade`` that ends with one ticket alive.
SINGLE_USE_BASES = {
    "fair_300.bb": ["lottery", "fair", "--n", "300"],
    "fair_7.bb": ["lottery", "fair", "--n", "7"],
    "biased_3.bb": ["lottery", "biased", "--weights", "1/100,9/100,90/100"],
}

# Explicit candidate orders, neither natural nor reversed.
SHUFFLED_ORDERS = {
    "biased_5.bb": "L3,L1,L5,L2,L4",
    "fair_12.bb": "L7,L2,L11,L4,L9,L1,L12,L6,L3,L10,L5,L8",
    "independent_6.bb": "L4,some_wins,L1,L6,L3,L5,L2",
}

# Two contradictory candidates over one atom: degree 2, one MUS of size 2.
PAIR_BASE = """\
ATOMS: a
WORLDS:
w1: a=1 weight 1/2
w2: a=0 weight 1/2
CANDIDATES:
A: a
NA: ~a
"""

# The same pair on a background whose contradiction sits under a
# disjunction: the file loads, and ``strong_inconsistency`` must see it.
NESTED_BASE = PAIR_BASE.replace("CANDIDATES:", "BACKGROUND:\na | ~a | (a & ~a)\nCANDIDATES:")

# Candidates sharing ``a & b``, a subformula that is not a clause, so the
# solver defines one variable for it in more than one candidate's clauses.
SHARED_BASE = """\
ATOMS: a b c d
WORLDS:
w1: a=1 b=1 c=0 d=0 weight 1/2
w2: a=0 b=0 c=1 d=0 weight 1/2
CANDIDATES:
ABC: (a & b) | c
ABD: (a & b) | d
NA: ~a
ND: ~d
"""

# One winner among three, with candidates written as implications and
# biconditionals: at 1/3 every candidate is accepted, with 3 MUSes of
# size 4, 5 MCSes and degree 2.
CYCLE_BASE = """\
ATOMS: a b c
WORLDS:
w1: a=1 b=0 c=0 weight 1/3
w2: a=0 b=1 c=0 weight 1/3
w3: a=0 b=0 c=1 weight 1/3
CANDIDATES:
AB: a -> b
BC: b -> c
CA: c -> a
NAB: a <-> ~b
NAC: ~(a <-> c)
"""

# One formula under two labels, A and TWIN, on three of the four valuations
# of a and b.  At 3/4 every candidate clears the level: Lehrer drops NA,
# which both A and TWIN dominate, and accepts an inconsistent set, and
# sequential acceptance skips what the first statements contradict.
TWIN_BASE = """\
ATOMS: a b
WORLDS:
w1: a=1 b=1 weight 1/2
w2: a=1 b=0 weight 1/4
w3: a=0 b=1 weight 1/4
CANDIDATES:
A: a
B: b
TWIN: a
NAB: ~a | ~b
NA: ~a
"""

# Cascades whose one ticket left able to win falls short of the level:
# the one-ticket independent lottery without ``some_wins``, whose lose
# statement misses 19/20 and whose ticket then has 1/10, and a biased
# three-ticket lottery without L3, where wins_2 has 25/49 after L1 while
# wins_3, which no candidate names, keeps 24/49.
ONE_TICKET_BASE = """\
ATOMS: wins_1
WORLDS:
w1: wins_1=0 weight 9/10
w2: wins_1=1 weight 1/10
CANDIDATES:
L1: ~wins_1
"""
TWO_OF_THREE_BASE = """\
ATOMS: wins_1 wins_2 wins_3
WORLDS:
w1: wins_1=1 wins_2=0 wins_3=0 weight 1/50
w2: wins_1=0 wins_2=1 wins_3=0 weight 1/2
w3: wins_1=0 wins_2=0 wins_3=1 weight 12/25
BACKGROUND:
(wins_1 | wins_2 | wins_3) & ~(wins_1 & wins_2) & ~(wins_1 & wins_3) & ~(wins_2 & wins_3)
CANDIDATES:
L1: ~wins_1
L2: ~wins_2
"""

# A world weight with a zero denominator: an input error naming its line.
ZERO_WEIGHT_BASE = PAIR_BASE.replace("w2: a=0 weight 1/2", "w2: a=0 weight 1/0")

# The pair saved with a UTF-8 byte-order mark, which reads as the pair, and
# with a repeated world label, an input error naming its line.
MARKED_BASE = "\ufeff" + PAIR_BASE
TWO_LABEL_BASE = PAIR_BASE.replace("w2:", "w1:")

# The pair with an atom name and with a candidate label outside the name
# grammar: input errors naming the line of the name.
BAD_ATOM_BASE = PAIR_BASE.replace("ATOMS: a", "ATOMS: a 9x")
BAD_LABEL_BASE = PAIR_BASE.replace("NA:", "1bad:")

# The pair with a candidate over an atom the model lacks, and with a
# background formula below probability 1: the base refuses each, and the
# error names the formula's line.
UNKNOWN_ATOM_BASE = PAIR_BASE.replace("NA: ~a", "NB: ~b")
UNCERTAIN_BASE = PAIR_BASE.replace("CANDIDATES:", "BACKGROUND:\na\nCANDIDATES:")

# Two worlds share a weight and two have weights of their own, over three
# denominators whose lcm is 12.
MIXED_WEIGHTS_BASE = """\
ATOMS: a b
WORLDS:
w1: a=1 b=1 weight 1/4
w2: a=1 b=0 weight 1/4
w3: a=0 b=1 weight 1/3
w4: a=0 b=0 weight 1/6
CANDIDATES:
A: a
NB: ~b
AB: a | b
"""

# Four weights of about 2,500 digits each, 1/(2p), (p-1)/(2p), 1/(2r) and
# (r-1)/(2r) for p = 10**2500 + 1 and r = 10**2500 + 3: each fits the
# default digit limit of 4,300, their common denominator 2pr does not.
_P, _R = 10**2500 + 1, 10**2500 + 3
DIGIT_LIMIT_BASE = (
    "ATOMS: a b\nWORLDS:\n"
    f"w1: a=1 b=1 weight 1/{2 * _P}\n"
    f"w2: a=1 b=0 weight {_P - 1}/{2 * _P}\n"
    f"w3: a=0 b=1 weight 1/{2 * _R}\n"
    f"w4: a=0 b=0 weight {_R - 1}/{2 * _R}\n"
    "CANDIDATES:\nA: a\nNB: ~b\n"
)

# A background whose canonical form exceeds the key-length limit: a
# 30-link biconditional chain over 30 atoms.
_CHAIN_ATOMS = [f"a{i}" for i in range(30)]
CHAIN_BASE = (
    f"ATOMS: {' '.join(_CHAIN_ATOMS)}\n"
    "WORLDS:\n"
    f"w1: {' '.join(name + '=1' for name in _CHAIN_ATOMS)} weight 1\n"
    "BACKGROUND:\n"
    f"{' <-> '.join(_CHAIN_ATOMS)}\n"
    "CANDIDATES:\n"
    "A: a0\n"
)


def _pairs_base(k: int, grouped: bool) -> str:
    """k contrary pairs ``x_i, ~x_i`` over all 2^k worlds of k atoms, equally
    weighted, written interleaved (``x0, ~x0, x1, ...``) or grouped
    (``x0, x1, ..., ~x0, ~x1, ...``): at 1/2 all 2k candidates are
    accepted, with k MUSes of size 2 and 2^k MCSes, so the exhaustive
    ``diagnose`` reads 2^k MCSes off the worlds and shrinks k seeds."""
    atoms = [f"x{i}" for i in range(k)]
    positives = [f"P{i}: {name}\n" for i, name in enumerate(atoms)]
    negatives = [f"N{i}: ~{name}\n" for i, name in enumerate(atoms)]
    if grouped:
        candidates = positives + negatives
    else:
        candidates = [line for pair in zip(positives, negatives) for line in pair]
    return (
        f"ATOMS: {' '.join(atoms)}\n"
        "WORLDS:\n"
        + "".join(
            f"w{w}: {' '.join(f'{name}={w >> i & 1}' for i, name in enumerate(atoms))}"
            f" weight 1/{2**k}\n"
            for w in range(2**k)
        )
        + "CANDIDATES:\n"
        + "".join(candidates)
    )


# Six pairs interleaved (64 MCSes) and seven grouped (128 MCSes).
PAIRS_BASE = _pairs_base(6, grouped=False)
GROUPED_PAIRS_BASE = _pairs_base(7, grouped=True)

def _two_lotteries_base(k: int, l: int, b_first: bool = False) -> str:
    """Two fair one-winner lotteries in one model, of k tickets (atoms
    ``a1..ak``) and l (``b1..bl``): one world per pair of winners, each of
    weight 1/(k·l), and each lottery's background line written as
    ``lottery`` writes one, so that it reads back as an ``exactly_one``.
    The model lists every valuation that satisfies the two, so every
    query is answered from masks.  Candidates are the lose statements
    ``A_i: ~a_i`` and ``B_j: ~b_j``, the a-lottery's first unless
    ``b_first``."""
    a = [f"a{i}" for i in range(1, k + 1)]
    b = [f"b{j}" for j in range(1, l + 1)]

    def one_winner(names: list[str]) -> str:
        pairs = [f"~({x} & {y})" for i, x in enumerate(names) for y in names[i + 1:]]
        return " & ".join([f"({' | '.join(names)})", *pairs]) + "\n"

    def loses(names: list[str]) -> list[str]:
        return [f"{name.upper()}: ~{name}\n" for name in names]

    return (
        f"ATOMS: {' '.join(a + b)}\n"
        "WORLDS:\n"
        + "".join(
            f"w{i * l + j + 1}: "
            + " ".join(f"{x}={int(x == wa)}" for x in a)
            + " "
            + " ".join(f"{y}={int(y == wb)}" for y in b)
            + f" weight 1/{k * l}\n"
            for i, wa in enumerate(a)
            for j, wb in enumerate(b)
        )
        + "BACKGROUND:\n"
        + one_winner(a)
        + one_winner(b)
        + "CANDIDATES:\n"
        + "".join(loses(b) + loses(a) if b_first else loses(a) + loses(b))
    )


# Lotteries of 8 and 9 tickets: at 1/8 all 17 lose statements are
# accepted, with 72 MCSes and two MUSes, of 8 and 9.  Lotteries of 21 and
# 30 tickets, in both candidate orders: at 1/21 all 51 are accepted,
# beyond the cap, and the deletion shrink finds the MUS of the lottery
# whose statements come last.
TWO_LOTTERIES_BASE = _two_lotteries_base(8, 9)
WIDE_LOTTERIES_BASE = _two_lotteries_base(21, 30)
WIDE_LOTTERIES_B_FIRST_BASE = _two_lotteries_base(21, 30, b_first=True)

# A fair 5-ticket lottery as ``lottery fair --n 5`` writes it, but with its
# first pair written the other way round, ``~(wins_2 & wins_1)``: the
# background is no longer the text of an ``exactly_one``, so it is read as
# a generic formula.
_TICKETS = [f"wins_{i}" for i in range(1, 6)]
_PAIRS = [f"~({a} & {b})" for i, a in enumerate(_TICKETS) for b in _TICKETS[i + 1:]]
_PAIRS[0] = "~(wins_2 & wins_1)"
SWAPPED_BASE = (
    f"ATOMS: {' '.join(_TICKETS)}\n"
    "WORLDS:\n"
    + "".join(
        f"w{i}: {' '.join(f'{a}={int(a == winner)}' for a in _TICKETS)} weight 1/5\n"
        for i, winner in enumerate(_TICKETS, 1)
    )
    + "BACKGROUND:\n"
    + " & ".join([f"({' | '.join(_TICKETS)})", *_PAIRS]) + "\n"
    + "CANDIDATES:\n"
    + "".join(f"L{i}: ~{a}\n" for i, a in enumerate(_TICKETS, 1))
)

# name -> text of the belief-base files written by hand
HAND_BASES = {
    "pair.bb": PAIR_BASE,
    "nested.bb": NESTED_BASE,
    "shared.bb": SHARED_BASE,
    "twin.bb": TWIN_BASE,
    "cycle.bb": CYCLE_BASE,
    "chain.bb": CHAIN_BASE,
    "pairs.bb": PAIRS_BASE,
    "grouped_pairs.bb": GROUPED_PAIRS_BASE,
    "swapped.bb": SWAPPED_BASE,
    "zero_weight.bb": ZERO_WEIGHT_BASE,
    "marked.bb": MARKED_BASE,
    "two_label.bb": TWO_LABEL_BASE,
    "bad_atom.bb": BAD_ATOM_BASE,
    "bad_label.bb": BAD_LABEL_BASE,
    "unknown_atom.bb": UNKNOWN_ATOM_BASE,
    "uncertain.bb": UNCERTAIN_BASE,
    "mixed_weights.bb": MIXED_WEIGHTS_BASE,
    "digit_limit.bb": DIGIT_LIMIT_BASE,
    "two_lotteries.bb": TWO_LOTTERIES_BASE,
    "wide_lotteries.bb": WIDE_LOTTERIES_BASE,
    "wide_lotteries_b_first.bb": WIDE_LOTTERIES_B_FIRST_BASE,
    "one_ticket.bb": ONE_TICKET_BASE,
    "two_of_three.bb": TWO_OF_THREE_BASE,
}


def report_commands() -> list[list[str]]:
    """Commands whose report exists in text and ``--json`` form."""
    out: list[list[str]] = []
    for name, (_, eps) in BASES.items():
        for policy in ("threshold", "lehrer", "cascade"):
            out.append(["accept", "--policy", policy, "--epsilon", eps, name])
        for policy in ("sequential", "teng"):
            for order in ("natural", "reverse"):
                out.append(["accept", "--policy", policy, "--epsilon", eps,
                            "--order", order, name])
        out.append(["--strict-threshold", "accept", "--policy", "threshold",
                    "--epsilon", eps, name])
        out.append(["diagnose", "--epsilon", eps, name])
        out.append(["closure", "--epsilon", eps, name])
    for policy in ("sequential", "teng"):
        for name, order in SHUFFLED_ORDERS.items():
            out.append(["accept", "--policy", policy, "--epsilon", BASES[name][1],
                        "--order", order, name])
        out.append(["extensions", "--policy", policy, "--epsilon", "1/3", "fair_3.bb"])
        out.append(["--seed", "7", "extensions", "--policy", policy, "--epsilon",
                    "1/12", "--max-permutations", "40", "fair_12.bb"])
    # a tie between contraries: threshold takes both sides, Lehrer neither
    for policy in ("threshold", "lehrer"):
        out.append(["accept", "--policy", policy, "--epsilon", "1/2", "pair.bb"])
    for order in ("natural", "reverse"):
        out.append(["accept", "--policy", "sequential", "--epsilon", "1/2",
                    "--order", order, "pair.bb"])
        out.append(["accept", "--policy", "sequential", "--epsilon", "3/4",
                    "--order", order, "shared.bb"])
        out.append(["accept", "--policy", "sequential", "--epsilon", "3/4",
                    "--order", order, "twin.bb"])
    # one formula under two labels
    for policy in ("threshold", "lehrer"):
        out.append(["accept", "--policy", policy, "--epsilon", "3/4", "twin.bb"])
    for policy in ("sequential", "teng"):
        out.append(["extensions", "--policy", policy, "--epsilon", "3/4", "twin.bb"])
    out += [
        ["diagnose", "--epsilon", "1/2", "pair.bb"],
        ["diagnose", "--epsilon", "1/2", "nested.bb"],
        ["--max-candidates", "1", "diagnose", "--epsilon", "1/2", "nested.bb"],
        ["diagnose", "--epsilon", "3/4", "shared.bb"],
        ["--max-candidates", "1", "diagnose", "--epsilon", "3/4", "shared.bb"],
        ["diagnose", "--epsilon", "1/3", "cycle.bb"],
        ["diagnose", "--epsilon", "1/2", "pairs.bb"],
        ["diagnose", "--epsilon", "1/2", "grouped_pairs.bb"],
        ["--max-candidates", "2", "diagnose", "--epsilon", "1/3", "cycle.bb"],
        ["accept", "--policy", "lehrer", "--epsilon", "1/3", "cycle.bb"],
        ["accept", "--policy", "sequential", "--epsilon", "1/3", "--order", "reverse",
         "cycle.bb"],
        ["extensions", "--policy", "sequential", "--epsilon", "1/3", "cycle.bb"],
        ["--max-candidates", "5", "diagnose", "--epsilon", "1/12", "fair_12.bb"],
        # a model that lists every valuation, with an inconsistent accepted
        # set (7 accepted, one MUS of all 7), exhaustive and beyond the cap
        ["diagnose", "--epsilon", "3/5", "independent_6.bb"],
        ["--max-candidates", "5", "diagnose", "--epsilon", "3/5", "independent_6.bb"],
        ["--max-candidates", "21", "diagnose", "--epsilon", "1/3", "fair_3.bb"],
        ["--max-candidates", "0", "diagnose", "--epsilon", "1/3", "fair_3.bb"],
        ["--max-candidates", "25", "diagnose", "--epsilon", "1/100", "fair_100.bb"],
        ["accept", "--policy", "threshold", "--epsilon", "1/300", "fair_300.bb"],
        # two lotteries in one model, exhaustive and beyond the cap in both
        # candidate orders
        ["diagnose", "--epsilon", "1/8", "two_lotteries.bb"],
        ["diagnose", "--epsilon", "1/21", "wide_lotteries.bb"],
        ["diagnose", "--epsilon", "1/21", "wide_lotteries_b_first.bb"],
        # a one-winner background with one pair swapped, read generically
        ["accept", "--policy", "threshold", "--epsilon", "1/5", "swapped.bb"],
        ["diagnose", "--epsilon", "1/5", "swapped.bb"],
        ["accept", "--policy", "threshold", "--epsilon", "1/2", "mixed_weights.bb"],
        ["closure", "--epsilon", "1/2", "--labels", "A,AB", "mixed_weights.bb"],
        ["accept", "--policy", "threshold", "--epsilon", "1/2", "digit_limit.bb"],
        ["diagnose", "--epsilon", "1/2", "digit_limit.bb"],
        ["closure", "--epsilon", "1/3", "--labels", "L1,L2", "fair_3.bb"],
        ["closure", "--epsilon", "1/3", "--labels", "L9", "fair_3.bb"],
        ["closure", "--epsilon", "1/3", "--labels", "L1,L2,L3", "--conclusion",
         "wins_1 | wins_2", "fair_3.bb"],
        ["closure", "--epsilon", "1/100", "--labels", "L1,L2", "--conclusion",
         "~wins_3", "fair_100.bb"],
        # an unknown atom in the conclusion, entailed or not
        ["closure", "--epsilon", "1/3", "--labels", "L1", "--conclusion", "zz",
         "fair_3.bb"],
        ["closure", "--epsilon", "1/3", "--labels", "L1", "--conclusion", "zz | ~zz",
         "fair_3.bb"],
        ["stat", "binom", "--n", "100", "--p0", "1/2", "--epsilon", "1/100"],
        ["stat", "binom", "--n", "100", "--p0", "1/2", "--epsilon", "1/100",
         "--observed", "30", "--combine-with", "1/100,1/50"],
        ["stat", "binom", "--n", "400", "--p0", "1/3", "--epsilon", "1/20",
         "--sided", "upper", "--observed", "170"],
        ["stat", "binom", "--n", "1000", "--p0", "1/10", "--epsilon", "1/10",
         "--sided", "lower", "--observed", "70"],
        ["stat", "binom", "--n", "2001", "--p0", "1/2", "--epsilon", "1/100"],
        ["stat", "binom", "--n", "1000", "--p0", "1/100003", "--epsilon", "1/100",
         "--observed", "5"],
    ]
    return out


def commands() -> list[list[str]]:
    out: list[list[str]] = []
    for argv in report_commands():
        out += [argv, ["--json", *argv]]
    out += [
        ["lottery", "fair", "--n", "4"],
        ["lottery", "biased", "--weights", "1/10,9/10"],
        ["lottery", "independent", "--n", "3", "--p", "1/2"],
        ["lottery", "independent", "--n", "13", "--p", "1/5"],
        ["lottery", "independent", "--n", "16", "--p", "1/3"],
        ["lottery", "biased", "--weights", "0,1/2,1/2"],
        ["lottery", "biased", "--weights", "1/2,1/3,1/6"],
        # a common denominator of 6,001 digits, from a --p of 3,001
        ["lottery", "independent", "--n", "2", "--p", f"1/{10**3000 + 1}"],
        ["lottery", "fair"],
        ["lottery", "fair", "--n", "301"],
        ["lottery", "independent", "--n", "17", "--p", "1/10"],
        # lottery writes text, not a report, even under --json
        ["--json", "lottery", "fair", "--n", "3"],
        ["--json", "lottery", "fair", "--n", "3", "--out", "json_fair_3.bb"],
        ["extensions", "--policy", "sequential", "--epsilon", "1/3",
         "--max-permutations", "5041", "fair_3.bb"],
        # every order of 7 tickets, over a background that the file reads
        # back as an exactly_one, so that each order is answered from masks
        ["extensions", "--policy", "sequential", "--epsilon", "1/7",
         "--max-permutations", "5040", "fair_7.bb"],
        # a cascade that accepts two lose-statements, then that the one
        # ticket still able to win wins
        ["accept", "--policy", "cascade", "--epsilon", "1/10", "biased_3.bb"],
        # cascades whose one ticket left able to win misses the level
        ["accept", "--policy", "cascade", "--epsilon", "1/20", "one_ticket.bb"],
        ["accept", "--policy", "cascade", "--epsilon", "1/10", "two_of_three.bb"],
        ["accept", "--policy", "teng", "--epsilon", "1/3", "fair_3.bb"],
        ["accept", "--policy", "threshold", "--epsilon", "1/3", "--order",
         "natural", "fair_3.bb"],
        ["accept", "--policy", "nope", "--epsilon", "1/3", "fair_3.bb"],
        ["accept", "--policy", "threshold", "--epsilon", "0.3", "fair_3.bb"],
        # digits of another script are no rational
        ["accept", "--policy", "threshold", "--epsilon", "١/٣", "fair_3.bb"],
        ["accept", "--policy", "threshold", "--epsilon", "1/3", "missing.bb"],
        ["accept", "--policy", "threshold", "--epsilon", "1/2", "chain.bb"],
        # zero denominators, one per option that reads a rational
        ["accept", "--policy", "threshold", "--epsilon", "1/0", "fair_3.bb"],
        ["accept", "--policy", "threshold", "--epsilon", "1/2", "zero_weight.bb"],
        # a byte-order mark, and a repeated world label
        ["accept", "--policy", "threshold", "--epsilon", "1/2", "marked.bb"],
        ["accept", "--policy", "threshold", "--epsilon", "1/2", "two_label.bb"],
        # an atom name and a candidate label outside the name grammar
        ["accept", "--policy", "threshold", "--epsilon", "1/2", "bad_atom.bb"],
        ["accept", "--policy", "threshold", "--epsilon", "1/2", "bad_label.bb"],
        # a formula the base refuses: an unknown atom, a background below 1
        ["accept", "--policy", "threshold", "--epsilon", "1/2", "unknown_atom.bb"],
        ["accept", "--policy", "threshold", "--epsilon", "1/2", "uncertain.bb"],
        ["lottery", "biased", "--weights", "1/0,1"],
        ["lottery", "independent", "--n", "3", "--p", "1/0"],
        ["stat", "binom", "--n", "10", "--p0", "1/0", "--epsilon", "1/10"],
        ["stat", "binom", "--n", "100", "--p0", "1/2", "--epsilon", "1/100",
         "--observed", "30", "--combine-with", "1/0"],
        # bad --combine-with levels where the test does not reject
        ["stat", "binom", "--n", "100", "--p0", "1/2", "--epsilon", "1/100",
         "--combine-with", "abc"],
        ["stat", "binom", "--n", "100", "--p0", "1/2", "--epsilon", "1/100",
         "--observed", "50", "--combine-with", "7/2"],
        # a repeated premise label
        ["closure", "--epsilon", "1/3", "--labels", "L1,L1", "fair_3.bb"],
        # empty option values
        ["closure", "--epsilon", "1/3", "--labels", "", "fair_3.bb"],
        ["closure", "--epsilon", "1/3", "--labels", "L1", "--conclusion", "",
         "fair_3.bb"],
        ["stat", "binom", "--n", "10", "--p0", "1/2", "--epsilon", "1/10",
         "--observed", "0", "--combine-with", ""],
        # levels that each fit the digit limit, combined floors that do not
        ["stat", "binom", "--n", "100", "--p0", "1/2", "--epsilon", "1/100",
         "--observed", "30", "--combine-with",
         ",".join(f"1/{10**2000 + d}" for d in (1, 3, 7))],
        # empty items in --labels
        ["closure", "--epsilon", "1/3", "--labels", "L1,,L2", "fair_3.bb"],
        ["closure", "--epsilon", "1/3", "--labels", "L1,", "fair_3.bb"],
        # an empty and a repeated item in --order
        ["accept", "--policy", "sequential", "--epsilon", "1/3", "--order",
         "L1,,L2,L3,", "fair_3.bb"],
        ["accept", "--policy", "teng", "--epsilon", "1/3", "--order", "L1,L1,L2",
         "fair_3.bb"],
        # seeds at and past the ends of the u64 range, on a sampled run
        ["--seed", "-7", "extensions", "--policy", "sequential", "--epsilon",
         "1/12", "--max-permutations", "40", "fair_12.bb"],
        ["--seed", str(2**64), "extensions", "--policy", "sequential", "--epsilon",
         "1/12", "--max-permutations", "40", "fair_12.bb"],
        ["--seed", str(2**64 - 1), "extensions", "--policy", "sequential", "--epsilon",
         "1/12", "--max-permutations", "40", "fair_12.bb"],
        # a policy that takes no order, offered where only ordered ones are
        ["extensions", "--policy", "threshold", "--epsilon", "1/3", "fair_3.bb"],
        # the trial cap, at a p0 with long exact terms, once per sidedness
        ["stat", "binom", "--n", "2000", "--p0", "7/100", "--epsilon", "1/100",
         "--observed", "100", "--combine-with", "1/100,1/50"],
        ["--json", "stat", "binom", "--n", "2000", "--p0", "7/100", "--epsilon",
         "1/100", "--sided", "upper", "--observed", "180"],
        ["stat", "binom", "--n", "2000", "--p0", "7/100", "--epsilon", "1/100",
         "--sided", "lower"],
        # a region too small to reject any count
        ["stat", "binom", "--n", "1", "--p0", "1/2", "--epsilon", "1/10"],
        ["--version"],
        ["--help"],
        ["accept", "--help"],
        ["diagnose", "--help"],
        ["extensions", "--help"],
        ["lottery", "--help"],
        ["closure", "--help"],
        ["stat", "--help"],
        ["stat", "binom", "--help"],
    ]
    return out


# runs one command in a directory: (exit code, stdout bytes, stderr bytes)
Runner = Callable[[str, list[str]], tuple[int, bytes, bytes]]


def subprocess_runner(checkout: str) -> Runner:
    """Run each command as a fresh ``python -B -S -m probaccept`` on the
    checkout's ``src``."""
    src = os.path.join(os.path.abspath(checkout), "src")
    env = {"PYTHONHASHSEED": "0", "PYTHONPATH": src, "PATH": os.environ.get("PATH", "")}

    def run(workdir: str, argv: list[str]) -> tuple[int, bytes, bytes]:
        done = subprocess.run(
            [sys.executable, "-B", "-S", "-m", "probaccept", *argv],
            cwd=workdir, env=env, capture_output=True, timeout=300,
        )
        return done.returncode, done.stdout, done.stderr

    return run


def records(run: Runner) -> list[dict]:
    """The record of every command, the set-up ``lottery`` commands first,
    run by ``run`` in a fresh directory that holds the hand-written bases."""
    out = []
    with tempfile.TemporaryDirectory() as workdir:
        for name, text in HAND_BASES.items():
            with open(os.path.join(workdir, name), "w", encoding="utf-8") as handle:
                handle.write(text)
        setup = [[*argv, "--out", name] for name, (argv, _) in BASES.items()]
        setup += [[*argv, "--out", name] for name, argv in SINGLE_USE_BASES.items()]
        for argv in setup + commands():
            code, stdout, stderr = run(workdir, argv)
            out.append({
                "argv": argv,
                "exit": code,
                "stdout_sha256": hashlib.sha256(stdout).hexdigest(),
                "stderr_sha256": hashlib.sha256(stderr).hexdigest(),
            })
            if "--out" in argv:
                with open(os.path.join(workdir, argv[-1]), "rb") as handle:
                    out[-1]["out_sha256"] = hashlib.sha256(handle.read()).hexdigest()
    return out


def fingerprint(checkout: str) -> dict:
    """The checkout's records as subprocesses, under this interpreter's version."""
    found = records(subprocess_runner(checkout))
    return {"python": platform.python_version(), "records": found}


# the widest argv that ``--compare`` prints in full
SHOWN_WIDTH = 100


def load(path: str) -> dict:
    """A fingerprint file: ``{"python": version, "records": [...]}``."""
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _by_argv(records: list[dict]) -> dict[str, tuple[int, dict]]:
    """Each record, with its position in the list, by its whole argv."""
    return {" ".join(r["argv"]): (i, r) for i, r in enumerate(records)}


def _shown(position: int, command: str) -> str:
    if len(command) > SHOWN_WIDTH:
        command = command[: SHOWN_WIDTH - 3] + "..."
    return f"#{position}: {command}"


def differences(before_records: list[dict], after_records: list[dict]) -> list[str]:
    """One line per command whose record differs, then a count line."""
    before, after = _by_argv(before_records), _by_argv(after_records)
    lines = []
    # the commands in the order of BEFORE, then those only in AFTER
    for command in [*before, *(c for c in after if c not in before)]:
        if command not in before or command not in after:
            where, found = ("after", after) if command in after else ("before", before)
            lines.append(f"only in {where}: {_shown(found[command][0], command)}")
            continue
        (position, old), (_, new) = before[command], after[command]
        fields = [
            k for k in ("exit", "stdout_sha256", "stderr_sha256", "out_sha256")
            if old.get(k) != new.get(k)
        ]
        if fields:
            lines.append(f"differs ({', '.join(fields)}): {_shown(position, command)}")
    lines.append(f"{len(lines)} of {len(before.keys() | after.keys())} commands differ")
    return lines


def compare(before_path: str, after_path: str) -> int:
    before, after = load(before_path), load(after_path)
    if before["python"] != after["python"]:
        print(f"written by Python {before['python']} before and {after['python']} after")
    lines = differences(before["records"], after["records"])
    print("\n".join(lines))
    return 1 if len(lines) > 1 else 0


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--compare":
        return compare(argv[1], argv[2])
    if len(argv) == 2 and not argv[0].startswith("-"):
        found = fingerprint(argv[0])
        with open(argv[1], "w", encoding="utf-8") as handle:
            json.dump(found, handle, indent=1)
            handle.write("\n")
        print(f"{len(found['records'])} commands fingerprinted into {argv[1]}")
        return 0
    print(__doc__.split("\n\n")[1], file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Independent oracles and generators shared by the test modules.

The oracles deliberately avoid the library's decision procedures: truth
tables for satisfiability, direct definition checks for MUS/MCS, plain
tail summation for binomial sizes and greedy tails for rejection
regions, per-world sums for mask weights.
They are the reference the fast paths are judged against.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, product

from probaccept import (
    BeliefBase,
    Formula,
    FormulaSet,
    WorldModel,
    atom,
    conj,
    disj,
    exactly_one,
    iff,
    implies,
    neg,
)


def evaluate(f: Formula, assignment) -> bool:
    """Truth value of ``f`` under a total assignment of its atoms."""
    op = f.op
    if op == "atom":
        return bool(assignment[f.name])
    if op == "not":
        return not evaluate(f.args[0], assignment)
    if op == "and":
        return all(evaluate(a, assignment) for a in f.args)
    if op == "or":
        return any(evaluate(a, assignment) for a in f.args)
    if op == "implies":
        return (not evaluate(f.args[0], assignment)) or evaluate(f.args[1], assignment)
    return evaluate(f.args[0], assignment) == evaluate(f.args[1], assignment)


def canonical(f: Formula, positive: bool = True):
    """The canonical form of ``f`` (or of its negation), with no ordering:
    negation normal form straight from the tree, literals as
    ``(name, polarity)``, ``and``/``or`` nodes as ``(tag, frozenset)``
    with same-tag children flattened into them and a single child
    standing for itself.  Two formulas are equal exactly when these are."""
    op = f.op
    if op == "atom":
        return (f.name, positive)
    if op == "not":
        return canonical(f.args[0], not positive)
    if op in ("and", "or"):
        tag = op if positive else {"and": "or", "or": "and"}[op]
        return _gathered(tag, (canonical(a, positive) for a in f.args))
    left, right = f.args
    if op == "implies":
        if positive:
            return _gathered("or", (canonical(left, False), canonical(right, True)))
        return _gathered("and", (canonical(left, True), canonical(right, False)))
    return _gathered("or", (
        _gathered("and", (canonical(left, True), canonical(right, positive))),
        _gathered("and", (canonical(left, False), canonical(right, not positive))),
    ))


def _gathered(tag: str, parts):
    children: set = set()
    for part in parts:
        if part[0] == tag and isinstance(part[1], frozenset):
            children |= part[1]
        else:
            children.add(part)
    if len(children) == 1:
        return next(iter(children))
    return (tag, frozenset(children))


def truth_table_satisfiable(formulas) -> bool:
    """Exhaustive-enumeration satisfiability; exponential, small inputs only."""
    formulas = list(formulas)
    names = sorted(set().union(*(f.atoms() for f in formulas))) if formulas else []
    for bits in product((False, True), repeat=len(names)):
        assignment = dict(zip(names, bits))
        if all(evaluate(f, assignment) for f in formulas):
            return True
    return False


def _keyset(formulas) -> frozenset[str]:
    return frozenset(f.canonical_key for f in formulas)


def _truth_table_test(members, background):
    """Whether the members at some indices are satisfiable together with
    ``background``, by one truth table over every atom of both: the rows
    of the valuations that satisfy the background, each with the truth
    value of every member.  An atom no formula of a subset mentions does
    not change whether it is satisfiable, so this answers as
    ``truth_table_satisfiable`` of the background and the subset."""
    names = sorted(set().union(*(f.atoms() for f in [*background, *members])))
    rows = []
    for bits in product((False, True), repeat=len(names)):
        assignment = dict(zip(names, bits))
        if all(evaluate(f, assignment) for f in background):
            rows.append([evaluate(m, assignment) for m in members])
    return lambda indices: any(all(row[i] for i in indices) for row in rows)


def brute_minimal_unsat_subsets(candidates, background) -> set[frozenset[str]]:
    members = list(FormulaSet(candidates))
    satisfiable = _truth_table_test(members, list(background))
    out: set[frozenset[str]] = set()
    for size in range(1, len(members) + 1):
        for combo in combinations(range(len(members)), size):
            if satisfiable(combo):
                continue
            if all(satisfiable([j for j in combo if j != i]) for i in combo):
                out.add(_keyset(members[i] for i in combo))
    return out


def brute_maximal_consistent_subsets(candidates, background) -> set[frozenset[str]]:
    members = list(FormulaSet(candidates))
    satisfiable = _truth_table_test(members, list(background))
    out: set[frozenset[str]] = set()
    for size in range(len(members), -1, -1):
        for combo in combinations(range(len(members)), size):
            if not satisfiable(combo):
                continue
            excluded = [j for j in range(len(members)) if j not in combo]
            if all(not satisfiable([*combo, e]) for e in excluded):
                out.add(_keyset(members[i] for i in combo))
    return out


def brute_min_cover_over_consistent_subsets(candidates, background) -> int:
    """Minimum number of background-consistent subsets (arbitrary, not
    just maximal) that jointly cover every candidate."""
    members = list(FormulaSet(candidates))
    background = list(background)
    n = len(members)
    if n == 0:
        return 1
    consistent = [
        frozenset(combo)
        for size in range(1, n + 1)
        for combo in combinations(range(n), size)
        if truth_table_satisfiable(background + [members[i] for i in combo])
    ]
    universe = frozenset(range(n))
    for k in range(1, n + 1):
        for pick in combinations(consistent, k):
            if frozenset().union(*pick) == universe:
                return k
    raise AssertionError("some candidate is individually unsatisfiable")


# Formula texts over the atom ``a`` nested far past the parser's limit, one
# per kind of nesting it counts.
DEEP_NESTING_PROBES = {
    "parentheses": "(" * 200 + "a" + ")" * 200,
    "negations": "~" * 1000 + "a",
    "implications": " -> ".join(["a"] * 600),
    "biconditionals": " <-> ".join(["a"] * 1200),
}

# A 30-link biconditional chain over ``a``, well inside the nesting limit.
# Its canonical form would double with each link, to billions of characters.
LONG_BICONDITIONAL_CHAIN = " <-> ".join(["a"] * 30)

def past_digit_limit_weights(digits: int) -> list[Fraction]:
    """Four weights, 1/(2p), (p-1)/(2p), 1/(2r) and (r-1)/(2r) for
    p = 10**k + 1, r = 10**k + 3 and k = digits // 2 + 1: each has fewer
    than ``digits`` digits, and their common denominator 2pr has more."""
    k = digits // 2 + 1
    p, r = 10**k + 1, 10**k + 3
    return [Fraction(1, 2 * p), Fraction(p - 1, 2 * p), Fraction(1, 2 * r), Fraction(r - 1, 2 * r)]


def past_digit_limit_base(digits: int) -> str:
    """A base file over atoms a, b with the four worlds weighted by
    ``past_digit_limit_weights``; the candidate NB, ~b, has a probability
    over their whole common denominator."""
    worlds = zip(product((1, 0), repeat=2), past_digit_limit_weights(digits))
    return (
        "ATOMS: a b\nWORLDS:\n"
        + "".join(
            f"w{i}: a={a} b={b} weight {w}\n" for i, ((a, b), w) in enumerate(worlds, start=1)
        )
        + "CANDIDATES:\nA: a\nNB: ~b\n"
    )


def pigeonhole_base(holes: int) -> str:
    """A base file of n + 1 pigeons and n holes, with no world that seats
    them all.  The atoms ``p{i}_{h}`` (pigeon i in hole h, both from 1) run
    pigeon-major; world ``w{j}`` leaves pigeon j out and seats the others
    in holes 1..n in order, each world of weight 1/(n + 1).  The
    candidates ``c0``, ``c1``, ... are first each pigeon's "in some hole"
    clause, then ``~p{a}_{h} | ~p{b}_{h}`` for each hole h and pair a < b.
    Every candidate has probability 1 - 1/(n + 1) or more, and the whole
    set is unsatisfiable, which only a search shows."""
    pigeons, slots = range(1, holes + 2), range(1, holes + 1)
    lines = ["ATOMS: " + " ".join(f"p{i}_{h}" for i in pigeons for h in slots), "WORLDS:"]
    for j in pigeons:
        seat = dict(zip([i for i in pigeons if i != j], slots))
        row = " ".join(f"p{i}_{h}={int(seat.get(i) == h)}" for i in pigeons for h in slots)
        lines.append(f"w{j}: {row} weight 1/{holes + 1}")
    clauses = [" | ".join(f"p{i}_{h}" for h in slots) for i in pigeons]
    clauses += [
        f"~p{a}_{h} | ~p{b}_{h}" for h in slots for a, b in combinations(pigeons, 2)
    ]
    lines += ["CANDIDATES:", *(f"c{k}: {clause}" for k, clause in enumerate(clauses))]
    return "\n".join(lines) + "\n"


# Nine formulas over a0..a7, each satisfiable in well under a millisecond.
# A subset search that also branched on the variables of the members left
# out of each query took more than 60 s to list their minimal
# unsatisfiable subsets.
BRANCHING_PROBE = (
    "a2",
    "a7",
    "(a0 & a1 | a3 & a3 & a0) & a4 & (a6 <-> a2 <-> a5)",
    "a2 <-> a2 <-> ~a7 <-> (a2 <-> a7)",
    "~(~a0 | a4 | a1)",
    "a1 <-> (a3 <-> a4 <-> (a7 <-> a3))",
    "a7 & (a1 & a3 & a4) & (a2 & a4 & a2) | (a2 -> a3) & a6",
    "(a5 | a7) & ~a6 & (a4 <-> a1) -> a3",
    "~a4",
)


def random_formula(rng, names, depth: int = 3) -> Formula:
    if depth == 0 or rng.random() < 0.3:
        return atom(rng.choice(names))
    op = rng.choice(("not", "and", "or", "implies", "iff"))
    if op == "not":
        return neg(random_formula(rng, names, depth - 1))
    if op in ("and", "or"):
        parts = [random_formula(rng, names, depth - 1) for _ in range(rng.randint(2, 3))]
        return conj(*parts) if op == "and" else disj(*parts)
    left = random_formula(rng, names, depth - 1)
    right = random_formula(rng, names, depth - 1)
    return implies(left, right) if op == "implies" else iff(left, right)


def random_model(rng, max_atoms: int = 4) -> WorldModel:
    """All valuations over a few atoms, random nonnegative rational weights."""
    m = rng.randint(1, max_atoms)
    names = list("abcdef")[:m]
    valuations = list(product((False, True), repeat=m))
    weights = [rng.randint(0, 9) for _ in valuations]
    if sum(weights) == 0:
        weights[rng.randrange(len(weights))] = 1
    total = sum(weights)
    return WorldModel(
        names, [(v, Fraction(w, total)) for v, w in zip(valuations, weights)]
    )


def lottery_missing_a_winner(n: int) -> BeliefBase:
    """An n-ticket one-winner lottery whose model lists no world for the
    last ticket: n - 1 of the n valuations that satisfy its background,
    so an empty world mask does not show that a set is unsatisfiable.
    Candidates are the lose statements ``L_i: ~wins_i``."""
    wins = [atom(f"wins_{i}") for i in range(1, n + 1)]
    worlds = [(tuple(i == j for j in range(n)), Fraction(1, n - 1)) for i in range(n - 1)]
    model = WorldModel([w.name for w in wins], worlds)
    candidates = [(f"L{i + 1}", neg(w)) for i, w in enumerate(wins)]
    return BeliefBase(model, [exactly_one(wins)], candidates)


def two_lotteries(k: int, l: int) -> BeliefBase:
    """Two fair one-winner lotteries in one model, of k tickets (atoms
    ``a1..ak``) and of l (``b1..bl``): one world per pair of winners,
    each of weight 1/(k·l), and one ``exactly_one`` per lottery as the
    background.  The model lists every valuation that satisfies the
    background.  Candidates are the lose statements ``A_i: ~a_i`` and
    ``B_j: ~b_j``."""
    names = [f"a{i}" for i in range(1, k + 1)] + [f"b{j}" for j in range(1, l + 1)]
    worlds = [
        (tuple(x == i for x in range(k)) + tuple(y == j for y in range(l)), Fraction(1, k * l))
        for i in range(k)
        for j in range(l)
    ]
    wins = [atom(name) for name in names]
    background = [exactly_one(wins[:k]), exactly_one(wins[k:])]
    candidates = [(name.upper(), neg(w)) for name, w in zip(names, wins)]
    return BeliefBase(WorldModel(names, worlds), background, candidates)


def brute_mask_weight(model: WorldModel, mask: int) -> Fraction:
    """The weight of a world mask, one Fraction addition per world in it."""
    total = Fraction(0)
    while mask:
        low = mask & -mask
        total += model.worlds[low.bit_length() - 1][1]
        mask ^= low
    return total


def binomial_tail_sum(n: int, p: Fraction, counts) -> Fraction:
    """Independent exact size computation for a set of counts."""
    return sum(
        (Fraction(math.comb(n, x)) * p**x * (1 - p) ** (n - x) for x in counts),
        Fraction(0),
    )


def binomial_region_oracle(n: int, p: Fraction, epsilon: Fraction, sided: str):
    """Rejection region and its size by the definition, on ``Fraction``
    pmf terms: each tail grows from its extreme count inward while its
    mass stays within epsilon, or within epsilon / 2 for a two-sided test."""
    pmf = [Fraction(math.comb(n, x)) * p**x * (1 - p) ** (n - x) for x in range(n + 1)]
    budget = epsilon / 2 if sided == "two_sided" else epsilon
    tails = []
    if sided != "upper":
        tails.append(range(n + 1))
    if sided != "lower":
        tails.append(range(n, -1, -1))
    region: set[int] = set()
    for tail in tails:
        mass = Fraction(0)
        for x in tail:
            if mass + pmf[x] > budget:
                break
            mass += pmf[x]
            region.add(x)
    return frozenset(region), binomial_tail_sum(n, p, region)

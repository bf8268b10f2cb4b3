"""The lottery families: fair, biased and independent ticket lotteries.

A fair n-ticket lottery, a biased one, and a product model with fully
independent tickets, each as a :class:`~probaccept.worlds.BeliefBase`.
The builders write their models' columns in closed form, hand over their
formulas canonicalised, masked and weighed, and store the base past the
constructor's checks, which their parts pass by construction, with the
closed form of its consistency solver (see ``BeliefBase``).  Among the
commands only ``lottery`` runs them, so no command on a base file loads
this module.  ``worlds`` still gives the three builders by name, through
its module ``__getattr__``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from itertools import product
from operator import or_

from .formulas import Formula, FormulaSet, _negated_atom, disj, exactly_one
from .rationals import as_fraction
from .worlds import INDEPENDENT_LOTTERY_CAP, ONE_WINNER_LOTTERY_CAP, BeliefBase, WorldModel
from .worlds import _check_plane_bits, _weight_columns

__all__ = ["fair_lottery", "biased_lottery", "independent_lottery"]


def _check_tickets(n: int, cap: int, kind: str) -> None:
    """Reject a ticket count before anything of that size is built."""
    if isinstance(n, bool) or not isinstance(n, int):  # True is no ticket count
        raise ValueError(f"ticket count must be an integer, not {n!r}")
    if n < 1:
        raise ValueError("lottery needs at least one ticket")
    if n > cap:
        raise ValueError(f"{kind} lottery capped at {cap} tickets")


def _lose_statements(n: int) -> list[Formula]:
    """The lose statements ~wins_1..~wins_n, built canonical; the argument
    of each is its ticket's win atom."""
    return [_negated_atom(f"wins_{i}") for i in range(1, n + 1)]


def _weigh_tickets(
    model: WorldModel, loses: list[Formula], masks: list[int], weights: list[Fraction]
) -> list[int]:
    """Write each ticket's win atom and lose statement into the mask and
    probability caches of ``model``, fresh from ``_from_columns``: the win
    atom of ``loses[i]`` holds on ``masks[i]`` with weight ``weights[i]``,
    so its lose statement holds on the other worlds, with the rest of the
    weight.  One ``Fraction`` is built per distinct weight, keyed by
    numerator and denominator like those of ``_weight_columns``.  Return
    the lose statements' masks."""
    full = model._full
    mask_cache, probability_cache = model._mask_cache, model._probability_cache
    rests: dict[tuple[int, int], Fraction] = {}
    for lose, mask, w in zip(loses, masks, weights):
        win = lose.args[0]._key
        mask_cache[win] = mask
        probability_cache[win] = w
        mask_cache[lose._key] = full ^ mask
        key = (w.numerator, w.denominator)
        rest = rests.get(key)
        if rest is None:
            rest = rests[key] = 1 - w
        probability_cache[lose._key] = rest
    return [mask_cache[lose._key] for lose in loses]


def biased_lottery(weights: Iterable[object]) -> BeliefBase:
    """One-winner lottery where ticket i wins with the given weight.

    Atoms wins_1..wins_n; world i makes only wins_i true.  Background is
    the single constraint that exactly one ticket wins; candidates are
    the lose statements L_i := ~wins_i.  Capped at n <= 300.

    The formulas come canonicalised, masked and weighed: each win atom
    and lose statement is built canonical by ``_negated_atom``, and the model
    holds wins_i's mask, bit i, and weight, ~wins_i's complement mask and
    weight ``(D - n_i)/D``, and the background's full mask and weight 1.
    The base's solver comes in closed form: the background holds in every
    world, so ``shared`` is the full mask, ``masks[i]`` is ~wins_i's and
    ``weights[i]`` is ``D - n_i``.
    """
    weights = tuple(weights)  # read once: it may be an iterator
    _check_tickets(len(weights), ONE_WINNER_LOTTERY_CAP, "one-winner")
    fracs = [as_fraction(w) for w in weights]
    if any(w.numerator < 0 for w in fracs):
        raise ValueError("ticket weights must be nonnegative")
    denominator, planes = _weight_columns(fracs, "ticket")
    rests = [denominator - denominator // w.denominator * w.numerator for w in fracs]
    return _one_winner(fracs, denominator, planes, rests)


def _one_winner(fracs: list[Fraction], denominator: int, planes, rests: list[int]) -> BeliefBase:
    """The one-winner lottery whose ticket i wins with weight ``fracs[i]``,
    given its common denominator ``D``, its weight planes and each lose
    statement's numerator ``rests[i]`` over ``D``."""
    n = len(fracs)
    loses = _lose_statements(n)
    wins = [lose.args[0] for lose in loses]
    # World i is the one-hot valuation of ticket i, so atom i's mask is bit i.
    masks = [1 << i for i in range(n)]
    model = WorldModel.__new__(WorldModel)._from_columns(
        tuple(a.name for a in wins),
        n,
        lambda: (
            ((False,) * i + (True,) + (False,) * (n - i - 1), w) for i, w in enumerate(fracs)
        ),
        denominator,
        planes,
        masks,
    )
    lose_masks = _weigh_tickets(model, loses, masks, fracs)
    # every world is one-hot, so the background holds in all of them
    background = exactly_one(wins)
    model._mask_cache[background.canonical_key] = model._full
    model._probability_cache[background.canonical_key] = Fraction(1)
    candidates = tuple((f"L{i}", lose) for i, lose in enumerate(loses, 1))
    return BeliefBase.__new__(BeliefBase)._store(
        model, FormulaSet._of([(background.canonical_key, background)]), candidates,
        (model._full, lose_masks, rests),
    )


def fair_lottery(n: int) -> BeliefBase:
    """Equiprobable one-winner lottery with n tickets (at most 300).

    Its weights are written in closed form: ``D = n``, every world's
    numerator 1, so one plane, the full mask, and each lose statement's
    numerator ``n - 1``."""
    _check_tickets(n, ONE_WINNER_LOTTERY_CAP, "one-winner")
    return _one_winner([Fraction(1, n)] * n, n, ((0, (1 << n) - 1),), [n - 1] * n)


def independent_lottery(n: int, p) -> BeliefBase:
    """n independent tickets, each winning with probability p.

    The model has 2**n product-weighted worlds and an empty background;
    candidates are the lose statements plus ``some_wins``, the disjunction
    that some ticket wins.  Capped at n <= 16 (the model is exponential).

    The lose statements come canonicalised, masked and weighed as in
    :func:`biased_lottery`: wins_i holds on its column mask with weight p,
    ~wins_i on the rest with weight 1 - p.  ``some_wins`` is canonicalised
    and masked by the generic walk when first asked.  The base's solver
    comes in closed form: with no background, ``shared`` is the full mask;
    ~wins_i's mask weighs ``q**(n-1) * (q - a)`` over ``D = q**n`` at
    ``p = a/q``, and ``some_wins`` holds in every world but world 0, the one
    with no winner, so its mask weighs ``D - (q - a)**n``.
    """
    _check_tickets(n, INDEPENDENT_LOTTERY_CAP, "independent")
    win_p = as_fraction(p)
    if not (0 < win_p < 1):
        raise ValueError("ticket probability must lie strictly between 0 and 1")
    count = 1 << n
    a, q = win_p.numerator, win_p.denominator
    denominator = q**n
    _check_plane_bits(denominator, count)
    # A world's weight depends only on its number k of winners: it is
    # a**k * (q-a)**(n-k) / q**n, in lowest terms as a and q-a are prime to q.
    numerators = [a**k * (q - a) ** (n - k) for k in range(n + 1)]
    total = sum(math.comb(n, k) * m for k, m in enumerate(numerators))
    if total != denominator:
        raise RuntimeError(
            f"independent lottery weights sum to {Fraction(total, denominator)}, not 1"
        )
    # World i is the i-th valuation of product((False, True), repeat=n), so
    # it has i.bit_count() winners.  by_winners[k] masks the worlds with k
    # winners, grown over the first 2**m worlds for m = 1..n.
    by_winners = [1] + [0] * n
    for m in range(n):
        by_winners = [c | low << (1 << m) for c, low in zip(by_winners, [0, *by_winners])]
    # Plane b is the union of the winner counts whose numerator has bit b set.
    planes = tuple(
        (b, plane)
        for b in range(max(numerators).bit_length())
        if (plane := reduce(or_, (c for c, m in zip(by_winners, numerators) if m >> b & 1), 0))
    )
    # Atom j is bit n-1-j of the world index: it holds in the upper half of
    # every run of 2 * half worlds, half = 2**(n-1-j).
    full = (1 << count) - 1
    masks = [
        full // ((1 << 2 * half) - 1) * (((1 << half) - 1) << half)
        for half in (1 << (n - 1 - j) for j in range(n))
    ]
    weights = [Fraction(m, denominator) for m in numerators]
    loses = _lose_statements(n)
    wins = [lose.args[0] for lose in loses]
    model = WorldModel.__new__(WorldModel)._from_columns(
        tuple(w.name for w in wins),
        count,
        lambda: zip(
            product((False, True), repeat=n),
            map(weights.__getitem__, map(int.bit_count, range(count))),
        ),
        denominator,
        planes,
        masks,
    )
    lose_masks = _weigh_tickets(model, loses, masks, [win_p] * n)
    candidates = [(f"L{i}", lose) for i, lose in enumerate(loses, 1)]
    candidates.append(("some_wins", disj(*wins)))
    solver = (full, [*lose_masks, full ^ 1], [q ** (n - 1) * (q - a)] * n + [q**n - numerators[0]])
    return BeliefBase.__new__(BeliefBase)._store(model, FormulaSet(), tuple(candidates), solver)

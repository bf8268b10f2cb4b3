"""Finite possible-worlds probability models with exact rational weights.

A :class:`WorldModel` assigns a nonnegative rational weight to each total
valuation it contains; weights sum to exactly 1.  All probabilities are
exact :class:`fractions.Fraction` values, never floats, because threshold
comparisons such as ``98/99 < 99/100`` have to be decided exactly.  A
model keeps its weights as integer numerators over their least common
denominator, bit-sliced into one world mask per numerator bit, so the
weight of a world set is a sum of popcounts.

A :class:`BeliefBase` combines a model with background formulas (treated
as certain, probability exactly 1) and labeled candidate formulas offered
for acceptance.  The lottery constructors produce the standard families:
a fair n-ticket lottery, a biased one, and a product model with fully
independent tickets.  They write their models' columns in closed form, hand
over their formulas canonicalised, masked and weighed, and store the base
past the constructor's checks, which their parts pass by construction,
with the closed form of its consistency solver (see :class:`BeliefBase`).

Weights given as text or ints are read by ``rationals.as_fraction``, the
package's one reader of a rational.  This module defines no record class,
so a ``lottery`` command, which runs only this module, ``formulas``,
``rationals`` and ``basefile``, does not load ``records``.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Callable, Collection, Iterable, Mapping, Sequence
from fractions import Fraction
from functools import reduce
from itertools import product
from operator import and_, or_

from .formulas import (
    Formula, FormulaSet, _ATOM_RE, _ExactlyOne, _negated_atom, atom, disj, exactly_one,
)
from .rationals import _past_digit_limit, as_fraction

__all__ = [
    "UnknownAtomError",
    "ZeroProbabilityError",
    "WorldModel",
    "BeliefBase",
    "exactly_one",
    "fair_lottery",
    "biased_lottery",
    "independent_lottery",
]

INDEPENDENT_LOTTERY_CAP = 16
ONE_WINNER_LOTTERY_CAP = 300
# The largest independent lottery's world count; belief-base files may
# list no more worlds than that.
MAX_WORLDS = 2**INDEPENDENT_LOTTERY_CAP
# Weight planes take (common denominator bits) x (world count) bits; this
# caps them at 32 MiB, 4096-bit denominators over MAX_WORLDS worlds.
MAX_PLANE_BITS = 2**28

# Entry b maps every byte value to "1" if its bit b is set, else to "0";
# entry 0 maps the bytes 0/1 of a valuation column to the digits "0"/"1".
_BYTE_BIT_DIGITS = [
    bytes.maketrans(bytes(range(256)), bytes(b"01"[v >> b & 1] for v in range(256)))
    for b in range(8)
]


class UnknownAtomError(ValueError):
    """A formula mentions an atom the model does not interpret."""


class ZeroProbabilityError(ValueError):
    """Conditioning on a set of formulas with probability zero."""


class WorldModel:
    """Worlds are total valuations over a fixed atom list.

    A set of worlds is an int mask with bit i for world i.  Atom masks are
    built at construction, like the weight planes below, by
    ``_column_masks``; a formula's mask evaluates its canonical NNF over
    them with ``&``, ``|`` and complement, memoized per canonical key.  An
    :func:`exactly_one` conjunction folds its outcomes' masks instead.

    World i's weight is ``n_i / D`` with ``D`` the least common denominator
    of the weights.  Plane ``P_b`` masks the worlds whose numerator ``n_i``
    has bit b set, so a mask ``m`` weighs ``sum((m & P_b).bit_count() << b)``
    over ``D``; only nonzero planes are kept.  A formula's probability is
    one such weight, memoized per canonical key like its mask.

    The constructor checks every world and stores its columns through
    ``_from_columns``.  The lottery builders call ``_from_columns`` directly
    with columns written in closed form, which the property tests hold
    equal to the constructor's, and then write the masks and weights of
    their win atoms, lose statements and background into the fresh caches,
    also in closed form.

    No policy, mask or weight reads the ``worlds`` tuple, so each producer
    hands ``_from_columns`` the world count and a function that lists the
    worlds, and the tuple is built the first time ``worlds`` is read; the
    count comes from the full mask.  Equality, hashing, copies, pickles and
    ``basefile.dumps`` read ``worlds``, so they list it.  Copies and pickles
    are rebuilt through the constructor and carry none of the caches.
    """

    __slots__ = (
        "atoms", "_worlds", "_listing", "_denominator", "_planes", "_full", "_atom_masks",
        "_mask_cache", "_probability_cache",
    )

    def __init__(
        self,
        atoms: Sequence[str],
        worlds: Sequence[tuple[Sequence[bool], object]],
    ):
        atom_names = tuple(atoms)
        if len(set(atom_names)) != len(atom_names):
            raise ValueError("duplicate atom names")
        for name in atom_names:
            atom(name)  # reuse the formula-level name validation
        weighted: dict[bytes, Fraction] = {}  # by valuation row, in world order
        for valuation, weight in worlds:
            row = _valuation_row(valuation)
            if len(row) != len(atom_names):
                raise ValueError("valuation length does not match atom list")
            if row in weighted:
                raise ValueError(f"duplicate world valuation {tuple(map(bool, row))}")
            w = as_fraction(weight)
            if w.numerator < 0:
                raise ValueError(f"negative world weight {w}")
            weighted[row] = w
        denominator, planes = _weight_columns(weighted.values(), "world")
        self._from_columns(
            atom_names,
            len(weighted),
            lambda: ((tuple(map(bool, row)), w) for row, w in weighted.items()),
            denominator,
            planes,
            _column_masks(b"".join(weighted), len(atom_names), 1),
        )

    def _from_columns(
        self,
        atoms: tuple[str, ...],
        count: int,
        listing: Callable[[], Iterable[tuple[tuple[bool, ...], Fraction]]],
        denominator: int,
        planes: tuple,
        masks,
    ) -> WorldModel:
        """Store valid columns of ``count`` worlds, ``masks`` in atom order,
        and return ``self``; ``listing()`` gives the ``(valuation, weight)``
        pairs in world order when ``worlds`` is first read.  ``__init__``
        ends here; the lottery builders call it on
        ``WorldModel.__new__(WorldModel)`` with columns in closed form."""
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "_worlds", None)
        object.__setattr__(self, "_listing", listing)
        object.__setattr__(self, "_denominator", denominator)
        object.__setattr__(self, "_planes", planes)
        object.__setattr__(self, "_full", (1 << count) - 1)
        object.__setattr__(self, "_atom_masks", dict(zip(atoms, masks)))
        object.__setattr__(self, "_mask_cache", {})
        object.__setattr__(self, "_probability_cache", {})
        return self

    @property
    def worlds(self) -> tuple[tuple[tuple[bool, ...], Fraction], ...]:
        """The ``(valuation, weight)`` pairs in world order, listed at the
        first read."""
        worlds = self._worlds
        if worlds is None:
            worlds = tuple(self._listing())
            object.__setattr__(self, "_worlds", worlds)
            object.__setattr__(self, "_listing", None)  # drop what it listed from
        return worlds

    def __setattr__(self, name, value):
        raise AttributeError("WorldModel is immutable")

    def __reduce__(self):
        # copies and pickles go through the constructor, so they check the
        # worlds again and start with empty caches
        return WorldModel, (self.atoms, self.worlds)

    def __eq__(self, other):
        if not isinstance(other, WorldModel):
            return NotImplemented
        return self.atoms == other.atoms and self.worlds == other.worlds

    def __hash__(self):
        return hash((self.atoms, self.worlds))

    def __repr__(self):
        return f"WorldModel(atoms={list(self.atoms)}, worlds={self._full.bit_count()})"

    # -- internal helpers --------------------------------------------------

    def _check_atoms(self, formula: Formula) -> None:
        unknown = [name for name in formula.atoms() if name not in self._atom_masks]
        if unknown:
            raise UnknownAtomError(
                f"formula mentions unknown atoms: {', '.join(sorted(unknown))}"
            )

    def satisfying_mask(self, formula: Formula) -> int:
        """Bitmask over worlds (bit i set iff world i satisfies formula)."""
        key = formula.canonical_key
        mask = self._mask_cache.get(key)
        if mask is None:
            self._check_atoms(formula)
            if isinstance(formula, _ExactlyOne):
                # the worlds where exactly one outcome holds, from one fold
                once = twice = 0
                for outcome in formula._either.args:
                    m = self._nnf_mask(outcome.nnf())
                    twice |= once & m
                    once |= m
                mask = once & ~twice
            else:
                mask = self._nnf_mask(formula.nnf())
            self._mask_cache[key] = mask
        return mask

    def _nnf_mask(self, node: tuple) -> int:
        if node[0] == "lit":
            mask = self._atom_masks[node[1]]
            return mask if node[2] else self._full ^ mask
        combine = and_ if node[0] == "and" else or_
        return reduce(combine, map(self._nnf_mask, node[1]))

    def joint_mask(self, formulas: Iterable[Formula]) -> int:
        """Worlds satisfying every formula; the full mask for none."""
        mask = self._full
        for formula in formulas:
            mask &= self.satisfying_mask(formula)
        return mask

    def _numerator(self, mask: int) -> int:
        """The weight of ``mask`` times the common denominator."""
        return sum((mask & plane).bit_count() << bit for bit, plane in self._planes)

    def mask_weight(self, mask: int) -> Fraction:
        return Fraction(self._numerator(mask), self._denominator)

    def full_mask(self) -> int:
        return self._full

    # -- probability -------------------------------------------------------

    def probability(self, formula: Formula) -> Fraction:
        key = formula.canonical_key
        p = self._probability_cache.get(key)
        if p is None:
            p = self._probability_cache[key] = self.mask_weight(self.satisfying_mask(formula))
        return p

    def conditional_probability(
        self, formula: Formula, given: Iterable[Formula]
    ) -> Fraction:
        given_mask = self.joint_mask(given)
        denominator = self._numerator(given_mask)
        if denominator == 0:
            raise ZeroProbabilityError("conditioning set has probability 0")
        return Fraction(self._numerator(given_mask & self.satisfying_mask(formula)), denominator)


def _valuation_row(valuation: Iterable) -> bytes:
    """A valuation as one byte per atom, 0 or 1.  Each entry must be a bool
    or the integer 0 or 1; ``bool`` alone would read the string ``"0"``,
    ``2`` or ``0.5`` as true and ``None`` as false."""
    entries = tuple(valuation)
    try:
        row = bytes(entries)  # integers in [0, 256) only
    except (TypeError, ValueError):
        row = None
    if row is None or row.translate(None, b"\x00\x01"):
        bad = next(v for v in entries if not (isinstance(v, int) and v in (0, 1)))
        raise ValueError(f"valuation entry {bad!r} is not a bool, 0 or 1")
    return row


def _column_masks(table: bytes, width: int, bits: int) -> list[int]:
    """Bit masks over the worlds of a table of ``width`` bytes per world.

    Entry ``bits*j + b`` masks the worlds whose byte j has bit b set, world
    0 lowest: one slice and one translation per column and bit.
    """
    return [
        int(table[j::width][::-1].translate(_BYTE_BIT_DIGITS[b]), 2)
        for j in range(width)
        for b in range(bits)
    ]


def _check_plane_bits(denominator: int, count: int) -> None:
    """Refuse weight planes of ``count`` worlds over ``denominator`` past
    ``MAX_PLANE_BITS``, before any of them is built; then a denominator past
    the interpreter's digit limit, if it has one, since every exact
    probability of the model has a denominator that divides it."""
    if denominator.bit_length() * count > MAX_PLANE_BITS:
        limit = f"{MAX_PLANE_BITS // count} bits"
    elif digits := _past_digit_limit(denominator):
        limit = f"{digits} digits"
    else:
        return
    raise ValueError(
        f"the weights of {count} worlds need a common denominator of more than {limit}"
    )


def _weight_columns(weights: Collection[Fraction], what: str) -> tuple[int, tuple]:
    """The common denominator ``D`` of ``weights``, one per world in world
    order, and their nonzero planes ``(b, P_b)``; ``what`` names the worlds
    when the weights do not sum to 1.

    Each distinct weight is keyed by ``(numerator, denominator)``, since
    hashing a Fraction costs a modular inverse, and its numerator over
    ``D`` is written once, as little-endian bytes of one width, into the
    table that ``_column_masks`` slices into planes.
    """
    count = len(weights)
    keys = [(w.numerator, w.denominator) for w in weights]
    counts = Counter(keys)
    denominator = 1
    for q in {q for _, q in counts}:
        denominator = math.lcm(denominator, q)
        _check_plane_bits(denominator, count)
    numerators = {(p, q): denominator // q * p for p, q in counts}
    total = sum(numerators[key] * c for key, c in counts.items())
    if total != denominator:
        raise ValueError(f"{what} weights sum to {Fraction(total, denominator)}, not 1")
    width = (max(numerators.values()).bit_length() + 7) // 8
    encoded = {key: n.to_bytes(width, "little") for key, n in numerators.items()}
    table = b"".join(map(encoded.__getitem__, keys))
    return denominator, tuple((b, p) for b, p in enumerate(_column_masks(table, width, 8)) if p)


class BeliefBase:
    """A world model plus certain background and labeled candidates.

    Invariants checked at construction: candidate labels are distinct
    identifiers, every formula's atoms occur in the model, and every
    background formula has probability exactly 1.

    The background is certain, so it is where the base names its model:
    the base builds its own background set, whose ``_model`` is the
    model, and never marks a set it was given.  No other set names a
    model, the candidates' included; the ``sat`` diagnostics and
    entailment over the base's own background test the model's world
    masks first.

    The base keeps one consistency solver over its background and
    candidates, built by the acceptance policies at their first run and
    read by every later one.  A lottery builder leaves in its place the
    solver's closed form ``(shared, masks, weights)``: the background's
    world mask, each candidate's met with it, and each candidate's weight
    over the model's common denominator, all written from the tickets, on
    a model that lists every valuation satisfying the background; the
    first policy run turns it into the solver without reading a formula.
    Like the model's mask and probability caches, the solver serves one
    thread at a time.  Equality, ``repr``, copies and pickles ignore it.
    """

    __slots__ = ("model", "background", "candidates", "_solver")

    def __init__(
        self,
        model: WorldModel,
        background: Iterable[Formula] = (),
        candidates: Iterable[tuple[str, Formula]] | Mapping[str, Formula] = (),
    ):
        bg = FormulaSet(background)  # the base's own, which names its model
        if isinstance(candidates, Mapping):
            pairs = tuple(candidates.items())
        else:
            pairs = tuple(candidates)
        for pair in pairs:
            if not (isinstance(pair, tuple) and len(pair) == 2):
                raise TypeError(f"candidates must be (label, formula) pairs, got {pair!r}")
            label, formula = pair
            if not isinstance(label, str):
                raise TypeError(f"candidate labels must be strings, got {label!r}")
            if not isinstance(formula, Formula):
                raise TypeError(f"candidates must be formulas, got {formula!r}")
            if not _ATOM_RE.fullmatch(label):  # labels share the atom-name syntax
                raise ValueError(f"invalid candidate label {label!r}")
            model._check_atoms(formula)
        labels = [label for label, _ in pairs]
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate candidate labels")
        for formula in bg:
            p = model.probability(formula)  # checks the atoms too
            if p != 1:
                raise ValueError(
                    f"background formula {formula} has probability {p}, not 1"
                )
        self._store(model, bg, pairs)

    def _store(
        self, model: WorldModel, background: FormulaSet, candidates: tuple, solver=None
    ) -> BeliefBase:
        """Store valid parts and return ``self``: ``background`` becomes the
        base's own set, which names ``model``.  ``__init__`` ends here; the
        lottery builders call it on ``BeliefBase.__new__(BeliefBase)`` with
        parts valid by construction and their solver's closed form."""
        background._model = model
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "background", background)
        object.__setattr__(self, "candidates", candidates)
        object.__setattr__(self, "_solver", solver)  # read and replaced by accept._solver
        return self

    def __setattr__(self, name, value):
        raise AttributeError("BeliefBase is immutable")

    def __reduce__(self):
        # through the constructor, which checks the base again; the solver
        # is not carried
        return BeliefBase, (self.model, self.background, self.candidates)

    @property
    def candidate_labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.candidates)

    @property
    def candidate_formulas(self) -> FormulaSet:
        """The candidates' formulas, as a new plain set."""
        return FormulaSet(f for _, f in self.candidates)

    def candidate(self, label: str) -> Formula:
        for name, formula in self.candidates:
            if name == label:
                return formula
        raise KeyError(f"no candidate labeled {label!r}")

    def __eq__(self, other):
        if not isinstance(other, BeliefBase):
            return NotImplemented
        return (
            self.model == other.model
            and self.background == other.background
            and self.candidates == other.candidates
        )

    def __repr__(self):
        return (
            f"BeliefBase(model={self.model!r}, "
            f"background={len(self.background)}, candidates={len(self.candidates)})"
        )


# ---------------------------------------------------------------------------
# Lottery families.
# ---------------------------------------------------------------------------


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

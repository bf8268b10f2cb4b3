"""Finite possible-worlds probability models with exact rational weights.

A :class:`WorldModel` assigns a nonnegative rational weight to each total
valuation it contains; weights sum to exactly 1.  All probabilities are
exact :class:`fractions.Fraction` values, never floats, because threshold
comparisons such as ``98/99 < 99/100`` have to be decided exactly.

A :class:`BeliefBase` combines a model with background formulas (treated
as certain, probability exactly 1) and labeled candidate formulas offered
for acceptance.  The lottery constructors produce the standard families:
a fair n-ticket lottery, a biased one, and a product model with fully
independent tickets.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import product
from operator import and_, or_
from typing import Iterable, Mapping, Sequence

from .formulas import EMPTY_SET, Formula, FormulaSet, atom, conj, disj, neg

__all__ = [
    "UnknownAtomError",
    "ZeroProbabilityError",
    "ProbabilityBound",
    "WorldModel",
    "BeliefBase",
    "exactly_one",
    "fair_lottery",
    "biased_lottery",
    "independent_lottery",
    "as_fraction",
]

INDEPENDENT_LOTTERY_CAP = 20
ONE_WINNER_LOTTERY_CAP = 300

# Maps the byte values 0/1 of a valuation column to the digits "0"/"1".
_BIT_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


class UnknownAtomError(ValueError):
    """A formula mentions an atom the model does not interpret."""


class ZeroProbabilityError(ValueError):
    """Conditioning on a set of formulas with probability zero."""


def as_fraction(value) -> Fraction:
    """Coerce ints, strings like ``3/4``, and Fractions; floats are
    rejected because they silently corrupt boundary comparisons."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool) or isinstance(value, float):
        raise ValueError(f"refusing inexact weight {value!r}; use p/q rationals")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    raise ValueError(f"cannot interpret {value!r} as a rational")


@dataclass(frozen=True, slots=True)
class ProbabilityBound:
    """A closed rational interval [lower, upper] inside [0, 1]; ``upper``
    defaults to ``lower``."""

    lower: Fraction
    upper: Fraction | None = None

    def __post_init__(self):
        low = as_fraction(self.lower)
        high = low if self.upper is None else as_fraction(self.upper)
        if not (0 <= low <= high <= 1):
            raise ValueError(f"invalid probability bound [{low}, {high}]")
        object.__setattr__(self, "lower", low)
        object.__setattr__(self, "upper", high)

    def __repr__(self):
        return f"ProbabilityBound({self.lower}, {self.upper})"


class WorldModel:
    """Worlds are total valuations over a fixed atom list.

    A set of worlds is an int mask with bit i for world i.  Atom masks are
    built at construction; a formula's mask evaluates its canonical NNF over
    them with ``&``, ``|`` and complement, memoized per canonical key.
    """

    __slots__ = ("atoms", "worlds", "_weights", "_atom_masks", "_mask_cache")

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
        packed: list[tuple[tuple[bool, ...], Fraction]] = []
        seen: set[tuple[bool, ...]] = set()
        total = Fraction(0)
        for valuation, weight in worlds:
            vals = tuple(bool(v) for v in valuation)
            if len(vals) != len(atom_names):
                raise ValueError("valuation length does not match atom list")
            if vals in seen:
                raise ValueError(f"duplicate world valuation {vals}")
            seen.add(vals)
            w = as_fraction(weight)
            if w < 0:
                raise ValueError(f"negative world weight {w}")
            total += w
            packed.append((vals, w))
        if total != 1:
            raise ValueError(f"world weights sum to {total}, not 1")
        object.__setattr__(self, "atoms", atom_names)
        object.__setattr__(self, "worlds", tuple(packed))
        object.__setattr__(self, "_weights", tuple(w for _, w in packed))
        columns = zip(*(vals for vals, _ in packed))  # one per atom
        masks = [int(bytes(reversed(c)).translate(_BIT_DIGITS), 2) for c in columns]
        object.__setattr__(self, "_atom_masks", dict(zip(atom_names, masks)))
        object.__setattr__(self, "_mask_cache", {})

    def __setattr__(self, name, value):
        raise AttributeError("WorldModel is immutable")

    def __eq__(self, other):
        if not isinstance(other, WorldModel):
            return NotImplemented
        return self.atoms == other.atoms and self.worlds == other.worlds

    def __hash__(self):
        return hash((self.atoms, self.worlds))

    def __repr__(self):
        return f"WorldModel(atoms={list(self.atoms)}, worlds={len(self.worlds)})"

    # -- internal helpers --------------------------------------------------

    def _check_atoms(self, formula: Formula) -> None:
        unknown = formula.atoms() - set(self.atoms)
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
            mask = self._nnf_mask(formula.nnf())
            self._mask_cache[key] = mask
        return mask

    def _nnf_mask(self, node: tuple) -> int:
        if node[0] == "lit":
            mask = self._atom_masks[node[1]]
            return mask if node[2] else self.full_mask() ^ mask
        combine = and_ if node[0] == "and" else or_
        return reduce(combine, map(self._nnf_mask, node[1]))

    def joint_mask(self, formulas: Iterable[Formula]) -> int:
        """Worlds satisfying every formula; the full mask for none."""
        mask = self.full_mask()
        for formula in formulas:
            mask &= self.satisfying_mask(formula)
        return mask

    def mask_weight(self, mask: int) -> Fraction:
        total = Fraction(0)
        weights = self._weights
        while mask:
            low = mask & -mask
            total += weights[low.bit_length() - 1]
            mask ^= low
        return total

    def full_mask(self) -> int:
        return (1 << len(self.worlds)) - 1

    # -- probability -------------------------------------------------------

    def probability(self, formula: Formula) -> Fraction:
        return self.mask_weight(self.satisfying_mask(formula))

    def conditional_probability(
        self, formula: Formula, given: Iterable[Formula]
    ) -> Fraction:
        given_mask = self.joint_mask(given)
        denominator = self.mask_weight(given_mask)
        if denominator == 0:
            raise ZeroProbabilityError("conditioning set has probability 0")
        joint = self.mask_weight(given_mask & self.satisfying_mask(formula))
        return joint / denominator


def probability(model: WorldModel, formula: Formula) -> Fraction:
    return model.probability(formula)


def conditional_probability(
    model: WorldModel, formula: Formula, given: Iterable[Formula]
) -> Fraction:
    return model.conditional_probability(formula, given)


class BeliefBase:
    """A world model plus certain background and labeled candidates.

    Invariants checked at construction: candidate labels are distinct
    identifiers, every formula's atoms occur in the model, and every
    background formula has probability exactly 1.
    """

    __slots__ = ("model", "background", "candidates")

    def __init__(
        self,
        model: WorldModel,
        background: Iterable[Formula] = (),
        candidates: Iterable[tuple[str, Formula]] | Mapping[str, Formula] = (),
    ):
        bg = background if isinstance(background, FormulaSet) else FormulaSet(background)
        if isinstance(candidates, Mapping):
            pairs = tuple(candidates.items())
        else:
            pairs = tuple(candidates)
        labels = [label for label, _ in pairs]
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate candidate labels")
        for label, formula in pairs:
            atom(label)  # labels share the atom-name syntax
            model._check_atoms(formula)
        for formula in bg:
            p = model.probability(formula)  # checks the atoms too
            if p != 1:
                raise ValueError(
                    f"background formula {formula} has probability {p}, not 1"
                )
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "background", bg)
        object.__setattr__(self, "candidates", pairs)

    def __setattr__(self, name, value):
        raise AttributeError("BeliefBase is immutable")

    @property
    def candidate_labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.candidates)

    @property
    def candidate_formulas(self) -> FormulaSet:
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
    if n < 1:
        raise ValueError("lottery needs at least one ticket")
    if n > cap:
        raise ValueError(f"{kind} lottery capped at {cap} tickets")


def _win_atoms(n: int) -> list[Formula]:
    return [atom(f"wins_{i}") for i in range(1, n + 1)]


def exactly_one(outcomes: Sequence[Formula]) -> Formula:
    """Exactly one of the given formulas holds (at least one, no two)."""
    if not outcomes:
        raise ValueError("need at least one outcome")
    parts = [disj(*outcomes)]
    for i in range(len(outcomes)):
        for j in range(i + 1, len(outcomes)):
            parts.append(neg(conj(outcomes[i], outcomes[j])))
    return conj(*parts)


def biased_lottery(weights: Sequence[object]) -> BeliefBase:
    """One-winner lottery where ticket i wins with the given weight.

    Atoms wins_1..wins_n; world i makes only wins_i true.  Background is
    the single constraint that exactly one ticket wins; candidates are
    the lose statements L_i := ~wins_i.  Capped at n <= 300.
    """
    _check_tickets(len(weights), ONE_WINNER_LOTTERY_CAP, "one-winner")
    fracs = [as_fraction(w) for w in weights]
    n = len(fracs)
    if any(w < 0 for w in fracs):
        raise ValueError("ticket weights must be nonnegative")
    if sum(fracs) != 1:
        raise ValueError(f"ticket weights sum to {sum(fracs)}, not 1")
    wins = _win_atoms(n)
    names = [a.name for a in wins]
    worlds = [
        (tuple(j == i for j in range(n)), fracs[i])
        for i in range(n)
    ]
    model = WorldModel(names, worlds)
    background = FormulaSet([exactly_one(wins)])
    candidates = [(f"L{i + 1}", neg(wins[i])) for i in range(n)]
    return BeliefBase(model, background, candidates)


def fair_lottery(n: int) -> BeliefBase:
    """Equiprobable one-winner lottery with n tickets (at most 300)."""
    _check_tickets(n, ONE_WINNER_LOTTERY_CAP, "one-winner")
    return biased_lottery([Fraction(1, n)] * n)


def independent_lottery(n: int, p) -> BeliefBase:
    """n independent tickets, each winning with probability p.

    The model has 2**n product-weighted worlds and an empty background;
    candidates are the lose statements plus ``some_wins``, the disjunction
    that some ticket wins.  Capped at n <= 20 (the model is exponential).
    """
    _check_tickets(n, INDEPENDENT_LOTTERY_CAP, "independent")
    win_p = as_fraction(p)
    if not (0 < win_p < 1):
        raise ValueError("ticket probability must lie strictly between 0 and 1")
    wins = _win_atoms(n)
    names = [a.name for a in wins]
    worlds = []
    for valuation in product((False, True), repeat=n):
        k = sum(valuation)
        worlds.append((valuation, win_p**k * (1 - win_p) ** (n - k)))
    model = WorldModel(names, worlds)
    candidates = [(f"L{i + 1}", neg(wins[i])) for i in range(n)]
    candidates.append(("some_wins", disj(*wins)))
    return BeliefBase(model, EMPTY_SET, candidates)

"""Extension enumeration: an order-dependent policy over many candidate orders.

``enumerate_extensions`` surfaces the order dependence of ``sequential``
and ``teng`` by running the policy over candidate orders, all of them or
a seeded sample, and collecting the distinct outcomes with their
conjunctive and disjunctive merges.  Each order is one ``accept._scan`` by
candidate position, and only the first order of each distinct outcome
becomes an ``AcceptedSet``.  Among the commands only ``extensions`` runs
it, so no other loads this module.  ``accept`` still gives its three
names through its module ``__getattr__``.
"""

from __future__ import annotations

import math
from itertools import permutations

from .accept import DEFAULT_SEED, POLICY_TABLE, AcceptanceLevel, AcceptedSet, _accepted, _scan
from .accept import _solver
from .formulas import FormulaSet
from .records import record
from .worlds import BeliefBase

__all__ = ["ExtensionEnumeration", "enumerate_extensions", "MAX_PERMUTATIONS"]

# 7! orders; ``enumerate_extensions`` may list all of them in memory.
MAX_PERMUTATIONS = 5040


@record
class ExtensionEnumeration:
    """Distinct accepted sets of an order-dependent policy across
    candidate orders, plus their conjunctive and disjunctive merges."""

    def __init__(
        self,
        policy: str,
        level: AcceptanceLevel,
        extensions: tuple[AcceptedSet, ...],
        witness_orders: tuple[tuple[str, ...], ...],
        conjunction: FormulaSet,
        conjunction_weakly_consistent: bool,
        intersection: FormulaSet,
        exhaustive: bool,
        permutation_count: int,
        seed: int,
    ):
        self.__dict__.update(
            policy=policy,
            level=level,
            extensions=extensions,
            witness_orders=witness_orders,
            conjunction=conjunction,
            conjunction_weakly_consistent=conjunction_weakly_consistent,
            intersection=intersection,
            exhaustive=exhaustive,
            permutation_count=permutation_count,
            seed=seed,
        )


def enumerate_extensions(
    base: BeliefBase,
    policy: str,
    level: AcceptanceLevel,
    max_permutations: int = 720,
    seed: int = DEFAULT_SEED,
) -> ExtensionEnumeration:
    """Run a policy over candidate orders and collect distinct outcomes.

    All permutations are tried when their count is at most
    ``max_permutations`` (itself at most ``MAX_PERMUTATIONS``); otherwise
    a deterministic sample of that many shuffles, seeded by ``seed`` (an
    integer in [0, 2**64), checked on every call), is used.  Taken
    conjunctively the extensions may be weakly inconsistent again; taken
    disjunctively (the intersection) they may license nothing beyond the
    background.

    Each order is one ``_scan`` by candidate position, which reads each
    candidate's weight and worlds from the base's solver and builds no
    record.  Outcomes are keyed by the canonical keys of the formulas
    accepted, so two labels on one formula give one outcome, and only the
    first order of each distinct outcome becomes an ``AcceptedSet``, whose
    entries are the solver's shared acceptances (new conditional records
    for ``teng``).
    """
    ordered = sorted(name for name, (_, takes) in POLICY_TABLE.items() if takes)
    if policy not in ordered:
        raise ValueError(f"policy must be one of {ordered}")
    if isinstance(max_permutations, bool) or not isinstance(max_permutations, int):
        raise ValueError(f"max_permutations must be an integer, not {max_permutations!r}")
    if not 1 <= max_permutations <= MAX_PERMUTATIONS:
        raise ValueError(f"max_permutations must lie between 1 and {MAX_PERMUTATIONS}")
    if isinstance(seed, bool) or not (isinstance(seed, int) and 0 <= seed < 2**64):
        raise ValueError(f"seed must be an integer between 0 and 2**64 - 1, got {seed!r}")
    labels = base.candidate_labels
    total = math.factorial(len(labels))
    exhaustive = total <= max_permutations
    if exhaustive:
        orders = list(permutations(range(len(labels))))
    else:
        import random  # only sampling needs it

        # a shuffle's draws depend only on the length, so shuffling the
        # positions gives the orders that shuffling the labels would
        rng = random.Random(seed)
        shuffles = []
        for _ in range(max_permutations):
            shuffled = list(range(len(labels)))
            rng.shuffle(shuffled)
            shuffles.append(tuple(shuffled))
        orders = list(dict.fromkeys(shuffles))  # distinct, first-drawn order

    conditional = policy == "teng"  # else "sequential", which keeps the set consistent
    keys = [f.canonical_key for _, f in base.candidates]
    # each distinct outcome, by its accepted formulas' keys, with the scan
    # of the first order giving it: only that scan becomes an AcceptedSet
    found: dict[frozenset[str], tuple[list[int], list[int], tuple[int, ...]]] = {}
    for order in orders:
        taken, supports = _scan(base, order, level, conditional)
        found.setdefault(frozenset(map(keys.__getitem__, taken)), (taken, supports, order))
    # every order yields a result, so there is at least one extension
    extensions = tuple(_accepted(policy, base, level, *scan) for *scan, _ in found.values())
    witness = tuple(tuple(map(labels.__getitem__, order)) for *_, order in found.values())
    union = base.background.union(a.statement for ext in extensions for a in ext.accepted)
    common = frozenset.intersection(*found)
    intersection = base.background.union(
        f for (_, f), key in zip(base.candidates, keys) if key in common
    )
    # the candidates that occur in some extension, by position
    occurring = frozenset().union(*found)
    members = [i for i, key in enumerate(keys) if key in occurring]
    return ExtensionEnumeration(
        policy=policy,
        level=level,
        extensions=extensions,
        witness_orders=witness,
        conjunction=union,
        conjunction_weakly_consistent=_solver(base).satisfiable(members),
        intersection=intersection,
        exhaustive=exhaustive,
        permutation_count=len(orders),
        seed=seed,
    )

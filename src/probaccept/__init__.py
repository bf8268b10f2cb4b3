"""Probabilistic acceptance over propositional belief bases.

Accepting whatever is probable enough is workable nonmonotonic inference,
provided the bookkeeping is honest: accepted sets may be weakly
inconsistent (jointly unsatisfiable) without ever containing a single
self-contradictory statement, single-premise consequences are free,
k-premise consequences cost k times the slack, and a contradiction needs
at least ceil(1/epsilon) premises.  This package provides the formula and
satisfiability machinery, exact-rational possible-worlds models, the
acceptance policies, the bounded-closure calculus, maximal-consistent-
subset diagnostics, and an exact binomial-test bridge from statistical
rejection to acceptance of negations.
"""

import sys
from types import ModuleType

__version__ = "0.1.0"

# Every public name, by the module that defines it.  Each module is imported
# on the first read of one of its names (PEP 562), so a command pays only
# for the modules it runs.
_PUBLIC = {
    "formulas": (
        "EMPTY_SET", "Formula", "FormulaSet", "FormulaSyntaxError", "atom", "conj",
        "disj", "has_strong_inconsistency", "iff", "implies", "neg", "parse", "render",
    ),
    "rationals": ("as_fraction",),
    "sat": (
        "DEFAULT_CANDIDATE_CAP", "entails", "is_satisfiable",
        "maximal_consistent_subsets", "minimal_unsat_subsets", "shrink_unsat_subset",
    ),
    "worlds": (
        "BeliefBase", "UnknownAtomError", "WorldModel", "ZeroProbabilityError", "exactly_one",
    ),
    "lotteries": ("biased_lottery", "fair_lottery", "independent_lottery"),
    "basefile": ("BeliefBaseFormatError", "dump", "dumps", "load", "loads", "parse_rational"),
    "accept": (
        "Acceptance", "AcceptanceLevel", "AcceptedSet", "lehrer_accept", "lehrer_cascade",
        "sequential_accept", "stakes_threshold", "teng_accept", "threshold_accept",
    ),
    "extensions": ("ExtensionEnumeration", "enumerate_extensions"),
    "closure": (
        "LeveledStatement", "conjunction_support", "consequence_level", "contradiction_bound",
    ),
    "strands": ("Strand", "degree_of_inconsistency", "strand_entails", "strands"),
    "stattests": (
        "AcceptedRejection", "BinomialTestSpec", "CombinedRejection", "Decision",
        "ProbabilityBound", "RejectionRegion", "binomial_pmf", "binomial_rejection_region",
        "combine_tests", "rejection_to_acceptance", "run_test",
    ),
}
_HOME = {name: f"{__name__}.{module}" for module, names in _PUBLIC.items() for name in names}

# ``from probaccept import *`` also binds the submodules, except ``strands``,
# which names the function, and ``lotteries``, whose builders are ``worlds``'
# names too.
__all__ = [*_HOME, *(module for module in _PUBLIC if module not in (*_HOME, "lotteries"))]


def __getattr__(name):
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    # Looked up on every read and never stored here, so a function swapped
    # on its module (by a tracer or a test) is the one the package gives.
    if module not in sys.modules:
        __import__(module)
    return getattr(sys.modules[module], name)


def __dir__():
    return sorted({*globals(), *_HOME})


class _Package(ModuleType):
    def __setattr__(self, name, value):
        # The import system binds each submodule on its package when it
        # first loads; the public function ``strands`` keeps its name.
        if name in _HOME and isinstance(value, ModuleType):
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package

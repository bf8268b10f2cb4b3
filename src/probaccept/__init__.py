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

from .formulas import (
    EMPTY_SET,
    Formula,
    FormulaSet,
    FormulaSyntaxError,
    atom,
    conj,
    disj,
    has_strong_inconsistency,
    iff,
    implies,
    neg,
    parse,
    render,
)
from .sat import (
    DEFAULT_CANDIDATE_CAP,
    entails,
    is_satisfiable,
    maximal_consistent_subsets,
    minimal_unsat_subsets,
    shrink_unsat_subset,
)
from .worlds import (
    BeliefBase,
    ProbabilityBound,
    UnknownAtomError,
    WorldModel,
    ZeroProbabilityError,
    as_fraction,
    biased_lottery,
    exactly_one,
    fair_lottery,
    independent_lottery,
)
from .basefile import (
    BeliefBaseFormatError,
    dump,
    dumps,
    load,
    loads,
    parse_rational,
)
from .accept import (
    Acceptance,
    AcceptanceLevel,
    AcceptedSet,
    ExtensionEnumeration,
    enumerate_extensions,
    lehrer_accept,
    lehrer_cascade,
    sequential_accept,
    stakes_threshold,
    teng_accept,
    threshold_accept,
)
from .closure import (
    LeveledStatement,
    conjunction_support,
    consequence_level,
    contradiction_bound,
)
from .strands import Strand, degree_of_inconsistency, strand_entails, strands
from .stattests import (
    AcceptedRejection,
    BinomialTestSpec,
    CombinedRejection,
    Decision,
    RejectionRegion,
    binomial_pmf,
    binomial_rejection_region,
    combine_tests,
    rejection_to_acceptance,
    run_test,
)

__version__ = "0.1.0"

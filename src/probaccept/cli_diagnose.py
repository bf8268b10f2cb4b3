"""The ``diagnose`` command, its arguments and its handler: only that command loads it."""

from .cli import _base_and_level, _diagnostics


def arguments(parser) -> None:
    parser.add_argument("base")
    parser.add_argument("--epsilon", required=True, metavar="P/Q")
    parser.set_defaults(func=handle)


def handle(args) -> dict:
    from .accept import threshold_accept
    from .closure import contradiction_bound
    from .sat import _check_cap, maximal_consistent_subsets, minimal_unsat_subsets
    from .sat import shrink_unsat_subset
    from .strands import degree_of_inconsistency

    _check_cap(args.max_candidates)  # on both paths, whatever the input's size
    base, level = _base_and_level(args)
    accepted = threshold_accept(base, level)
    accepted_formulas = accepted.accepted_formulas
    background = base.background
    cap = args.max_candidates

    mus_min_size = None
    mus_method = "exhaustive"
    mcs_count = None
    degree = None
    # the accepted formulas name the base's model, whose masks the solver
    # tests first: a shared world settles a query, and so does an empty mask
    # on a model that lists every valuation
    if len(accepted_formulas) <= cap:
        # one subset walk, kept on the set: the MCS count and the degree
        # read the family that the MUS enumeration found
        muses = minimal_unsat_subsets(accepted_formulas, background, cap)
        mus_min_size = len(muses[0]) if muses else None
        mcs_count = len(maximal_consistent_subsets(accepted_formulas, background, cap))
        degree = degree_of_inconsistency(accepted_formulas, background, cap)
    else:
        mus_method = "deletion_shrink"
        shrunk = shrink_unsat_subset(accepted_formulas, background)
        if shrunk is not None:
            mus_min_size = len(shrunk)

    bound = contradiction_bound(level)
    return {
        "command": "diagnose",
        "epsilon": level.epsilon,
        "threshold": level.threshold,
        "accepted_count": len(accepted.accepted),
        "diagnostics": _diagnostics(
            accepted,
            mus_min_size=mus_min_size,
            mus_method=mus_method,
            mcs_count=mcs_count,
            degree=degree,
        ),
        "contradiction_bound": bound,
        "mus_respects_bound": mus_min_size is None or mus_min_size >= bound,
    }

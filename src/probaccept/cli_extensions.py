"""The ``extensions`` command, its arguments and its handler: only that command loads it."""

from .cli import _POLICY_NAMES, _accepted_entries, _base_and_level


def arguments(parser) -> None:
    parser.add_argument("base")
    parser.add_argument(
        "--policy",
        required=True,
        choices=[name for name, ordered in _POLICY_NAMES.items() if ordered],
    )
    parser.add_argument("--epsilon", required=True, metavar="P/Q")
    parser.add_argument("--max-permutations", type=int, default=720, metavar="N")
    parser.set_defaults(func=handle)


def handle(args) -> dict:
    from .extensions import enumerate_extensions
    from .formulas import render

    base, level = _base_and_level(args)
    outcome = enumerate_extensions(
        base,
        args.policy,
        level,
        max_permutations=args.max_permutations,
        seed=args.seed,
    )
    return {
        "command": "extensions",
        "policy": outcome.policy,
        "epsilon": level.epsilon,
        "threshold": level.threshold,
        "permutations_tried": outcome.permutation_count,
        "exhaustive": outcome.exhaustive,
        "extension_count": len(outcome.extensions),
        "extensions": [
            {
                "order": ",".join(witness),
                "accepted": _accepted_entries(ext),
            }
            for ext, witness in zip(outcome.extensions, outcome.witness_orders)
        ],
        "conjunctive_merge": {
            "statement_count": len(outcome.conjunction),
            "weakly_consistent": outcome.conjunction_weakly_consistent,
        },
        "disjunctive_intersection": {
            "statements": [render(f) for f in outcome.intersection],
        },
    }

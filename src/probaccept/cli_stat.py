"""The ``stat binom`` command, its arguments and its handler: only that command loads it."""


def arguments(parser) -> None:
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--p0", required=True, metavar="P/Q")
    parser.add_argument("--epsilon", required=True, metavar="P/Q")
    parser.add_argument("--sided", default="two", choices=["two", "upper", "lower"])
    parser.add_argument("--observed", type=int)
    parser.add_argument(
        "--combine-with",
        metavar="EPS,EPS,...",
        help="combine with further rejections at these significance levels",
    )
    parser.set_defaults(func=handle)


def handle(args) -> dict:
    from .rationals import as_fraction
    from .stattests import (
        BinomialTestSpec,
        Decision,
        binomial_rejection_region,
        combine_tests,
        rejection_to_acceptance,
        run_test,
    )

    spec = BinomialTestSpec(
        n=args.n,
        p0=as_fraction(args.p0),
        epsilon=as_fraction(args.epsilon),
        sided={"two": "two_sided", "upper": "upper", "lower": "lower"}[args.sided],
    )
    # built before the test runs, so a bad level fails whatever the decision
    others = [
        BinomialTestSpec(spec.n, spec.p0, as_fraction(eps), spec.sided)
        for eps in (args.combine_with.split(",") if args.combine_with is not None else ())
    ]
    region = binomial_rejection_region(spec)
    counts = sorted(region.rejected_counts)
    report: dict = {
        "command": "stat.binom",
        "n": spec.n,
        "p0": spec.p0,
        "epsilon": spec.epsilon,
        "sided": spec.sided,
        "rejection_region": _compact_counts(counts),
        "region_size": len(counts),
        "achieved_size": region.achieved_size,
    }
    if args.observed is not None:
        decision = run_test(region, args.observed)
        report["observed"] = args.observed
        report["decision"] = decision.value
        if decision is Decision.REJECT:
            accepted = rejection_to_acceptance(spec, decision)
            entry = {
                "statement": accepted.statement,
                "support_lower_bound": accepted.support.lower,
                "directional": accepted.directional,
            }
            report["accepted_negation"] = entry
            if others:
                tests = [accepted] + [
                    rejection_to_acceptance(other, Decision.REJECT) for other in others
                ]
                joint = combine_tests(tests, independent=False)
                joint_ind = combine_tests(tests, independent=True)
                report["combined"] = {
                    "statement": joint.statement,
                    "dependent_lower_bound": joint.support_lower_bound,
                    "independent_lower_bound": joint_ind.support_lower_bound,
                }
    return report


def _compact_counts(counts: list[int]) -> str:
    if not counts:
        return "(empty)"
    runs: list[list[int]] = []
    for x in counts:
        if runs and x == runs[-1][1] + 1:
            runs[-1][1] = x
        else:
            runs.append([x, x])
    return ",".join(f"{a}..{b}" if a != b else str(a) for a, b in runs)

"""The ``closure`` command, its arguments and its handler: only that command loads it."""

from .cli import _base_and_level, _label_list


def arguments(parser) -> None:
    parser.add_argument("base")
    parser.add_argument("--epsilon", required=True, metavar="P/Q")
    parser.add_argument("--labels", metavar="L1,L2,...")
    parser.add_argument("--conclusion", metavar="FORMULA")
    parser.set_defaults(func=handle)


def handle(args) -> dict:
    from .closure import conjunction_support, consequence_level, contradiction_bound
    from .formulas import FormulaSet, parse

    base, level = _base_and_level(args)
    report: dict = {
        "command": "closure",
        "epsilon": level.epsilon,
        "threshold": level.threshold,
        "contradiction_bound": contradiction_bound(level),
    }
    if args.labels is not None:
        labels = _label_list(args.labels, "--labels")
        try:
            premises = FormulaSet(base.candidate(label) for label in labels)
        except KeyError as exc:  # an unknown label is bad input
            raise ValueError(exc.args[0]) from None
        support = conjunction_support(base.model, premises, level)
        report["conjunction"] = {"premises": labels, **_leveled(support)}
        if args.conclusion is not None:
            conclusion = parse(args.conclusion)
            leveled = consequence_level(
                base.model, premises, conclusion, level, background=base.background
            )
            report["consequence"] = _leveled(leveled)
    elif args.conclusion is not None:
        raise ValueError("--conclusion needs --labels naming the premises")
    return report


def _leveled(leveled) -> dict:
    """A conjunction's or consequence's formula and support floor."""
    from .formulas import render

    return {
        "formula": render(leveled.statement),
        "premise_count": leveled.premise_count,
        "support_lower_bound": leveled.support_lower_bound,
        "exact_probability": leveled.exact_probability,
    }

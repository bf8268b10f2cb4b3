"""The ``lottery`` command, its arguments and its handler: only that command loads it."""


def arguments(parser) -> None:
    parser.add_argument("kind", choices=["fair", "biased", "independent"])
    parser.add_argument("--n", type=int)
    parser.add_argument("--weights", metavar="P/Q,P/Q,...")
    parser.add_argument("--p", metavar="P/Q")
    parser.add_argument("--out", default="-", metavar="PATH")
    parser.set_defaults(func=handle)


def handle(args) -> str:
    from .basefile import dump, dumps
    from .lotteries import biased_lottery, fair_lottery, independent_lottery
    from .rationals import as_fraction

    if args.kind == "fair":
        if args.n is None:
            raise ValueError("fair lottery needs --n")
        base = fair_lottery(args.n)
    elif args.kind == "biased":
        if not args.weights:
            raise ValueError("biased lottery needs --weights p/q,p/q,...")
        weights = [as_fraction(part) for part in args.weights.split(",")]
        base = biased_lottery(weights)
    else:
        if args.n is None or args.p is None:
            raise ValueError("independent lottery needs --n and --p")
        base = independent_lottery(args.n, as_fraction(args.p))
    if args.out == "-":
        return dumps(base)
    dump(base, args.out)
    return f"wrote: {args.out}\nworlds: {len(base.model.worlds)}\n"

"""Command-line frontend.

Subcommands: ``accept`` (run one policy over a belief-base file),
``extensions`` (enumerate order-dependent outcomes), ``lottery``
(generate belief-base files), ``diagnose`` (inconsistency diagnostics),
``closure`` (conjunction and consequence support floors), ``stat``
(exact binomial tests).

Output is a flat ``key: value`` text report, or nested JSON with
``--json``.  All numbers are exact rationals ``p/q``; decimal renderings
are marked approximate.  Identical inputs and flags produce identical
bytes.  Exit codes: 0 ok, 2 input error, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from fractions import Fraction

from . import __version__
from .accept import (
    DEFAULT_SEED,
    POLICY_TABLE,
    AcceptanceLevel,
    AcceptedSet,
    enumerate_extensions,
    threshold_accept,
)
from .basefile import dump as write_base
from .basefile import dumps as dump_base
from .basefile import load as load_base
from .basefile import parse_rational
from .closure import conjunction_support, consequence_level, contradiction_bound
from .formulas import FormulaSet, has_strong_inconsistency, parse, render
from .sat import (
    DEFAULT_CANDIDATE_CAP,
    _check_cap,
    _consistent_family,
    shrink_unsat_subset,
)
from .stattests import (
    BinomialTestSpec,
    Decision,
    binomial_rejection_region,
    combine_tests,
    rejection_to_acceptance,
    run_test,
)
from .strands import _degree
from .worlds import BeliefBase, biased_lottery, fair_lottery, independent_lottery

PROG = "probaccept"


# ---------------------------------------------------------------------------
# Report rendering.
# ---------------------------------------------------------------------------


def _approx(value: Fraction, places: int = 6) -> str:
    scale = 10**places
    scaled = round(value * scale)  # exact Fraction rounding, half to even
    sign = "-" if scaled < 0 else ""
    whole, frac = divmod(abs(scaled), scale)
    return f"{sign}{whole}.{frac:0{places}d}"


def _jsonable(value):
    if isinstance(value, Fraction):
        return {"exact": str(value), "approx": _approx(value)}
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _flat_value(value) -> str:
    if isinstance(value, Fraction):
        return f"{value} (~{_approx(value)})"
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "none"
    return str(value)


def _flatten(value, prefix: str, lines: list[str]) -> None:
    if isinstance(value, dict):
        for key, sub in value.items():
            _flatten(sub, f"{prefix}.{key}" if prefix else key, lines)
    elif isinstance(value, (list, tuple)):
        if not value:
            lines.append(f"{prefix}: (none)")
        for i, sub in enumerate(value):
            _flatten(sub, f"{prefix}[{i}]", lines)
    else:
        lines.append(f"{prefix}: {_flat_value(value)}")


def _emit(report: dict, as_json: bool) -> str:
    if as_json:
        return json.dumps(_jsonable(report), indent=2) + "\n"
    lines: list[str] = []
    _flatten(report, "", lines)
    return "\n".join(lines) + "\n"


def _digest(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _provenance(args, path: str | None) -> dict:
    out = {"seed": args.seed, "strict_threshold": bool(args.strict_threshold)}
    if path is not None:
        out["input"] = path
        out["input_sha256"] = _digest(path)
    return out


def _accepted_entries(result: AcceptedSet) -> list[dict]:
    return [
        {
            "label": a.label,
            "formula": render(a.statement),
            "probability": a.probability,
            "support_at_acceptance": a.support,
        }
        for a in result.accepted
    ]


# ---------------------------------------------------------------------------
# Subcommand handlers.
# ---------------------------------------------------------------------------


def _resolve_order(base: BeliefBase, text: str) -> list[str]:
    if text == "natural":
        return list(base.candidate_labels)
    if text == "reverse":
        return list(reversed(base.candidate_labels))
    return [part.strip() for part in text.split(",") if part.strip()]


def _cmd_accept(args) -> str:
    base = load_base(args.base)
    level = AcceptanceLevel(parse_rational(args.epsilon), strict=args.strict_threshold)
    run, ordered = POLICY_TABLE[args.policy]
    if ordered and args.order is None:
        raise ValueError(f"policy {args.policy!r} needs --order")
    if not ordered and args.order is not None:
        raise ValueError(f"policy {args.policy!r} does not take --order")
    if ordered:
        result = run(base, _resolve_order(base, args.order), level)
    else:
        result = run(base, level)
    members = list(result.statements)
    report = {
        "command": "accept",
        "policy": result.policy,
        "epsilon": level.epsilon,
        "threshold": level.threshold,
        "accepted_count": len(result.accepted),
        "accepted": _accepted_entries(result),
        "diagnostics": {
            "weakly_consistent": result.weakly_consistent,
            "strong_inconsistency": has_strong_inconsistency(members),
            "mus_min_size": None,
            "mcs_count": None,
            "degree": None,
        },
        "provenance": _provenance(args, args.base),
    }
    return _emit(report, args.json)


def _cmd_extensions(args) -> str:
    base = load_base(args.base)
    level = AcceptanceLevel(parse_rational(args.epsilon), strict=args.strict_threshold)
    outcome = enumerate_extensions(
        base,
        args.policy,
        level,
        max_permutations=args.max_permutations,
        seed=args.seed,
    )
    report = {
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
        "provenance": _provenance(args, args.base),
    }
    return _emit(report, args.json)


def _cmd_lottery(args) -> str:
    if args.kind == "fair":
        if args.n is None:
            raise ValueError("fair lottery needs --n")
        base = fair_lottery(args.n)
    elif args.kind == "biased":
        if not args.weights:
            raise ValueError("biased lottery needs --weights p/q,p/q,...")
        weights = [parse_rational(part) for part in args.weights.split(",")]
        base = biased_lottery(weights)
    else:
        if args.n is None or args.p is None:
            raise ValueError("independent lottery needs --n and --p")
        base = independent_lottery(args.n, parse_rational(args.p))
    if args.out == "-":
        return dump_base(base)
    write_base(base, args.out)
    return f"wrote: {args.out}\nworlds: {len(base.model.worlds)}\n"


def _cmd_diagnose(args) -> str:
    _check_cap(args.max_candidates)  # on both paths, whatever the input's size
    base = load_base(args.base)
    level = AcceptanceLevel(parse_rational(args.epsilon), strict=args.strict_threshold)
    accepted = threshold_accept(base, level)
    accepted_formulas = accepted.accepted_formulas
    background = base.background
    members = list(accepted.statements)
    cap = args.max_candidates

    mus_min_size = None
    mus_method = "exhaustive"
    mcs_count = None
    degree = None
    if len(accepted_formulas) <= cap:
        # one enumeration: MUS, MCS count and degree all read its two lists
        walked, mcses, muses = _consistent_family(accepted_formulas, background, cap)
        mus_min_size = len(muses[0]) if muses else None
        mcs_count = len(mcses)
        degree = _degree(walked, mcses)
    else:
        mus_method = "deletion_shrink"
        shrunk = shrink_unsat_subset(accepted_formulas, background)
        if shrunk is not None:
            mus_min_size = len(shrunk)

    bound = contradiction_bound(level)
    report = {
        "command": "diagnose",
        "epsilon": level.epsilon,
        "threshold": level.threshold,
        "accepted_count": len(accepted.accepted),
        "diagnostics": {
            "weakly_consistent": accepted.weakly_consistent,
            "strong_inconsistency": has_strong_inconsistency(members),
            "mus_min_size": mus_min_size,
            "mus_method": mus_method,
            "mcs_count": mcs_count,
            "degree": degree,
        },
        "contradiction_bound": bound,
        "mus_respects_bound": mus_min_size is None or mus_min_size >= bound,
        "provenance": _provenance(args, args.base),
    }
    return _emit(report, args.json)


def _cmd_closure(args) -> str:
    base = load_base(args.base)
    level = AcceptanceLevel(parse_rational(args.epsilon), strict=args.strict_threshold)
    report: dict = {
        "command": "closure",
        "epsilon": level.epsilon,
        "threshold": level.threshold,
        "contradiction_bound": contradiction_bound(level),
    }
    if args.labels is not None:
        labels = [part.strip() for part in args.labels.split(",") if part.strip()]
        for i, label in enumerate(labels):
            if label in labels[:i]:
                raise ValueError(f"label {label!r} is repeated in --labels")
        try:
            premises = FormulaSet(base.candidate(label) for label in labels)
        except KeyError as exc:  # an unknown label is bad input
            raise ValueError(exc.args[0]) from None
        support = conjunction_support(base.model, premises, level)
        report["conjunction"] = {
            "premises": labels,
            "formula": render(support.statement),
            "premise_count": support.premise_count,
            "support_lower_bound": support.support_lower_bound,
            "exact_probability": support.exact_probability,
        }
        if args.conclusion is not None:
            conclusion = parse(args.conclusion)
            leveled = consequence_level(
                base.model, premises, conclusion, level, background=base.background
            )
            report["consequence"] = {
                "formula": render(leveled.statement),
                "premise_count": leveled.premise_count,
                "support_lower_bound": leveled.support_lower_bound,
                "exact_probability": leveled.exact_probability,
            }
    elif args.conclusion is not None:
        raise ValueError("--conclusion needs --labels naming the premises")
    report["provenance"] = _provenance(args, args.base)
    return _emit(report, args.json)


def _cmd_stat(args) -> str:
    spec = BinomialTestSpec(
        n=args.n,
        p0=parse_rational(args.p0),
        epsilon=parse_rational(args.epsilon),
        sided={"two": "two_sided", "upper": "upper", "lower": "lower"}[args.sided],
    )
    # built before the test runs, so a bad level fails whatever the decision
    others = [
        BinomialTestSpec(spec.n, spec.p0, parse_rational(eps), spec.sided)
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
    report["provenance"] = _provenance(args, None)
    return _emit(report, args.json)


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


# ---------------------------------------------------------------------------
# Parser assembly and entry point.
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Probabilistic acceptance over propositional belief bases.",
    )
    parser.add_argument("--version", action="version", version=f"{PROG} {__version__}")
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, metavar="U64")
    parser.add_argument(
        "--strict-threshold",
        action="store_true",
        help="require probability strictly above 1 - epsilon",
    )
    parser.add_argument(
        "--max-candidates",
        type=int,
        default=DEFAULT_CANDIDATE_CAP,
        metavar="N",
        help="cap for exhaustive subset enumeration",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_accept = sub.add_parser("accept", help="run one acceptance policy")
    p_accept.add_argument("base", help="belief-base file")
    p_accept.add_argument(
        "--policy",
        required=True,
        choices=list(POLICY_TABLE),
    )
    p_accept.add_argument("--epsilon", required=True, metavar="P/Q")
    p_accept.add_argument(
        "--order",
        metavar="ORDER",
        help="'natural', 'reverse', or comma-separated labels",
    )
    p_accept.set_defaults(func=_cmd_accept)

    p_ext = sub.add_parser("extensions", help="enumerate order-dependent outcomes")
    p_ext.add_argument("base")
    p_ext.add_argument(
        "--policy",
        required=True,
        choices=[name for name, (_, ordered) in POLICY_TABLE.items() if ordered],
    )
    p_ext.add_argument("--epsilon", required=True, metavar="P/Q")
    p_ext.add_argument("--max-permutations", type=int, default=720, metavar="N")
    p_ext.set_defaults(func=_cmd_extensions)

    p_lot = sub.add_parser("lottery", help="generate a lottery belief base")
    p_lot.add_argument("kind", choices=["fair", "biased", "independent"])
    p_lot.add_argument("--n", type=int)
    p_lot.add_argument("--weights", metavar="P/Q,P/Q,...")
    p_lot.add_argument("--p", metavar="P/Q")
    p_lot.add_argument("--out", default="-", metavar="PATH")
    p_lot.set_defaults(func=_cmd_lottery)

    p_diag = sub.add_parser("diagnose", help="inconsistency diagnostics")
    p_diag.add_argument("base")
    p_diag.add_argument("--epsilon", required=True, metavar="P/Q")
    p_diag.set_defaults(func=_cmd_diagnose)

    p_clo = sub.add_parser("closure", help="conjunction/consequence support floors")
    p_clo.add_argument("base")
    p_clo.add_argument("--epsilon", required=True, metavar="P/Q")
    p_clo.add_argument("--labels", metavar="L1,L2,...")
    p_clo.add_argument("--conclusion", metavar="FORMULA")
    p_clo.set_defaults(func=_cmd_closure)

    p_stat = sub.add_parser("stat", help="statistical tests")
    stat_sub = p_stat.add_subparsers(dest="stat_command", required=True)
    p_binom = stat_sub.add_parser("binom", help="exact binomial test")
    p_binom.add_argument("--n", type=int, required=True)
    p_binom.add_argument("--p0", required=True, metavar="P/Q")
    p_binom.add_argument("--epsilon", required=True, metavar="P/Q")
    p_binom.add_argument("--sided", default="two", choices=["two", "upper", "lower"])
    p_binom.add_argument("--observed", type=int)
    p_binom.add_argument(
        "--combine-with",
        metavar="EPS,EPS,...",
        help="combine with further rejections at these significance levels",
    )
    p_binom.set_defaults(func=_cmd_stat)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        sys.stdout.write(args.func(args))
        return 0
    except BrokenPipeError:
        # downstream closed the pipe (e.g. | head); suppress the noise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, OSError) as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"{PROG}: internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

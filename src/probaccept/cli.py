"""Command-line frontend.

Subcommands: ``accept`` (run one policy over a belief-base file),
``extensions`` (enumerate order-dependent outcomes), ``lottery``
(generate belief-base files), ``diagnose`` (inconsistency diagnostics),
``closure`` (conjunction and consequence support floors), ``stat``
(exact binomial tests).

Output is a flat ``key: value`` text report, or nested JSON with
``--json``.  All numbers are exact rationals ``p/q``; decimal renderings
are marked approximate.  Identical inputs and flags produce identical
bytes.  Exit codes: 0 ok, 2 input error, 3 internal invariant violation,
141 stdout's reader has gone (e.g. ``| head``).

``run`` is the process entry, behind ``python -m probaccept``, ``python -m
probaccept.cli`` and the ``probaccept`` script.  ``main`` is the in-process
API: it returns the exit code, or raises argparse's ``SystemExit``
(``--help``, ``--version``, usage errors) or ``BrokenPipeError`` if
stdout's reader has gone; it never flushes, freezes or touches a file
descriptor.

Each handler imports the library modules it runs and returns its report
body, or ``lottery``'s text; ``main`` alone ends every report with its
``provenance`` and writes it.  So a command loads no more than it needs,
which ``tests/test_exports.py`` pins for each:

- ``accept`` and ``extensions``: ``basefile``, ``formulas``, ``rationals``,
  ``records``, ``worlds``, ``oracle`` and ``accept``, with the
  interpreter's own SHA-256 module, not ``hashlib``; ``sat`` only at a
  verdict the world masks leave open, which no ``lottery`` file has;
- ``closure``: those, ``sat`` and ``closure``; ``diagnose``: those,
  ``sat``, ``closure`` and ``strands``;
- ``stat binom``: ``rationals``, ``records`` and ``stattests``;
- ``lottery``: ``basefile``, ``formulas``, ``rationals``, ``worlds`` and
  ``lotteries``, which no command on a base file loads.

No command loads ``dataclasses`` or ``inspect``: the result classes are
``records``, which build their dataclass fields on first read.

Only ``--json`` imports ``json``, and only a sampled ``extensions`` run
imports ``random``.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from fractions import Fraction

from . import __version__

PROG = "probaccept"

# ``accept.POLICY_TABLE``'s names, each with whether the policy takes an
# order: the parser's choices, written out so that building the parser
# imports no policy code.
_POLICY_NAMES = {
    "threshold": False,
    "lehrer": False,
    "cascade": False,
    "sequential": True,
    "teng": True,
}


# ---------------------------------------------------------------------------
# Report rendering.
# ---------------------------------------------------------------------------


def _approx(value: Fraction, places: int = 6) -> str:
    scale = 10**places
    scaled = round(value * scale)  # exact Fraction rounding, half to even
    sign = "-" if scaled < 0 else ""
    whole, frac = divmod(abs(scaled), scale)
    return f"{sign}{whole}.{frac:0{places}d}"


def _json_fraction(value) -> dict:
    if isinstance(value, Fraction):
        return {"exact": str(value), "approx": _approx(value)}
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


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
        import json

        return json.dumps(report, indent=2, default=_json_fraction) + "\n"
    lines: list[str] = []
    _flatten(report, "", lines)
    return "\n".join(lines) + "\n"


def _provenance(args) -> dict:
    """The run's seed and level mode, and the base file with the digest of
    the bytes that ``_base_and_level`` parsed."""
    out = {"seed": args.seed, "strict_threshold": bool(args.strict_threshold)}
    if hasattr(args, "base"):
        out["input"] = args.base
        out["input_sha256"] = args.input_sha256
    return out


def _accepted_entries(result) -> list[dict]:
    from .formulas import render

    return [
        {
            "label": a.label,
            "formula": render(a.statement),
            "probability": a.probability,
            "support_at_acceptance": a.support,
        }
        for a in result.accepted
    ]


def _diagnostics(result, **found) -> dict:
    """The diagnostics block of an accepted set, then the keys ``found``."""
    from .formulas import has_strong_inconsistency

    return {
        "weakly_consistent": result.weakly_consistent,
        "strong_inconsistency": has_strong_inconsistency(list(result.statements)),
        **found,
    }


def _leveled(leveled) -> dict:
    """A conjunction's or consequence's formula and support floor."""
    from .formulas import render

    return {
        "formula": render(leveled.statement),
        "premise_count": leveled.premise_count,
        "support_lower_bound": leveled.support_lower_bound,
        "exact_probability": leveled.exact_probability,
    }


# ---------------------------------------------------------------------------
# Subcommand handlers.
# ---------------------------------------------------------------------------


def _base_and_level(args):
    """The base file, read once: its text is parsed, and the digest of its
    bytes kept on ``args`` for the provenance.  Then the level, which reads
    its ``--epsilon`` text with ``as_fraction``."""
    from .accept import AcceptanceLevel
    from .basefile import loads

    with open(args.base, "rb") as handle:
        text = handle.read().decode("utf-8")
    base = loads(text)
    # the interpreter's own SHA-256 (``_sha2`` from Python 3.12, ``_sha256``
    # before), loaded only now; ``hashlib``, which loads OpenSSL, only where
    # it is not built.  Strict UTF-8 decoding round-trips, so encoding the
    # text gives back the bytes read.
    try:
        if sys.version_info >= (3, 12):
            from _sha2 import sha256
        else:
            from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

    args.input_sha256 = sha256(text.encode("utf-8")).hexdigest()
    return base, AcceptanceLevel(args.epsilon, strict=args.strict_threshold)


def _label_list(text: str, option: str) -> list[str]:
    """Comma-separated labels; an empty or repeated item is bad input."""
    labels = [part.strip() for part in text.split(",")] if text.strip() else []
    for i, label in enumerate(labels):
        if not label:
            raise ValueError(f"empty label in {option} {text!r}")
        if label in labels[:i]:
            raise ValueError(f"label {label!r} is repeated in {option}")
    return labels


def _resolve_order(base, text: str) -> list[str]:
    if text == "natural":
        return list(base.candidate_labels)
    if text == "reverse":
        return list(reversed(base.candidate_labels))
    return _label_list(text, "--order")


def _cmd_accept(args) -> dict:
    from .accept import POLICY_TABLE

    base, level = _base_and_level(args)
    run, ordered = POLICY_TABLE[args.policy]
    if ordered and args.order is None:
        raise ValueError(f"policy {args.policy!r} needs --order")
    if not ordered and args.order is not None:
        raise ValueError(f"policy {args.policy!r} does not take --order")
    if ordered:
        result = run(base, _resolve_order(base, args.order), level)
    else:
        result = run(base, level)
    return {
        "command": "accept",
        "policy": result.policy,
        "epsilon": level.epsilon,
        "threshold": level.threshold,
        "accepted_count": len(result.accepted),
        "accepted": _accepted_entries(result),
        "diagnostics": _diagnostics(result, mus_min_size=None, mcs_count=None, degree=None),
    }


def _cmd_extensions(args) -> dict:
    from .accept import enumerate_extensions
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


def _cmd_lottery(args) -> str:
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


def _cmd_diagnose(args) -> dict:
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


def _cmd_closure(args) -> dict:
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


def _cmd_stat(args) -> dict:
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


# ---------------------------------------------------------------------------
# Parser assembly and entry point.
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse's parser, whose help formatters take their width as
    ``shutil.get_terminal_size`` finds it: ``COLUMNS``, else the terminal on
    stdout, else 80.  argparse itself imports ``shutil`` (and with it
    ``bz2``, ``lzma``, ``zlib`` and ``fnmatch``) for the first formatter,
    which ``add_argument`` builds.  Every sub-parser is one too:
    ``add_subparsers`` makes parsers of its parser's type."""

    def _get_formatter(self) -> argparse.HelpFormatter:
        try:
            columns = int(os.environ["COLUMNS"])
        except (KeyError, ValueError):
            columns = 0
        if columns <= 0:
            try:
                columns = os.get_terminal_size(sys.__stdout__.fileno()).columns
            except (AttributeError, ValueError, OSError):  # no terminal there
                columns = 0
        return self.formatter_class(prog=self.prog, width=(columns or 80) - 2)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog=PROG,
        description="Probabilistic acceptance over propositional belief bases.",
    )
    parser.add_argument("--version", action="version", version=f"{PROG} {__version__}")
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    # the defaults are accept.DEFAULT_SEED and sat.DEFAULT_CANDIDATE_CAP
    parser.add_argument("--seed", type=int, default=0, metavar="U64")
    parser.add_argument(
        "--strict-threshold",
        action="store_true",
        help="require probability strictly above 1 - epsilon",
    )
    parser.add_argument(
        "--max-candidates",
        type=int,
        default=20,
        metavar="N",
        help="cap for exhaustive subset enumeration",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_accept = sub.add_parser("accept", help="run one acceptance policy")
    p_accept.add_argument("base", help="belief-base file")
    p_accept.add_argument(
        "--policy",
        required=True,
        choices=list(_POLICY_NAMES),
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
        choices=[name for name, ordered in _POLICY_NAMES.items() if ordered],
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
    if not 0 <= args.seed < 2**64:
        parser.error(f"argument --seed: must lie between 0 and 2**64 - 1, got {args.seed}")
    try:
        out = args.func(args)  # a report body, or lottery's text as it is
        if isinstance(out, dict):
            out["provenance"] = _provenance(args)
            out = _emit(out, args.json)
        sys.stdout.write(out)
        return 0
    except BrokenPipeError:
        raise  # not an input error: ``run`` ends the process with 141
    except (ValueError, OSError) as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"{PROG}: internal error: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    """The process entry: run ``main``, flush stdout and exit with its code,
    or with 141 if stdout's reader has gone.

    Before exiting it freezes the collector.  Every object then sits in
    the permanent generation, which no collection visits, so shutdown no
    longer traces and frees the module graph's cycles, and the OS takes the
    memory back.  ``atexit``, the flush of the std streams, module clearing
    and refcount frees still run, but an object left in a cycle is never
    finalised.  Freezing relies on this: every file the CLI writes is
    closed by ``with`` before ``main`` returns.
    """
    try:
        try:
            code = main()
        except SystemExit as exc:  # argparse's --help, --version and usage errors
            code = exc.code
        sys.stdout.flush()  # here, so that a closed pipe is caught, not reported at shutdown
    except BrokenPipeError:
        # Python's SIGPIPE recipe: with fd 1 on devnull, shutdown's own
        # flush of what is left cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()

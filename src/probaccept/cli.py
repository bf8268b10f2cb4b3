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

``run`` is the process entry, behind ``python -m probaccept`` and the
``probaccept`` script (both through ``__main__``, which turns the cyclic
collector off first) and ``python -m probaccept.cli``.  ``main`` is the
in-process API: it returns the exit code, or raises argparse's
``SystemExit`` (``--help``, ``--version``, usage errors) or
``BrokenPipeError`` if stdout's reader has gone; it never flushes,
touches the collector or a file descriptor.

The parser registers every sub-command by name and help, and builds a
sub-command's arguments only when that one parses.  This module holds
``accept``'s arguments and handler and the helpers the handlers share;
each other command's ``arguments`` and ``handle`` are in a module that
only that command loads (``cli_extensions``, ``cli_lottery``,
``cli_diagnose``, ``cli_closure``, ``cli_stat``), imported when its
sub-parser first parses.  A handler imports the library modules it runs
and returns its report body, or ``lottery``'s text; ``main`` alone ends
every report with its ``provenance`` and writes it.  So a command loads
no more than it needs, which ``tests/test_exports.py`` pins for each:

- ``accept``: ``basefile``, ``formulas``, ``rationals``, ``records``,
  ``worlds``, ``oracle`` and ``accept``, with the interpreter's own
  SHA-256 module, not ``hashlib``; ``sat`` only at a verdict the world
  masks leave open, which no ``lottery`` file has;
- ``extensions``: those and ``extensions``; ``closure``: those and
  ``closure``, with ``sat`` only at an entailment the masks leave open,
  which no ``lottery`` file has either; ``diagnose``: those, ``sat``,
  ``closure`` and ``strands``;
- ``stat binom``: ``rationals``, ``records`` and ``stattests``;
- ``lottery``: ``basefile``, ``formulas``, ``rationals``, ``worlds`` and
  ``lotteries``, which no command on a base file loads;
- and each but ``accept`` its own command module.

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


# ---------------------------------------------------------------------------
# Helpers shared by the handlers, and the ``accept`` handler.
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


# ---------------------------------------------------------------------------
# Parser assembly and entry point.
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse's parser, whose help formatters take their width as
    ``shutil.get_terminal_size`` finds it: ``COLUMNS``, else the terminal on
    stdout, else 80.  argparse itself imports ``shutil`` (and with it
    ``bz2``, ``lzma``, ``zlib`` and ``fnmatch``) for the first formatter,
    which ``add_argument`` builds.  Every sub-parser is one too:
    ``add_subparsers`` makes parsers of its parser's type.

    A sub-command's parser is registered with its name and help, all that
    the top-level help and usage errors show, and ``build``, the function
    that adds its arguments and sets its handler as ``func``: it runs the
    first time that parser parses, so a command builds no other command's
    arguments and loads no other command's module."""

    def __init__(self, *args, build=None, **kwargs):
        super().__init__(*args, **kwargs)
        self._build = build

    def parse_known_args(self, args=None, namespace=None):
        if self._build is not None:
            build, self._build = self._build, None
            build(self)
        return super().parse_known_args(args, namespace)

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


def _command(module: str):
    """The ``build`` of a sub-command whose arguments and handler are in
    ``module``, which only that sub-command loads: its ``arguments`` sets
    the parser's ``func`` to its ``handle``."""

    def build(parser: _Parser) -> None:
        # ``__import__``, whose time ``-X importtime`` reports, as it does not
        # for ``importlib.import_module``
        __import__(f"{__package__}.{module}", fromlist=["arguments"]).arguments(parser)

    return build


def _accept_arguments(p_accept: _Parser) -> None:
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


def _stat_arguments(p_stat: _Parser) -> None:
    stat_sub = p_stat.add_subparsers(dest="stat_command", required=True)
    stat_sub.add_parser("binom", help="exact binomial test", build=_command("cli_stat"))


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
    sub.add_parser("accept", help="run one acceptance policy", build=_accept_arguments)
    sub.add_parser(
        "extensions", help="enumerate order-dependent outcomes", build=_command("cli_extensions")
    )
    sub.add_parser("lottery", help="generate a lottery belief base", build=_command("cli_lottery"))
    sub.add_parser("diagnose", help="inconsistency diagnostics", build=_command("cli_diagnose"))
    sub.add_parser(
        "closure", help="conjunction/consequence support floors", build=_command("cli_closure")
    )
    sub.add_parser("stat", help="statistical tests", build=_stat_arguments)
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

    The cyclic collector is off for the whole process: ``__main__``, the
    module behind ``python -m probaccept`` and the ``probaccept`` script,
    turns it off before this module loads, and this function again first,
    for ``python -m probaccept.cli``.  The library's work leaves little
    cyclic garbage, and a cold command's collections ran during its
    imports and freed next to nothing.  Before exiting it freezes the
    collector, since shutdown collects whether or not the collector is
    on.  Every object then sits in the permanent generation, which no
    collection visits, so shutdown no longer traces and frees the module
    graph's cycles, and the OS takes the memory back.  ``atexit``, the
    flush of the std streams, module clearing and refcount frees still
    run, but an object left in a cycle is never finalised.  Freezing
    relies on this: every file the CLI writes is closed by ``with`` before
    ``main`` returns.
    """
    gc.disable()
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
    # the command modules import their helpers from ``probaccept.cli``: this
    # module, not a second copy of it
    sys.modules.setdefault(f"{__package__}.cli", sys.modules[__name__])
    run()

"""Line-oriented text format for belief bases.

Layout (UTF-8, ``#`` starts a comment, blank lines ignored)::

    ATOMS: wins_1 wins_2 wins_3
    WORLDS:
    w1: wins_1=1 wins_2=0 wins_3=0 weight 1/3
    w2: wins_1=0 wins_2=1 wins_3=0 weight 1/3
    w3: wins_1=0 wins_2=0 wins_3=1 weight 1/3
    BACKGROUND:
    # one formula per line
    (wins_1 | wins_2 | wins_3) & ~(wins_1 & wins_2) & ...
    CANDIDATES:
    L1: ~wins_1

Rationals are written ``p/q`` or as bare integers, in ASCII digits, and
read by ``rationals.as_fraction``, the package's one reader of a rational,
so a bad weight fails with the message a CLI option would give, after its
line number; floating point is rejected everywhere.  Atom names, in world
lines too, and candidate labels follow the one grammar of
``formulas._ATOM_RE``, each checked on its own line.  ``dumps``
followed by ``loads`` reproduces an equal belief base; ``dumps`` refuses
a candidate label that spells a section name in any case, such as
``Worlds``, since ``loads`` would read its line as that header.  A file
lists at most ``MAX_WORLDS`` (2**16) worlds, as many as the largest
independent lottery has.  An atom name, a world label and a candidate
label may each appear once; a repeat fails on its line.  ``loads`` skips
one leading byte-order mark, which some editors write.  A formula with an
atom the ``ATOMS`` section lacks, and a background formula below
probability 1, fail with the base's message after the line of the first
such formula; only a refused file looks for that line.

Lotteries are read and written in closed form.  A formula line that is,
character for character, ``render(exactly_one(atoms))`` over two or more
distinct atoms (the names of its leading ``(a | b | ...)`` group) reads
back as that ``exactly_one``, with no pair tree, unless its canonical key
would pass ``MAX_KEY_LENGTH``.  A line without one ``~(`` per pair is
parsed before anything of the pairs' size is built, as is any other
formula line.  World lines are read token by
token, and each distinct assignment token and weight text is checked and
converted once per file.  Every error message and its line number are
those of the plain reader, and the base read is equal either way.
``dumps`` writes such an ``exactly_one`` through ``render``, which spells
it from its names, and each world from two strings per atom, ``name=0``
and ``name=1``, built once.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .formulas import _ATOM_RE, atom, exactly_one, parse, render
from .rationals import as_fraction
from .worlds import MAX_WORLDS, BeliefBase, WorldModel

__all__ = [
    "BeliefBaseFormatError",
    "parse_rational",
    "loads",
    "dumps",
    "load",
    "dump",
]

_WORLD_RE = re.compile(r"(?P<label>\S+)\s*:\s*(?P<body>.*)")
_ASSIGN_RE = re.compile(f"(?P<atom>{_ATOM_RE.pattern})=(?P<value>[01])")

_SECTIONS = ("ATOMS:", "WORLDS:", "BACKGROUND:", "CANDIDATES:")


class BeliefBaseFormatError(ValueError):
    """Malformed belief-base text; message carries the line number."""


# The public name of the one rational reader, kept for callers of this module.
parse_rational = as_fraction


def _fail(lineno: int, message: str) -> BeliefBaseFormatError:
    return BeliefBaseFormatError(f"line {lineno}: {message}")


def loads(text: str) -> BeliefBase:
    atoms: list[str] = []
    worlds: list[tuple[tuple[bool, ...], Fraction]] = []
    background: list = []
    candidates: dict[str, object] = {}  # label -> formula, in file order
    formula_lines: list = []  # (in the background, line number, formula)
    section: str | None = None
    known: set[str] = set()  # the atoms
    labels: set[str] = set()  # the world labels
    cells: dict[str, tuple[str, bool]] = {}  # assignment token -> (atom, value)
    weights: dict[str, Fraction] = {}  # weight text -> its value

    # an editor may begin a UTF-8 file with a byte-order mark
    for lineno, raw in enumerate(text.removeprefix("\ufeff").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        upper = line.split(None, 1)[0].upper()
        if upper in _SECTIONS:
            section = upper[:-1]
            line = line[len(upper):].strip()  # the atoms a header line may list
            if not line:
                continue
            if section != "ATOMS":
                raise _fail(lineno, f"unexpected text after {upper}")
        elif section is None:
            raise _fail(lineno, "content before any section header")
        if section == "ATOMS":
            for name in line.split():
                if name in known:
                    raise _fail(lineno, f"duplicate atom names: {name!r}")
                if not _ATOM_RE.fullmatch(name):
                    raise _fail(lineno, f"invalid atom name {name!r}")
                known.add(name)
                atoms.append(name)
        elif section == "WORLDS":
            if len(worlds) == MAX_WORLDS:
                raise _fail(lineno, f"more than {MAX_WORLDS} worlds")
            label, world = _parse_world(line, lineno, atoms, known, cells, weights)
            if label in labels:
                raise _fail(lineno, f"duplicate world label {label!r}")
            labels.add(label)
            worlds.append(world)
        elif section == "BACKGROUND":
            background.append(_parse_formula(line, lineno))
            formula_lines.append((True, lineno, background[-1]))
        else:
            m = _WORLD_RE.fullmatch(line)
            if m is None:
                raise _fail(lineno, "expected '<label>: <formula>'")
            label = m.group("label")
            if label in candidates:
                raise _fail(lineno, f"duplicate candidate label {label!r}")
            if not _ATOM_RE.fullmatch(label):  # labels share the atom-name syntax
                raise _fail(lineno, f"invalid candidate label {label!r}")
            candidates[label] = _parse_formula(m.group("body"), lineno)
            formula_lines.append((False, lineno, candidates[label]))

    if not atoms:
        raise BeliefBaseFormatError("no ATOMS section")
    if not worlds:
        raise BeliefBaseFormatError("no WORLDS section")
    try:
        model = WorldModel(atoms, worlds)
    except ValueError as exc:
        raise BeliefBaseFormatError(str(exc)) from exc
    try:
        return BeliefBase(model, background, candidates)
    except ValueError as exc:
        # The base checks every candidate's atoms, then each background
        # formula's atoms and probability, and names the first that fails.
        refused = min(
            (in_background, n)
            for in_background, n, f in formula_lines
            if not f.atoms() <= known or in_background and model.probability(f) != 1
        )
        raise _fail(refused[1], str(exc)) from exc


def _parse_formula(text: str, lineno: int):
    if text.startswith("("):
        names = text[1:text.find(")")].split(" | ")
        n = len(names)
        # The rendering has one "~(" per pair, so a line with any other
        # count goes to the parser before anything of the pairs' size is built.
        if (
            n >= 2
            and text.count("~(") == n * (n - 1) // 2
            and all(map(_ATOM_RE.fullmatch, names))
        ):
            formula = exactly_one([atom(name) for name in names])
            # ``_names`` is set for distinct atoms whose key fits MAX_KEY_LENGTH
            if formula._names and text == render(formula):
                return formula
    try:
        formula = parse(text)
        formula.nnf()  # canonicalise now, so an oversized form names its line
    except ValueError as exc:
        raise _fail(lineno, f"bad formula: {exc}") from exc
    return formula


def _parse_world(
    line: str,
    lineno: int,
    atoms: list[str],
    known: set[str],
    cells: dict[str, tuple[str, bool]],
    weights: dict[str, Fraction],
):
    """One world line's label and ``(valuation, weight)``.  ``cells`` and
    ``weights`` hold the assignment tokens and weight texts already read
    in this file, so each distinct one is checked and converted once."""
    m = _WORLD_RE.fullmatch(line)
    if m is None:
        raise _fail(lineno, "expected '<label>: <atom>=<0|1> ... weight <p/q>'")
    body = m.group("body")
    parts = body.split()
    if "weight" not in parts:
        raise _fail(lineno, "world line is missing its weight")
    split_at = parts.index("weight")
    weight_tokens = parts[split_at + 1:]
    if len(weight_tokens) != 1:
        raise _fail(lineno, "expected exactly one weight value")
    weight = weights.get(weight_tokens[0])
    if weight is None:
        try:
            weight = weights[weight_tokens[0]] = as_fraction(weight_tokens[0])
        except ValueError as exc:
            raise _fail(lineno, str(exc)) from exc
    assignment: dict[str, bool] = {}
    for token in parts[:split_at]:
        cell = cells.get(token)
        if cell is None:
            am = _ASSIGN_RE.fullmatch(token)
            if am is None:
                raise _fail(lineno, f"bad assignment token {token!r}")
            name = am.group("atom")
            if name not in known:
                raise _fail(lineno, f"unknown atom {name!r}")
            cell = cells[token] = (name, am.group("value") == "1")
        name, value = cell
        if name in assignment:
            raise _fail(lineno, f"atom {name!r} assigned twice")
        assignment[name] = value
    if len(assignment) < len(known):
        missing = [a for a in atoms if a not in assignment]
        raise _fail(lineno, f"world leaves atoms unassigned: {', '.join(missing)}")
    return m.group("label"), (tuple([assignment[a] for a in atoms]), weight)


def dumps(base: BeliefBase) -> str:
    atoms = base.model.atoms
    lines = ["ATOMS: " + " ".join(atoms)]
    lines.append("WORLDS:")
    cells = [(f"{name}=0", f"{name}=1") for name in atoms]
    for i, (valuation, weight) in enumerate(base.model.worlds, start=1):
        assigns = " ".join([cell[value] for cell, value in zip(cells, valuation)])
        lines.append(f"w{i}: {assigns} weight {weight}")
    if base.background:
        lines.append("BACKGROUND:")
        for formula in base.background:
            lines.append(render(formula))
    if base.candidates:
        lines.append("CANDIDATES:")
        for label, formula in base.candidates:
            if f"{label.upper()}:" in _SECTIONS:
                raise ValueError(
                    f"candidate label {label!r} would read back as a section header"
                )
            lines.append(f"{label}: {render(formula)}")
    return "\n".join(lines) + "\n"


def load(path) -> BeliefBase:
    with open(path, "r", encoding="utf-8") as handle:
        return loads(handle.read())


def dump(base: BeliefBase, path) -> None:
    text = dumps(base)  # first, so that a refusal leaves the file as it was
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)

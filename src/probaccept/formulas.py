"""Propositional formulas with a canonical normal form.

Formulas are immutable trees built from atoms and the connectives
``~ & | -> <->``.  Identity is syntactic on a canonical form: negation
normal form with flattened, sorted, deduplicated arguments for the
commutative connectives.  Two formulas compare (and hash) equal exactly
when their canonical keys coincide, which makes formulas directly usable
as set elements.  Canonicalization is idempotent by construction.

The concrete grammar (whitespace insignificant, precedence low to high
``<->``, ``->``, ``|``, ``&``, ``~``; ``->`` right-associative)::

    formula := iff
    iff     := imp ("<->" imp)*
    imp     := or ("->" imp)?
    or      := and ("|" and)*
    and     := unary ("&" unary)*
    unary   := "~" unary | "(" formula ")" | atom
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator, Sequence

__all__ = [
    "Formula",
    "FormulaSet",
    "FormulaSyntaxError",
    "atom",
    "neg",
    "conj",
    "disj",
    "implies",
    "iff",
    "exactly_one",
    "parse",
    "render",
    "has_strong_inconsistency",
    "nnf_key",
]

# The one grammar of an atom name, which candidate labels share; the
# parser's atom token and a base file's assignment token are built from it.
_ATOM_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

_OPS = frozenset({"atom", "not", "and", "or", "implies", "iff"})

# Deepest nesting the parser accepts, counting each "(", "~", right-nested
# "->" and left-nested "<->"; it keeps the parser and every recursive walk
# of a parsed formula well inside the default recursion limit.
MAX_NESTING = 100

# Longest canonical key a formula may have.  The canonical form of a
# biconditional repeats both operands in both polarities, so along a
# chain of "<->" the key doubles with every link.
MAX_KEY_LENGTH = 2_000_000


class FormulaSyntaxError(ValueError):
    """Malformed formula text; ``position`` is the 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at offset {position}")
        self.position = position


# ---------------------------------------------------------------------------
# Canonical NNF nodes.
#
# A node is a plain tuple:  ("lit", name, positive)  |  ("and", children)
# |  ("or", children), children sorted in tuple order and deduplicated.  As
# position 0 is always the tag, no comparison meets a name and a tuple.
# ---------------------------------------------------------------------------


def nnf_key(node: tuple) -> str:
    """Unambiguous string rendering of a canonical NNF node."""
    tag = node[0]
    if tag == "lit":
        return node[1] if node[2] else "~" + node[1]
    sep = " & " if tag == "and" else " | "
    return "(" + sep.join(nnf_key(child) for child in node[1]) + ")"


def _gather(parts: Iterable[tuple], tag: str) -> tuple:
    flat: list[tuple] = []
    for part in parts:
        if part[0] == tag:
            flat.extend(part[1])
        else:
            flat.append(part)
    flat.sort()
    unique = [part for i, part in enumerate(flat) if i == 0 or part != flat[i - 1]]
    if len(unique) == 1:
        return unique[0]
    return (tag, tuple(unique))


def _n_negate(node: tuple) -> tuple:
    if node[0] == "lit":
        return ("lit", node[1], not node[2])
    if node[0] == "and":
        return _gather((_n_negate(child) for child in node[1]), "or")
    return _gather((_n_negate(child) for child in node[1]), "and")


# ---------------------------------------------------------------------------
# Formula values.
# ---------------------------------------------------------------------------


class Formula:
    """An immutable propositional sentence.

    ``op`` is one of ``atom``, ``not``, ``and``, ``or``, ``implies``,
    ``iff``; ``and``/``or`` are variadic with at least two arguments.
    Instances are created through :func:`atom`, :func:`neg`, :func:`conj`,
    :func:`disj`, :func:`implies`, :func:`iff`, :func:`exactly_one` or
    :func:`parse`.
    """

    __slots__ = ("op", "args", "name", "_pos", "_neg", "_key", "_atoms", "_bounds")

    def __init__(self, op: str, args: Sequence["Formula"] = (), name: str | None = None):
        args = tuple(args)  # a caller's list may change later; this formula must not
        if op not in _OPS:
            raise ValueError(f"unknown connective {op!r}")
        if op == "atom":
            if name is None or not _ATOM_RE.fullmatch(name):
                raise ValueError(f"invalid atom name {name!r}")
            if args:
                raise ValueError("atoms take no arguments")
        else:
            if name is not None:
                raise ValueError("only atoms carry a name")
            arity_ok = (
                len(args) == 1 if op == "not"
                else len(args) == 2 if op in ("implies", "iff")
                else len(args) >= 2
            )
            if not arity_ok or not all(isinstance(a, Formula) for a in args):
                raise ValueError(f"bad arguments for {op!r}")
        self.op = op
        self.args = args
        self.name = name
        self._pos: tuple | None = None
        self._neg: tuple | None = None
        self._key: str | None = None
        self._atoms: frozenset[str] | None = None
        self._bounds: tuple[int, int] | None = None

    def nnf(self) -> tuple:
        """Canonical negation-normal-form node for this formula."""
        return self._nnf_of(True)

    def _key_bounds(self) -> tuple[int, int]:
        """Upper bounds on the key lengths of the positive and the negated
        canonical form, computed without building either.  A connective's
        key joins its children's keys with three-character separators
        inside parentheses; flattening and deduplication only shorten it."""
        if self._bounds is None:
            op = self.op
            if op == "atom":
                bounds = (len(self.name), len(self.name) + 1)
            elif op == "not":
                pos, negn = self.args[0]._key_bounds()
                bounds = (negn, pos)
            elif op in ("and", "or"):
                pos = negn = 3 * len(self.args) - 1
                for a in self.args:
                    p, n = a._key_bounds()
                    pos += p
                    negn += n
                bounds = (pos, negn)
            else:
                (lp, ln), (rp, rn) = (a._key_bounds() for a in self.args)
                if op == "implies":  # (~l | r), (l & ~r)
                    bounds = (ln + rp + 5, lp + rn + 5)
                else:  # ((l & r) | (~l & ~r)), ((l & ~r) | (~l & r))
                    bounds = (lp + ln + rp + rn + 15,) * 2
            self._bounds = bounds
        return self._bounds

    def _nnf_of(self, positive: bool) -> tuple:
        """Canonical node of this formula, or of its negation if not ``positive``."""
        node = self._pos if positive else self._neg
        if node is None:
            bound = max(self._key_bounds())
            if bound > MAX_KEY_LENGTH:
                raise ValueError(
                    f"canonical form of up to {bound} characters exceeds the "
                    f"limit of {MAX_KEY_LENGTH}"
                )
            op = self.op
            if op == "atom":
                node = ("lit", self.name, positive)
            elif op == "not":
                node = self.args[0]._nnf_of(not positive)
            elif op in ("and", "or"):
                parts = [a._nnf_of(positive) for a in self.args]
                node = _gather(parts, "and" if (op == "and") == positive else "or")
            elif op == "implies":  # ~l | r, negated l & ~r
                left, right = self.args
                parts = [left._nnf_of(not positive), right._nnf_of(positive)]
                node = _gather(parts, "or" if positive else "and")
            else:  # (l & r) | (~l & ~r), negated (l & ~r) | (~l & r)
                left, right = self.args
                node = _gather((
                    _gather((left._nnf_of(True), right._nnf_of(positive)), "and"),
                    _gather((left._nnf_of(False), right._nnf_of(not positive)), "and"),
                ), "or")
            if positive:
                self._pos = node
            else:
                self._neg = node
        return node

    @property
    def canonical_key(self) -> str:
        if self._key is None:
            self._key = nnf_key(self.nnf())
        return self._key

    def atoms(self) -> frozenset[str]:
        if self._atoms is None:
            if self.op == "atom":
                self._atoms = frozenset((self.name,))
            else:
                out: set[str] = set()
                for a in self.args:
                    out |= a.atoms()
                self._atoms = frozenset(out)
        return self._atoms

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Formula):
            return NotImplemented
        return self.canonical_key == other.canonical_key

    def __hash__(self) -> int:
        return hash(self.canonical_key)

    def __str__(self) -> str:
        return render(self)

    def __repr__(self) -> str:
        return f"Formula({render(self)!r})"


def atom(name: str) -> Formula:
    return Formula("atom", name=name)


def neg(f: Formula) -> Formula:
    return Formula("not", (f,))


def _negated_atom(name: str) -> Formula:
    """``neg(atom(name))``, equal to it slot for slot, with both canonical
    nodes, key, atoms and key bounds already set, and so are those of its
    argument, the atom.  ``name`` must be a valid atom name: nothing checks
    it."""
    a = Formula.__new__(Formula)
    a.op, a.args, a.name = "atom", (), name
    a._pos, a._neg = ("lit", name, True), ("lit", name, False)
    a._key, a._atoms, a._bounds = name, frozenset((name,)), (len(name), len(name) + 1)
    f = Formula.__new__(Formula)
    f.op, f.args, f.name = "not", (a,), None
    f._pos, f._neg = a._neg, a._pos
    f._key, f._atoms, f._bounds = "~" + name, a._atoms, a._bounds[::-1]
    return f


def conj(*formulas: Formula) -> Formula:
    if not formulas:
        raise ValueError("conjunction of nothing")
    if len(formulas) == 1:
        return formulas[0]
    return Formula("and", tuple(formulas))


def disj(*formulas: Formula) -> Formula:
    if not formulas:
        raise ValueError("disjunction of nothing")
    if len(formulas) == 1:
        return formulas[0]
    return Formula("or", tuple(formulas))


def implies(antecedent: Formula, consequent: Formula) -> Formula:
    return Formula("implies", (antecedent, consequent))


def iff(left: Formula, right: Formula) -> Formula:
    return Formula("iff", (left, right))


class _ExactlyOne(Formula):
    """The conjunction :func:`exactly_one` returns.  Its ``args`` slot stays
    empty until first read, from ``nnf()``, a caller, or ``render`` when
    ``_names`` is empty; ``__getattr__`` then builds the disjunction's pair
    nodes, in pair order.  Copies and pickles call :func:`exactly_one` on
    the outcomes again, so they leave ``args`` unset too.  ``_names`` holds
    the sorted names when the outcomes are distinct atoms and the key was
    set from them, else it is empty."""

    __slots__ = ("_either", "_names")

    def __init__(self, either: Formula):
        super().__init__("and", (either, either))  # two arguments pass the checks
        del self.args
        self._either = either
        self._names: tuple[str, ...] = ()

    def __getattr__(self, name: str) -> tuple[Formula, ...]:
        if name != "args":
            raise AttributeError(name)
        either = self._either
        outcomes = either.args
        self.args = (either, *(
            neg(conj(a, b)) for i, a in enumerate(outcomes) for b in outcomes[i + 1:]
        ))
        return self.args

    def __reduce__(self):
        # rebuilt from the outcomes, so a copy or a pickle neither builds
        # nor carries the pair tree
        return exactly_one, (self._either.args,)


def exactly_one(outcomes: Sequence[Formula]) -> Formula:
    """Exactly one of the given formulas holds: the conjunction of their
    disjunction and one ``~(o_i & o_j)`` per pair, in pair order (a single
    outcome is returned as it is).

    Nothing of size n(n-1)/2 is built by the call.  Its atoms and key
    bounds come from the outcomes.  The pair tree is built on the first
    read of ``.args``; ``nnf()`` reads it, so the canonical node is the
    generic walk of the tree.  When the outcomes are two or more distinct
    atoms, as in every lottery, nothing else reads it: the canonical key
    is written straight from their sorted names, the pairs on each name
    with one join over the names after it, ``render`` writes the
    text from their names in outcome order, ``has_strong_inconsistency``
    passes the formula over, and the SAT solver takes them as one
    at-least-one clause and one at-most-one row, with no pair clauses; a
    world model folds the mask of any ``exactly_one`` from its outcomes'
    masks.  In a background, such an ``exactly_one`` of k of a model's m
    atoms holds in k · 2^(m-k) valuations; when that many of the model's
    worlds satisfy it, as in every built one-winner lottery, the model
    lists them all, and the solver answers an empty mask as unsatisfiable
    without a search.
    A form past ``MAX_KEY_LENGTH`` gets no key, so ``nnf()`` and
    ``canonical_key`` raise as for any other formula."""
    if not outcomes:
        raise ValueError("need at least one outcome")
    either = disj(*outcomes)  # checks the outcomes and keeps them as a tuple
    if len(outcomes) == 1:
        return either
    outcomes = either.args
    n = len(outcomes)
    result = _ExactlyOne(either)
    # The bounds ``_key_bounds`` would sum over the tree.  With (p_i, q_i)
    # outcome i's bounds, ~(o_i & o_j) is at most 5 + q_i + q_j long and its
    # negation 5 + p_i + p_j, so over all pairs each outcome counts n - 1
    # times; the separators of the two n-ary nodes add the rest.
    pos_sum = neg_sum = 0
    for o in outcomes:
        p, q = o._key_bounds()
        pos_sum += p
        neg_sum += q
    pairs = n * (n - 1) // 2
    joints = 3 * (pairs + 1) - 1 + 3 * n - 1 + 5 * pairs
    result._bounds = (
        joints + pos_sum + (n - 1) * neg_sum, joints + neg_sum + (n - 1) * pos_sum
    )
    result._atoms = frozenset().union(*(o.atoms() for o in outcomes))
    if (
        all(o.op == "atom" for o in outcomes)
        and len(result._atoms) == n
        and max(result._bounds) <= MAX_KEY_LENGTH
    ):
        # The canonical node sorts its literals by name, ~a before a: the
        # pairs on the least name, then the disjunction, then the rest.  The
        # pairs on one name are one join over the names after it.
        names = sorted(result._atoms)
        runs = [f"(~{a} | ~" + f") & (~{a} | ~".join(names[i:]) + ")"
                for i, a in enumerate(names[:-1], 1)]
        runs.insert(1, "(" + " | ".join(names) + ")")
        result._key = "(" + " & ".join(runs) + ")"
        result._names = tuple(names)
    return result


# ---------------------------------------------------------------------------
# Rendering.  Parenthesization is minimal under the grammar's precedence,
# so render/parse round-trips preserve structure.
# ---------------------------------------------------------------------------

_PREC = {"iff": 1, "implies": 2, "or": 3, "and": 4, "not": 5, "atom": 6}


def _wrap(f: Formula, need: int) -> str:
    text = render(f)
    return f"({text})" if _PREC[f.op] < need else text


def _one_winner_text(names: Sequence[str]) -> str:
    """``render`` of :func:`exactly_one` over the distinct atoms ``names``,
    in their order, written without its pair tree."""
    parts = ["(" + " | ".join(names) + ")"]
    parts += [f"~({a} & {b})" for i, a in enumerate(names) for b in names[i + 1:]]
    return " & ".join(parts)


def render(f: Formula) -> str:
    op = f.op
    if op == "atom":
        return f.name  # type: ignore[return-value]
    if op == "not":
        return "~" + _wrap(f.args[0], 5)
    if op == "and":
        if type(f) is _ExactlyOne and f._names:
            return _one_winner_text([o.name for o in f._either.args])
        return " & ".join(_wrap(a, 5) for a in f.args)
    if op == "or":
        return " | ".join(_wrap(a, 4) for a in f.args)
    if op == "implies":
        return _wrap(f.args[0], 3) + " -> " + _wrap(f.args[1], 2)
    return _wrap(f.args[0], 1) + " <-> " + _wrap(f.args[1], 2)


# ---------------------------------------------------------------------------
# Parsing.
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    rf"\s*(?:(?P<atom>{_ATOM_RE.pattern})|(?P<iff><->)|(?P<implies>->)"
    r"|(?P<and>&)|(?P<or>\|)|(?P<not>~)|(?P<lparen>\()|(?P<rparen>\)))"
)


def _tokenize(text: str) -> list[tuple[str, int]]:
    tokens: list[tuple[str, int]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            where = len(text) - len(stripped)
            raise FormulaSyntaxError(f"unexpected character {stripped[0]!r}", where)
        kind = m.lastgroup
        assert kind is not None
        tokens.append((m.group(kind) if kind == "atom" else kind, m.start(kind)))
        pos = m.end()
    tokens.append(("end", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> tuple[str, int]:
        return self.tokens[self.i]

    def take(self) -> tuple[str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def nest(self, depth: int) -> int:
        """The depth inside the nesting token just taken."""
        if depth == MAX_NESTING:
            position = self.tokens[self.i - 1][1]
            raise FormulaSyntaxError(f"nesting deeper than {MAX_NESTING}", position)
        return depth + 1

    def formula(self, depth: int) -> Formula:
        left = self.imp(depth)
        while self.peek()[0] == "iff":
            self.take()
            depth = self.nest(depth)
            left = iff(left, self.imp(depth))
        return left

    def imp(self, depth: int) -> Formula:
        left = self.or_(depth)
        if self.peek()[0] == "implies":
            self.take()
            return implies(left, self.imp(self.nest(depth)))
        return left

    def or_(self, depth: int) -> Formula:
        parts = [self.and_(depth)]
        while self.peek()[0] == "or":
            self.take()
            parts.append(self.and_(depth))
        return disj(*parts)

    def and_(self, depth: int) -> Formula:
        parts = [self.unary(depth)]
        while self.peek()[0] == "and":
            self.take()
            parts.append(self.unary(depth))
        return conj(*parts)

    def unary(self, depth: int) -> Formula:
        kind, pos = self.take()
        if kind == "not":
            return neg(self.unary(self.nest(depth)))
        if kind == "lparen":
            inner = self.formula(self.nest(depth))
            kind2, pos2 = self.take()
            if kind2 != "rparen":
                raise FormulaSyntaxError("expected ')'", pos2)
            return inner
        if kind in ("iff", "implies", "and", "or", "rparen", "end"):
            raise FormulaSyntaxError("expected a formula", pos)
        return atom(kind)


def parse(text: str) -> Formula:
    """Parse ``text`` into a formula; raises :class:`FormulaSyntaxError`."""
    parser = _Parser(text)
    result = parser.formula(0)
    kind, pos = parser.peek()
    if kind != "end":
        raise FormulaSyntaxError(f"unexpected {kind!r}", pos)
    return result


# ---------------------------------------------------------------------------
# Diagnostics.
# ---------------------------------------------------------------------------


def _node_has_direct_contradiction(node: tuple) -> bool:
    if node[0] == "lit":
        return False
    children = node[1]
    if node[0] == "and":
        present = set(children)
        for child in children:
            flipped = _n_negate(child)
            if flipped[0] == "and":
                if all(part in present for part in flipped[1]):
                    return True
            elif flipped in present:
                return True
    return any(_node_has_direct_contradiction(child) for child in children)


def has_strong_inconsistency(formulas: Iterable[Formula]) -> bool:
    """True when some member, canonicalized, conjoins a subformula with its
    own negation.  Distinct members that merely contradict each other do
    not count; that is mere joint unsatisfiability.  An :func:`exactly_one`
    of distinct atoms is skipped unwalked: its canonical form is a
    conjunction of clauses over literals, none the negation of another."""
    return any(
        _node_has_direct_contradiction(f.nnf())
        for f in formulas
        if not (type(f) is _ExactlyOne and f._names)
    )


class FormulaSet:
    """An ordered collection of distinct formulas.

    Insertion order is preserved for iteration; duplicates (by canonical
    key) are dropped.  Equality and hashing are order-insensitive.

    A set is never changed after construction, so the subset diagnostics
    in ``sat`` keep the family of maximal consistent and minimal
    unsatisfiable subsets they last walked over it, for one background, in
    the ``_family`` slot.  A belief base's own background, and no other
    set, names the base's world model in the ``_model`` slot, which only
    the ``sat`` solver reads, so that the diagnostics and entailment over
    that background test world masks before they search.  ``__init__``
    leaves both slots unset; equality, hashing, ``repr``, copies and
    pickles ignore them.
    """

    __slots__ = ("_keys", "_family", "_model")

    def __init__(self, members: Iterable[Formula] = ()):
        keys: dict[str, Formula] = {}  # canonical key -> first formula with it
        for f in members:
            if not isinstance(f, Formula):
                raise TypeError(f"FormulaSet members must be formulas, got {f!r}")
            keys.setdefault(f.canonical_key, f)
        self._keys = keys

    @classmethod
    def _of(cls, pairs: Iterable[tuple[str, Formula]]) -> "FormulaSet":
        """The set of ``(canonical key, formula)`` pairs of distinct formulas,
        such as those drawn from one set's ``_keys``: no type check, no key
        read.  Both slots stay unset, as ``__init__`` leaves them."""
        result = cls.__new__(cls)
        result._keys = dict(pairs)
        return result

    def __iter__(self) -> Iterator[Formula]:
        return iter(self._keys.values())

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, f: object) -> bool:
        return isinstance(f, Formula) and f.canonical_key in self._keys

    def add(self, f: Formula) -> "FormulaSet":
        return self.union((f,))

    def union(self, other: Iterable[Formula]) -> "FormulaSet":
        return FormulaSet([*self._keys.values(), *other])

    def __or__(self, other: "FormulaSet") -> "FormulaSet":
        if not isinstance(other, FormulaSet):
            return NotImplemented
        return self.union(other)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FormulaSet):
            return NotImplemented
        return frozenset(self._keys) == frozenset(other._keys)

    def __hash__(self) -> int:
        return hash(frozenset(self._keys))

    def __repr__(self) -> str:
        inner = ", ".join(render(f) for f in self._keys.values())
        return f"FormulaSet([{inner}])"

    def __reduce__(self):
        return FormulaSet, (tuple(self._keys.values()),)


EMPTY_SET = FormulaSet()

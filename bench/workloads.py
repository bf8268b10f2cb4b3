"""The three benchmark workloads: ``accept``, ``diagnose`` and ``cli``.

Each workload turns a seed into an endless, deterministic stream of
operations, generated in blocks.  Every block has the same kinds of
operation in the same order and the seed draws their details, so runs on
different seeds do the same mix of cheap and expensive work.  ``execute`` runs one operation against the library and ``verify``
checks its output against the oracles; ``verify`` raises ``CheckFailed``.

The library is reached through the package object at call time
(``lib.threshold_accept``), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import permutations, product

import oracles
from oracles import Independent, OneWinner, expect, policy_outcome

POLICIES = ("threshold", "lehrer", "cascade", "sequential", "teng")
ORDERED = ("sequential", "teng")
LIBRARY_POLICY = {
    "threshold": "threshold_accept",
    "lehrer": "lehrer_accept",
    "cascade": "lehrer_cascade",
    "sequential": "sequential_accept",
    "teng": "teng_accept",
}

# minimal_unsat_subsets on these nine distinct formulas does not return
# within 60 s, although is_satisfiable on any one of them takes under 1 ms.
KNOWN_HANG = (
    "a2",
    "a7",
    "(a0 & a1 | a3 & a3 & a0) & a4 & (a6 <-> a2 <-> a5)",
    "a2 <-> a2 <-> ~a7 <-> (a2 <-> a7)",
    "~(~a0 | a4 | a1)",
    "a1 <-> (a3 <-> a4 <-> (a7 <-> a3))",
    "a7 & (a1 & a3 & a4) & (a2 & a4 & a2) | (a2 -> a3) & a6",
    "(a5 | a7) & ~a6 & (a4 <-> a1) -> a3",
    "~a4",
)


def package_env() -> dict[str, str]:
    """The environment for a ``python -S -m probaccept`` child: the
    package's import path is passed explicitly, since nothing is installed.

    Children run with ``-S``: the package needs only the standard library,
    and processing the interpreter's site-packages would add a cost that
    belongs to the machine's Python installation, not to the program."""
    env = dict(os.environ)
    src = str(oracles.ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Skipped(Exception):
    """An operation could not run because an earlier one it needs failed."""


class Op:
    """One operation: a kind, its plain-data spec, and for ``accept`` the
    session it belongs to."""

    __slots__ = ("kind", "spec", "session")

    def __init__(self, kind, spec, session=None):
        self.kind = kind
        self.spec = spec
        self.session = session


class Workload:
    name = ""
    deadline_s = 10.0  # reference seconds
    in_process = True

    def __init__(self, seed: int, lib, helpers, workdir):
        self.seed = seed
        self.lib = lib
        self.helpers = helpers
        self.workdir = workdir
        self._blocks: dict[int, list[Op]] = {}

    def block(self, index: int) -> list[Op]:
        ops = self._blocks.get(index)
        if ops is None:
            rng = random.Random(f"{self.name}:{self.seed}:{index}")
            ops = self._blocks[index] = self.generate(rng, index)
        return ops

    def prepare(self) -> None:
        """Set-up beyond generating the operations."""

    def ops(self):
        index = 0
        while True:
            yield from self.block(index)
            index += 1

    def generate(self, rng, index):
        raise NotImplementedError

    def execute(self, op):
        raise NotImplementedError

    def verify(self, op, result) -> None:
        raise NotImplementedError

    def abandon(self, op) -> None:
        """Called when ``op`` did not finish; later ops must not rely on it."""

    def call_budget(self, op):
        """The most Python function calls ``op`` may make, or None when
        only the deadline applies."""
        return None


# ---------------------------------------------------------------------------
# accept: sessions of one build plus queries against the base it built.
# ---------------------------------------------------------------------------


class Session:
    """One base and the operations on it; the base is dropped after the
    last of them so that memory does not grow with the run."""

    __slots__ = ("family", "params", "arith", "base", "pending")

    def __init__(self, family, params, arith):
        self.family = family
        self.params = params
        self.arith = arith
        self.base = None
        self.pending = 0


class AcceptWorkload(Workload):
    """Every block holds the same sessions in the same order; the seed
    draws candidate orders, biased weights, the extension settings and the
    closure premises.  Each policy runs at three
    levels: at the boundary (``1/n``, the largest ticket weight, or the
    ticket probability), at the same level with the strict flag, and at a
    level that admits less."""

    name = "accept"
    deadline_s = 10.0
    PLAN = (
        ("fair", 100), ("biased", 5), ("fair", 10), ("independent", 13), ("fair", 20),
        ("fair", 60), ("biased", 24), ("fair", 30), ("independent", 6), ("fair", 45),
        ("independent", 10),
    )
    TICKET_P = {6: Fraction(1, 10), 10: Fraction(1, 8), 13: Fraction(1, 5)}
    def generate(self, rng, index):
        """Sessions are interleaved, one operation of each in turn, so that
        the costly ones spread over the block."""
        sessions = [self._session(rng, family, n) for family, n in self.PLAN]
        ops: list[Op] = []
        for turn in range(max(map(len, sessions))):
            ops.extend(session[turn] for session in sessions if turn < len(session))
        return ops

    def _session(self, rng, family, n):
        if family == "fair":
            params = {"n": n}
            arith = OneWinner([Fraction(1, n)] * n)
            natural, lower = Fraction(1, n), Fraction(1, 2 * n)
        elif family == "biased":
            raw = [rng.randint(1, 9) for _ in range(n)]
            weights = [Fraction(w, sum(raw)) for w in raw]
            params = {"weights": weights}
            arith = OneWinner(weights)
            natural, lower = max(weights), min(weights)
        else:
            p = self.TICKET_P[n]
            params = {"n": n, "p": p}
            arith = Independent(n, p)
            natural, lower = p, (1 - p) ** n
        settings = ((natural, False), (natural, True), (lower, False))
        session = Session(family, params, arith)
        ops = [Op("build", None, session)]
        labels = arith.labels
        for policy in POLICIES:
            if policy == "cascade" and family == "independent":
                continue  # the cascade needs lottery-shaped candidates
            for eps, strict in settings:
                order = None
                if policy in ORDERED:
                    order = labels[:]
                    rng.shuffle(order)
                ops.append(Op("policy", (policy, eps, strict, order), session))
        if len(labels) <= 7:
            eps, strict = rng.choice(settings)
            spec = (rng.choice(ORDERED), eps, strict, rng.choice((60, 120, 240)), rng.randrange(1000))
            ops.append(Op("extensions", spec, session))
        lose = [label for label in labels if label.startswith("L")]
        for kind in ("conjunction", "conjunction", "consequence", "consequence"):
            premises = rng.sample(lose, rng.randint(1, min(5, len(lose))))
            conclusion = None
            if kind == "consequence":
                a = rng.choice(premises)
                b = rng.choice([x for x in range(1, n + 1) if f"L{x}" != a])
                conclusion = rng.choice((("conj",), ("weaken", a, b)))
            ops.append(Op(kind, (natural, premises, conclusion), session))
        session.pending = len(ops)
        return ops

    def execute(self, op):
        session = op.session
        session.pending -= 1
        try:
            return self._execute(op, session)
        finally:
            if not session.pending:
                session.base = None

    def _execute(self, op, session):
        lib = self.lib
        if op.kind == "build":
            if session.family == "fair":
                base = lib.fair_lottery(session.params["n"])
            elif session.family == "biased":
                base = lib.biased_lottery(session.params["weights"])
            else:
                base = lib.independent_lottery(session.params["n"], session.params["p"])
            session.base = base
            return base
        base = session.base
        if base is None:
            raise Skipped("session base was not built")
        if op.kind == "policy":
            policy, eps, strict, order = op.spec
            level = lib.AcceptanceLevel(eps, strict)
            run = getattr(lib, LIBRARY_POLICY[policy])
            return run(base, order, level) if order else run(base, level)
        if op.kind == "extensions":
            policy, eps, strict, cap, seed = op.spec
            level = lib.AcceptanceLevel(eps, strict)
            return lib.enumerate_extensions(base, policy, level, max_permutations=cap, seed=seed)
        eps, premises, conclusion = op.spec
        level = lib.AcceptanceLevel(eps)
        statements = lib.FormulaSet(base.candidate(label) for label in premises)
        if op.kind == "conjunction":
            return lib.conjunction_support(base.model, statements, level)
        if conclusion[0] == "conj":
            target = lib.conj(*statements) if len(statements) > 1 else next(iter(statements))
        else:
            target = lib.disj(base.candidate(conclusion[1]), lib.atom(f"wins_{conclusion[2]}"))
        return lib.consequence_level(base.model, statements, target, level, background=base.background)

    def abandon(self, op):
        if op.kind == "build":
            op.session.base = None

    def verify(self, op, result):
        arith = op.session.arith
        if op.kind == "build":
            labels = [label for label, _ in result.candidates]
            expect(labels == arith.labels, "build: candidate labels")
            expect(len(result.model.worlds) == arith.worlds, "build: world count")
            return
        if op.kind == "policy":
            policy, eps, strict, order = op.spec
            expected, consistent = policy_outcome(arith, policy, eps, strict, order)
            oracles.check_accepted(result, expected, consistent, policy)
            return
        if op.kind == "extensions":
            self._verify_extensions(arith, op.spec, result)
            return
        eps, premises, conclusion = op.spec
        k = len(premises)
        expect(result.premise_count == k, "closure: premise count")
        expect(result.support_lower_bound == max(Fraction(0), 1 - k * eps), "closure: floor")
        if op.kind == "conjunction" or conclusion[0] == "conj":
            exact = arith.prob(premises)
        elif isinstance(arith, OneWinner):
            exact = 1 - arith.weights[int(conclusion[1][1:]) - 1]
        else:
            exact = 1 - arith.p * (1 - arith.p)
        expect(result.exact_probability == exact, f"{op.kind}: exact probability")

    def _verify_extensions(self, arith, spec, result):
        policy, eps, strict, cap, _ = spec
        labels = arith.labels
        total = math.factorial(len(labels))
        exhaustive = total <= cap
        expect(result.exhaustive == exhaustive, "extensions: exhaustive flag")
        if exhaustive:
            expect(result.permutation_count == total, "extensions: permutation count")
        else:
            expect(1 <= result.permutation_count <= cap, "extensions: permutation count")
        seen = set()
        for ext, order in zip(result.extensions, result.witness_orders):
            expected, consistent = policy_outcome(arith, policy, eps, strict, order)
            oracles.check_accepted(ext, expected, consistent, policy)
            signature = frozenset(label for label, _, _ in expected)
            expect(signature not in seen, "extensions: duplicate outcome")
            seen.add(signature)
        if exhaustive:
            every = {
                frozenset(l for l, _, _ in policy_outcome(arith, policy, eps, strict, order)[0])
                for order in permutations(labels)
            }
            expect(every == seen, "extensions: outcomes differ from all orders")
        union = set().union(*seen) if seen else set()
        expect(result.conjunction_weakly_consistent == (arith.prob(union) > 0),
               "extensions: conjunctive merge consistency")
        common = set.intersection(*map(set, seen)) if seen else set()
        background = 1 if isinstance(arith, OneWinner) else 0
        expect(len(result.intersection) == background + len(common),
               "extensions: disjunctive intersection")


# ---------------------------------------------------------------------------
# diagnose: one accepted set per operation, then MUS/MCS/degree/strands.
# ---------------------------------------------------------------------------


def random_text(rng, names, depth: int) -> str:
    """Random formula text of at most ``depth`` connective levels."""
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(names)
    op = rng.choice(("~", "&", "|", "->", "<->"))
    if op == "~":
        return "~" + _group(random_text(rng, names, depth - 1))
    if op in ("&", "|"):
        parts = [_group(random_text(rng, names, depth - 1)) for _ in range(rng.randint(2, 3))]
        return f" {op} ".join(parts)
    left = _group(random_text(rng, names, depth - 1))
    right = _group(random_text(rng, names, depth - 1))
    return f"{left} {op} {right}"


def _group(text: str) -> str:
    simple = text.lstrip("~")
    return text if simple.isidentifier() else f"({text})"


class DiagnoseWorkload(Workload):
    """Every block holds the same kinds in the same order: ten lottery
    sets (one at 14 tickets, two at 13, whose cluster holds p95), six
    random knowledge bases and twenty-four sets of 21 to 40 tickets, beyond
    the enumeration cap.  The seed draws the random bases and the strand
    queries.  The first block starts with the known DPLL hang.

    The cost of a random base has a long tail, so a run's total time
    depends on which bases its seed drew; six per block, among sets of
    fixed cost, keep that spread across seeds near a tenth."""

    name = "diagnose"
    # Random bases, the only inputs whose cost the defect leaves unbounded,
    # fail when they make more than CALL_BUDGET calls.  On the reference
    # host the enumeration makes 240 000 to 370 000 calls per second on
    # such bases, so an operation over budget cannot finish before
    # recount_from_s, and one within it finishes before the deadline.
    CALL_BUDGET = 400_000
    recount_from_s = 0.8
    deadline_s = 2.6
    LOTTERY_SIZES = (14, 8, 13, 9, 12, 10, 13, 11, 12, 12)
    LOTTERY_SLOTS = (0, 5, 10, 15, 20, 25, 30, 35, 3, 23)
    RANDOM_SLOTS = (2, 7, 17, 27, 32, 37)
    BLOCK_LENGTH = 40

    def generate(self, rng, index):
        lotteries = iter(self.LOTTERY_SIZES)
        beyond_cap = iter([21 + 19 * i // 23 for i in range(24)])  # 21..40
        ops = []
        for slot in range(self.BLOCK_LENGTH):
            if slot in self.LOTTERY_SLOTS:
                ops.append(Op("lottery", (next(lotteries), self._queries(rng))))
            elif slot in self.RANDOM_SLOTS:
                ops.append(self._random(rng))
            else:
                ops.append(Op("shrink", next(beyond_cap)))
        if index == 0:
            known = (8, [1] * 256, list(KNOWN_HANG), Fraction(15, 16), self._queries(rng))
            ops.insert(0, Op("random", known))
        return ops

    def _random(self, rng):
        m = rng.randint(6, 8)
        names = [f"a{i}" for i in range(m)]
        weights = [rng.randint(0, 9) for _ in range(2**m)]
        if not any(weights):
            weights[0] = 1
        texts = [random_text(rng, names, rng.randint(1, 3)) for _ in range(rng.randint(8, 12))]
        eps = rng.choice((Fraction(1, 2), Fraction(3, 5), Fraction(2, 3), Fraction(3, 4)))
        return Op("random", (m, weights, texts, eps, self._queries(rng)))

    def call_budget(self, op):
        return self.CALL_BUDGET if op.kind == "random" else None

    @staticmethod
    def _queries(rng):
        """Three strand queries: (strand pick, member pick, flag).  The flag
        asks a lottery strand whether its missing ticket wins, and negates
        the member for a random base."""
        return [(rng.randrange(64), rng.randrange(64), rng.random() < 0.5) for _ in range(3)]

    def execute(self, op):
        lib = self.lib
        if op.kind == "random":
            m, weights, texts, eps, queries = op.spec
            names = [f"a{i}" for i in range(m)]
            total = sum(weights)
            worlds = [(v, Fraction(w, total))
                      for v, w in zip(product((False, True), repeat=m), weights)]
            model = lib.WorldModel(names, worlds)
            candidates = [(f"c{i}", lib.parse(text)) for i, text in enumerate(texts)]
            base = lib.BeliefBase(model, (), candidates)
        else:
            n = op.spec if op.kind == "shrink" else op.spec[0]
            base = lib.fair_lottery(n)
            eps = Fraction(1, n)
        accepted = lib.threshold_accept(base, lib.AcceptanceLevel(eps))
        formulas = accepted.accepted_formulas
        background = base.background
        out = {"base": base, "accepted": accepted}
        if op.kind == "shrink":
            out["shrunk"] = lib.shrink_unsat_subset(formulas, background)
            return out
        out["mus"] = lib.minimal_unsat_subsets(formulas, background)
        out["mcs"] = lib.maximal_consistent_subsets(formulas, background)
        out["degree"] = lib.degree_of_inconsistency(formulas, background)
        strands = out["strands"] = lib.strands(formulas, background)
        members = list(formulas)
        answers = []
        for pick, target, flag in op.spec[-1]:
            strand = strands[pick % len(strands)]
            if op.kind == "lottery":
                formula = self._lottery_query(strand, members, target, flag)
            else:
                formula = members[target % len(members)] if members else lib.atom("a0")
                if flag:
                    formula = lib.neg(formula)
            answers.append((strand, formula, lib.strand_entails(strand, formula)))
        out["answers"] = answers
        return out

    def _lottery_query(self, strand, members, target, ask_missing):
        """Ask a lottery strand whether its missing ticket wins (it entails
        that) or about one lose statement (entailed when kept)."""
        kept = {f.canonical_key for f in strand.kernel}
        missing = [f for f in members if f.canonical_key not in kept]
        if ask_missing and missing:
            return missing[0].args[0]
        return members[target % len(members)]

    def verify(self, op, out):
        base, accepted = out["base"], out["accepted"]
        labels = [label for label, _ in base.candidates]
        if op.kind == "random":
            self._verify_random(op, out)
            return
        n = len(labels)
        expect(accepted.order == tuple(labels), "threshold accepts all n lose statements")
        expect(all(a.probability == Fraction(n - 1, n) for a in accepted.accepted),
               "lose statement probability")
        expect(not accepted.weakly_consistent, "lottery accepted set is unsatisfiable")
        keys = {f.canonical_key for f in accepted.accepted_formulas}
        if op.kind == "shrink":
            expect(out["shrunk"] is not None, "shrink found no MUS")
            expect({f.canonical_key for f in out["shrunk"]} == keys, "shrink MUS is all n")
            return
        mus = out["mus"]
        expect(len(mus) == 1 and {f.canonical_key for f in mus[0]} == keys,
               "one MUS of size n")
        mcs = [frozenset(f.canonical_key for f in s) for s in out["mcs"]]
        expect(len(mcs) == n and len(set(mcs)) == n, "n MCSs")
        expect(all(len(s) == n - 1 and s < keys for s in mcs), "each MCS drops one ticket")
        expect(out["degree"] == 2, "degree of inconsistency 2")
        kernels = [frozenset(f.canonical_key for f in s.kernel) for s in out["strands"]]
        expect(kernels == mcs, "strands match MCSs")
        for strand, formula, answer in out["answers"]:
            kept = {f.canonical_key for f in strand.kernel}
            if formula.op == "atom":
                expected = True  # the strand entails that its missing ticket wins
            else:
                expected = formula.canonical_key in kept
            expect(answer == expected, "strand_entails closed form")

    def _verify_random(self, op, out):
        m, weights, texts, eps, _ = op.spec
        helpers = self.helpers
        base, accepted = out["base"], out["accepted"]
        total = sum(weights)
        worlds = [(v, Fraction(w, total)) for v, w in zip(product((False, True), repeat=m), weights)]
        table = oracles.TruthTable(helpers, [f"a{i}" for i in range(m)], worlds)
        expected = [label for label, f in base.candidates
                    if oracles.met(table.probability(f), eps, False)]
        expect(list(accepted.order) == expected, "threshold accepted labels")
        members = list(accepted.accepted_formulas)
        universe = {f.canonical_key for f in members}
        consistent = table.satisfiable(members)
        expect(accepted.weakly_consistent == consistent, "weak consistency")
        mus = out["mus"]
        expect(len({frozenset(f.canonical_key for f in s) for s in mus}) == len(mus),
               "duplicate MUS")
        expect(bool(mus) != consistent, "MUS exist iff the set is unsatisfiable")
        for s in mus:
            oracles.check_mus(table, [], s, universe)
        family = [frozenset(f.canonical_key for f in s) for s in out["mcs"]]
        expect(len(set(family)) == len(family) and family, "MCS family")
        for s in out["mcs"]:
            oracles.check_mcs(table, [], s, members)
        expect(out["degree"] == oracles.min_cover(frozenset(universe), family),
               "degree is the minimum MCS cover")
        kernels = [frozenset(f.canonical_key for f in s.kernel) for s in out["strands"]]
        expect(kernels == family, "strands match MCSs")
        for strand, formula, answer in out["answers"]:
            refuted = not table.satisfiable(list(strand.kernel) + [helpers.neg(formula)])
            expect(answer == refuted, "strand_entails agrees with truth tables")


# ---------------------------------------------------------------------------
# cli: one probaccept subprocess per operation over files written in set-up.
# ---------------------------------------------------------------------------


class CliWorkload(Workload):
    name = "cli"
    deadline_s = 20.0
    in_process = False

    def prepare(self):
        self.files = self._write_bases()
        self.outputs: dict[tuple, bytes] = {}

    def _write_bases(self):
        rng = random.Random(f"cli-files:{self.seed}")
        lib = self.lib
        files = {}
        specs = [("fair", n) for n in (10, 12, 24, 40)]
        specs += [("biased", n) for n in (5, 16)]
        specs += [("independent", n) for n in (6, 9)]
        for family, n in specs:
            if family == "fair":
                base = lib.fair_lottery(n)
                arith = OneWinner([Fraction(1, n)] * n)
            elif family == "biased":
                raw = [rng.randint(1, 9) for _ in range(n)]
                weights = [Fraction(w, sum(raw)) for w in raw]
                base = lib.biased_lottery(weights)
                arith = OneWinner(weights)
            else:
                p = rng.choice((Fraction(1, 10), Fraction(1, 8)))
                base = lib.independent_lottery(n, p)
                arith = Independent(n, p)
            path = os.path.join(self.workdir, f"{family}_{n}.bb")
            lib.dump(base, path)
            files[f"{family}_{n}"] = (path, arith)
        return files

    def _eps_choices(self, arith):
        if isinstance(arith, Independent):
            p = arith.p
            return [p, 2 * p, p / 2, (1 - p) ** arith.n]
        ordered = sorted(arith.weights)
        return [ordered[-1], ordered[0], ordered[len(ordered) // 2], Fraction(1, 2)]

    def generate(self, rng, index):
        """Nineteen commands: seven ``accept`` (every policy, plus two more of
        threshold, lehrer, sequential and teng), one ``extensions``, three ``diagnose`` (two exhaustive on 12
        tickets, the costliest command, so p95 falls inside their cluster;
        one beyond the cap), one ``closure``, two ``stat binom``, four
        ``lottery``; from the second block on also a repeat of an earlier
        command.  The two costliest sit apart in the block."""
        lottery_files = [k for k in self.files if not k.startswith("independent")]
        small_files = ["fair_10", "fair_12", "fair_24", "biased_5", "biased_16",
                       "independent_6", "independent_9"]
        policies = list(POLICIES) + [rng.choice(("threshold", "lehrer") + ORDERED) for _ in range(2)]
        accept = [
            self._accept(rng, policy, rng.choice(lottery_files if policy == "cascade" else small_files))
            for policy in policies
        ]
        lottery = [self._lottery(rng) for _ in range(4)]
        ops = [
            accept[0], self._diagnose(rng, "fair_12"), lottery[0], accept[1],
            self._stat(rng, (100, 200, 400)), accept[2], self._extensions(rng), lottery[1],
            accept[3], self._diagnose(rng, "fair_24"), accept[4], lottery[2],
            self._closure(rng), accept[5], self._diagnose(rng, "fair_12"),
            self._stat(rng, (700, 1000)), accept[6], lottery[3],
        ]
        if index > 0:  # repeat an earlier command to check its stdout is identical
            ops.append(rng.choice(self.block(rng.randrange(index))))
        return ops

    def _argv(self, rng, command):
        flags = ["--json"] if rng.random() < 0.5 else []
        return flags + command

    def _accept(self, rng, policy, name):
        path, arith = self.files[name]
        eps = rng.choice(self._eps_choices(arith))
        strict = rng.random() < 0.25
        command = ["accept", path, "--policy", policy, "--epsilon", str(eps)]
        order = None
        if policy in ORDERED:
            style = rng.choice(("natural", "reverse", "shuffle"))
            order = arith.labels[:]
            if style == "reverse":
                order.reverse()
            elif style == "shuffle":
                rng.shuffle(order)
            command += ["--order", style if style != "shuffle" else ",".join(order)]
        flags = ["--strict-threshold"] if strict else []
        spec = ("accept", name, policy, eps, strict, order)
        return Op("cli", (tuple(self._argv(rng, flags + command)), spec))

    def _extensions(self, rng):
        name = rng.choice(("biased_5", "independent_6"))
        path, arith = self.files[name]
        policy = rng.choice(ORDERED)
        eps = rng.choice(self._eps_choices(arith))
        cap = rng.choice((24, 60, 120))
        command = ["--seed", str(rng.randrange(1000)), "extensions", path, "--policy",
                   policy, "--epsilon", str(eps), "--max-permutations", str(cap)]
        return Op("cli", (tuple(self._argv(rng, command)), ("extensions", name, policy, eps, cap)))

    def _diagnose(self, rng, name):
        path, arith = self.files[name]
        eps = rng.choice(self._eps_choices(arith)[:2])
        if name.startswith("fair"):
            eps = Fraction(1, arith.n)
        command = ["diagnose", path, "--epsilon", str(eps)]
        return Op("cli", (tuple(self._argv(rng, command)), ("diagnose", name, eps)))

    def _closure(self, rng):
        name = rng.choice(("fair_12", "fair_40", "biased_16", "independent_9"))
        path, arith = self.files[name]
        eps = self._eps_choices(arith)[0]
        lose = [label for label in arith.labels if label.startswith("L")]
        premises = rng.sample(lose, rng.randint(1, 4))
        command = ["closure", path, "--epsilon", str(eps), "--labels", ",".join(premises)]
        weaken = None
        if rng.random() < 0.7:
            a = rng.choice(premises)
            b = rng.choice([x for x in range(1, arith.n + 1) if f"L{x}" != a])
            weaken = (a, b)
            command += ["--conclusion", f"~wins_{a[1:]} | wins_{b}"]
        return Op("cli", (tuple(self._argv(rng, command)), ("closure", name, eps, premises, weaken)))

    def _stat(self, rng, sizes):
        n = rng.choice(sizes)
        p0 = rng.choice((Fraction(1, 2), Fraction(1, 3), Fraction(1, 10)))
        eps = rng.choice((Fraction(1, 10), Fraction(1, 20), Fraction(1, 100)))
        sided = rng.choice(("two", "upper", "lower"))
        command = ["stat", "binom", "--n", str(n), "--p0", str(p0), "--epsilon", str(eps),
                   "--sided", sided]
        observed = combine = None
        if rng.random() < 0.8:
            observed = rng.choice((0, n, int(n * p0), rng.randint(0, n)))
            command += ["--observed", str(observed)]
            if rng.random() < 0.5:
                combine = [rng.choice((Fraction(1, 100), Fraction(1, 50), Fraction(1, 10)))
                           for _ in range(rng.randint(1, 3))]
                command += ["--combine-with", ",".join(map(str, combine))]
        spec = ("stat", n, p0, eps, observed, combine)
        return Op("cli", (tuple(self._argv(rng, command)), spec))

    def _lottery(self, rng):
        kind = rng.choice(("fair", "biased", "independent"))
        if kind == "fair":
            n = rng.randint(5, 40)
            command, worlds = ["lottery", "fair", "--n", str(n)], n
            weights = [Fraction(1, n)] * n
        elif kind == "biased":
            raw = [rng.randint(1, 9) for _ in range(rng.randint(3, 20))]
            weights = [Fraction(w, sum(raw)) for w in raw]
            command = ["lottery", "biased", "--weights", ",".join(map(str, weights))]
            n = worlds = len(weights)
        else:
            n = rng.randint(4, 9)
            command = ["lottery", "independent", "--n", str(n), "--p", "1/10"]
            worlds, weights = 2**n, None
        return Op("cli", (tuple(command), ("lottery", n, worlds, weights, kind)))

    # -- execution ----------------------------------------------------------

    def execute(self, op):
        argv = list(op.spec[0])
        if self.in_process:
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                try:
                    code = self.lib.cli.main(argv)
                except SystemExit as exc:  # argparse rejects bad usage this way
                    code = exc.code
            return code, buffer.getvalue().encode()
        done = subprocess.run(
            [sys.executable, "-S", "-m", "probaccept", *argv],
            cwd=str(oracles.ROOT), env=package_env(), capture_output=True,
            timeout=self.deadline_s, check=False,
        )
        return done.returncode, done.stdout

    def verify(self, op, result):
        code, stdout = result
        argv, spec = op.spec
        expect(code == 0, f"exit code {code}")
        prior = self.outputs.setdefault(argv, stdout)
        expect(prior == stdout, "repeated command changed its stdout")
        text = stdout.decode()
        if spec[0] == "lottery":
            self._verify_lottery(spec, text)
            return
        report = parse_report(text, "--json" in argv)
        getattr(self, "_verify_" + spec[0])(spec, report)

    def _verify_accept(self, spec, report):
        _, name, policy, eps, strict, order = spec
        arith = self.files[name][1]
        expected, consistent = policy_outcome(arith, policy, eps, strict, order)
        _check_entries(report, "accepted", expected)
        expect(report["diagnostics.weakly_consistent"] == _flag(consistent), "consistency")

    def _verify_extensions(self, spec, report):
        _, name, policy, eps, cap = spec
        arith = self.files[name][1]
        exhaustive = math.factorial(len(arith.labels)) <= cap
        expect(report["exhaustive"] == _flag(exhaustive), "exhaustive flag")
        expect(1 <= int(report["permutations_tried"]) <= cap, "permutations tried")
        count = int(report["extension_count"])
        expect(count >= 1, "no extensions")
        for i in range(count):
            order = report[f"extensions[{i}].order"].split(",")
            expected, _ = policy_outcome(arith, policy, eps, False, order)
            _check_entries(report, f"extensions[{i}].accepted", expected)

    def _verify_diagnose(self, spec, report):
        _, name, eps = spec
        arith = self.files[name][1]
        accepted, _ = policy_outcome(arith, "threshold", eps, False)
        k = len(accepted)
        expect(int(report["accepted_count"]) == k, "accepted count")
        unsat = arith.prob([label for label, _, _ in accepted]) == 0
        expect(report["diagnostics.weakly_consistent"] == _flag(not unsat), "consistency")
        # positive weights: the only MUS is the whole set of lose statements
        mus = len(arith.labels) if unsat else None
        beyond = k > 20
        expect(report["diagnostics.mus_method"] == ("deletion_shrink" if beyond else "exhaustive"),
               "MUS method")
        expect(report["diagnostics.mus_min_size"] == _flag(mus), "MUS size")
        if not beyond:
            expect(report["diagnostics.mcs_count"] == str(k if unsat else 1), "MCS count")
            expect(report["diagnostics.degree"] == str(2 if unsat else 1), "degree")
        expect(report["contradiction_bound"] == str(math.ceil(1 / eps)),
               "contradiction bound")

    def _verify_closure(self, spec, report):
        _, name, eps, premises, weaken = spec
        arith = self.files[name][1]
        k = len(premises)
        floor = max(Fraction(0), 1 - k * eps)
        expect(int(report["conjunction.premise_count"]) == k, "premise count")
        expect(Fraction(report["conjunction.support_lower_bound"]) == floor, "floor")
        expect(Fraction(report["conjunction.exact_probability"]) == arith.prob(premises),
               "conjunction probability")
        if weaken:
            if isinstance(arith, OneWinner):
                exact = 1 - arith.weights[int(weaken[0][1:]) - 1]
            else:
                exact = 1 - arith.p * (1 - arith.p)
            expect(Fraction(report["consequence.exact_probability"]) == exact,
                   "consequence probability")
            expect(Fraction(report["consequence.support_lower_bound"]) == floor, "floor")

    def _verify_stat(self, spec, report):
        _, n, p0, eps, observed, combine = spec
        counts = oracles.expand_counts(report["rejection_region"])
        expect(int(report["region_size"]) == len(counts), "region size")
        oracles.check_region(self.helpers, n, p0, eps, counts,
                             Fraction(report["achieved_size"]))
        if observed is None:
            return
        rejected = observed in counts
        expect(report["decision"] == ("reject" if rejected else "fail_to_reject"), "decision")
        if rejected:
            expect(Fraction(report["accepted_negation.support_lower_bound"]) == 1 - eps,
                   "accepted negation support")
            if combine:
                all_eps = [eps] + combine
                dependent = max(Fraction(0), 1 - sum(all_eps))
                independent = math.prod(1 - e for e in all_eps)
                expect(Fraction(report["combined.dependent_lower_bound"]) == dependent,
                       "dependent combination")
                expect(Fraction(report["combined.independent_lower_bound"]) == independent,
                       "independent combination")

    def _verify_lottery(self, spec, text):
        _, n, worlds, weights, kind = spec
        lines = text.splitlines()
        expect(lines[0] == "ATOMS: " + " ".join(f"wins_{i}" for i in range(1, n + 1)), "atoms")
        world_lines = [line for line in lines if line.startswith("w") and " weight " in line]
        expect(len(world_lines) == worlds, "world count")
        found = [Fraction(line.rsplit(" ", 1)[1]) for line in world_lines]
        expect(sum(found) == 1, "weights sum to 1")
        if weights is not None:
            expect(found == weights, "ticket weights")
        labels = [line.split(":")[0] for line in lines if line.startswith("L")]
        expect(labels == [f"L{i}" for i in range(1, n + 1)], "candidate labels")


def _flag(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _check_entries(report, prefix, expected):
    count = 0
    while f"{prefix}[{count}].label" in report:
        count += 1
    expect(count == len(expected), f"{prefix}: {count} entries, expected {len(expected)}")
    for i, (label, p, support) in enumerate(expected):
        expect(report[f"{prefix}[{i}].label"] == label, f"{prefix}[{i}] label")
        expect(Fraction(report[f"{prefix}[{i}].probability"]) == p, f"{prefix}[{i}] probability")
        expect(Fraction(report[f"{prefix}[{i}].support_at_acceptance"]) == support,
               f"{prefix}[{i}] support")


def parse_report(text: str, as_json: bool) -> dict[str, str]:
    """Flatten either report format to ``path -> scalar text``, with exact
    rationals as ``p/q`` and the approximate rendering dropped."""
    flat: dict[str, str] = {}
    if as_json:
        _flatten_json(json.loads(text), "", flat)
        return flat
    for line in text.splitlines():
        key, _, value = line.partition(": ")
        if " (~" in value:
            value = value.split(" (~", 1)[0]
        flat[key] = value
    return flat


def _flatten_json(value, prefix, flat):
    if isinstance(value, dict) and set(value) == {"exact", "approx"}:
        flat[prefix] = value["exact"]
    elif isinstance(value, dict):
        for key, sub in value.items():
            _flatten_json(sub, f"{prefix}.{key}" if prefix else key, flat)
    elif isinstance(value, list):
        if not value:
            flat[prefix] = "(none)"
        for i, sub in enumerate(value):
            _flatten_json(sub, f"{prefix}[{i}]", flat)
    else:
        flat[prefix] = _flag(value)


WORKLOADS = {w.name: w for w in (AcceptWorkload, DiagnoseWorkload, CliWorkload)}

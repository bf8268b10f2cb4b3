"""The package's public names load their modules on first use.

Each check runs in a fresh ``python -S`` child, so that nothing this test
process has already imported can hide what a first import loads.  A child
prints its answer as the last line of its stdout.
"""

import ast
import importlib
import importlib.util
import inspect
import os
import pathlib
import subprocess
import sys

import pytest

import probaccept
from probaccept import cli, sat

# Every public name, by the module that defines it.
PUBLIC = {
    "formulas": "EMPTY_SET Formula FormulaSet FormulaSyntaxError atom conj disj "
    "has_strong_inconsistency iff implies neg parse render",
    "rationals": "as_fraction",
    "sat": "DEFAULT_CANDIDATE_CAP entails is_satisfiable maximal_consistent_subsets "
    "minimal_unsat_subsets shrink_unsat_subset",
    "worlds": "BeliefBase UnknownAtomError WorldModel ZeroProbabilityError exactly_one",
    "lotteries": "biased_lottery fair_lottery independent_lottery",
    "basefile": "BeliefBaseFormatError dump dumps load loads parse_rational",
    "accept": "Acceptance AcceptanceLevel AcceptedSet lehrer_accept lehrer_cascade "
    "sequential_accept stakes_threshold teng_accept threshold_accept",
    "extensions": "ExtensionEnumeration enumerate_extensions",
    "closure": "LeveledStatement conjunction_support consequence_level contradiction_bound",
    "strands": "Strand degree_of_inconsistency strand_entails strands",
    "stattests": "AcceptedRejection BinomialTestSpec CombinedRejection Decision "
    "ProbabilityBound RejectionRegion binomial_pmf binomial_rejection_region combine_tests "
    "rejection_to_acceptance run_test",
}

_IMPORT_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(probaccept.__file__)))
BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def child_lines(script, *argv):
    """Run ``script`` in a fresh interpreter; return its stdout lines."""
    env = {
        "PATH": "/usr/bin:/bin",
        "PYTHONPATH": _IMPORT_ROOT,
        "PYTHONDONTWRITEBYTECODE": "1",
    }
    done = subprocess.run(
        [sys.executable, "-S", "-c", script, *argv],
        env=env,
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def child(script, *argv):
    """Run ``script`` in a fresh interpreter; return its last stdout line."""
    return child_lines(script, *argv)[-1]


# Prints the library modules, the stdlib ones the CLI defers, and
# ``dataclasses`` and ``inspect``, which the record classes leave until
# ``dataclasses.fields`` or the like is called, as loaded.  The interpreter's
# own SHA-256 module, ``_sha2`` from Python 3.12 and ``_sha256`` before,
# prints as ``sha256``; ``hashlib`` would load OpenSSL.  ``shutil``, which
# argparse's help formatters import unless given a width, is never loaded.
LOADED = (
    "print(*sorted({'_sha2': 'sha256', '_sha256': 'sha256'}.get(name, name)"
    " for name in sys.modules if name.startswith('probaccept.') or name in"
    " ('_sha2', '_sha256', 'dataclasses', 'hashlib', 'inspect', 'json', 'random',"
    " 'shutil')))"
)


@pytest.mark.parametrize("module", list(PUBLIC))
def test_each_public_name_is_its_modules_own(module):
    script = (
        "import importlib, sys, probaccept\n"
        "module = importlib.import_module('probaccept.' + sys.argv[1])\n"
        "print(*[name for name in sys.argv[2:]"
        " if getattr(probaccept, name) is not getattr(module, name)] or ['same'])"
    )
    assert child(script, module, *PUBLIC[module].split()) == "same"


def test_star_import_binds_the_public_names_and_submodules():
    script = "from probaccept import *\nprint(*sorted(n for n in dir() if not n.startswith('_')))"
    submodules = {
        "accept", "basefile", "closure", "extensions", "formulas", "rationals", "sat",
        "stattests", "worlds",
    }
    public = {name for names in PUBLIC.values() for name in names.split()}
    assert child(script).split() == sorted(public | submodules)
    assert public <= set(dir(probaccept))


def _gives_by_name(module, home, names):
    """Whether ``module`` loads ``home`` only at the first read of one of
    ``names``, then gives each as ``home``'s own: the answers, as a line."""
    script = (
        "import importlib, sys\n"
        "module, home, first = sys.argv[1], sys.argv[2], sys.argv[3]\n"
        "module = importlib.import_module('probaccept.' + module)\n"
        "before = 'probaccept.' + home in sys.modules\n"
        "getattr(module, first)\n"
        "home = sys.modules['probaccept.' + home]\n"
        "print(before, *[getattr(module, name) is getattr(home, name) for name in sys.argv[3:]])"
    )
    return child(script, module, home, *names)


def test_worlds_still_gives_the_lottery_builders():
    # ``worlds`` loads ``lotteries`` at the first read of a builder's name
    names = PUBLIC["lotteries"].split()
    assert _gives_by_name("worlds", "lotteries", names) == "False True True True"
    with pytest.raises(AttributeError, match="'probaccept.worlds' has no attribute 'no_such'"):
        probaccept.worlds.no_such  # noqa: B018


def test_accept_still_gives_the_enumerator():
    # ``accept`` loads ``extensions`` at the first read of one of its names
    names = [*PUBLIC["extensions"].split(), "MAX_PERMUTATIONS"]
    assert _gives_by_name("accept", "extensions", names) == "False True True True"
    with pytest.raises(AttributeError, match="'probaccept.accept' has no attribute 'no_such'"):
        importlib.import_module("probaccept.accept").no_such  # noqa: B018


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        probaccept.no_such_name  # noqa: B018


@pytest.mark.parametrize("first", [
    "import probaccept.strands",
    "probaccept.degree_of_inconsistency",
    "from probaccept import cli\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    assert cli.main(['diagnose', '--epsilon', '1/3', sys.argv[1]]) == 0",
], ids=["module_import", "sibling_name", "cli_diagnose"])
def test_strands_stays_the_function(first, lottery3_path):
    # the import system binds each submodule on its package as it loads,
    # and the submodule ``strands`` shares its name with the function
    script = (
        "import contextlib, io, sys, probaccept\n"
        f"{first}\n"
        "print(probaccept.strands is sys.modules['probaccept.strands'].strands)"
    )
    assert child(script, lottery3_path) == "True"


def test_importing_the_cli_loads_no_library_module():
    assert child(f"import sys, probaccept.cli\n{LOADED}") == "probaccept.cli"


# Each command's argv (BASE: a 3-ticket lottery file) and what it loads: the
# library modules, then the stdlib ones of LOADED.  Every command but
# ``accept``, whose arguments and handler are ``cli``'s own, loads the one
# ``cli_*`` module that holds its own, and no other's.  ``stat binom`` loads neither
# ``worlds`` nor ``formulas``, ``lottery`` neither ``accept`` nor the
# solver, no command on a base file ``lotteries``, only ``extensions`` the
# enumerator, and no command ``dataclasses`` or ``inspect``.  The lottery's
# masks decide every verdict of ``accept`` and ``extensions`` and every
# entailment of ``closure``, so they load ``oracle`` but not ``sat``.
COMMAND_LOADS = {
    "accept": (
        ["accept", "--policy", "threshold", "--epsilon", "1/3", "BASE"],
        "accept basefile formulas oracle rationals records worlds", "sha256",
    ),
    "extensions": (
        ["extensions", "--policy", "sequential", "--epsilon", "1/3", "BASE"],
        "accept basefile cli_extensions extensions formulas oracle rationals records worlds",
        "sha256",
    ),
    "diagnose": (
        ["diagnose", "--epsilon", "1/3", "BASE"],
        "accept basefile cli_diagnose closure formulas oracle rationals records sat strands"
        " worlds",
        "sha256",
    ),
    "closure": (
        ["closure", "--epsilon", "1/3", "--labels", "L1,L2", "BASE"],
        "accept basefile cli_closure closure formulas oracle rationals records worlds", "sha256",
    ),
    "closure_conclusion": (
        ["closure", "--epsilon", "1/3", "--labels", "L1,L2", "--conclusion", "wins_3", "BASE"],
        "accept basefile cli_closure closure formulas oracle rationals records worlds", "sha256",
    ),
    "stat_binom": (
        ["stat", "binom", "--n", "10", "--p0", "1/2", "--epsilon", "1/10", "--observed", "0"],
        "cli_stat rationals records stattests", "",
    ),
    "lottery": (
        ["lottery", "fair", "--n", "3"],
        "basefile cli_lottery formulas lotteries rationals worlds", "",
    ),
}


@pytest.mark.parametrize("command", list(COMMAND_LOADS))
def test_each_command_loads_only_the_modules_it_runs(command, lottery3_path):
    argv, library, stdlib = COMMAND_LOADS[command]
    script = (
        "import contextlib, io, sys\n"
        "from probaccept import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(sys.argv[1:]) == 0\n"
        f"{LOADED}"
    )
    loaded = child(script, *[lottery3_path if part == "BASE" else part for part in argv])
    modules = ["probaccept.cli", *(f"probaccept.{name}" for name in library.split())]
    assert loaded.split() == sorted(modules + stdlib.split())


def test_a_usage_error_loads_only_its_command_module():
    # a command's module holds its arguments; the library loads in its handler
    script = (
        "import contextlib, io, sys\n"
        "from probaccept import cli\n"
        "with contextlib.redirect_stderr(io.StringIO()):\n"
        "    try:\n"
        "        cli.main(sys.argv[1:])\n"
        "    except SystemExit as exc:\n"
        "        assert exc.code == 2\n"
        f"{LOADED}"
    )
    argv = ["extensions", "--policy", "threshold", "--epsilon", "1/3", "base.bb"]
    assert child(script, *argv) == "probaccept.cli probaccept.cli_extensions"


# Two worlds, each making one of a and b true: the candidates' joint mask is
# empty, but a & b is satisfiable, so the model is not complete and the
# sequential run's second admission is searched.
SEARCHED_BASE = """\
ATOMS: a b
WORLDS:
w1: a=1 b=0 weight 1/2
w2: a=0 b=1 weight 1/2
CANDIDATES:
A: a
B: b
"""


def test_an_accept_that_must_search_loads_sat_then(tmp_path):
    path = tmp_path / "searched.bb"
    path.write_text(SEARCHED_BASE, encoding="utf-8")
    script = (
        "import contextlib, io, sys\n"
        "from probaccept import cli\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        "    assert cli.main(sys.argv[1:]) == 0\n"
        "print(*[line for line in out.getvalue().splitlines() if line.startswith('accepted')],"
        " sep='|')\n"
        f"{LOADED}"
    )
    argv = ["accept", "--policy", "sequential", "--order", "natural", "--epsilon", "1/2"]
    accepted, loaded = child_lines(script, *argv, str(path))
    assert accepted.split("|") == [
        "accepted_count: 2",
        "accepted[0].label: A",
        "accepted[0].formula: a",
        "accepted[0].probability: 1/2 (~0.500000)",
        "accepted[0].support_at_acceptance: 1/2 (~0.500000)",
        "accepted[1].label: B",
        "accepted[1].formula: b",
        "accepted[1].probability: 1/2 (~0.500000)",
        "accepted[1].support_at_acceptance: 1/2 (~0.500000)",
    ]
    library = "accept basefile formulas oracle rationals records sat worlds"
    assert loaded.split() == sorted(
        ["probaccept.cli", *(f"probaccept.{name}" for name in library.split()), "sha256"]
    )


def test_a_closure_that_must_search_loads_sat_at_its_entailment(tmp_path):
    # no world of the base falsifies ``a | b`` alongside both premises, and
    # the model lists 2 of 4 valuations, so only a search can tell
    path = tmp_path / "searched.bb"
    path.write_text(SEARCHED_BASE, encoding="utf-8")
    script = (
        "import contextlib, io, sys\n"
        "from probaccept import cli, closure\n"
        "seen, entails = [], closure.entails\n"
        "def asked(*args):\n"
        "    seen.append('probaccept.sat' in sys.modules)\n"
        "    return entails(*args)\n"
        "closure.entails = asked\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        "    assert cli.main(sys.argv[1:]) == 0\n"
        "print(*seen, 'probaccept.sat' in sys.modules)\n"
        "print(out.getvalue().replace(sys.argv[-1], 'BASE'), end='')\n"
    )
    argv = ["closure", "--epsilon", "1/2", "--labels", "A,B", "--conclusion", "a | b"]
    seen, *report = child_lines(script, *argv, str(path))
    assert seen == "False True"
    assert report == [
        "command: closure",
        "epsilon: 1/2 (~0.500000)",
        "threshold: 1/2 (~0.500000)",
        "contradiction_bound: 2",
        "conjunction.premises[0]: A",
        "conjunction.premises[1]: B",
        "conjunction.formula: a & b",
        "conjunction.premise_count: 2",
        "conjunction.support_lower_bound: 0 (~0.000000)",
        "conjunction.exact_probability: 0 (~0.000000)",
        "consequence.formula: a | b",
        "consequence.premise_count: 2",
        "consequence.support_lower_bound: 0 (~0.000000)",
        "consequence.exact_probability: 1 (~1.000000)",
        "provenance.seed: 0",
        "provenance.strict_threshold: false",
        "provenance.input: BASE",
        "provenance.input_sha256: "
        "fb50cd58a0376ecf5dfe8d7639a24fbd053733e89f9971a7f6ff76bfad0b0a12",
    ]


def test_a_record_is_a_dataclass_before_dataclasses_loads():
    # ``dataclasses`` loads on the first read of a record's fields, not
    # with the record's module
    script = (
        "import sys, probaccept\n"
        "probaccept.Acceptance\n"
        "before = 'dataclasses' in sys.modules or 'inspect' in sys.modules\n"
        "import dataclasses\n"
        "names = [f.name for f in dataclasses.fields(probaccept.Acceptance)]\n"
        "print(before, *names)"
    )
    assert child(script) == "False label statement probability support"


def test_the_cli_imports_no_private_library_name():
    # the CLI, ``cli`` and the ``cli_*`` modules that hold the other
    # handlers, reaches the library through its public names; only the cap
    # check is shared, since ``diagnose`` checks the cap on the shrink path
    # too, where no enumerator runs.  The handlers share ``cli``'s helpers.
    package = pathlib.Path(cli.__file__).parent
    handlers = sorted(package.glob("cli_*.py"))
    assert [path.stem for path in handlers] == [
        "cli_closure", "cli_diagnose", "cli_extensions", "cli_lottery", "cli_stat",
    ]
    private = sorted(
        f"{node.module}.{alias.name}"
        for path in [package / "cli.py", *handlers]
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.level == 1
        and node.module not in (None, "cli")
        for alias in node.names
        if alias.name.startswith("_")
    )
    assert private == ["sat._check_cap"]



def test_every_tracer_target_is_a_library_callable():
    # ``bench/tracer.py`` skips a target the library no longer has, so a
    # moved or renamed function would make its per-layer metric read zero
    # with no error.  ``formulas.evaluate`` went with the per-world
    # evaluator, before the world masks, and its metric reads zero until the
    # tracer is replaced.
    spec = importlib.util.spec_from_file_location("tracer", BENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for _, module, path, _ in tracer.TARGETS:
        owner = importlib.import_module(f"probaccept.{module}")
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module}.{path}")
    assert missing == ["formulas.evaluate"]


def test_atom_names_have_one_grammar():
    # the parser's tokens and a base file's assignment tokens are built
    # from ``formulas._ATOM_RE``, the one place the name class is written
    package = pathlib.Path(probaccept.__file__).parent
    written = {
        path.stem: text.count("[A-Za-z_]")
        for path in sorted(package.glob("*.py"))
        if "[A-Za-z_]" in (text := path.read_text(encoding="utf-8"))
    }
    assert written == {"formulas": 1}


def _uses(tree, name):
    """``Class.function`` (or ``Class`` for its body) for every write and
    every read of the name or attribute ``name`` in ``tree``.  A write is
    an assignment, a ``setattr`` or an ``object.__setattr__``; a read is a
    load of the attribute or a ``getattr`` or ``hasattr`` of it."""
    writers, readers = [], []

    def named(call, functions):
        return (
            isinstance(call, ast.Call)
            and getattr(call.func, "attr", getattr(call.func, "id", None)) in functions
            and len(call.args) >= 2
            and isinstance(call.args[1], ast.Constant)
            and call.args[1].value == name
        )

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = [*scope, node.name]
        targets = []
        if isinstance(node, ast.Assign):
            # a tuple target writes each of its elements
            targets = [t for target in node.targets for t in getattr(target, "elts", [target])]
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        if any(
            getattr(target, "attr", getattr(target, "id", None)) == name for target in targets
        ) or named(node, ("setattr", "__setattr__")):
            writers.append(".".join(scope))
        if (
            isinstance(node, (ast.Attribute, ast.Name))
            and getattr(node, "attr", getattr(node, "id", None)) == name
            and isinstance(node.ctx, ast.Load)
        ) or named(node, ("getattr", "hasattr")):
            readers.append(".".join(scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, [])
    return writers, readers


def test_only_a_base_writes_a_model_and_only_the_solver_reads_it():
    # the base's own background is the one set that names its model, and
    # only the solver (``oracle``) reads it there, with the test beside it
    # by which ``consequence_level`` keeps a base's own background; no set
    # drawn from the base names one, and an accepted set keeps no model of
    # its own, so it needs no __reduce__.  The base's store step, where the constructor
    # and the lottery builders end, writes it.  Only the solver's search
    # path, entailment from the base's solver and the subset walk, which
    # reads the MCSes off the worlds, ask whether the model is complete; only
    # the closed-form construction of a lottery's solver says so.  Only the
    # policies' solver step names the base's solver on its own background,
    # and only the oracle's lookup of candidates by key reads it there.
    package = pathlib.Path(probaccept.__file__).parent
    writers, readers, completes, told, solvers = {}, {}, {}, {}, {}
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        wrote, read = _uses(tree, "_model")
        if wrote:
            writers[path.stem] = wrote
        if read:
            readers[path.stem] = read
        said, asked = _uses(tree, "complete")
        if asked:
            completes[path.stem] = asked
        if said:
            told[path.stem] = said
        if any(named := _uses(tree, "_base_solver")):
            solvers[path.stem] = [*named]
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and node.name == "AcceptedSet":
                methods = [f.name for f in node.body if isinstance(f, ast.FunctionDef)]
                assert "__reduce__" not in methods
    assert writers == {"worlds": ["BeliefBase._store"]}
    assert readers == {"oracle": ["_Solver.__init__", "_own_background"]}
    assert completes == {"oracle": ["_Solver._search", "entails"], "sat": ["_walk"]}
    assert told == {"oracle": ["_Solver._complete"]}
    assert solvers == {"accept": [["_solver"], []], "oracle": [[], ["_on_base"]]}
    assert list(inspect.signature(sat._Solver).parameters) == ["members", "background"]

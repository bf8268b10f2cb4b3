import tempfile

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from probaccept import fair_lottery, formulas, sat, worlds
from probaccept.basefile import dump

# Property tests draw the same examples on every run and keep no example
# database, so the suite stays reproducible.  Hypothesis still caches
# source constants on disk; that cache goes to a directory removed at exit,
# so a run leaves no files behind.
settings.register_profile(
    "deterministic", derandomize=True, database=None, max_examples=100, deadline=None
)
settings.load_profile("deterministic")
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)


@pytest.fixture(scope="session")
def lottery100():
    return fair_lottery(100)


@pytest.fixture(scope="session")
def lottery100_path(lottery100, tmp_path_factory):
    path = tmp_path_factory.mktemp("bases") / "lottery100.bb"
    dump(lottery100, path)
    return str(path)


@pytest.fixture(scope="session")
def lottery3_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("bases") / "lottery3.bb"
    dump(fair_lottery(3), path)
    return str(path)


@pytest.fixture
def searches(monkeypatch):
    """Every DPLL search made from now on, by its arguments: the clause
    store comes first."""
    made = []
    search = sat._dpll

    def counted(*args):
        made.append(args)
        return search(*args)

    monkeypatch.setattr(sat, "_dpll", counted)
    return made


@pytest.fixture
def solvers(monkeypatch):
    """Every solver built from formulas from now on, by its arguments: the
    members come first.  A lottery's solver, made from the closed form its
    builder left on the base, is not built from formulas."""
    made = []
    build = sat._Solver.__init__

    def counted(self, *args):
        made.append(args)
        build(self, *args)

    monkeypatch.setattr(sat._Solver, "__init__", counted)
    return made


@pytest.fixture
def numerators(monkeypatch):
    """Every mask a world model weighs from now on (each call of
    ``WorldModel._numerator``), by the mask."""
    made = []
    weigh = worlds.WorldModel._numerator

    def counted(model, mask):
        made.append(mask)
        return weigh(model, mask)

    monkeypatch.setattr(worlds.WorldModel, "_numerator", counted)
    return made


@pytest.fixture
def stores(monkeypatch):
    """Every clause store built from now on, by its arguments: the
    variable count comes first."""
    made = []

    class Counted(sat._Clauses):
        def __init__(self, *args):
            made.append(args)
            super().__init__(*args)

    monkeypatch.setattr(sat, "_Clauses", Counted)
    return made


@pytest.fixture
def subset_walks(monkeypatch):
    """Every MUS/MCS subset walk made from now on, by its arguments: the
    solver comes first."""
    made = []
    walk = sat._walk

    def counted(*args):
        made.append(args)
        return walk(*args)

    monkeypatch.setattr(sat, "_walk", counted)
    return made


@pytest.fixture
def pairs(monkeypatch):
    """Every ``~(x & y)`` node built from now on, by the parser or by the
    pair tree of an ``exactly_one``, by its argument."""
    made = []
    negate = formulas.neg

    def counted(f):
        if f.op == "and":
            made.append(f)
        return negate(f)

    monkeypatch.setattr(formulas, "neg", counted)
    return made


@pytest.fixture
def walks(monkeypatch):
    """Every generic walk made from now on, by the node it starts from:
    under ``"folds"`` each world-mask fold (``WorldModel._nnf_mask``),
    under ``"keys"`` each canonical-key rendering (``formulas.nnf_key``).
    A walk's recursive calls on the nodes below are not counted."""
    made = {"folds": [], "keys": []}

    def count(owner, name, kind):
        walk = getattr(owner, name)
        depth = 0

        def counted(*args):
            nonlocal depth
            if not depth:
                made[kind].append(args[-1])
            depth += 1
            try:
                return walk(*args)
            finally:
                depth -= 1

        monkeypatch.setattr(owner, name, counted)

    count(worlds.WorldModel, "_nnf_mask", "folds")
    count(formulas, "nnf_key", "keys")
    return made


@pytest.fixture
def listings(monkeypatch):
    """Every model whose worlds are listed from now on, that is, each model
    read through ``WorldModel.worlds`` before its tuple was built."""
    made = []
    read = worlds.WorldModel.worlds.fget

    def counted(model):
        if model._worlds is None:
            made.append(model)
        return read(model)

    monkeypatch.setattr(worlds.WorldModel, "worlds", property(counted))
    return made

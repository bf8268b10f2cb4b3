"""The process entry ``cli.run``: ``python -m probaccept``, ``python -m
probaccept.cli`` and the ``probaccept`` script all end through it.

Each check starts a fresh ``python -S`` child, without ``PYTHONUNBUFFERED``,
so that stdout is block-buffered as it is for a user's pipe.
"""

import os
import pathlib
import re
import subprocess
import sys

import pytest

import probaccept
from probaccept import cli, dump, fair_lottery

from helpers import pigeonhole_base

_IMPORT_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(probaccept.__file__)))
_ENV = {
    "PATH": "/usr/bin:/bin",
    "PYTHONPATH": _IMPORT_ROOT,
    "PYTHONDONTWRITEBYTECODE": "1",
    "COLUMNS": "80",  # argparse's width, in the child and in process alike
}

# python -m DOOR
DOORS = ["probaccept", "probaccept.cli"]

# argv (BASE: a 3-ticket lottery file) and the exit code it must give
RUNS = {
    "accept": (["accept", "--policy", "threshold", "--epsilon", "1/3", "BASE"], 0),
    "json_diagnose": (["--json", "diagnose", "--epsilon", "1/3", "BASE"], 0),
    "bad_input": (["accept", "--policy", "threshold", "--epsilon", "1/0", "BASE"], 2),
    "usage_error": (["accept", "--policy", "no_such_policy", "BASE"], 2),
    "version": (["--version"], 0),
}


def _child(argv, **kwargs):
    return subprocess.run([sys.executable, "-S", *argv], env=_ENV, **kwargs)


def _in_process(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse: --version and usage errors
        code = exc.code
    out, err = capsys.readouterr()
    return code, out.encode(), err.encode()


@pytest.mark.parametrize("door", DOORS)
@pytest.mark.parametrize("run", list(RUNS))
def test_each_door_gives_what_main_gives(run, door, capsys, monkeypatch, lottery3_path):
    argv, expected = RUNS[run]
    argv = [lottery3_path if part == "BASE" else part for part in argv]
    done = _child(["-m", door, *argv], capture_output=True)
    code, out, err = _in_process(capsys, monkeypatch, argv)
    assert (done.returncode, done.stdout, done.stderr) == (code, out, err)
    assert code == expected
    if run == "bad_input":
        assert out == b""
        assert err.count(b"\n") == 1


@pytest.mark.parametrize("door", DOORS)
def test_the_process_freezes_the_collector_before_it_exits(door):
    # an atexit hook registered before the entry runs at shutdown, after it
    script = (
        "import atexit, gc, runpy, sys\n"
        "atexit.register(lambda: print('frozen:', gc.get_freeze_count() > 0, file=sys.stderr))\n"
        "door = sys.argv[1]\n"
        "sys.argv = [door, *sys.argv[2:]]\n"
        "runpy.run_module(door, run_name='__main__', alter_sys=True)\n"
    )
    done = _child(["-c", script, door, "--version"], capture_output=True, text=True)
    assert done.returncode == 0
    assert done.stderr.splitlines()[-1] == "frozen: True"


def test_the_cli_door_compiles_the_cli_once(lottery3_path):
    # a command module's ``from .cli import ...`` finds the running module,
    # whose name is ``__main__``; a second copy would be ``probaccept.cli``
    script = (
        "import atexit, runpy, sys\n"
        "atexit.register(lambda: print(sys.modules['probaccept.cli'].__name__, file=sys.stderr))\n"
        "sys.argv = ['probaccept.cli', *sys.argv[1:]]\n"
        "runpy.run_module('probaccept.cli', run_name='__main__', alter_sys=True)\n"
    )
    argv = ["diagnose", "--epsilon", "1/3", lottery3_path]
    done = _child(["-c", script, *argv], capture_output=True, text=True)
    assert done.returncode == 0
    assert done.stderr.splitlines()[-1] == "__main__"


def test_the_script_is_the_same_entry():
    # read as text: ``tomllib`` needs Python 3.11, and the package runs from 3.10.7
    text = (pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml").read_text(
        encoding="utf-8"
    )
    scripts = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    (target,) = re.findall(r'^probaccept = "([\w.]+):(\w+)"$', scripts, re.M)
    # in a child: importing the script's module turns the collector off
    script = (
        "import gc, importlib, sys\n"
        "entry = getattr(importlib.import_module(sys.argv[1]), sys.argv[2])\n"
        "from probaccept import cli\n"
        "print(entry is cli.run, gc.isenabled())"
    )
    done = _child(["-c", script, *target], capture_output=True, text=True)
    assert (done.returncode, done.stdout) == (0, "True False\n"), done.stderr


def test_importing_the_cli_and_calling_main_leaves_the_collector_on():
    script = (
        "import contextlib, gc, io\n"
        "from probaccept import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['lottery', 'fair', '--n', '3'])\n"
        "print(code, gc.isenabled())"
    )
    done = _child(["-c", script], capture_output=True, text=True)
    assert (done.returncode, done.stdout) == (0, "0 True\n"), done.stderr


# Commands whose work is searches or long scans: ``diagnose`` on pigeonhole
# bases, whose accepted sets only a search refutes, and ``teng`` over 300
# tickets.  BASE is the file the fixture names.
HEAVY_RUNS = {
    "diagnose_4_holes": ("holes4", ["diagnose", "--epsilon", "1/5", "BASE"]),
    "diagnose_5_holes": ("holes5", ["diagnose", "--epsilon", "1/6", "BASE"]),
    "accept_teng_300": (
        "fair300",
        ["accept", "--policy", "teng", "--order", "natural", "--epsilon", "1/300", "BASE"],
    ),
}


@pytest.fixture(scope="module")
def heavy_bases(tmp_path_factory):
    folder = tmp_path_factory.mktemp("heavy")
    paths = {name: folder / f"{name}.bb" for name in ("holes4", "holes5", "fair300")}
    paths["holes4"].write_text(pigeonhole_base(4), encoding="utf-8")
    paths["holes5"].write_text(pigeonhole_base(5), encoding="utf-8")
    dump(fair_lottery(300), paths["fair300"])
    return {name: str(path) for name, path in paths.items()}


@pytest.mark.parametrize("run", list(HEAVY_RUNS))
def test_a_run_with_the_collector_off_leaves_little_cyclic_garbage(run, heavy_bases):
    # a CLI process never collects cycles until shutdown, which frees
    # nothing since ``run`` freezes the collector first; a change that left
    # cycles behind per search or per record would pile them up here.  The
    # count covers the imports too: about 350 to 1,100 objects when written.
    base, argv = HEAVY_RUNS[run]
    script = (
        "import gc\n"
        "gc.disable()\n"
        "import contextlib, io, sys\n"
        "from probaccept import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(sys.argv[1:])\n"
        "print(code, gc.isenabled(), gc.collect())"
    )
    argv = [heavy_bases[base] if part == "BASE" else part for part in argv]
    done = _child(["-c", script, *argv], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    code, enabled, garbage = done.stdout.split()
    assert (code, enabled) == ("0", "False")
    assert int(garbage) < 5000


@pytest.mark.parametrize("argv", [
    ["stat", "binom", "--n", "10", "--p0", "1/2", "--epsilon", "1/10", "--observed", "0"],
    ["lottery", "fair", "--n", "3"],
    ["--version"],
    # more than stdout's buffer, so ``main``'s own write meets the closed pipe
    ["lottery", "independent", "--n", "12", "--p", "1/3"],
], ids=["stat_binom", "lottery", "version", "past_the_buffer"])
def test_a_closed_stdout_pipe_exits_141_quietly(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = _child(["-m", "probaccept", *argv], stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (141, b"")

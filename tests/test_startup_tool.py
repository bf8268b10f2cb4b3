"""``tools/startup.py``'s reading of ``-X importtime`` output, and its
exit when stdout's reader has gone."""

import importlib.util
import os
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"

# as ``python -X importtime`` writes it: a module's line comes after the
# lines of the modules it loads, indented one level deeper
CANNED = """\
import time: self [us] | cumulative | imported package
import time:      3812 |       3812 |   _hashlib
import time:       204 |        204 |   _blake2
import time:       455 |       4471 | hashlib
import time:      2729 |       2729 | probaccept
import time:       701 |        701 |     probaccept.rationals
import time:      4853 |       5554 |   probaccept.cli
import time:      1890 |       2584 | shutil
import time:      3001 |       3001 |     ast
import time:      2102 |       5103 |   inspect
import time:       950 |       6053 | dataclasses
probaccept: error: not an import line
"""


def _startup(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))  # it imports ``cli_bytes`` from beside it
    spec = importlib.util.spec_from_file_location("startup", TOOLS / "startup.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_import_times_reads_package_self_and_stdlib_cumulative_times(monkeypatch):
    startup = _startup(monkeypatch)
    assert startup.import_times(CANNED) == {
        "hashlib": 4471,  # with OpenSSL's ``_hashlib``, which its self time hides
        "probaccept": 2729,
        "probaccept.rationals": 701,
        "probaccept.cli": 4853,
        "shutil": 2584,
        "inspect": 5103,  # with ``ast``, as within ``dataclasses``
        "dataclasses": 6053,
    }


def test_collections_reads_the_count_the_wrapper_prints_last(monkeypatch):
    startup = _startup(monkeypatch)
    assert startup.collections(CANNED + "gc collections: 3\n") == 3
    with pytest.raises(SystemExit, match="no collection count"):
        startup.collections(CANNED)


def test_the_table_has_a_row_of_collections(monkeypatch):
    startup = _startup(monkeypatch)
    results = {
        "accept": (60.0, 50.0, 0, {"probaccept.cli": 4853, "argparse": 4400}),
        "lottery": (44.0, 38.5, 1, {"probaccept.cli": 4853}),
    }
    rows = startup.table(results, 3).splitlines()
    assert rows[0].split() == ["accept", "lottery"]
    assert rows[1].split()[-2:] == ["60.0", "44.0"]
    assert rows[2].split() == ["exit", "ms", "10.0", "5.5"]
    assert rows[3].split() == ["gc", "collections", "0", "1"]
    assert rows[4].split() == ["probaccept.cli", "us", "4853", "4853"]
    assert "argparse us, cum." in rows[-3] and rows[-3].split()[-2:] == ["4400", "-"]


def test_closed_pipe_exits_141_without_a_traceback(monkeypatch, capsys):
    startup = _startup(monkeypatch)
    canned = {"accept": (60.0, 50.0, 0, {"probaccept": 2729, "hashlib": 4471})}
    monkeypatch.setattr(startup, "measure", lambda checkout, rounds: canned)
    read, write = os.pipe()
    os.close(read)  # the reader has gone, as after ``| head``
    with open(write, "w") as pipe:
        monkeypatch.setattr(sys, "stdout", pipe)
        assert startup.main([".", "1"]) == 141
        # the pipe's descriptor now writes to devnull, so closing it cannot fail
        assert os.path.samestat(os.fstat(write), os.stat(os.devnull))
    assert capsys.readouterr().err == ""

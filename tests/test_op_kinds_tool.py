"""``tools/op_kinds.py``: the per-kind table of canned runs, and a short
run of this checkout against itself."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOLS = ROOT / "tools"


def _op_kinds():
    spec = importlib.util.spec_from_file_location("op_kinds", TOOLS / "op_kinds.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_best_totals_and_ratios_of_canned_runs():
    tool = _op_kinds()
    # per kind: [count, total ms]
    runs = {
        "parent": [{"teng": [6, 3.0], "build": [2, 9.0]}, {"teng": [6, 2.0], "build": [2, 10.0]}],
        "change": [{"teng": [6, 1.5], "build": [2, 8.0]}, {"teng": [6, 1.0], "build": [2, 11.0]}],
    }
    best = tool.best(runs["parent"])
    # each kind's best round, and under "all" the best round's total
    assert best == {"teng": (6, 2.0), "build": (2, 9.0), "all": (8, 12.0)}
    lines = tool.table(runs).splitlines()
    assert lines[0].split() == ["kind", "ops", "parent", "ms", "change", "ms", "ratio"]
    rows = {line.split()[0]: line.split()[1:] for line in lines[1:]}
    assert list(rows) == ["build", "teng", "all"]  # by name, "all" last
    assert rows["teng"] == ["6", "2.000", "1.000", "0.500"]
    assert rows["all"] == ["8", "12.000", "9.500", "0.792"]


def test_the_sides_alternate_which_runs_first():
    tool = _op_kinds()
    assert [tool.run_order(r) for r in range(3)] == [
        ("parent", "change"), ("change", "parent"), ("parent", "change"),
    ]


def test_a_short_run_of_the_checkout_against_itself(capsys):
    tool = _op_kinds()
    assert tool.main([str(ROOT), str(ROOT), "--workload", "accept", "--seed", "3",
                      "--rounds", "1", "--ops", "40"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "workload=accept seed=3 rounds=1"
    assert out[1].split() == ["kind", "ops", "parent", "ms", "change", "ms", "ratio"]
    rows = {line.split()[0]: line.split()[1:] for line in out[2:]}
    # the first 40 operations of seed 3: eleven builds, then each session's
    # policy runs in turn
    assert set(rows) <= {"build", "threshold", "lehrer", "cascade", "sequential", "teng",
                         "extensions", "conjunction", "consequence", "all"}
    assert {"build", "threshold", "all"} <= set(rows)
    assert int(rows["all"][0]) == 40
    assert sum(int(row[0]) for kind, row in rows.items() if kind != "all") == 40
    assert all(float(row[1]) > 0 and float(row[2]) > 0 for row in rows.values())


def test_rounds_and_ops_must_be_positive():
    tool = _op_kinds()
    for flag in ("--rounds", "--ops"):
        with pytest.raises(SystemExit):
            tool.main([".", ".", "--workload", "accept", "--seed", "3", flag, "0"])

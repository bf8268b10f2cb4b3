"""``tools/bench_pairs.py``'s pairing of runs and its medians, on canned
``bench/run.py`` output."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOLS / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _output(p50, ops, failed=0):
    """A run's standard output as ``bench/run.py`` prints it: a summary
    line, then the JSON object on the last line."""
    metrics = {
        "ops_per_s": {"value": ops, "unit": "1/s"},
        "op_p50_ms": {"value": p50, "unit": "ms"},
    }
    summary = f"workload=accept seed=3 samples=473 of=473 ok={473 - failed}"
    record = {"correct": True, "attempted": 473, "failed": failed, "metrics": metrics}
    return f"{summary}\n{json.dumps(record)}\n"


def test_the_sides_alternate_which_runs_first():
    tool = _bench_pairs()
    assert [tool.run_order(pair) for pair in range(4)] == [
        ("parent", "change"), ("change", "parent"), ("parent", "change"), ("change", "parent"),
    ]


def test_medians_ratios_and_wins_of_canned_runs():
    tool = _bench_pairs()
    canned = {
        "parent": [(0.070, 5000), (0.068, 5200), (0.072, 4900), (0.066, 5400)],
        "change": [(0.056, 6100), (0.070, 5100), (0.058, 6000), (0.054, 6300)],
    }
    runs = {side: [tool.read_run(_output(*run)) for run in canned[side]] for side in canned}
    better = {"op_p50_ms": "lower", "ops_per_s": "higher"}
    rows = {row["metric"]: row for row in tool.summarize(runs, better)}
    p50 = rows["op_p50_ms"]
    assert p50["unit"] == "ms"
    assert p50["parent"] == pytest.approx(0.069) and p50["change"] == pytest.approx(0.057)
    assert p50["ratio"] == pytest.approx(0.057 / 0.069)
    # run i of one side is paired with run i of the other: the change's
    # second run, 0.070, loses to the parent's 0.068
    assert (p50["wins"], p50["pairs"]) == (3, 4)
    assert p50["parent_quartiles"] == pytest.approx((0.0665, 0.0715))
    ops = rows["ops_per_s"]
    assert ops["parent"] == 5100 and ops["change"] == 6050
    assert (ops["wins"], ops["pairs"]) == (3, 4)  # higher is better; 5100 < 5200 loses
    assert "op_p50_ms" in tool.table(list(rows.values()))


def test_a_tie_counts_for_neither_side_and_an_undeclared_metric_gets_no_wins():
    tool = _bench_pairs()
    runs = {
        "parent": [tool.read_run(_output(0.07, 5000))],
        "change": [tool.read_run(_output(0.07, 6000))],
    }
    rows = {row["metric"]: row for row in tool.summarize(runs, {"op_p50_ms": "lower"})}
    assert rows["op_p50_ms"]["wins"] == 0
    assert "wins" not in rows["ops_per_s"]
    assert rows["ops_per_s"]["parent_quartiles"] == (5000, 5000)  # one run each

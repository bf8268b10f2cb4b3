"""Smoke test of the benchmark itself.

Run from the root of a checkout with ``python3 -m pytest bench/test_smoke.py``.
A tiny seeded run of every workload must emit every declared metric with
its unit, and a planted wrong expected value must make the check fail.
"""

from __future__ import annotations

import json
import signal
import subprocess
import sys
from fractions import Fraction

import pytest

import oracles
import run
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_harness():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END.items())
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_run_emits_every_metric(workload, trace):
    done = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--min-samples", "1"],
        cwd=str(run.ROOT), capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }


@pytest.fixture
def set_up(tmp_path):
    sys.path.insert(0, str(run.SRC))
    previous = signal.signal(signal.SIGALRM, run._alarm)

    def make(name):
        workload, _, _ = run.set_up(workloads.WORKLOADS[name], 7, str(tmp_path), 1)
        workload.helpers = oracles.load_helpers()
        return workload

    yield make
    signal.signal(signal.SIGALRM, previous)
    sys.path.remove(str(run.SRC))


def _first(workload, kind, predicate=lambda op: True):
    for op in workload.ops():
        if op.kind == kind and predicate(op):
            return op
    raise AssertionError("no such operation")


def _outcome(workload, op, prior=()):
    runner = run.Runner(workload, run.HostClock())
    for earlier in prior:
        runner.run(earlier)
    runner.run(op)
    return runner.outcomes[-1]


def _shifted_policy_outcome(*args, **kwargs):
    expected, consistent = oracles.policy_outcome(*args, **kwargs)
    if not expected:
        return [("L1", Fraction(1, 2), Fraction(1, 2))], consistent
    label, p, support = expected[0]
    return [(label, p + Fraction(1, 1000), support)] + expected[1:], consistent


def test_planted_wrong_value_fails_accept(set_up, monkeypatch):
    workload = set_up("accept")
    op = _first(workload, "policy")
    build = _first(workload, "build", lambda b: b.session is op.session)
    assert _outcome(workload, op, [build]) == "ok"
    monkeypatch.setattr(workloads, "policy_outcome", _shifted_policy_outcome)
    assert _outcome(workload, op, [build]) == "wrong"


def test_planted_wrong_value_fails_diagnose(set_up, monkeypatch):
    workload = set_up("diagnose")
    op = _first(workload, "random", lambda r: tuple(r.spec[2]) != workloads.KNOWN_HANG)
    assert _outcome(workload, op) == "ok"
    monkeypatch.setattr(oracles, "min_cover", lambda universe, family: 99)
    assert _outcome(workload, op) == "wrong"


def test_planted_wrong_value_fails_cli(set_up, monkeypatch):
    workload = set_up("cli")
    op = _first(workload, "cli", lambda c: c.spec[1][0] == "accept")
    assert _outcome(workload, op) == "ok"
    monkeypatch.setattr(workloads, "policy_outcome", _shifted_policy_outcome)
    workload.outputs.clear()
    assert _outcome(workload, op) == "wrong"


def test_deadline_counts_the_known_hang_and_later_ops_still_pass(set_up):
    workload = set_up("diagnose")
    hang = _first(workload, "random", lambda r: tuple(r.spec[2]) == workloads.KNOWN_HANG)
    later = _first(workload, "lottery")
    runner = run.Runner(workload, run.HostClock())
    runner.run(hang)
    runner.run(later)
    assert runner.outcomes == ["deadline", "ok"]
    assert runner.latencies[0] >= workload.deadline_s


def test_call_budget_decides_by_count():
    def calls(n):
        def f():
            return None

        return lambda: [f() for _ in range(n)]

    assert run.count_calls(calls(100), 1000)
    assert not run.count_calls(calls(1000), 100)


def test_runs_of_one_seed_do_the_same_operations(set_up):
    workload = set_up("diagnose")
    first = [[op.spec for op in ops] for ops in run.schedule(workload, 30, 300)]
    again = [[op.spec for op in ops] for ops in run.schedule(set_up("diagnose"), 30, 300)]
    assert first == again and all(first)
    assert sum(map(len, first)) == 300


def test_operation_between_the_limits_is_decided_by_its_call_count(set_up, monkeypatch):
    import tracer as tracing

    workload = set_up("diagnose")
    op = _first(workload, "random", lambda r: tuple(r.spec[2]) != workloads.KNOWN_HANG)
    monkeypatch.setattr(workload, "recount_from_s", 0.0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        runner = run.Runner(workload, run.HostClock(), tracer)
        runner.run(op)
        monkeypatch.setattr(workload, "CALL_BUDGET", 10)
        runner.run(op)
    finally:
        tracer.uninstall()
    assert runner.outcomes == ["ok", "deadline"]
    assert runner.recounted == 2
    assert tracer.calls["sat.minimal_unsat_subsets"] == 2  # wrappers back after each recount

"""Run the benchmark in alternating pairs over two checkouts and compare.

    python tools/bench_pairs.py PARENT CHANGE --workload W --seed S [--pairs N]

Each of the N pairs (default 10) runs ``bench/run.py --workload W --seed S
--seconds T --trace 0`` once in each checkout, where T is the
``run_seconds`` of the ``BENCHMARK.json`` beside the tools, under the
interpreter that runs this tool, as a child process in that checkout's
root (the benchmark reads its oracles from the checkout's ``tests``).
The sides' order alternates: ``PARENT`` first in the first pair,
``CHANGE`` first in the second, and so on, so that a host that drifts
during the session favours neither side.  Before every run the side's
``src/probaccept/__pycache__`` is deleted, so each run compiles the
package from source as a fresh checkout does, whatever bytecode an
earlier run or test left.

It then prints one row per end-to-end metric: each side's median and
quartiles over its N runs, the ratio of the medians (change over parent),
and, for a metric whose direction ``BENCHMARK.json`` beside the tools
gives, how many pairs the change won (ties count for neither side).  A
run that reports a wrong result or a failed operation is named on stderr.
Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def run_order(pair: int) -> tuple[str, str]:
    """The sides in the order pair ``pair`` (from 0) runs them."""
    return SIDES if pair % 2 == 0 else SIDES[::-1]


def read_run(stdout: str) -> dict:
    """The JSON object on the last line of a ``bench/run.py`` run's
    output."""
    return json.loads(stdout.strip().splitlines()[-1])


def summarize(runs: dict[str, list[dict]], better: dict[str, str]) -> list[dict]:
    """One row per metric that every run reports: each side's median and
    quartiles, the ratio of the medians, and the change's wins over the
    ``better`` direction (``"lower"`` or ``"higher"``), run i of one side
    paired with run i of the other."""
    names = [
        name for name in runs["parent"][0]["metrics"]
        if all(name in run["metrics"] for side in SIDES for run in runs[side])
    ]
    rows = []
    for name in names:
        values = {side: [run["metrics"][name]["value"] for run in runs[side]] for side in SIDES}
        row = {"metric": name, "unit": runs["parent"][0]["metrics"][name]["unit"]}
        for side in SIDES:
            row[side] = statistics.median(values[side])
            row[f"{side}_quartiles"] = _quartiles(values[side])
        row["ratio"] = row["change"] / row["parent"] if row["parent"] else None
        if name in better:
            sign = 1 if better[name] == "higher" else -1
            pairs = list(zip(values["parent"], values["change"]))
            row["wins"] = sum(sign * (new - old) > 0 for old, new in pairs)
            row["pairs"] = len(pairs)
        rows.append(row)
    return rows


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    low, _, high = statistics.quantiles(values, n=4)
    return low, high


def table(rows: list[dict]) -> str:
    lines = [
        f"{'metric':<12} {'unit':<6} {'parent':>10} {'change':>10} {'ratio':>7}"
        f" {'parent q1..q3':>21} {'change q1..q3':>21} {'wins':>6}"
    ]
    for row in rows:
        ratio = "-" if row["ratio"] is None else f"{row['ratio']:.3f}"
        wins = f"{row['wins']}/{row['pairs']}" if "wins" in row else "-"
        quartiles = [
            "{:.4g}..{:.4g}".format(*row[f"{side}_quartiles"]) for side in SIDES
        ]
        lines.append(
            f"{row['metric']:<12} {row['unit']:<6} {row['parent']:>10.4g} {row['change']:>10.4g}"
            f" {ratio:>7} {quartiles[0]:>21} {quartiles[1]:>21} {wins:>6}"
        )
    return "\n".join(lines)


def directions(declared: dict) -> dict[str, str]:
    """Each end-to-end metric's better direction from a parsed
    ``BENCHMARK.json``."""
    return {entry["name"]: entry["better"] for entry in declared["end_to_end"]}


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    shutil.rmtree(checkout / "src" / "probaccept" / "__pycache__", ignore_errors=True)
    argv = [
        sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if done.returncode:
        raise SystemExit(f"{checkout}: bench/run.py exited {done.returncode}\n{done.stderr}")
    return read_run(done.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    declared = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    for pair in range(args.pairs):
        for side in run_order(pair):
            result = run_once(checkouts[side], args.workload, args.seed, declared["run_seconds"])
            if not result.get("correct", True) or result.get("failed"):
                print(f"pair {pair}: {side} run had wrong or failed operations", file=sys.stderr)
            runs[side].append(result)
    better = directions(declared)
    print(f"workload={args.workload} seed={args.seed} pairs={args.pairs}")
    print(table(summarize(runs, better)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

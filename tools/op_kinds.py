"""Time each kind of benchmark operation in two checkouts and compare.

    python tools/op_kinds.py PARENT CHANGE --workload W --seed S [--rounds N] [--ops K]

Each of the N rounds (default 5) runs, once in each checkout, the
operation list that ``bench/run.py --workload W --seed S --trace 0`` runs
there: its ``set_up`` over the ``run_seconds`` of the ``BENCHMARK.json``
beside the tools, or the first K operations of it with ``--ops``.  A run
is one child process, under the interpreter that runs this tool, that
imports the checkout's ``bench/run.py`` and ``bench/workloads.py``
unchanged and its package from ``src``, then executes every operation in
process and in order, timing ``execute`` alone with ``perf_counter`` and
checking each result with the workload's own ``verify`` outside the
timing.  The sides' order alternates between rounds, as in
``tools/bench_pairs.py``, and every run compiles the package from source,
since the side's ``src/probaccept/__pycache__`` is deleted before it.

It prints one row per operation kind, and a last row ``all``: the count of
operations, each side's best-of-N total ms, and the ratio of the totals
(change over parent).  A policy operation is listed under its policy's
name and a ``cli`` command under its subcommand; any other operation under
its kind.  An operation that raises or fails its check is named on stderr.
Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SIDES = ("parent", "change")
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def run_order(round_: int) -> tuple[str, str]:
    """The sides in the order round ``round_`` (from 0) runs them."""
    return SIDES if round_ % 2 == 0 else SIDES[::-1]


def kind_of(op) -> str:
    """The row an operation is timed under."""
    if op.kind == "policy":
        return op.spec[0]
    if op.kind == "cli":  # (argv, (subcommand, ...))
        return op.spec[1][0]
    return op.kind


def time_ops(checkout: Path, workload: str, seed: int, seconds: float, limit: int | None) -> dict:
    """Run the checkout's operation list in this process; return each kind's
    ``[count, total ms]``.  Called in a child process."""
    sys.path[:0] = [str(checkout / "bench"), str(checkout / "src")]
    import oracles
    import run
    import workloads

    times: dict[str, list] = {}
    with tempfile.TemporaryDirectory(prefix=f"op-kinds-{workload}-") as workdir:
        cls = workloads.WORKLOADS[workload]
        bench, blocks, _ = run.set_up(cls, seed, workdir, seconds, run.MIN_SAMPLES)
        bench.helpers = oracles.load_helpers()
        for index, op in enumerate([op for block in blocks for op in block][:limit]):
            start = time.perf_counter()
            try:
                result, error = bench.execute(op), None
            except Exception as exc:  # noqa: BLE001 - reported, and the run goes on
                result, error = None, exc
            row = times.setdefault(kind_of(op), [0, 0.0])
            row[0] += 1
            row[1] += (time.perf_counter() - start) * 1000
            if error is None:
                try:
                    bench.verify(op, result)
                except Exception as exc:  # noqa: BLE001
                    error = exc
            else:
                bench.abandon(op)
            if error is not None:
                print(f"op {index} ({kind_of(op)}): {type(error).__name__}: {error}", file=sys.stderr)
    return times


def best(runs: list[dict]) -> dict[str, tuple[int, float]]:
    """Each kind's count and best total ms over the runs of one side, and
    under ``all`` the best of the runs' totals over every kind."""
    out = {kind: (runs[0][kind][0], min(r[kind][1] for r in runs)) for kind in runs[0]}
    out["all"] = (
        sum(count for count, _ in runs[0].values()),
        min(sum(total for _, total in r.values()) for r in runs),
    )
    return out


def table(runs: dict[str, list[dict]]) -> str:
    sides = {side: best(runs[side]) for side in SIDES}
    lines = [f"{'kind':<14} {'ops':>5} {'parent ms':>10} {'change ms':>10} {'ratio':>7}"]
    kinds = [kind for kind in sides["parent"] if kind in sides["change"]]
    for kind in sorted(kinds, key=lambda k: (k == "all", k)):
        (count, old), (_, new) = sides["parent"][kind], sides["change"][kind]
        ratio = f"{new / old:.3f}" if old else "-"
        lines.append(f"{kind:<14} {count:>5} {old:>10.3f} {new:>10.3f} {ratio:>7}")
    return "\n".join(lines)


def run_child(checkout: Path, args) -> dict:
    shutil.rmtree(checkout / "src" / "probaccept" / "__pycache__", ignore_errors=True)
    argv = [
        sys.executable, __file__, str(checkout), str(checkout), "--child",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    if args.ops is not None:
        argv += ["--ops", str(args.ops)]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if done.returncode:
        raise SystemExit(f"{checkout}: run exited {done.returncode}\n{done.stderr}")
    if done.stderr:
        print(f"{checkout}:\n{done.stderr}", file=sys.stderr, end="")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--ops", type=int, default=None)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    if args.ops is not None and args.ops < 1:
        parser.error("--ops must be at least 1")
    seconds = json.loads(BENCHMARK.read_text(encoding="utf-8"))["run_seconds"]
    if args.child:
        times = time_ops(args.parent.resolve(), args.workload, args.seed, seconds, args.ops)
        print(json.dumps(times))
        return 0
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    for round_ in range(args.rounds):
        for side in run_order(round_):
            runs[side].append(run_child(checkouts[side], args))
    print(f"workload={args.workload} seed={args.seed} rounds={args.rounds}")
    print(table(runs))
    return 0


if __name__ == "__main__":
    sys.exit(main())

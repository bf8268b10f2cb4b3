"""Time the start-up of one ``probaccept`` command per subcommand.

    python tools/startup.py CHECKOUT [N]

Writes ``fair_3.bb`` with the checkout's own ``lottery`` command (through
``tools/cli_bytes.py``'s runner), then runs each command below N times
(default 5) as a fresh ``python -S -X importtime -m probaccept`` child on
the checkout's ``src``, with ``PYTHONDONTWRITEBYTECODE=1``.  It prints one
column per command: the best-of-N wall time of the child in ms, and the
best-of-N self import time in microseconds of each ``probaccept`` module
and of ``dataclasses``, ``hashlib`` and ``argparse``; ``-`` marks a module
the command does not load.  The inputs are a 3-ticket lottery and small
options, so a command's own work is a few ms and the rest is interpreter
start, compilation and import.

A checkout with ``src/probaccept/__pycache__`` imports its bytecode, not
its source; delete that directory first to time a cold start as the
``cli`` benchmark workload does.  Stdlib only.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time

from cli_bytes import BASES, subprocess_runner  # beside this file, first on sys.path

BASE = "fair_3.bb"

# column name -> argv, all on BASE or on no file
COMMANDS = {
    "accept": ["accept", "--policy", "threshold", "--epsilon", "1/3", BASE],
    "extensions": ["extensions", "--policy", "sequential", "--epsilon", "1/3", BASE],
    "diagnose": ["diagnose", "--epsilon", "1/3", BASE],
    "closure": ["closure", "--epsilon", "1/3", "--labels", "L1,L2", BASE],
    "stat": ["stat", "binom", "--n", "100", "--p0", "1/2", "--epsilon", "1/100",
             "--observed", "30"],
    "lottery": ["lottery", "fair", "--n", "3"],
}

# the stdlib modules whose import time is shown beside the package's
STDLIB = ("dataclasses", "hashlib", "argparse")


def import_times(stderr: str) -> dict[str, int]:
    """Self import time in microseconds by module, from ``-X importtime``
    lines ``import time: SELF | CUMULATIVE | NAME``."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        self_us, _, name = line[len("import time:"):].split("|")
        name = name.strip()
        if self_us.strip().isdigit() and (name.startswith("probaccept") or name in STDLIB):
            out[name] = int(self_us)
    return out


def measure(checkout: str, rounds: int) -> dict[str, tuple[float, dict[str, int]]]:
    """Per command: best wall time in ms and best self import time per module."""
    src = os.path.join(os.path.abspath(checkout), "src")
    env = {"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1", "PATH": os.environ.get("PATH", "")}
    results = {}
    with tempfile.TemporaryDirectory() as workdir:
        code, _, stderr = subprocess_runner(checkout)(workdir, [*BASES[BASE][0], "--out", BASE])
        if code != 0:
            raise SystemExit(f"writing {BASE} failed: {stderr.decode(errors='replace')}")
        for name, argv in COMMANDS.items():
            best_ms, best_us = float("inf"), {}
            for _ in range(rounds):
                start = time.perf_counter()
                done = subprocess.run(
                    [sys.executable, "-S", "-X", "importtime", "-m", "probaccept", *argv],
                    cwd=workdir, env=env, capture_output=True, text=True, timeout=300,
                )
                elapsed = (time.perf_counter() - start) * 1000
                if done.returncode != 0:
                    raise SystemExit(f"{name} exited {done.returncode}: {done.stderr[-500:]}")
                best_ms = min(best_ms, elapsed)
                for module, us in import_times(done.stderr).items():
                    best_us[module] = min(best_us.get(module, us), us)
            results[name] = (best_ms, best_us)
    return results


def table(results: dict[str, tuple[float, dict[str, int]]], rounds: int) -> str:
    names = list(results)
    modules = sorted({m for _, us in results.values() for m in us if m.startswith("probaccept")})
    rows = [["", *names], [f"wall ms, best of {rounds}", *(f"{results[n][0]:.1f}" for n in names)]]
    for module in [*modules, *STDLIB]:
        rows.append([f"{module} us", *(str(results[n][1].get(module, "-")) for n in names)])
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return "\n".join(
        "  ".join([row[0].ljust(widths[0]), *(c.rjust(w) for c, w in zip(row[1:], widths[1:]))])
        for row in rows
    )


def main(argv: list[str]) -> int:
    if len(argv) == 1:
        argv = [*argv, "5"]
    if len(argv) != 2 or argv[0].startswith("-") or not argv[1].isdigit() or int(argv[1]) < 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    rounds = int(argv[1])
    print(table(measure(argv[0], rounds), rounds))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

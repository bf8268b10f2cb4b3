"""Time the start-up and exit of one ``probaccept`` command per subcommand.

    python tools/startup.py CHECKOUT [N]

Copies the checkout's ``src`` without its ``__pycache__`` into a temporary
directory, writes ``fair_3.bb`` there with the copy's own ``lottery``
command (through ``tools/cli_bytes.py``'s runner), then runs each command
below N times (default 5) as a fresh ``python -S -X importtime -m
probaccept`` child on the copy, with ``PYTHONDONTWRITEBYTECODE=1``.  So
every child compiles the package from source, the cold start that the
``cli`` benchmark workload pays, whatever bytecode the checkout holds.

It prints one column per command:

- the best-of-N wall time of the child in ms;
- ``exit ms``: that time minus the best-of-N wall time of the same
  command run through ``-c`` by a wrapper that flushes the std streams
  and calls ``os._exit`` once the entry is done, so skipping shutdown;
- ``gc collections``: how many collections the cyclic collector ran in
  that wrapper's child, all generations, from interpreter start to the
  entry's end (the most of the N runs);
- the best-of-N self import time in microseconds of each ``probaccept``
  module, and the cumulative one, with what each loads, of the stdlib
  modules in ``STDLIB``.

``-`` marks a module the command does not load.  The inputs are a
3-ticket lottery and small options, so a command's own work is a few ms
and the rest is interpreter start, compilation, import and exit.  If
stdout's reader goes early (``| head``), it exits 141 with no traceback.
Stdlib only.
"""

from __future__ import annotations

import os
import shutil
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
    "conclusion": ["closure", "--epsilon", "1/3", "--labels", "L1,L2", "--conclusion", "wins_3",
                   BASE],
    "stat": ["stat", "binom", "--n", "100", "--p0", "1/2", "--epsilon", "1/100",
             "--observed", "30"],
    "lottery": ["lottery", "fair", "--n", "3"],
}

# the stdlib modules whose cumulative import time is shown beside the
# package's: ``dataclasses`` loads ``inspect``, which loads ``dis``, ``ast``
# and ``tokenize``, and neither is loaded by a command, since the record
# classes build their dataclass fields on first read; ``hashlib`` loads
# OpenSSL's ``_hashlib``, where the base-file commands take the
# interpreter's own SHA-256 (``_sha256``, ``_sha2`` from Python 3.12), and
# ``argparse`` loads ``shutil`` and ``gettext`` loads ``locale`` when the
# parser is built
STDLIB = (
    "dataclasses", "inspect", "hashlib", "_sha256", "_sha2", "argparse", "shutil", "locale",
)

# runs what ``python -m probaccept`` runs, the package's ``__main__``, then
# prints the cyclic collector's collection count and ends the process
# without its shutdown
EXIT_AT_ONCE = """\
import gc, os, runpy, sys
try:
    runpy.run_module("probaccept", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
sys.stdout.flush()
print("gc collections:", sum(s["collections"] for s in gc.get_stats()), file=sys.stderr)
sys.stderr.flush()
os._exit(code or 0)
"""


def import_times(stderr: str) -> dict[str, int]:
    """Import time in microseconds by module, from ``-X importtime`` lines
    ``import time: SELF | CUMULATIVE | NAME``: the self time of each
    ``probaccept`` module and the cumulative time of each in ``STDLIB``."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        self_us, cumulative_us, name = line[len("import time:"):].split("|")
        name = name.strip()
        if not self_us.strip().isdigit():
            continue  # the header line
        if name.startswith("probaccept"):
            out[name] = int(self_us)
        elif name in STDLIB:
            out[name] = int(cumulative_us)
    return out


def collections(stderr: str) -> int:
    """The collection count that ``EXIT_AT_ONCE`` prints last on stderr."""
    last = stderr.rstrip("\n").rsplit("\n", 1)[-1]
    if not last.startswith("gc collections: "):
        raise SystemExit(f"no collection count in: {last!r}")
    return int(last[len("gc collections: "):])


def _child(argv: list[str], name: str, workdir: str, env: dict[str, str]):
    """Wall time in ms and the ``-X importtime`` stderr of one child."""
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", *argv],
        cwd=workdir, env=env, capture_output=True, text=True, timeout=300,
    )
    elapsed = (time.perf_counter() - start) * 1000
    if done.returncode != 0:
        raise SystemExit(f"{name} exited {done.returncode}: {done.stderr[-500:]}")
    return elapsed, done.stderr


def measure(checkout: str, rounds: int) -> dict[str, tuple[float, float, int, dict[str, int]]]:
    """Per command: best wall time in ms, best wall time without shutdown
    in ms, the most collections, and best import time per module."""
    results = {}
    with tempfile.TemporaryDirectory() as workdir:
        copy = os.path.join(workdir, "checkout")
        shutil.copytree(
            os.path.join(os.path.abspath(checkout), "src"), os.path.join(copy, "src"),
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        env = {
            "PYTHONPATH": os.path.join(copy, "src"), "PYTHONDONTWRITEBYTECODE": "1",
            "PATH": os.environ.get("PATH", ""),
        }
        code, _, stderr = subprocess_runner(copy)(workdir, [*BASES[BASE][0], "--out", BASE])
        if code != 0:
            raise SystemExit(f"writing {BASE} failed: {stderr.decode(errors='replace')}")
        for name, argv in COMMANDS.items():
            best_ms, best_now_ms, most_collections, best_us = float("inf"), float("inf"), 0, {}
            for _ in range(rounds):
                elapsed, stderr = _child(["-m", "probaccept", *argv], name, workdir, env)
                best_ms = min(best_ms, elapsed)
                for module, us in import_times(stderr).items():
                    best_us[module] = min(best_us.get(module, us), us)
                elapsed, stderr = _child(["-c", EXIT_AT_ONCE, *argv], name, workdir, env)
                best_now_ms = min(best_now_ms, elapsed)
                most_collections = max(most_collections, collections(stderr))
            results[name] = (best_ms, best_now_ms, most_collections, best_us)
    return results


def table(results: dict[str, tuple[float, float, int, dict[str, int]]], rounds: int) -> str:
    names = list(results)
    modules = sorted({m for *_, us in results.values() for m in us if m.startswith("probaccept")})
    rows = [
        ["", *names],
        [f"wall ms, best of {rounds}", *(f"{results[n][0]:.1f}" for n in names)],
        ["exit ms", *(f"{results[n][0] - results[n][1]:.1f}" for n in names)],
        ["gc collections", *(str(results[n][2]) for n in names)],
    ]
    for module in modules:
        rows.append([f"{module} us", *(str(results[n][3].get(module, "-")) for n in names)])
    for module in STDLIB:
        rows.append([f"{module} us, cum.", *(str(results[n][3].get(module, "-")) for n in names)])
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
    results = measure(argv[0], rounds)
    try:
        print(table(results, rounds))
        sys.stdout.flush()  # here, so that a closed pipe is caught, not reported at exit
    except BrokenPipeError:
        # as ``probaccept.cli.run`` does: with fd 1 on devnull, the flush at
        # exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

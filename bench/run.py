"""Benchmark for probaccept.

Usage, from the root of a checkout::

    python3 bench/run.py --workload {accept,diagnose,cli} --seed N --seconds S --trace {0,1}

The program is imported from ``src/`` of the same checkout.  Each workload
is one closed-loop client in this process: it sends the next operation
when the previous one has finished and been checked.  A run executes a
fixed, seeded list of operations, as many as take ``--seconds`` on the
reference host, so the same seed always does the same work.  Times are
reported in reference seconds: a fixed probe computation is timed between
operations, and each operation's wall time is scaled by how much slower or
faster the host ran the probe around it (see ``HostClock``).  With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it runs a shorter prefix, once untraced in a child process and once with
the tracer installed, and reports the per-layer metrics.  Every operation
is checked against an independent oracle.  The last line of standard
output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from fractions import Fraction
from pathlib import Path

import oracles
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p95_ms": "ms",
    "op_ok_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

_LAYER_TIMES = [
    "formulas.parse", "formulas.render", "formulas.has_strong_inconsistency",
    "worlds.build", "worlds.satisfying_mask", "worlds.mask_weight",
    "basefile.loads", "basefile.dumps",
    "sat.is_satisfiable", "sat.entails", "sat.minimal_unsat_subsets",
    "sat.maximal_consistent_subsets", "sat.shrink_unsat_subset",
    "accept.threshold_accept", "accept.lehrer_accept", "accept.lehrer_cascade",
    "accept.sequential_accept", "accept.teng_accept", "accept.enumerate_extensions",
    "closure.conjunction_support", "closure.consequence_level",
    "strands.degree_of_inconsistency",
    "stattests.binomial_rejection_region",
    "cli.main",
]
_LAYER_CALLS = [
    "formulas.evaluate", "formulas.parse", "worlds.satisfying_mask", "worlds.mask_weight",
    "sat.is_satisfiable", "sat.entails", "strands.strand_entails",
    "stattests.binomial_rejection_region",
]

# (name, unit, better)
PER_LAYER = sorted(
    [(f"{span}.self_s", "s", "lower") for span in _LAYER_TIMES]
    + [(f"{span}.calls", "count", "lower") for span in _LAYER_CALLS]
    + [
        ("worlds.satisfying_mask.repeat_ratio", "ratio", "higher"),
        ("sat.subsets_found", "count", "higher"),
        ("accept.permutations_tried", "count", "lower"),
        ("cli.interp_ms", "ms", "lower"),
        ("cli.import_ms", "ms", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
)

# Reference seconds one block of operations takes, checks included.  A run
# of ``--seconds S`` executes the first ``S / BLOCK_SECONDS`` blocks of its
# seed's stream, and more until it holds ``MIN_SAMPLES`` operations, so
# that ten of them lie beyond p95.  The same seed always does the same
# operations.
BLOCK_SECONDS = {"accept": 9.0, "diagnose": 4.5, "cli": 3.0}
MIN_SAMPLES = 200
# Set-ups timed per run: one before the first block, one after each block
# but the last, and the rest after the last block; ``setup_s`` is their
# median.
SETUP_SAMPLES = 9
# A host so slow that a run passes this multiple of ``--seconds`` of wall
# time ends the run early, so that every run ends in time.
WALL_CAP = 4.0
# Share of ``--seconds`` a trace run replays, once untraced and once traced.
TRACE_SHARE = 0.4

# The probe's time on the reference host; see ``HostClock``.
REFERENCE_PROBE_S = 0.0005
PROBE_INTERVAL_S = 0.05
PROBE_WINDOW = 8


def _probe_tree(depth, i):
    if depth == 0:
        return ("atom", f"x{i % 7}")
    return ("and" if i % 2 else "or", (_probe_tree(depth - 1, 2 * i), _probe_tree(depth - 1, 2 * i + 1)))


_PROBE_TREE = _probe_tree(7, 1)


def _probe_walk(node, env):
    if node[0] == "atom":
        return env[node[1]]
    values = [_probe_walk(child, env) for child in node[1]]
    return all(values) if node[0] == "and" else any(values)


def probe() -> float:
    """Seconds one fixed pure-Python computation takes: rationals, dicts,
    sets, a recursive tree walk and a sort, the library's kinds of work.
    The collector is off so that the library's heap does not add to it."""
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 40):
        total += Fraction(i, i + 3)
    env = {f"x{i}": bool(i % 3) for i in range(7)}
    frozenset(k for k, v in env.items() if v)
    sum(_probe_walk(_PROBE_TREE, env) for _ in range(3))
    sorted(range(200), key=lambda k: (k * 7919) % 211)
    took = time.perf_counter() - start
    if enabled:
        gc.enable()
    return took


class HostClock:
    """Converts wall seconds to reference seconds.

    The host is a share of a machine whose speed drifts by up to a factor
    of two within a minute.  The probe is timed every ``PROBE_INTERVAL_S``
    between operations.  ``REFERENCE_PROBE_S`` divided by the mean of
    nearby probes is how fast the host ran, and a wall time is multiplied
    by it: ``now`` uses the last ``PROBE_WINDOW`` probes, for decisions
    taken while running; ``around`` uses as many probes before a point of
    the run as after it, for the reported times.  A faster program reads
    faster; a faster or slower host does not."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = -float("inf")
        for _ in range(PROBE_WINDOW):
            self.probe()

    def probe(self) -> None:
        self.samples.append(probe())
        self._last = time.perf_counter()

    def mark(self) -> int:
        """Probe if it is time to; returns the current point of the run."""
        if time.perf_counter() - self._last >= PROBE_INTERVAL_S:
            self.probe()
        return len(self.samples)

    def now(self) -> float:
        return REFERENCE_PROBE_S / statistics.fmean(self.samples[-PROBE_WINDOW:])

    def around(self, mark: int) -> float:
        half = PROBE_WINDOW // 2
        return REFERENCE_PROBE_S / statistics.fmean(self.samples[max(0, mark - half):mark + half])

    def factors(self) -> list[float]:
        return [self.around(mark) for mark in range(PROBE_WINDOW, len(self.samples) + 1)]


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU.  The host's cores
    slow down independently of each other, so the probe must run on the
    core the operations run on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class OverBudget(BaseException):
    """Raised by the call counter when an operation passes its budget."""


def count_calls(fn, budget) -> bool:
    """Run ``fn`` counting Python function calls; False once it passes
    ``budget``.  It is stopped there, by the exception the counter raises,
    or, when that is raised where Python ignores exceptions (a generator
    being finalised), by the deadline timer armed at the same moment."""
    calls = 0
    over = False

    def tracer(frame, event, arg):
        nonlocal calls, over
        calls += 1
        if calls > budget and not over:
            over = True
            signal.setitimer(signal.ITIMER_REAL, 0.001)
            raise OverBudget()

    def unraisable(info):
        if not isinstance(info.exc_value, OverBudget):
            previous(info)

    previous = sys.unraisablehook
    sys.unraisablehook = unraisable
    try:
        sys.settrace(tracer)
        try:
            fn()
        finally:
            sys.settrace(None)
            if over:
                signal.setitimer(signal.ITIMER_REAL, 0)
    except (OverBudget, DeadlineExceeded):
        if not over:
            raise
    finally:
        sys.unraisablehook = previous
    return not over


class DeadlineExceeded(BaseException):
    """Raised by the interval timer inside an operation that ran too long.
    A BaseException, so the library's own ``except`` clauses let it pass."""


def _alarm(signum, frame):
    raise DeadlineExceeded()


def import_library():
    """Import the package fresh from ``src/``; returns it."""
    for name in [n for n in sys.modules if n.split(".")[0] == "probaccept"]:
        del sys.modules[name]
    lib = importlib.import_module("probaccept")
    importlib.import_module("probaccept.cli")
    origin = Path(lib.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"probaccept imported from {origin}, not from {SRC}")
    return lib


def set_up(workload_cls, seed, workdir, seconds, min_ops=0):
    """Import plus input generation; returns the workload, its schedule
    (see ``schedule``) and the wall time."""
    start = time.perf_counter()
    lib = import_library()
    workload = workload_cls(seed, lib, None, workdir)
    workload.prepare()
    blocks = schedule(workload, seconds, min_ops)
    return workload, blocks, time.perf_counter() - start


def repeat_set_up(workload, seconds, min_ops) -> float:
    """Time one more set-up without disturbing the running workload: the
    freshly imported modules are dropped and the running ones put back."""
    ours = [name for name in sys.modules if name.split(".")[0] == "probaccept"]
    saved = {name: sys.modules[name] for name in ours}
    try:
        *_, took = set_up(type(workload), workload.seed, workload.workdir, seconds, min_ops)
    finally:
        for name in [n for n in sys.modules if n.split(".")[0] == "probaccept"]:
            del sys.modules[name]
        sys.modules.update(saved)
        gc.collect()
    return took


class Runner:
    """Runs operations one at a time under a deadline and keeps score.

    Times are in reference seconds (``HostClock``).  An operation with a
    call budget (``Workload.call_budget``) fails its deadline exactly when
    it makes more Python function calls than the budget, so that whether it
    fails does not depend on the host: the deadline timer stops only
    operations that are over budget at any host speed, one that finishes
    before ``recount_from_s`` is within it at any host speed, and one that
    finishes in between is run again, untimed, under a call counter."""

    def __init__(self, workload, clock, tracer=None):
        self.workload = workload
        self.clock = clock
        self.tracer = tracer
        self.wall: list[float] = []
        self.marks: list[int] = []  # the clock's point at each operation
        self.outcomes: list[str] = []
        self.errors: list[str] = []
        self.recounted = 0
        self.run_s = 0.0
        self.interrupted = False
        self.after_interrupt = 0  # operations that ran after a passed deadline
        self.after_interrupt_ok = 0

    def run(self, op):
        workload = self.workload
        deadline = workload.deadline_s
        self.marks.append(self.clock.mark())
        factor = self.clock.now()
        if self.tracer is not None:
            self.tracer.op_id = len(self.outcomes)
        start = time.perf_counter()
        result = None
        try:
            if workload.in_process:
                signal.setitimer(signal.ITIMER_REAL, deadline / factor)
                try:
                    result = workload.execute(op)
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
            else:
                result = workload.execute(op)
            outcome = "ok"
        except (DeadlineExceeded, subprocess.TimeoutExpired):
            outcome = "deadline"
        except Exception as exc:  # noqa: BLE001 - any library failure counts
            outcome = "skipped" if isinstance(exc, workloads.Skipped) else "error"
            if outcome == "error":
                self._record(op, exc)
        wall = time.perf_counter() - start
        took = wall * factor
        if outcome == "deadline" and self.tracer is not None:
            self.tracer.interrupted()
        budget = workload.call_budget(op)
        if outcome == "ok" and budget is not None and took >= workload.recount_from_s:
            self.recounted += 1
            if not self._within(op, budget, deadline / factor):
                outcome = "deadline"
        if outcome != "ok":
            workload.abandon(op)
        if outcome == "ok":
            try:
                workload.verify(op, result)
            except Exception as exc:  # noqa: BLE001 - a crashing check is a failed check
                outcome = "wrong"
                self._record(op, exc)
        self.outcomes.append(outcome)
        self.wall.append(wall)
        if self.interrupted:
            self.after_interrupt += 1
            self.after_interrupt_ok += outcome == "ok"
        self.interrupted = self.interrupted or outcome == "deadline"

    def _within(self, op, budget, backstop) -> bool:
        """Whether ``op`` stays within ``budget`` calls, counted in a second,
        untimed execution with the tracer's wrappers taken out."""
        if self.tracer is not None:
            self.tracer.uninstall()
        signal.setitimer(signal.ITIMER_REAL, 10 * backstop)
        try:
            return count_calls(lambda: self.workload.execute(op), budget)
        except DeadlineExceeded:
            return False
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            if self.tracer is not None:
                self.tracer.install()

    def _record(self, op, exc):
        where = "".join(traceback.format_exception(exc, limit=-1)[1:]).strip()
        self.errors.append(f"{op.kind}: {where}")

    @property
    def elapsed(self) -> list[float]:
        """Time each operation actually took, in reference seconds."""
        around = self.clock.around
        return [wall * around(mark) for wall, mark in zip(self.wall, self.marks)]

    @property
    def latencies(self) -> list[float]:
        """``elapsed``, with each failed operation at least at the deadline."""
        deadline = self.workload.deadline_s
        return [took if outcome == "ok" else max(took, deadline)
                for took, outcome in zip(self.elapsed, self.outcomes)]

    @property
    def ok(self):
        return self.outcomes.count("ok")

    @property
    def correct(self):
        return not any(o in ("wrong", "error") for o in self.outcomes)


def percentile(values, q):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def metric(value, unit):
    return {"value": value, "unit": unit}


def schedule(workload, seconds, min_ops=0):
    """The fixed operation list of a run of ``seconds``, as blocks: whole
    blocks, then a prefix of one, as many as take ``seconds`` at the
    reference speed, and at least ``min_ops`` operations."""
    blocks = seconds / BLOCK_SECONDS[workload.name]
    out = []
    index = 0
    count = 0
    while blocks > 1e-9 or count < min_ops:
        ops = workload.block(index)
        take = max(1, round(len(ops) * min(blocks, 1.0)), min(len(ops), min_ops - count))
        out.append(ops[:take])
        count += take
        blocks -= 1.0
        index += 1
    return out


def run_schedule(runner, blocks, wall_limit, repeat=None, setup_times=None):
    """Run ``blocks`` in order.  When ``repeat`` is given the set-up is
    repeated with those arguments and timed into ``setup_times`` between
    blocks, so that it samples the whole run, and after the last block
    until there are ``SETUP_SAMPLES``.  Stops early only once
    ``wall_limit`` seconds have passed."""
    start = time.perf_counter()

    def time_set_up():
        mark = runner.clock.mark()
        setup_times.append((repeat_set_up(runner.workload, *repeat), mark))

    try:
        for index, ops in enumerate(blocks):
            if index and repeat is not None:
                time_set_up()
            for op in ops:
                if time.perf_counter() - start > wall_limit:
                    return
                runner.run(op)
        while repeat is not None and len(setup_times) < SETUP_SAMPLES:
            time_set_up()
    finally:
        runner.run_s = time.perf_counter() - start


def end_to_end(args, workload, blocks, clock, setup_wall):
    setup_times = [(setup_wall, PROBE_WINDOW)]
    runner = Runner(workload, clock)
    run_schedule(runner, blocks, WALL_CAP * args.seconds,
                 (args.seconds, args.min_samples), setup_times)
    lat_ms = [x * 1000.0 for x in runner.latencies]
    factors = clock.factors()
    attempted = len(runner.outcomes)
    p95 = percentile(lat_ms, 95)
    print(
        f"workload={workload.name} seed={args.seed} samples={attempted} "
        f"of={sum(map(len, blocks))} beyond_p95={sum(x > p95 for x in lat_ms)} ok={runner.ok} "
        f"deadline={runner.outcomes.count('deadline')} "
        f"(limit {workload.deadline_s:g} s, recounted {runner.recounted}) "
        f"wrong={runner.outcomes.count('wrong')} error={runner.outcomes.count('error')} "
        f"skipped={runner.outcomes.count('skipped')} "
        f"after_interrupt_ok={runner.after_interrupt_ok}/{runner.after_interrupt} "
        f"ops_ref_s={sum(runner.elapsed):.2f} ops_wall_s={sum(runner.wall):.2f} "
        f"run_wall_s={runner.run_s:.2f} "
        f"host_factor={statistics.median(factors):.3f} "
        f"({min(factors):.3f}-{max(factors):.3f})"
    )
    for line in runner.errors[:10]:
        print("  failure:", line)
    values = {
        "ops_per_s": runner.ok / sum(runner.elapsed),
        "op_p50_ms": percentile(lat_ms, 50),
        "op_p95_ms": p95,
        "op_ok_ratio": runner.ok / attempted,
        "setup_s": statistics.median(wall * clock.around(mark) for wall, mark in setup_times),
        "peak_rss_mb": peak_rss_mb(children=not workload.in_process),
    }
    metrics = {name: metric(values[name], unit) for name, unit in END_TO_END.items()}
    return runner, metrics


def floors_ms(repeats=5):
    """Interpreter start and ``import probaccept.cli`` as subprocesses,
    started like the ``cli`` workload's children."""
    env = workloads.package_env()

    def median_ms(code):
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-S", "-c", code], env=env, cwd=str(ROOT), check=True)
            times.append((time.perf_counter() - start) * 1000.0)
        return statistics.median(times)

    interp = median_ms("pass")
    return interp, median_ms("import probaccept.cli") - interp


def per_layer(args, workload, blocks, clock):
    import tracer as tracing

    workload.in_process = True
    baseline = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed",
         str(args.seed), "--seconds", str(args.seconds), "--baseline-ops"], cwd=str(ROOT),
        capture_output=True, text=True, check=True,
    )
    untraced = json.loads(baseline.stdout.strip().splitlines()[-1])["elapsed"]

    tracer = tracing.Tracer()
    tracer.install()
    runner = Runner(workload, clock, tracer)
    try:
        run_schedule(runner, blocks, WALL_CAP * args.seconds)
    finally:
        tracer.uninstall()
    common = min(len(untraced), len(runner.elapsed))
    overhead = sum(runner.elapsed[:common]) / sum(untraced[:common])

    self_s = tracer.self_times()
    calls = tracer.calls
    counts = tracer.counts
    mask_calls = calls["worlds.satisfying_mask"]
    interp_ms = import_ms = 0.0
    if workload.name == "cli":
        interp_ms, import_ms = floors_ms()
    print(
        f"workload={workload.name} seed={args.seed} traced_ops={len(runner.outcomes)} "
        f"spans={len(tracer.spans)} ok={runner.ok} deadline={runner.outcomes.count('deadline')} "
        f"overhead_ratio={overhead:.3f}"
    )
    for line in runner.errors[:10]:
        print("  failure:", line)
    values = {}
    for name, unit, _ in PER_LAYER:
        if name.endswith(".self_s"):
            values[name] = self_s.get(name[: -len(".self_s")], 0.0)
        elif name.endswith(".calls"):
            values[name] = calls[name[: -len(".calls")]]
    values.update({
        "worlds.satisfying_mask.repeat_ratio":
            counts["worlds.satisfying_mask.repeats"] / mask_calls if mask_calls else 0.0,
        "sat.subsets_found": counts["sat.subsets_found"],
        "accept.permutations_tried": counts["accept.permutations_tried"],
        "cli.interp_ms": interp_ms,
        "cli.import_ms": import_ms,
        "trace.overhead_ratio": overhead,
    })
    metrics = {name: metric(values[name], unit) for name, unit, _ in PER_LAYER}
    return runner, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline-ops", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--min-samples", type=int, default=MIN_SAMPLES, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "probaccept" / "__init__.py").is_file():
        print(f"error: no probaccept sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    signal.signal(signal.SIGALRM, _alarm)
    pin_to_one_cpu()
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=work_root)
    try:
        workload_cls = workloads.WORKLOADS[args.workload]
        clock = HostClock()
        if args.trace or args.baseline_ops:  # a fixed prefix, see per_layer
            workload, blocks, _ = set_up(workload_cls, args.seed, workdir,
                                         args.seconds * TRACE_SHARE)
        else:
            workload, blocks, setup_wall = set_up(workload_cls, args.seed, workdir,
                                                  args.seconds, args.min_samples)
        workload.helpers = oracles.load_helpers()
        if args.baseline_ops:
            workload.in_process = True
            runner = Runner(workload, clock)
            run_schedule(runner, blocks, WALL_CAP * args.seconds)
            print(json.dumps({"elapsed": runner.elapsed}))
            return 0
        if args.trace:
            runner, metrics = per_layer(args, workload, blocks, clock)
        else:
            runner, metrics = end_to_end(args, workload, blocks, clock, setup_wall)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass
    attempted = len(runner.outcomes)
    print(json.dumps({
        "correct": runner.correct,
        "attempted": attempted,
        "failed": attempted - runner.ok,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Per-layer tracing by wrapping the library's public functions from outside.

Each target is a (span name, module, attribute) triple.  Installing the
tracer replaces the attribute with a wrapper and also every other binding
of the same function object in the package: names re-bound by ``from ...
import`` in other modules, aliases such as the CLI's ``dump_base``, and
values of module-level dicts such as policy tables.  A target the library
no longer has is skipped, so its metrics read zero.

Spans (name, parent, start, end, operation id) stay in memory and are
reduced to per-layer metrics when the run ends.  A span's self time is its
duration minus the time covered by the wrapped spans nested directly in it.
Recursive calls of a wrapped function fold into the outermost span.
"""

from __future__ import annotations

import importlib
import pkgutil
from collections import Counter, defaultdict
from time import perf_counter

PACKAGE = "probaccept"
TIMED = "time"
COUNTED = "count"

# (span name, module, attribute path, mode)
TARGETS = [
    ("formulas.evaluate", "formulas", "evaluate", COUNTED),
    ("formulas.parse", "formulas", "parse", TIMED),
    ("formulas.render", "formulas", "render", TIMED),
    ("formulas.has_strong_inconsistency", "formulas", "has_strong_inconsistency", TIMED),
    ("worlds.build", "worlds", "fair_lottery", TIMED),
    ("worlds.build", "worlds", "biased_lottery", TIMED),
    ("worlds.build", "worlds", "independent_lottery", TIMED),
    ("worlds.build", "worlds", "WorldModel.__init__", TIMED),
    ("worlds.build", "worlds", "BeliefBase.__init__", TIMED),
    ("worlds.satisfying_mask", "worlds", "WorldModel.satisfying_mask", TIMED),
    ("worlds.mask_weight", "worlds", "WorldModel.mask_weight", TIMED),
    ("basefile.loads", "basefile", "loads", TIMED),
    ("basefile.dumps", "basefile", "dumps", TIMED),
    ("sat.is_satisfiable", "sat", "is_satisfiable", TIMED),
    ("sat.entails", "sat", "entails", TIMED),
    ("sat.minimal_unsat_subsets", "sat", "minimal_unsat_subsets", TIMED),
    ("sat.maximal_consistent_subsets", "sat", "maximal_consistent_subsets", TIMED),
    ("sat.shrink_unsat_subset", "sat", "shrink_unsat_subset", TIMED),
    ("accept.threshold_accept", "accept", "threshold_accept", TIMED),
    ("accept.lehrer_accept", "accept", "lehrer_accept", TIMED),
    ("accept.lehrer_cascade", "accept", "lehrer_cascade", TIMED),
    ("accept.sequential_accept", "accept", "sequential_accept", TIMED),
    ("accept.teng_accept", "accept", "teng_accept", TIMED),
    ("accept.enumerate_extensions", "accept", "enumerate_extensions", TIMED),
    ("closure.conjunction_support", "closure", "conjunction_support", TIMED),
    ("closure.consequence_level", "closure", "consequence_level", TIMED),
    ("strands.degree_of_inconsistency", "strands", "degree_of_inconsistency", TIMED),
    ("strands.strand_entails", "strands", "strand_entails", TIMED),
    ("stattests.binomial_rejection_region", "stattests", "binomial_rejection_region", TIMED),
    ("cli.main", "cli", "main", TIMED),
]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.op_id = -1
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._flags: list[list[int]] = []
        self._restore: list = []
        self._masks_seen: set = set()
        self._models: dict = {}
        self._hooks = {
            "worlds.satisfying_mask": self._on_mask,
            "sat.minimal_unsat_subsets": self._on_subsets,
            "sat.maximal_consistent_subsets": self._on_subsets,
            "sat.shrink_unsat_subset": self._on_shrink,
            "accept.enumerate_extensions": self._on_extensions,
        }

    # -- hooks ----------------------------------------------------------------

    def _on_mask(self, args, result):
        model, formula = args[0], args[1]
        self._models[id(model)] = model  # keep alive so ids stay unique
        key = (id(model), formula.canonical_key)
        if key in self._masks_seen:
            self.counts["worlds.satisfying_mask.repeats"] += 1
        else:
            self._masks_seen.add(key)

    def _on_subsets(self, args, result):
        self.counts["sat.subsets_found"] += len(result)

    def _on_shrink(self, args, result):
        self.counts["sat.subsets_found"] += result is not None

    def _on_extensions(self, args, result):
        self.counts["accept.permutations_tried"] += result.permutation_count

    # -- wrappers -------------------------------------------------------------

    def _timed(self, name, fn):
        tracer = self
        active = [0]
        self._flags.append(active)
        spans = self.spans
        stack = self.stack
        calls = self.calls
        hook = self._hooks.get(name)

        def wrapper(*args, **kwargs):
            if active[0]:
                return fn(*args, **kwargs)
            active[0] = 1
            calls[name] += 1
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                if stack and stack[-1] == index:
                    stack.pop()
                active[0] = 0
                spans[index] = (name, parent, start, end, tracer.op_id)
            if hook is not None:
                hook(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name, fn):
        active = [0]
        self._flags.append(active)
        calls = self.calls

        def wrapper(*args, **kwargs):
            if active[0]:
                return fn(*args, **kwargs)
            active[0] = 1
            calls[name] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                active[0] = 0

        wrapper.__wrapped__ = fn
        return wrapper

    # -- install / remove -------------------------------------------------------

    def _modules(self):
        root = importlib.import_module(PACKAGE)
        mods = [root]
        for info in pkgutil.iter_modules(root.__path__):
            name = f"{PACKAGE}.{info.name}"
            if name.endswith(".__main__"):
                continue
            try:
                mods.append(importlib.import_module(name))
            except ImportError:
                continue
        return mods

    def _set(self, container, key, value, is_dict=False):
        if is_dict:
            self._restore.append((container, key, container[key], True))
            container[key] = value
        else:
            self._restore.append((container, key, getattr(container, key), False))
            setattr(container, key, value)

    def install(self) -> None:
        modules = self._modules()
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        for span, module_name, path, mode in TARGETS:
            module = by_name.get(module_name)
            if module is None:
                continue
            owner = module
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
                if owner is None:
                    break
            fn = getattr(owner, attr, None) if owner is not None else None
            if not callable(fn):
                continue
            make = self._counted if mode == COUNTED else self._timed
            wrapper = make(span, fn)
            if outer:
                self._set(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._set(mod, key, wrapper)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is fn:
                                self._set(value, k, wrapper, is_dict=True)

    def uninstall(self) -> None:
        for container, key, original, is_dict in reversed(self._restore):
            if is_dict:
                container[key] = original
            else:
                setattr(container, key, original)
        self._restore.clear()

    def interrupted(self) -> None:
        """Close spans left open by an operation cut off by its deadline."""
        now = perf_counter()
        for index in self.stack:
            if self.spans[index] is None:
                self.spans[index] = ("interrupted", -1, now, now, self.op_id)
        self.stack.clear()
        for flag in self._flags:
            flag[0] = 0

    # -- reduction ---------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        child = defaultdict(float)
        for span in self.spans:
            if span is not None and span[1] >= 0:
                child[span[1]] += span[3] - span[2]
        totals: dict[str, float] = defaultdict(float)
        for index, span in enumerate(self.spans):
            if span is None:
                continue
            totals[span[0]] += (span[3] - span[2]) - child.get(index, 0.0)
        return totals

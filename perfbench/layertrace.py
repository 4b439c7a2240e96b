"""Outside-in spans around the public functions of each qcc-lab layer.

`install` replaces each traced function with a wrapper that records a span
(name, start, end, parent) and rebinds the wrapper wherever the package
bound the original: `harness.run` is also `reduction.run`, and
`check_exact_blqms` is also `cli.check_exact_blqms`.  Methods are wrapped
on every class that defines them, so a protocol hook is traced whichever
protocol answers it.  Nothing under `src/` is edited; the wrappers live
only in the traced process.

Spans stay in memory.  `summary` folds them into per-name counts and
times; `write_spans` dumps them when the command has finished.  A span's
self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import Counter

# span name -> (module, function); every binding of the function is replaced
FUNCTIONS = {
    "cli.main": ("qcc_lab.cli", "main"),
    "cli.canonical_json": ("qcc_lab.cli", "canonical_json"),
    "oracle.predict_joint_probs": ("qcc_lab.oracle", "predict_joint_probs"),
    "oracle.sign_vector_projector": ("qcc_lab.oracle", "sign_vector_projector"),
    "dj.promise_scenarios": ("qcc_lab.dj", "promise_scenarios"),
    "harness.run": ("qcc_lab.harness", "run"),
    "harness.tail_mass": ("qcc_lab.harness", "tail_mass"),
    "harness.output_distribution": ("qcc_lab.harness", "output_distribution"),
    "harness.check_exact_blqms": ("qcc_lab.harness", "check_exact_blqms"),
    "harness.sample_distribution": ("qcc_lab.harness", "sample_distribution"),
    "reduction.check_tail_hypothesis": ("qcc_lab.reduction", "check_tail_hypothesis"),
    "reduction.partition_inputs": ("qcc_lab.reduction", "partition_inputs"),
    "reduction.build_certificate": ("qcc_lab.reduction", "build_certificate"),
    "reduction.verify_certificate": ("qcc_lab.reduction", "verify_certificate"),
}
# span name -> (base class, method); wrapped on the base class and on every
# subclass that overrides it
METHODS = {
    "harness.RandomnessSpace.sample_index": ("RandomnessSpace", "sample_index"),
    "protocols.step": ("Protocol", "step"),
    "protocols.outcome_table": ("Protocol", "outcome_table"),
    "protocols.exact_distribution": ("Protocol", "exact_distribution"),
    "protocols.batch_outcomes": ("Protocol", "batch_outcomes"),
}
# optional fast paths: a call that returns None falls back to `run`
HOOKS = ("protocols.outcome_table", "protocols.exact_distribution",
         "protocols.batch_outcomes")
# names whose per-call durations are kept for percentiles
PERCENTILE_NAMES = ("oracle.predict_joint_probs", "harness.run",
                    "reduction.verify_certificate")


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.stack = [-1]
        self.hits: Counter = Counter()
        self.extra: Counter = Counter()

    def wrap(self, name: str, fn, observe=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        hits = self.hits if name in HOOKS else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if hits is not None and result is not None:
                hits[name] += 1
            if observe is not None:
                observe(self, result)
            return result

        return traced

    def summary(self) -> dict:
        """Per span name: calls, hits, inclusive s, self_s, durations (us)."""
        cover = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                cover[parent] += end - start
        out: dict = {}
        for index, (name, start, end, _) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - cover[index]
            if name in PERCENTILE_NAMES:
                entry.setdefault("us", []).append(round((end - start) * 1e6, 3))
        for name, count in self.hits.items():
            out[name]["hits"] = count
        for key, value in self.extra.items():
            out.setdefault(key, {})["value"] = value
        return out

    def write_spans(self, path: str, command: str) -> None:
        """One JSON array per span: name, start, end, parent, command."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            for name, start, end, parent in self.spans:
                handle.write(json.dumps([name, start, end, parent, command]) + "\n")


def _count_cells(tracer: Tracer, partition) -> None:
    tracer.extra["reduction.partition.cells"] += partition.cell_count


def _count_samples(tracer: Tracer, stats) -> None:
    tracer.extra["harness.sample_distribution.samples"] += stats.samples


OBSERVERS = {
    "reduction.partition_inputs": _count_cells,
    "harness.sample_distribution": _count_samples,
}


def _package_modules() -> list:
    return [module for key, module in sorted(sys.modules.items())
            if key == "qcc_lab" or key.startswith("qcc_lab.")]


def install() -> Tracer:
    """Wrap every traced function and method of the imported package."""
    tracer = Tracer()
    modules = _package_modules()
    for name, (module_name, attr) in FUNCTIONS.items():
        original = getattr(sys.modules[module_name], attr)
        wrapper = tracer.wrap(name, original, OBSERVERS.get(name))
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
    classes = {id(value): value for module in modules
               for value in vars(module).values() if isinstance(value, type)}
    for name, (base_name, method) in METHODS.items():
        bases = [cls for cls in classes.values() if cls.__name__ == base_name]
        if len(bases) != 1:
            raise RuntimeError(f"expected one class named {base_name}, found {len(bases)}")
        for cls in classes.values():
            if issubclass(cls, bases[0]) and method in vars(cls):
                setattr(cls, method, tracer.wrap(name, vars(cls)[method]))
    return tracer

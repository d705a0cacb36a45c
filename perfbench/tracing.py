"""In-memory span tracer that instruments udgl from outside the package.

Spans are recorded at the public functions each workload reaches: the
wrapper replaces every binding of the original function object across the
loaded ``udgl`` modules, so ``udgl.cli.solve``, ``udgl.bench.solve`` and
``udgl.solver.solve`` all report as ``solver.solve``. Nothing under ``src/``
is edited. Spans live in flat arrays (name, parent, op, start, end) and are
written out only when the run ends.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

# Span name -> (module, attribute) of the function it wraps.
SPANS = {
    "cli.main": ("udgl.cli", "main"),
    "bench.run_sweep": ("udgl.bench", "run_sweep"),
    "bench.write_csv": ("udgl.bench", "write_csv"),
    "model.generate_instance": ("udgl.model", "generate_instance"),
    "model.strip_instance": ("udgl.model", "strip_instance"),
    "model.write_file": ("udgl.model", "write_file"),
    "model.parse_file": ("udgl.model", "parse_file"),
    "solver.solve": ("udgl.solver", "solve"),
    "solver.realization_order": ("udgl.solver", "realization_order"),
    "solver.verify": ("udgl.solver", "verify"),
    "solver.format_solution_set": ("udgl.solver", "format_solution_set"),
    "solver.parse_solutions": ("udgl.solver", "parse_solutions"),
    "oracle.brute_force_solutions": ("udgl.oracle", "brute_force_solutions"),
}

# Spans opened by the benchmark itself rather than by a udgl layer.
HARNESS_SPANS = ("op", "round", "harness.check")


def replace_everywhere(original, replacement) -> int:
    """Rebind every name that refers to `original` in the loaded udgl modules."""
    hits = 0
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "udgl" or name.startswith("udgl.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                hits += 1
    return hits


class Tracer:
    """Flat span store plus per-layer counters; single-threaded by design."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("l")
        self.op = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.op_id = -1
        self.counters: Counter = Counter()

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def _wrap(self, name: str, fn):
        open_, close, counters = self.open, self.close, self.counters
        generation_error = sys.modules["udgl.model"].GenerationError
        counts_failures = name == "model.generate_instance"
        counts_bytes = name == "model.write_file"

        def wrapper(*args, **kwargs):
            idx = open_(name)
            try:
                out = fn(*args, **kwargs)
            except generation_error:
                counters["model.generate_failures"] += counts_failures
                raise
            finally:
                close(idx)
            if counts_bytes:
                counters["model.bytes"] += len(out)
            return out

        return wrapper

    def instrument(self) -> None:
        """Wrap every function in SPANS, and count sub_locations calls, wherever udgl binds them."""
        for name, (module, attr) in SPANS.items():
            original = getattr(sys.modules[module], attr)
            replace_everywhere(original, self._wrap(name, original))
        # Called once per tree expansion: counted, not spanned, to keep overhead low.
        counters = self.counters
        sub_locations = sys.modules["udgl.solver"].sub_locations

        def counted(*args, **kwargs):
            counters["solver.sub_locations_calls"] += 1
            return sub_locations(*args, **kwargs)

        replace_everywhere(sub_locations, counted)

    def self_times(self) -> dict[str, float]:
        """Per-name self time: span duration minus the durations of its child spans."""
        n = len(self.start)
        total: dict[str, float] = {}
        for i in range(n):
            d = self.end[i] - self.start[i]
            name = self.names[self.name_id[i]]
            total[name] = total.get(name, 0.0) + d
            p = self.parent[i]
            if p >= 0:
                parent = self.names[self.name_id[p]]
                total[parent] = total.get(parent, 0.0) - d
        return total

    def durations(self, name: str) -> float:
        nid = self._ids.get(name)
        if nid is None:
            return 0.0
        return sum(self.end[i] - self.start[i] for i in range(len(self.start)) if self.name_id[i] == nid)

    def dump(self, path) -> None:
        """Write every span as one JSON line (gzip): name, start, end, parent index, op id."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for i in range(len(self.start)):
                out.write(
                    json.dumps(
                        [i, self.names[self.name_id[i]], self.start[i], self.end[i], self.parent[i], self.op[i]]
                    )
                    + "\n"
                )

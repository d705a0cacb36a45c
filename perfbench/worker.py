"""Run one workload in this (fresh) process and print its raw result as one JSON line.

Started by run.py, never imported by udgl. The process imports udgl from
the checkout's src/ directory only, builds the workload's inputs (that is
the set-up being timed), then runs units in a closed loop, one thread, the
next one starting when the previous returns, until --seconds have passed
and at least the workload's minimum unit count is done.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import HARNESS_SPANS, Tracer, replace_everywhere  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TAIL_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)
STAT_KEYS = ("visits", "candidates", "max_depth", "solutions", "censored")


class Run:
    """Op timings, check results and the fingerprint of the first `prefix_units` units."""

    def __init__(self, seconds: float, workload, tracer: Tracer | None):
        self.workload = workload
        self.tracer = tracer
        self.units = 0
        self.op_times: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.check_s = 0.0
        self.totals = [0, 0, 0, 0, 0]  # in STAT_KEYS order
        self.prefix = [0, 0, 0, 0, 0]
        self.prefix_ops = 0
        self.prefix_failed = False
        self.digest = hashlib.sha256()
        self.snapshot: dict = {}
        self.start = time.perf_counter()
        self.deadline = self.start + seconds
        self._mark = 0.0

    def more(self) -> bool:
        return self.units < self.workload.min_units or time.perf_counter() < self.deadline

    @property
    def in_prefix(self) -> bool:
        return self.units < self.workload.prefix_units

    @contextmanager
    def _root(self, name: str):
        if self.tracer is None:
            yield
            return
        self.tracer.op_id = self.attempted
        with self.tracer.span(name):
            yield

    @contextmanager
    def op(self):
        """Time one op of a single-op unit (trace root span 'op')."""
        with self._root("op"):
            t0 = time.perf_counter()
            yield
            self.op_times.append(time.perf_counter() - t0)

    @contextmanager
    def round(self):
        """One paper-sweeps round; its trials are timed by trial_start/trial_done."""
        with self._root("round"):
            yield

    def trial_start(self) -> None:
        if self.tracer is not None:
            self.tracer.op_id = self.attempted
        self._mark = time.perf_counter()

    def trial_done(self) -> None:
        self.op_times.append(time.perf_counter() - self._mark)

    @contextmanager
    def check(self):
        """Benchmark-side checking; its time is excluded from every end-to-end metric."""
        t0 = time.perf_counter()
        if self.tracer is None:
            yield
        else:
            with self.tracer.span("harness.check"):
                yield
        self.check_s += time.perf_counter() - t0

    def result(self, ok: bool, stats, record: bytes) -> None:
        """Outcome of one op: pass/fail, its solve stats and its deterministic record."""
        self.attempted += 1
        self.failed += not ok
        for st in stats:
            for i, v in enumerate(st):
                self.totals[i] += v
                if self.in_prefix:
                    self.prefix[i] += v
        if self.in_prefix:
            self.prefix_ops += 1
            self.digest.update(record)

    def unit_record(self, record: bytes, ok: bool) -> None:
        """Unit-level output (the sweep CSV minus wall_s) that joins the fingerprint."""
        if not ok:
            self.failed += 1
        if self.in_prefix:
            self.digest.update(record)

    def fingerprint(self) -> dict:
        fp = dict(zip(STAT_KEYS, self.prefix))
        fp.update(ops=self.prefix_ops, digest=self.digest.hexdigest()[:16])
        return fp


def _git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        path = ROOT / ".git" / ref[5:]
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_revision": _git_revision(),
    }


def tail(times: list[float]) -> tuple[float, float] | None:
    """Highest ladder percentile with at least ten samples beyond it (nearest rank)."""
    n = len(times)
    if n < 100:
        return None
    pct = max(p for p in TAIL_LADDER if n * (1 - p / 100) >= 10)
    ordered = sorted(times)
    rank = max(1, -(-int(round(pct * n * 100)) // 10000))
    return pct, ordered[rank - 1]


def install_tamper(udgl, kind: str) -> None:
    """Self-test only: corrupt the first solve result (a solution coordinate or the visit count)."""
    original = udgl.solver.solve
    done = []

    def tampered(problem, config):
        result = original(problem, config)
        if done:
            return result
        if kind == "visits":
            result.stats.instances_visited += 1
            done.append(1)
        elif result.solutions:
            sol = result.solutions[0]
            node = next(i for i in sorted(sol) if i not in problem.anchors)
            sol[node] = type(sol[node])(sol[node][0] + 1, sol[node][1])
            done.append(1)
        return result

    replace_everywhere(original, tampered)


def per_layer(run: Run, tracer: Tracer) -> dict:
    self_t = tracer.self_times()
    g = self_t.get
    search_s = g("solver.solve", 0.0)
    inside_checks = sum(
        tracer.end[i] - tracer.start[i]
        for i in range(len(tracer.start))
        if tracer.parent[i] >= 0 and tracer.names[tracer.name_id[i]] == "harness.check"
    )
    op_wall = sum(tracer.durations(name) for name in ("op", "round")) - inside_checks
    layer_self = sum(v for k, v in self_t.items() if k not in HARNESS_SPANS)
    visits, cands = run.totals[0], run.totals[1]
    snap = run.snapshot
    c = tracer.counters
    return {
        # Listed in BENCHMARK.json per_layer (every workload reaches these layers).
        "solver.search_s": (search_s, "s"),
        "solver.order_s": (g("solver.realization_order", 0.0), "s"),
        "solver.visits": (snap["visits"], "count"),
        "solver.candidates": (snap["candidates"], "count"),
        "solver.max_depth": (snap["max_depth"], "count"),
        "solver.visits_per_s": (visits / search_s if search_s else 0.0, "1/s"),
        "solver.candidates_per_s": (cands / search_s if search_s else 0.0, "1/s"),
        "solver.survival_ratio": (visits / cands if cands else 0.0, "visits/candidate"),
        "solver.sub_locations_calls": (snap["sub_locations_calls"], "count"),
        "geometry.circle_calls": (snap["circle_calls"], "count"),
        "geometry.circle_cache_misses": (snap["circle_cache_misses"], "count"),
        "trace.layer_coverage": (layer_self / op_wall if op_wall else 0.0, "ratio"),
        "trace.op_p50_s": (statistics.median(run.op_times), "s"),
        # Printed only: zero on the workloads that never reach the layer.
        "solver.verify_s": (g("solver.verify", 0.0), "s"),
        "solver.format_s": (g("solver.format_solution_set", 0.0), "s"),
        "solver.parse_solutions_s": (g("solver.parse_solutions", 0.0), "s"),
        "solver.solutions": (snap["solutions"], "count"),
        "solver.censored": (snap["censored"], "count"),
        "model.generate_s": (g("model.generate_instance", 0.0), "s"),
        "model.generate_failures": (c["model.generate_failures"], "count"),
        "model.write_s": (g("model.write_file", 0.0), "s"),
        "model.parse_s": (g("model.parse_file", 0.0), "s"),
        "model.strip_s": (g("model.strip_instance", 0.0), "s"),
        "model.bytes": (c["model.bytes"], "bytes"),
        "oracle.brute_force_s": (g("oracle.brute_force_solutions", 0.0), "s"),
        "bench.sweep_self_s": (g("bench.run_sweep", 0.0), "s"),
        "bench.write_csv_s": (g("bench.write_csv", 0.0), "s"),
        "cli.self_s": (g("cli.main", 0.0), "s"),
        "harness.glue_s": (g("op", 0.0) + g("round", 0.0), "s"),
        "trace.op_wall_s": (op_wall, "s"),
        "trace.spans": (len(tracer.start), "count"),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help="time the set-up and exit")
    p.add_argument("--prefix-only", action="store_true", help="run only the fingerprinted prefix")
    p.add_argument("--tiny", action="store_true", help="self-test sizes")
    p.add_argument("--tamper", choices=("coord", "visits"), help="self-test: corrupt one result")
    p.add_argument("--fingerprints", default=str(Path(__file__).resolve().parent / "fingerprints.json"))
    args = p.parse_args(argv)

    t0 = time.perf_counter()
    src = ROOT / "src"
    if not (src / "udgl" / "__init__.py").is_file():
        print(f"perfbench: no udgl sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import udgl
    import udgl.cli  # noqa: F401  (cli is not re-exported by the package)

    if not Path(udgl.__file__).resolve().is_relative_to(src.resolve()):
        print(f"perfbench: udgl imported from {udgl.__file__}, not from {src}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](udgl, args.seed, args.tiny, ROOT)
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        workload.close()
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.instrument()
    if args.tamper:
        install_tamper(udgl, args.tamper)
    circle = udgl.geometry.circle_offsets
    run = Run(0.0 if args.prefix_only else args.seconds, workload, tracer)
    if args.prefix_only:
        workload.min_units = workload.prefix_units
    try:
        while run.more():
            before = run.attempted
            try:
                workload.unit(run.units, run)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                run.attempted += run.attempted == before
                run.failed += 1
                run.prefix_failed |= run.in_prefix
            run.units += 1
            if run.units == workload.prefix_units:
                info = circle.cache_info()
                run.snapshot = dict(
                    zip(STAT_KEYS, run.prefix),
                    circle_calls=info.hits + info.misses,
                    circle_cache_misses=info.misses,
                    sub_locations_calls=tracer.counters["solver.sub_locations_calls"] if tracer else 0,
                )
        wall = time.perf_counter() - run.start
    finally:
        workload.close()

    fp = run.fingerprint()
    recorded = {}
    fp_path = Path(args.fingerprints)
    if fp_path.is_file():
        table_key = args.workload + (":tiny" if args.tiny else "")
        recorded = json.loads(fp_path.read_text()).get(table_key, {}).get(str(args.seed), {})
    if run.prefix_failed:
        fp_status = "prefix failed"
    elif not recorded:
        fp_status = "not recorded for this seed"
    elif recorded == fp:
        fp_status = "match"
    else:
        fp_status = "MISMATCH"
        run.failed = min(run.attempted, run.failed + run.prefix_ops)

    measured = wall - run.check_s
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "setup_s": setup_s,
        "attempted": run.attempted,
        "failed": run.failed,
        "units": run.units,
        "ops": len(run.op_times),
        "measured_s": measured,
        "check_s": run.check_s,
        "op_p50_s": statistics.median(run.op_times) if run.op_times else None,
        "op_tail": tail(run.op_times),
        "ops_per_s": len(run.op_times) / measured if measured > 0 else None,
        "visits_per_s": run.totals[0] / measured if measured > 0 else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "fingerprint": fp,
        "fingerprint_status": fp_status,
        "env": environment(),
    }
    if tracer is not None:
        out["per_layer"] = per_layer(run, tracer)
        out_dir = ROOT / "perfbench" / "out"
        out_dir.mkdir(parents=True, exist_ok=True)
        spans = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        tracer.dump(spans)
        out["spans_file"] = str(spans.relative_to(ROOT))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

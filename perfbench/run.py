"""udgl benchmark: four workloads, end-to-end and per-layer metrics, correctness gates.

Usage (from the repository root):

    python3 perfbench/run.py                       # every workload, untraced then traced
    python3 perfbench/run.py --workload chain-20k --seed 3 --seconds 25 --trace 0

Each workload runs in its own fresh worker process (perfbench/worker.py), so
peak memory, the circle_offsets cache and the recursion limit never leak
between workloads, and every run pays the cold start a udgl invocation pays.
Set-up is timed in that process and in five more set-up-only processes;
setup_s is their median. The last line of standard output is one JSON
object: correct, attempted, failed and the metrics named in BENCHMARK.json
(end_to_end with --trace 0, per_layer with --trace 1).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_PROBES = 5
WORKLOAD_NAMES = ("paper-sweeps", "pipeline-n3000", "chain-20k", "certify-small")
QUEUE_NOTE = "queue wait: not applicable (one process, one thread, closed loop; udgl has no queues)"


class WorkerError(RuntimeError):
    pass


def spawn(args: list[str], timeout: float) -> dict:
    """Run the worker in a fresh interpreter and return its JSON result line."""
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args], cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker {' '.join(args)} timed out after {timeout:.0f}s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker {' '.join(args)} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    common = ["--workload", workload, "--seed", str(seed)]
    probes = [spawn([*common, "--setup-only"], timeout=60)["setup_s"] for _ in range(SETUP_PROBES)]
    res = spawn([*common, "--seconds", str(seconds), "--trace", str(trace)], timeout=seconds + 140)
    res["setup_samples"] = [*probes, res["setup_s"]]
    res["setup_s"] = statistics.median(res["setup_samples"])
    return res


def report(res: dict, spec: dict) -> dict:
    """Print every metric by name and unit; return the ones BENCHMARK.json lists for this mode."""
    env = res["env"]
    print(
        f"# {res['workload']} seed={res['seed']} trace={res['trace']} | python {env['python']} "
        f"numpy {env['numpy']} nproc {env['nproc']} git {env['git_revision']}"
    )
    rows = {
        "op_p50_s": (res["op_p50_s"], "s"),
        "visits_per_s": (res["visits_per_s"], "1/s"),
        "setup_s": (res["setup_s"], "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "ops_per_s": (res["ops_per_s"], "1/s"),
    }
    if res["op_tail"]:
        pct, value = res["op_tail"]
        rows[f"op_tail_s[p{pct:g}]"] = (value, "s")
    rows["error_rate"] = (res["failed"] / res["attempted"] if res["attempted"] else 1.0, "ratio")
    per_layer = res.get("per_layer", {})
    rows.update({k: tuple(v) for k, v in per_layer.items()})
    for name, (value, unit) in rows.items():
        print(f"{name:32s} {value!r:>24} {unit}")
    if not res["op_tail"]:
        print(f"{'op_tail_s':32s} {'n/a':>24} s   ({res['ops']} ops < 100)")
    print(
        f"ops {res['ops']} attempted {res['attempted']} failed {res['failed']} units {res['units']} "
        f"measured {res['measured_s']:.3f}s checks {res['check_s']:.3f}s setup samples "
        + " ".join(f"{s:.4f}" for s in res["setup_samples"])
    )
    print(f"fingerprint {res['fingerprint_status']}: {json.dumps(res['fingerprint'], sort_keys=True)}")
    if "spans_file" in res:
        print(f"spans written to {res['spans_file']}")
    print(QUEUE_NOTE)
    wanted = spec["per_layer"] if res["trace"] else spec["end_to_end"]
    return {m["name"]: {"value": rows[m["name"]][0], "unit": m["unit"]} for m in wanted}


def final_line(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="udgl benchmark (see perfbench/README.md)")
    p.add_argument("--workload", choices=WORKLOAD_NAMES, help="one workload; default: all, untraced and traced")
    p.add_argument("--seed", type=int, default=0, help="workload seed; 0 reproduces the acceptance specs")
    p.add_argument("--seconds", type=float, help="measurement window per run (default: run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "udgl" / "__init__.py").is_file():
        print(f"perfbench: no udgl sources under {ROOT / 'src'}; nothing to measure", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    try:
        if args.workload:
            res = measure(args.workload, args.seed, seconds, args.trace)
            metrics = report(res, spec)
            final_line(res["failed"] == 0, res["attempted"], res["failed"], metrics)
            return 0
        attempted = failed = 0
        summary = {}
        for name in WORKLOAD_NAMES:
            plain = measure(name, args.seed, seconds, 0)
            traced = measure(name, args.seed, seconds, 1)
            for res in (plain, traced):
                for metric, value in report(res, spec).items():
                    summary[f"{name}.{metric}"] = value
                attempted += res["attempted"]
                failed += res["failed"]
            if plain["op_p50_s"] and traced["op_p50_s"]:
                overhead = traced["op_p50_s"] / plain["op_p50_s"] - 1
                print(f"{name}: tracing overhead on op_p50_s {overhead:+.1%} (traced vs untraced run)\n")
                summary[f"{name}.trace_overhead"] = {"value": overhead, "unit": "ratio"}
        final_line(failed == 0, attempted, failed, summary)
        return 0
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

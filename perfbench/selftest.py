"""Self-test of the benchmark itself (not of udgl): python3 perfbench/selftest.py

For every workload at a tiny size it checks that
  * a clean run passes every check and matches the fingerprint just recorded,
  * a run whose first solve result has one solution coordinate moved fails,
  * a run whose first solve result has its visit count changed fails,
  * a traced run reports every per-layer metric of BENCHMARK.json and its
    per-layer self times account for the op wall time;
and that run.py exits non-zero, printing no result, in a copy of the
checkout that holds only BENCHMARK.json and perfbench/.
Exits 0 when all of these hold.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from run import HERE, ROOT, WORKLOAD_NAMES, spawn

OUT = HERE / "out"


def main() -> int:
    OUT.mkdir(exist_ok=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    fp_file = OUT / "selftest-fingerprints.json"
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'PASS' if ok else 'FAIL'}: {what}")
        if not ok:
            failures.append(what)

    for name in WORKLOAD_NAMES:
        tiny = ["--workload", name, "--tiny", "--seconds", "0.5"]
        recorded = spawn([*tiny, "--prefix-only"], timeout=120)
        fp_file.write_text(json.dumps({f"{name}:tiny": {"0": recorded["fingerprint"]}}))
        gated = [*tiny, "--fingerprints", str(fp_file)]
        clean = spawn(gated, timeout=120)
        expect(
            clean["failed"] == 0 and clean["attempted"] > 0 and clean["fingerprint_status"] == "match",
            f"{name}: clean run passes ({clean['attempted']} ops, fingerprint {clean['fingerprint_status']})",
        )
        for kind in ("coord", "visits"):
            bad = spawn([*gated, "--tamper", kind], timeout=120)
            expect(
                bad["failed"] > 0,
                f"{name}: tampered {kind} caught (error_rate {bad['failed']}/{bad['attempted']}, "
                f"fingerprint {bad['fingerprint_status']})",
            )
        unguarded = spawn([*tiny, "--tamper", "coord"], timeout=120)
        expect(
            unguarded["failed"] > 0,
            f"{name}: tampered coord caught by the output checks alone, with no fingerprint "
            f"(error_rate {unguarded['failed']}/{unguarded['attempted']})",
        )
        traced = spawn([*tiny, "--trace", "1"], timeout=120)
        layers = traced.get("per_layer", {})
        missing = [m["name"] for m in spec["per_layer"] if m["name"] not in layers]
        coverage = layers.get("trace.layer_coverage", (0.0,))[0]
        expect(
            not missing and traced["failed"] == 0 and 0.95 <= coverage <= 1.0 + 1e-9,
            f"{name}: traced run reports every per-layer metric (missing {missing}), coverage {coverage:.4f}",
        )

    bare = OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir()
    shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify-small", "--seconds", "1"],
        cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=180,
    )
    shutil.rmtree(bare, ignore_errors=True)
    expect(
        proc.returncode != 0 and not proc.stdout.strip(),
        f"run.py without udgl sources exits {proc.returncode} and prints no result",
    )
    print(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

"""Record the fingerprints that gate correctness, one per workload and seed.

    python3 perfbench/record.py --seeds 0-31 [--workload chain-20k]

A fingerprint covers a workload's first few units (its prefix): summed
visits, candidates, max depth, solutions and censored count, plus a digest
of the sweep CSVs without wall_s, the solution bytes or the canonical
solution sets. Record only from a commit whose outputs are known good; a
pure speed change must reproduce every recorded value exactly.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import HERE, WORKLOAD_NAMES, WorkerError, spawn

FINGERPRINTS = HERE / "fingerprints.json"


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--seeds", type=seed_range, default=seed_range("0-31"), metavar="LO-HI")
    p.add_argument("--workload", choices=WORKLOAD_NAMES, action="append")
    args = p.parse_args(argv)

    table = json.loads(FINGERPRINTS.read_text()) if FINGERPRINTS.is_file() else {}
    for name in args.workload or WORKLOAD_NAMES:
        for seed in args.seeds:
            try:
                res = spawn(["--workload", name, "--seed", str(seed), "--prefix-only"], timeout=600)
            except WorkerError as exc:
                print(f"record: {exc}", file=sys.stderr)
                return 1
            if res["failed"]:
                print(f"record: {name} seed {seed} failed its checks; not recorded", file=sys.stderr)
                return 1
            table.setdefault(name, {})[str(seed)] = res["fingerprint"]
            print(f"{name} seed {seed}: {res['fingerprint']}")
    FINGERPRINTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Fail when a known fault in src/udgl/ survives the tests that should catch it.

Each mutant names a file under src/, an exact snippet of it, the snippet's replacement
and the tests that must fail on it. The runner first runs every named test on an
unmutated copy of src/ (they must pass there, or a kill would mean nothing). Then, for
each mutant, it copies src/ to a temporary directory, applies the one replacement, and
runs the mutant's tests with `-x -q` in a child process whose PYTHONPATH starts with the
copy; the child also fails the run if udgl was imported from anywhere but the copy.

    python tools/mutcheck.py

Exits 1 when a mutant survives, when its snippet does not occur exactly once in its
file, or when a run did not import udgl from its copy. A refactor that rewrites a
mutated line updates its snippet here.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SOLVER_TESTS = "tests/test_solver.py::"
MODEL_TESTS = "tests/test_model.py::"
ORACLE_TESTS = "tests/test_oracle.py::"


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/
    snippet: str
    replacement: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root


MUTANTS = (
    Mutant(
        "the pivot chosen by <= (the last of the smallest circles, not the lowest id)",
        "udgl/solver.py",
        "if best is None or len(circle) < len(best):",
        "if best is None or len(circle) <= len(best):",
        (SOLVER_TESTS + "test_plan_levels_matches_reference",),
    ),
    Mutant(
        "the most-connected heap key's sign flipped on a count rise",
        "udgl/solver.py",
        "heappush(frontier, v - counts[v] * n)",
        "heappush(frontier, v + counts[v] * n)",
        (SOLVER_TESTS + "test_realization_order_matches_resort_reference",),
    ),
    Mutant(
        "random ordering inserts a node on every count rise, not only the first",
        "udgl/solver.py",
        "elif counts[v] == 1:",
        "elif counts[v] >= 1:",
        (SOLVER_TESTS + "test_realization_order_matches_resort_reference",),
    ),
    Mutant(
        "counts raised (and the frontier fed) for realized neighbours too",
        "udgl/solver.py",
        "                checks.append(d2)\n            else:\n",
        "                checks.append(d2)\n            if True:\n",
        (SOLVER_TESTS + "test_realization_order_matches_resort_reference",),
    ),
    Mutant(
        "the unit-disk no-edge count without the pivot (+ 1 dropped)",
        "udgl/solver.py",
        "expects = [len(level.checks) // 2 + 1 for level in plan]",
        "expects = [len(level.checks) // 2 for level in plan]",
        (SOLVER_TESTS + "test_solve_fixture_f1_counts", SOLVER_TESTS + "test_cell_list_boundary"),
    ),
    Mutant(
        "a most-connected pick as a fresh int (key % n) rather than its int object in the adjacency",
        "udgl/solver.py",
        "pick = ids[key % n]",
        "pick = key % n",
        (SOLVER_TESTS + "test_plan_nodes_are_the_adjacency_ints",),
    ),
    Mutant(
        "the meet table's key without the pivot's squared length",
        "udgl/solver.py",
        "key = (a, d2, vx, vy)",
        "key = (d2, vx, vy)",
        (SOLVER_TESTS + "test_sub_locations_shared_meet_table_matches_a_fresh_one",),
    ),
    Mutant(
        "the meet table's key without the first check's squared length",
        "udgl/solver.py",
        "key = (a, d2, vx, vy)",
        "key = (a, vx, vy)",
        (SOLVER_TESTS + "test_sub_locations_shared_meet_table_matches_a_fresh_one",),
    ),
    Mutant(
        "the meet table storing the survivors of the other checks instead of the meet",
        "udgl/solver.py",
        "        if len(meets) < MEET_CAP:\n            meets[key] = meet\n    if len(checks) == 2:\n        return meet\n"
        "    out = []\n",
        "    if len(checks) == 2:\n        meets[key] = meet\n        return meet\n    out = meets[key] = []\n",
        (SOLVER_TESTS + "test_sub_locations_shared_meet_table_matches_a_fresh_one",),
    ),
    Mutant(
        "the meet table grown past its cap",
        "udgl/solver.py",
        "if len(meets) < MEET_CAP:",
        "if True:",
        (SOLVER_TESTS + "test_sub_locations_full_meet_table_is_not_grown",),
    ),
    Mutant(
        "a solution recorded from the raw (x, y) tuples of the active path",
        "udgl/solver.py",
        "dict(enumerate(map(Point._make, pos)))",
        "dict(enumerate(pos))",
        (SOLVER_TESTS + "test_recorded_solutions_hold_points",),
    ),
    Mutant(
        "the unit-disk no-edge count reading the flat checks at stride 1, not 2",
        "udgl/solver.py",
        "expects = [len(level.checks) // 2 + 1 for level in plan]",
        "expects = [len(level.checks) + 1 for level in plan]",
        (SOLVER_TESTS + "test_solve_fixture_f1_counts",),
    ),
    Mutant(
        "the pivot's index into the flat checks counted in pairs, not in entries",
        "udgl/solver.py",
        "at, best = len(checks), circle",
        "at, best = len(checks) // 2, circle",
        (SOLVER_TESTS + "test_plan_levels_matches_reference",),
    ),
    Mutant(
        "the walk of the flat checks skipping the second check (checks[4:] for checks[2:])",
        "udgl/solver.py",
        "tail = checks[2:]",
        "tail = checks[4:]",
        (SOLVER_TESTS + "test_sub_locations_matches_circle_walk_reference",),
    ),
    Mutant(
        "a text_rows piece cut at its '\\n' instead of just after it",
        "udgl/model.py",
        "end = cut + 1 if cut >= 0 else len(text)",
        "end = cut if cut >= 0 else len(text)",
        (MODEL_TESTS + "test_text_rows_cut_into_chunks_numbers_lines_as_splitlines",),
    ),
    Mutant(
        "the CSR filling every node's upper neighbours before its lower ones",
        "udgl/model.py",
        "            nbrs[k], d2s[k], fill[i] = j, d2, k + 1\n            k = fill[j]\n",
        "            nbrs[k], d2s[k], fill[i] = j, d2, k + 1\n        for i, j, d2 in self.edges:\n            k = fill[j]\n",
        (MODEL_TESTS + "test_problem_adjacency_matches_a_dict_of_dicts_whatever_the_edge_order",),
    ),
    Mutant(
        "the oracle's row filter emptying a row whose exact length leaves 0 for dy², not only a negative",
        "udgl/oracle.py",
        "if need < 0:",
        "if need <= 0:",
        (ORACLE_TESTS + "test_fixture_f1_certification",),
    ),
    Mutant(
        "the oracle's row filter excluding a point at one past the exclusion radius too",
        "udgl/oracle.py",
        "(y - vy) ** 2 > room",
        "(y - vy) ** 2 > room + 1",
        (ORACLE_TESTS + "test_oracle_solver_agreement",),
    ),
)

# Runs pytest on argv[2:]; exits 99 instead when udgl was not imported from the directory argv[1].
_CHILD = """
import sys
import pytest
code = pytest.main(sys.argv[2:])
udgl = sys.modules.get("udgl")
sys.exit(int(code) if udgl is not None and udgl.__file__.startswith(sys.argv[1]) else 99)
"""
WRONG_IMPORT = 99


def run_tests(src: Path, tests) -> int:
    """pytest's exit code for tests run with udgl imported from src (WRONG_IMPORT if it was not)."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))}
    args = [sys.executable, "-c", _CHILD, str(src), "-x", "-q", "-p", "no:cacheprovider", *tests]
    return subprocess.run(args, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def copy_src(into: Path) -> Path:
    return Path(shutil.copytree(ROOT / "src", into / "src", ignore=shutil.ignore_patterns("__pycache__")))


def main() -> int:
    failures = 0
    with tempfile.TemporaryDirectory(prefix="mutcheck-") as tmp:
        every_test = sorted({t for m in MUTANTS for t in m.tests})
        code = run_tests(copy_src(Path(tmp) / "baseline"), every_test)
        if code != 0:
            print(f"the unmutated tests do not pass (pytest exit code {code}): {' '.join(every_test)}")
            return 1
        for k, mutant in enumerate(MUTANTS):
            src = copy_src(Path(tmp) / str(k))
            path = src / mutant.path
            text = path.read_text()
            found = text.count(mutant.snippet)
            if found != 1:
                print(f"ERROR    {mutant.name}: its snippet occurs {found} times in src/{mutant.path}")
                failures += 1
                continue
            path.write_text(text.replace(mutant.snippet, mutant.replacement))
            start = time.perf_counter()
            code = run_tests(src, mutant.tests)
            verdict = {0: "SURVIVED", 1: "killed", WRONG_IMPORT: "ERROR (udgl not imported from the copy)"}.get(
                code, f"ERROR (pytest exit code {code})")
            print(f"{verdict:8} {mutant.name} ({time.perf_counter() - start:.1f} s)")
            failures += code != 1
    print(f"mutants: {len(MUTANTS)}, not killed: {failures}")
    return int(bool(failures))


if __name__ == "__main__":
    sys.exit(main())

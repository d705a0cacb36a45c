"""Fail when a `raise` statement in src/udgl/ is never executed by the tests.

Runs every test outside tests/test_acceptance.py in this process under sys.settrace, with
the Hypothesis tests deselected so that what is reached does not depend on random examples,
and lists each `raise` line of src/udgl/*.py that no test ran. Child processes are not traced.

    python tools/raise_lines.py

Exits 1 when a raise line is unrun or a test fails.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    wanted = {  # source file -> its raise lines
        str(path): {node.lineno for node in ast.walk(ast.parse(path.read_bytes())) if isinstance(node, ast.Raise)}
        for path in sorted((ROOT / "src" / "udgl").glob("*.py"))
    }
    hit: set[tuple[str, int]] = set()

    def trace_call(frame, event, arg):
        path = frame.f_code.co_filename
        lines = wanted.get(path)
        if lines is None:
            return None

        def trace_line(frame, event, arg):
            if event == "line" and frame.f_lineno in lines:
                hit.add((path, frame.f_lineno))
            return trace_line

        return trace_line

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]  # as `PYTHONPATH=src python -m pytest` from the root
    sys.settrace(trace_call)
    try:
        code = pytest.main(["-q", "-m", "not hypothesis", "--ignore", str(ROOT / "tests" / "test_acceptance.py"), str(ROOT / "tests")])
    finally:
        sys.settrace(None)
    unrun = [(path, no) for path, lines in wanted.items() for no in sorted(lines) if (path, no) not in hit]
    for path, no in unrun:
        print(f"{Path(path).relative_to(ROOT)}:{no}: raise line not run by any test")
    print(f"raise lines: {sum(map(len, wanted.values()))}, unrun: {len(unrun)}, pytest exit code: {int(code)}")
    return int(bool(unrun) or code != 0)


if __name__ == "__main__":
    sys.exit(main())

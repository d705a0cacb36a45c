"""Command-line entry point: generate, solve, verify, bench, fixture.

Exit codes: 0 success, 1 usage error, 2 parse/validation error,
3 budget exhausted (the solutions found before it are still written),
4 no solution exists.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .bench import parse_sweep_spec, run_sweep, write_csv
from .model import (
    Instance,
    ParseError,
    Problem,
    decode_text,
    generate_instance,
    parse_file,
    parse_int,
    strip_instance,
    text_rows,
    write_file,
)
from .oracle import FixtureNotFoundError, find_fixture_f1
from .solver import (
    Ordering,
    RuleSet,
    SolverConfig,
    format_solution_set,
    parse_solutions,
    solve,
    verify,
)


def _int_flag(token: str) -> int:
    """argparse type for numeric flags: the files' strict -?[0-9]+ integer grammar."""
    try:
        return parse_int(token)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="udgl", description="Integer-lattice unit-disk network localization")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a random connected instance")
    p.add_argument("--grid", type=_int_flag, required=True, metavar="C")
    p.add_argument("--radius-sq", type=_int_flag, required=True, metavar="R2")
    p.add_argument("--nodes", type=_int_flag, required=True, metavar="N")
    p.add_argument("--anchors", type=_int_flag, required=True, metavar="M")
    p.add_argument("--seed", type=_int_flag, required=True, metavar="S")
    p.add_argument("-o", "--output", required=True, metavar="FILE")
    p.add_argument("--problem", action="store_true", help="write the stripped problem instead of the ground truth")
    p.add_argument("--keep-bounds", action="store_true", help="keep the grid line when writing a problem")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("solve", help="localize the unknowns of an instance or problem file")
    p.add_argument("file", metavar="FILE")
    p.add_argument("--rules", choices=sorted(r.value for r in RuleSet), default="unit-disk")
    p.add_argument("--ordering", choices=sorted(o.value for o in Ordering), default="most-connected")
    p.add_argument("--seed", type=_int_flag, default=0, metavar="S")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--all", dest="find_all", action="store_true", default=True, help="enumerate all solutions (default)")
    group.add_argument("--first", dest="find_all", action="store_false", help="stop at the first solution")
    p.add_argument("--budget", type=_int_flag, default=SolverConfig.budget, metavar="B")
    p.add_argument("--enforce-bounds", action="store_true")
    p.add_argument("-o", "--output", metavar="FILE", help="write solutions here instead of stdout")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="check a solution file against a problem file")
    p.add_argument("problem_file", metavar="PROBLEM_FILE")
    p.add_argument("solution_file", metavar="SOLUTION_FILE")
    p.add_argument("--rules", choices=sorted(r.value for r in RuleSet), default="unit-disk")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bench", help="run a parameter sweep and write CSV")
    p.add_argument("--spec", required=True, metavar="SPEC_FILE")
    p.add_argument("-o", "--output", required=True, metavar="CSV_FILE")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("fixture", help="search for a canonical test fixture")
    p.add_argument("kind", choices=["f1"])
    p.add_argument("--max-grid", type=_int_flag, default=10, metavar="G")
    p.add_argument("-o", "--output", required=True, metavar="FILE")
    p.set_defaults(func=_cmd_fixture)

    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    inst = generate_instance(args.grid, args.radius_sq, args.nodes, args.anchors, args.seed)
    obj: Instance | Problem = strip_instance(inst, keep_bounds=args.keep_bounds) if args.problem else inst
    Path(args.output).write_bytes(write_file(obj))
    return 0


def _load_problem(path: str) -> Problem:
    obj = parse_file(Path(path).read_bytes())
    if isinstance(obj, Instance):
        return strip_instance(obj, keep_bounds=True)
    return obj


def _cmd_solve(args: argparse.Namespace) -> int:
    problem = _load_problem(args.file)
    config = SolverConfig(rules=RuleSet(args.rules), ordering=Ordering(args.ordering), seed=args.seed,
                          find_all=args.find_all, budget=args.budget, enforce_bounds=args.enforce_bounds)
    result = solve(problem, config)
    text = format_solution_set(result, problem.n_nodes)
    if args.output:
        Path(args.output).write_bytes(text)
    else:
        sys.stdout.write(text.decode("utf-8"))
    if result.stats.budget_exhausted:
        found = len(result.solutions)
        print(f"budget exhausted after {found} solution(s); others may exist" if found
              else "budget exhausted before any solution was found", file=sys.stderr)
        return 3
    if result.solutions:
        return 0
    print("no realization satisfies the constraints", file=sys.stderr)
    return 4


def _cmd_verify(args: argparse.Namespace) -> int:
    problem = _load_problem(args.problem_file)
    text = decode_text(Path(args.solution_file).read_bytes())
    if next(text_rows(text), (None, ""))[1].startswith("udgl"):
        obj = parse_file(text)
        if isinstance(obj, Problem):
            raise ValueError("solution file carries no coordinates for the unknowns")
        assignments = [obj.assignment()]
    else:
        assignments = parse_solutions(text)
    if not assignments:
        raise ValueError("solution file contains no assignments")
    rules = RuleSet(args.rules)
    for k, assignment in enumerate(assignments):
        violation = verify(problem, assignment, rules)
        if violation is not None:
            print(f"solution {k}: violation {violation.kind} {violation.i} {violation.j}")
            return 2
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    spec = parse_sweep_spec(Path(args.spec).read_bytes())
    results = run_sweep(spec)
    Path(args.output).write_bytes(write_csv(results))
    return 0


def _cmd_fixture(args: argparse.Namespace) -> int:
    inst = find_fixture_f1(args.max_grid)
    Path(args.output).write_bytes(write_file(inst))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"udgl: parse error: {exc}", file=sys.stderr)
        return 2
    except FixtureNotFoundError as exc:
        print(f"udgl: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        print(f"udgl: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

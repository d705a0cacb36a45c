import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from udgl.cli import _build_parser, main
from udgl.model import Edge, GenerationError, Instance, Problem, parse_file, write_file
from udgl.oracle import CapExceededError
from udgl.solver import AnchorMismatchError, MissingNodeError, NoEligibleNodeError, parse_solutions
from tests.conftest import FIXTURE_DIR


def run(*argv) -> int:
    return main([str(a) for a in argv])


def test_generate_writes_parseable_instance(tmp_path):
    out = tmp_path / "a.udgl"
    assert run("generate", "--grid", 100, "--radius-sq", 625, "--nodes", 100,
               "--anchors", 5, "--seed", 7, "-o", out) == 0
    inst = parse_file(out.read_bytes())
    assert isinstance(inst, Instance)
    assert inst.n_anchors == 5


def test_generate_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.udgl", tmp_path / "b.udgl"
    args = ("generate", "--grid", 30, "--radius-sq", 64, "--nodes", 20, "--anchors", 4, "--seed", 3)
    assert run(*args, "-o", a) == 0
    assert run(*args, "-o", b) == 0
    assert a.read_bytes() == b.read_bytes()


def test_generate_problem_variants(tmp_path):
    out = tmp_path / "p.udgl"
    args = ("generate", "--grid", 20, "--radius-sq", 50, "--nodes", 10, "--anchors", 3, "--seed", 1)
    assert run(*args, "-o", out, "--problem") == 0
    prob = parse_file(out.read_bytes())
    assert isinstance(prob, Problem) and prob.grid_side is None
    assert run(*args, "-o", out, "--problem", "--keep-bounds") == 0
    prob = parse_file(out.read_bytes())
    assert isinstance(prob, Problem) and prob.grid_side == 20


def test_generate_failure_maps_to_exit_2(tmp_path):
    assert run("generate", "--grid", 10, "--radius-sq", 1, "--nodes", 20,
               "--anchors", 3, "--seed", 1, "-o", tmp_path / "x.udgl") == 2
    assert run("generate", "--grid", -20, "--radius-sq", 25, "--nodes", 10,
               "--anchors", 3, "--seed", 1, "-o", tmp_path / "x.udgl") == 2
    assert not (tmp_path / "x.udgl").exists()


def test_solve_round_trip(tmp_path, capsys):
    inst_file = tmp_path / "a.udgl"
    assert run("generate", "--grid", 100, "--radius-sq", 625, "--nodes", 100,
               "--anchors", 5, "--seed", 7, "-o", inst_file) == 0
    assert run("solve", inst_file, "--rules", "unit-disk", "--ordering", "most-connected", "--all") == 0
    out = capsys.readouterr().out
    solutions = parse_solutions(out)
    truth = parse_file(inst_file.read_bytes()).assignment()
    assert truth in solutions
    # every reported solution verifies, and the instance is its own valid solution
    sol_file = tmp_path / "sols.txt"
    sol_file.write_text(out)
    assert run("verify", inst_file, sol_file, "--rules", "unit-disk") == 0
    assert run("verify", inst_file, inst_file, "--rules", "unit-disk") == 0


def test_solve_fixture_counts(capsys):
    f1 = FIXTURE_DIR / "fixture_f1.udgl"
    assert run("solve", f1, "--rules", "conventional", "--all") == 0
    assert capsys.readouterr().out.startswith("solutions 2\n")
    assert run("solve", f1, "--rules", "unit-disk", "--all") == 0
    assert capsys.readouterr().out.startswith("solutions 1\n")


def test_solve_output_file_deterministic(tmp_path):
    f1 = FIXTURE_DIR / "fixture_f1.udgl"
    a, b = tmp_path / "a.out", tmp_path / "b.out"
    assert run("solve", f1, "--rules", "conventional", "-o", a) == 0
    assert run("solve", f1, "--rules", "conventional", "-o", b) == 0
    assert a.read_bytes() == b.read_bytes()


def test_solve_exit_3_on_budget_exhaustion(capsys):
    f2 = FIXTURE_DIR / "fixture_f2.udgl"
    assert run("solve", f2, "--rules", "unit-disk", "--budget", 1) == 3
    out = capsys.readouterr().out
    assert "budget_exhausted 1" in out
    assert out.startswith("solutions 0\n")


def test_solve_exit_3_when_the_budget_runs_out_after_some_solutions(tmp_path, capsys):
    net, sol = tmp_path / "net.udgl", tmp_path / "net.sol"
    assert run("generate", "--grid", 30, "--radius-sq", 40, "--nodes", 20, "--anchors", 3, "--seed", 4, "-o", net) == 0
    assert run("solve", net, "--rules", "conventional", "--budget", 200, "-o", sol) == 3
    data = sol.read_bytes()
    assert b"stat budget_exhausted 1\n" in data
    found = len(parse_solutions(data))
    assert found > 0 and data.startswith(f"solutions {found}\n".encode())
    assert f"budget exhausted after {found} solution(s)" in capsys.readouterr().err


def test_solve_exit_4_when_unsolvable(tmp_path, capsys):
    # two anchors within range but not adjacent: unit-disk rules are unsatisfiable
    text = (
        "udgl 1\n"
        "radius_sq 16\n"
        "nodes 4\n"
        "node 0 anchor 0 0\n"
        "node 1 anchor 0 3\n"
        "node 2 anchor 4 0\n"
        "node 3 unknown\n"
        "edges 2\n"
        "edge 0 2 16\n"
        "edge 2 3 1\n"
    )
    path = tmp_path / "unsat.udgl"
    path.write_text(text)
    assert run("solve", path, "--rules", "unit-disk") == 4
    capsys.readouterr()
    assert run("solve", path, "--rules", "conventional") == 0


@pytest.mark.parametrize("grid_side", [None, 10])
def test_solve_reads_a_zero_unknown_problem(tmp_path, capsys, grid_side):
    anchors = {0: (0, 0), 1: (3, 0), 2: (0, 3)}
    path = tmp_path / "anchors.udgl"
    path.write_bytes(write_file(Problem(3, 9, anchors, (Edge(0, 1, 9), Edge(0, 2, 9)), grid_side)))
    assert run("solve", path, "-o", tmp_path / "sols.txt") == 0
    assert parse_solutions((tmp_path / "sols.txt").read_bytes()) == [anchors]
    assert run("verify", path, tmp_path / "sols.txt") == 0


def test_verify_detects_corruption(tmp_path, capsys):
    f1 = FIXTURE_DIR / "fixture_f1.udgl"
    assert run("solve", f1, "--rules", "conventional", "-o", tmp_path / "sols.txt") == 0
    assert run("verify", f1, tmp_path / "sols.txt", "--rules", "conventional") == 0
    # the conventional solution list contains the mirror, invalid under unit-disk rules
    assert run("verify", f1, tmp_path / "sols.txt", "--rules", "unit-disk") == 2
    assert "violation no_edge" in capsys.readouterr().out


def test_verify_rejects_problem_as_solution(tmp_path, capsys):
    inst_file = tmp_path / "a.udgl"
    prob_file = tmp_path / "p.udgl"
    args = ("generate", "--grid", 20, "--radius-sq", 50, "--nodes", 10, "--anchors", 3, "--seed", 1)
    assert run(*args, "-o", inst_file) == 0
    assert run(*args, "-o", prob_file, "--problem") == 0
    assert run("verify", inst_file, prob_file) == 2
    # nor a solution file that holds no assignment
    empty = tmp_path / "empty.sol"
    empty.write_text("solutions 0\n")
    assert run("verify", inst_file, empty) == 2
    assert "solution file contains no assignments" in capsys.readouterr().err


def test_verify_reports_invalid_utf8_in_solution_file_as_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.sol"
    bad.write_bytes(b"solutions 1\nsol 0\nnode 0 1 \xff\n")
    assert run("verify", FIXTURE_DIR / "fixture_f1.udgl", bad) == 2
    assert "udgl: parse error: line 3: invalid UTF-8 byte 0xff" in capsys.readouterr().err


def test_verify_routes_on_first_line_past_comments(tmp_path, capsys):
    inst_file = tmp_path / "a.udgl"
    prob_file = tmp_path / "p.udgl"
    args = ("generate", "--grid", 20, "--radius-sq", 50, "--nodes", 10, "--anchors", 3, "--seed", 1)
    assert run(*args, "-o", inst_file) == 0
    assert run(*args, "-o", prob_file, "--problem") == 0
    commented = tmp_path / "c.udgl"
    commented.write_bytes(b"# my network\n\n  # second comment\n" + inst_file.read_bytes())
    assert run("verify", inst_file, commented) == 0
    prob_commented = tmp_path / "pc.udgl"
    prob_commented.write_bytes(b"# no coordinates here\n\n" + prob_file.read_bytes())
    capsys.readouterr()
    assert run("verify", inst_file, prob_commented) == 2
    assert "carries no coordinates" in capsys.readouterr().err
    sols = tmp_path / "sols.txt"
    assert run("solve", inst_file, "--all", "-o", sols) == 0
    sols.write_bytes(b"# udgl solutions\n\n" + sols.read_bytes())
    assert run("verify", inst_file, sols) == 0


def test_bench_subcommand(tmp_path, capsys):
    spec = tmp_path / "sweep.spec"
    spec.write_text(
        "grid_side 14\nn_nodes 8\nradius_sq_values 40\nanchor_counts 3\n"
        "rule_sets unit-disk,conventional\norderings most-connected\n"
        "trials 2\nbase_seed 5\nbudget 50000\n"
    )
    csv_a, csv_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run("bench", "--spec", spec, "-o", csv_a) == 0
    assert run("bench", "--spec", spec, "-o", csv_b) == 0
    lines_a = csv_a.read_text().splitlines()
    assert lines_a[0].startswith("grid,nodes,anchors,radius_sq,")
    assert len(lines_a) == 3
    # identical except the wall-clock column
    strip_wall = lambda text: [",".join(l.split(",")[:-1]) for l in text.splitlines()]
    assert strip_wall(csv_a.read_text()) == strip_wall(csv_b.read_text())


def test_bench_bad_spec_exits_2(tmp_path):
    spec = tmp_path / "bad.spec"
    spec.write_text("grid_side 14\n")
    assert run("bench", "--spec", spec, "-o", tmp_path / "out.csv") == 2


def test_fixture_subcommand_matches_checked_in_file(tmp_path):
    out = tmp_path / "f1.udgl"
    assert run("fixture", "f1", "--max-grid", 10, "-o", out) == 0
    assert out.read_bytes() == (FIXTURE_DIR / "fixture_f1.udgl").read_bytes()


def test_fixture_not_found_exits_4(tmp_path):
    assert run("fixture", "f1", "--max-grid", 2, "-o", tmp_path / "none.udgl") == 4


def test_usage_errors_exit_1():
    assert run("solve") == 1
    assert run("frobnicate") == 1
    assert run("generate", "--grid", 10) == 1


GENERATE = ["generate", "--grid", "10", "--radius-sq", "20", "--nodes", "6", "--anchors", "3", "--seed", "1"]
NUMERIC_FLAGS = [(GENERATE, flag) for flag in ("--grid", "--radius-sq", "--nodes", "--anchors", "--seed")] + [
    (["solve", "f.udgl", "--seed", "0"], "--seed"),
    (["solve", "f.udgl", "--budget", "5"], "--budget"),
    (["fixture", "f1", "--max-grid", "10"], "--max-grid"),
]


@pytest.mark.parametrize("token", ["1_0", "+1", "\u0663", "\uff11"])  # Arabic-Indic 3, fullwidth 1
@pytest.mark.parametrize("argv, flag", NUMERIC_FLAGS)
def test_numeric_flags_reject_non_canonical_integers(tmp_path, capsys, argv, flag, token):
    out = tmp_path / "out"
    argv = list(argv)
    argv[argv.index(flag) + 1] = token
    assert run(*argv, "-o", out) == 1
    assert f"argument {flag}: not an integer: {token!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, flag", NUMERIC_FLAGS)
def test_numeric_flags_reject_over_long_integers(tmp_path, capsys, argv, flag):
    out = tmp_path / "out"
    argv = list(argv)
    argv[argv.index(flag) + 1] = "9" * 5000
    assert run(*argv, "-o", out) == 1
    err = capsys.readouterr().err
    assert f"argument {flag}: not an integer: '{'9' * 20}'... (5000 characters)" in err
    assert "limit" not in err and len(err) < 1000
    assert not out.exists()


@pytest.mark.parametrize("value", ["-7", "0", "7", "12"])
def test_numeric_flags_take_plain_integers(value):
    for argv, flag in NUMERIC_FLAGS:
        argv = list(argv)
        argv[argv.index(flag) + 1] = value
        args = _build_parser().parse_args([*argv, "-o", "out"])
        assert getattr(args, flag[2:].replace("-", "_")) == int(value)


@pytest.mark.parametrize(
    "command, text, line",
    [
        ("verify", "solutions 1\nsol 0\nnode 0 1 x\n", 3),
        ("verify", "solutions 1\n\nsol 0\nnode 0 1\n", 4),
        ("verify", "# c\nsolutions 1\nsol 0\nedge 0 1 2\n", 4),
        ("bench", "grid_side 2x\n", 1),
        ("bench", "grid_side 20\nn_nodes\n", 2),
        ("bench", "grid_side 20\n# c\nnodes 10\n", 3),
        ("bench", "grid_side 20\nn_nodes 10\nradius_sq_values 50\nanchor_counts 3\nbudget 0\n", 5),
    ],
)
def test_solution_and_spec_faults_print_their_line(tmp_path, capsys, command, text, line):
    path = tmp_path / "input"
    path.write_text(text)
    if command == "verify":
        argv = ("verify", FIXTURE_DIR / "fixture_f1.udgl", path)
    else:
        argv = ("bench", "--spec", path, "-o", tmp_path / "out.csv")
    assert run(*argv) == 2
    assert capsys.readouterr().err.startswith(f"udgl: parse error: line {line}: ")


@pytest.mark.parametrize(
    "error", [GenerationError, NoEligibleNodeError, MissingNodeError, AnchorMismatchError, CapExceededError],
)
def test_library_errors_are_value_errors(error):
    """main maps every ValueError to exit 2, so each library error that means bad input is one."""
    assert issubclass(error, ValueError)


def test_parse_errors_exit_2(tmp_path):
    bad = tmp_path / "bad.udgl"
    bad.write_text("udgl 2\n")
    assert run("solve", bad) == 2
    missing = tmp_path / "missing.udgl"
    assert run("solve", missing) == 2


def test_help_exits_0(capsys):
    assert run("--help") == 0
    capsys.readouterr()


def test_verify_routes_a_ground_truth_file_led_by_unicode_blank_lines(tmp_path):
    led = tmp_path / "led.udgl"
    f1 = FIXTURE_DIR / "fixture_f1.udgl"
    led.write_bytes("\u3000\n\xa0\t\n".encode() + f1.read_bytes())
    assert run("verify", f1, led) == 0


# Runs each argv list through cli.main in one fresh process, then the oracle on fixture f1,
# printing whether numpy is in sys.modules after every step.
_COLD_START = """
import json, sys
import udgl, udgl.cli
steps = [["import udgl, udgl.cli", "numpy" in sys.modules]]
for argv in json.loads(sys.argv[1]):
    code = udgl.cli.main(argv)
    steps.append([argv[0], code, "numpy" in sys.modules])
from udgl.oracle import brute_force_solutions
from udgl.solver import RuleSet
problem = udgl.strip_instance(udgl.parse_file(open(sys.argv[2], "rb").read()))
found = brute_force_solutions(problem, RuleSet.UNIT_DISK)
steps.append(["oracle", len(found), "numpy" in sys.modules])
print(json.dumps(steps))
"""


def test_no_command_loads_numpy(tmp_path):
    net, sols, spec, csv, f1 = (
        tmp_path / name for name in ("net.udgl", "net.sol", "sweep.spec", "out.csv", "f1.udgl"))
    spec.write_text(
        "grid_side 14\nn_nodes 8\nradius_sq_values 40\nanchor_counts 3\n"
        "rule_sets unit-disk\norderings most-connected\ntrials 1\nbase_seed 5\nbudget 50000\n"
    )
    runs = [
        ["generate", "--grid", "20", "--radius-sq", "50", "--nodes", "10", "--anchors", "3", "--seed", "1",
         "-o", str(net)],
        ["solve", str(net), "--all", "-o", str(sols)],
        ["verify", str(net), str(sols)],
        ["bench", "--spec", str(spec), "-o", str(csv)],
        ["fixture", "f1", "--max-grid", "10", "-o", str(f1)],
    ]
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run(
        [sys.executable, "-c", _COLD_START, json.dumps(runs), str(FIXTURE_DIR / "fixture_f1.udgl")],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, check=True,
    ).stdout
    assert json.loads(out) == [
        ["import udgl, udgl.cli", False],
        ["generate", 0, False],
        ["solve", 0, False],
        ["verify", 0, False],
        ["bench", 0, False],
        ["fixture", 0, False],
        ["oracle", 1, False],
    ]

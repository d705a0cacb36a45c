"""Acceptance criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line per
criterion. The two sweep fixtures dominate the runtime (about 80 s total).
"""

import io
import math
import time
from collections import defaultdict

import pytest

from udgl.bench import SweepSpec, run_sweep, write_csv
from udgl.cli import main
from udgl.model import GenerationError, generate_instance, parse_file, strip_instance, write_file
from udgl.oracle import brute_force_solutions
from udgl.solver import Ordering, RuleSet, SolverConfig, solve
from tests.conftest import FIXTURE_DIR, neighbours


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[acceptance {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def canon(solutions):
    return {tuple(sorted(s.items())) for s in solutions}


def iter_instances(combos, count, seed0=0, max_attempts=40):
    seed = seed0
    made = 0
    while made < count:
        grid, r2, n, m = combos[seed % len(combos)]
        try:
            inst = generate_instance(grid, r2, n, m, seed=seed, max_attempts=max_attempts)
        except GenerationError:
            seed += 1
            continue
        seed += 1
        made += 1
        yield inst


# ---------------------------------------------------------------------------
# shared sweeps (criteria 4, 5, 6)
# ---------------------------------------------------------------------------


class SweepData:
    def __init__(self, spec: SweepSpec):
        self.records = defaultdict(dict)  # (radius_sq, anchors, ordering, trial) -> {rules: stats}
        self.cells = run_sweep(spec, on_result=self._hook, log=io.StringIO())
        self.spec = spec

    def _hook(self, inst, config, trial, result):
        key = (inst.radius_sq, inst.n_anchors, config.ordering, trial)
        self.records[key][config.rules] = result.stats

    def paired_mean_ratio(self, radius_sq: int, anchors: int, ordering: Ordering) -> tuple[float, float, int]:
        """(conv_mean, ud_mean, n) per unknown over trials uncensored under both rule sets."""
        unknowns = self.spec.n_nodes - anchors
        pairs = [
            v
            for (r2, m, o, t), v in self.records.items()
            if r2 == radius_sq and m == anchors and o is ordering and len(v) == 2
        ]
        both = [
            v
            for v in pairs
            if not v[RuleSet.UNIT_DISK].budget_exhausted
            and not v[RuleSet.CONVENTIONAL].budget_exhausted
        ]
        conv = sum(v[RuleSet.CONVENTIONAL].instances_visited for v in both) / len(both) / unknowns
        ud = sum(v[RuleSet.UNIT_DISK].instances_visited for v in both) / len(both) / unknowns
        return conv, ud, len(both)

    def cell(self, radius_sq, anchors, rules, ordering):
        return next(
            c
            for c in self.cells
            if c.radius_sq == radius_sq
            and c.n_anchors == anchors
            and c.rules is rules
            and c.ordering is ordering
        )


@pytest.fixture(scope="module")
def fig4_sweep():
    spec = SweepSpec(
        grid_side=100,
        n_nodes=100,
        radius_sq_values=(625,),
        anchor_counts=(3, 5, 10, 20),
        rule_sets=(RuleSet.UNIT_DISK, RuleSet.CONVENTIONAL),
        orderings=(Ordering.RANDOM,),
        trials=20,
        base_seed=1000,
        budget=400_000,
        find_all=False,
    )
    return SweepData(spec)


@pytest.fixture(scope="module")
def fig5_sweep():
    spec = SweepSpec(
        grid_side=100,
        n_nodes=100,
        radius_sq_values=(400, 625, 900),
        anchor_counts=(10,),
        rule_sets=(RuleSet.UNIT_DISK, RuleSet.CONVENTIONAL),
        orderings=(Ordering.RANDOM, Ordering.MOST_CONNECTED),
        trials=20,
        base_seed=2000,
        budget=400_000,
        find_all=False,
    )
    return SweepData(spec)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_1_oracle_equivalence():
    t0 = time.perf_counter()
    combos = [
        (8, 18, 4, 3), (8, 20, 5, 3), (10, 26, 5, 4), (10, 30, 6, 4),
        (12, 40, 7, 4), (12, 32, 6, 3), (10, 13, 6, 3), (12, 18, 7, 4),
        (12, 10, 6, 3), (10, 8, 5, 3),
    ]
    checked = 0
    for inst in iter_instances(combos, count=200):
        prob = strip_instance(inst)
        truth_key = tuple(sorted(inst.assignment().items()))
        for rules in RuleSet:
            got = solve(prob, SolverConfig(rules=rules))
            assert not got.stats.budget_exhausted
            want = brute_force_solutions(prob, rules)
            assert canon(got.solutions) == canon(want), (inst, rules)
            assert truth_key in canon(want), (inst, rules)
        checked += 1
    elapsed = time.perf_counter() - t0
    report(
        1,
        checked >= 200 and elapsed < 120,
        f"solver == oracle and truth found on {checked} instances x both rule sets in {elapsed:.1f}s",
    )


def test_criterion_2_rigidity_not_necessary_fixture():
    inst = parse_file((FIXTURE_DIR / "fixture_f1.udgl").read_bytes())
    prob = strip_instance(inst)
    conv = brute_force_solutions(prob, RuleSet.CONVENTIONAL)
    ud = brute_force_solutions(prob, RuleSet.UNIT_DISK)
    solver_conv = solve(prob, SolverConfig(rules=RuleSet.CONVENTIONAL))
    solver_ud = solve(prob, SolverConfig(rules=RuleSet.UNIT_DISK))
    unknown = prob.unknown_ids[0]
    anchor_degree = sum(1 for v in neighbours(prob, unknown) if v in prob.anchors)
    ok = (
        len(conv) == 2
        and len(ud) == 1
        and ud[0] == inst.assignment()
        and len(solver_conv.solutions) == 2
        and len(solver_ud.solutions) == 1
        and solver_ud.solutions[0] == inst.assignment()
        and anchor_degree <= 2
    )
    report(
        2,
        ok,
        f"fixture F1: 2 conventional / 1 unit-disk solution (= ground truth), "
        f"unknown has {anchor_degree} anchor neighbours",
    )


def test_criterion_3_tree_subset_invariant():
    combos = [(15, 32, 10, 3), (15, 40, 10, 3), (15, 50, 10, 3)]
    runs = 0
    worst = math.inf
    for k, inst in enumerate(iter_instances(combos, count=50, seed0=300)):
        prob = strip_instance(inst)
        ordering = Ordering.MOST_CONNECTED if k % 2 == 0 else Ordering.RANDOM
        cfg = dict(ordering=ordering, seed=k, find_all=True, budget=500_000)
        ud = solve(prob, SolverConfig(rules=RuleSet.UNIT_DISK, **cfg))
        conv = solve(prob, SolverConfig(rules=RuleSet.CONVENTIONAL, **cfg))
        assert ud.stats.instances_visited <= conv.stats.instances_visited, (inst, ordering)
        if not ud.stats.budget_exhausted and not conv.stats.budget_exhausted:
            assert canon(ud.solutions) <= canon(conv.solutions)
        if conv.stats.instances_visited:
            worst = min(worst, conv.stats.instances_visited / max(ud.stats.instances_visited, 1))
        runs += 1
    report(3, runs >= 50, f"unit-disk visits <= conventional visits on all {runs} paired runs")


def test_criterion_4_anchor_sweep_trend(fig4_sweep):
    conv3, ud3, n3 = fig4_sweep.paired_mean_ratio(625, 3, Ordering.RANDOM)
    ratio3 = conv3 / ud3
    lines = []
    for m in (3, 5, 10, 20):
        conv, ud, n = fig4_sweep.paired_mean_ratio(625, m, Ordering.RANDOM)
        cell_c = fig4_sweep.cell(625, m, RuleSet.CONVENTIONAL, Ordering.RANDOM)
        lines.append(
            f"M={m}: paired conv/unknown={conv:.1f} ud/unknown={ud:.1f} ratio={conv / ud:.1f} "
            f"(n={n}, conventional censored={cell_c.censored_fraction:.2f})"
        )
    print("\n".join("    " + s for s in lines))
    # bench invariant: conventional mean traversal is non-increasing in anchor count
    conv_means = [
        fig4_sweep.cell(625, m, RuleSet.CONVENTIONAL, Ordering.RANDOM).mean_visits_per_unknown
        for m in (3, 5, 10, 20)
    ]
    monotone = all(a >= b for a, b in zip(conv_means, conv_means[1:]))
    report(
        4,
        ratio3 >= 10 and n3 >= 10 and monotone,
        f"anchors=3 conventional/unit-disk traversal ratio {ratio3:.1f} >= 10 "
        f"(paired over {n3} trials); conventional means non-increasing in anchors: {monotone}",
    )


def test_criterion_5_radius_sweep_trend(fig5_sweep):
    ratios = {}
    for r2 in (400, 625, 900):
        conv, ud, n = fig5_sweep.paired_mean_ratio(r2, 10, Ordering.RANDOM)
        ratios[r2] = conv / ud
        print(f"    r/C={math.sqrt(r2) / 100:.2f}: paired ratio={conv / ud:.1f} (n={n})")
        conv_mc, ud_mc, n_mc = fig5_sweep.paired_mean_ratio(r2, 10, Ordering.MOST_CONNECTED)
        print(f"    r/C={math.sqrt(r2) / 100:.2f} most-connected: ratio={conv_mc / ud_mc:.2f} (n={n_mc})")
    ok = ratios[400] >= 3 and ratios[900] < ratios[400]
    report(
        5,
        ok,
        f"random ordering: ratio at r/C=0.2 is {ratios[400]:.1f} (>= 3), "
        f"shrinking to {ratios[900]:.1f} at r/C=0.3",
    )


def test_sweep_csvs_match_golden(fig4_sweep, fig5_sweep):
    """The fig-4 and fig-5 sweep CSVs, wall_s dropped, stay byte-identical to the recorded ones."""
    for name, sweep in (("fig4", fig4_sweep), ("fig5", fig5_sweep)):
        got = "".join(line.rsplit(",", 1)[0] + "\n" for line in write_csv(sweep.cells).decode().splitlines())
        assert got.encode() == (FIXTURE_DIR / f"{name}_sweep.csv").read_bytes(), name


def test_criterion_6_memory_contract(fig4_sweep):
    n_nodes = fig4_sweep.spec.n_nodes
    checked = 0
    deepest = 0
    for (r2, m, ordering, t), per_rules in fig4_sweep.records.items():
        for stats in per_rules.values():
            path_len = stats.max_depth_reached + 1  # anchors-only root included
            assert path_len <= n_nodes - m + 1, (r2, m, ordering, t)
            deepest = max(deepest, stats.max_depth_reached)
            checked += 1
    report(
        6,
        checked > 0,
        f"max simultaneous path length <= N - M + 1 on all {checked} sweep runs "
        f"(deepest search level: {deepest})",
    )


def test_criterion_7_determinism_and_format(tmp_path):
    # identical CLI invocations are byte-identical: instance, solution, CSV
    inst_a, inst_b = tmp_path / "a.udgl", tmp_path / "b.udgl"
    gen = ("generate", "--grid", "40", "--radius-sq", "100", "--nodes", "25",
           "--anchors", "4", "--seed", "11")
    assert main([*gen, "-o", str(inst_a)]) == 0
    assert main([*gen, "-o", str(inst_b)]) == 0
    instances_identical = inst_a.read_bytes() == inst_b.read_bytes()

    sol_a, sol_b = tmp_path / "a.sol", tmp_path / "b.sol"
    assert main(["solve", str(inst_a), "--rules", "unit-disk", "--all", "-o", str(sol_a)]) == 0
    assert main(["solve", str(inst_a), "--rules", "unit-disk", "--all", "-o", str(sol_b)]) == 0
    solutions_identical = sol_a.read_bytes() == sol_b.read_bytes()

    spec_file = tmp_path / "sweep.spec"
    spec_file.write_text(
        "grid_side 14\nn_nodes 8\nradius_sq_values 40,60\nanchor_counts 3\n"
        "rule_sets unit-disk,conventional\norderings most-connected\ntrials 2\nbudget 50000\n"
    )
    csv_a, csv_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["bench", "--spec", str(spec_file), "-o", str(csv_a)]) == 0
    assert main(["bench", "--spec", str(spec_file), "-o", str(csv_b)]) == 0
    # wall_s is measured time and varies run to run; all other columns must match
    strip_wall = lambda data: [line.rsplit(",", 1)[0] for line in data.decode().splitlines()]
    csv_identical = strip_wall(csv_a.read_bytes()) == strip_wall(csv_b.read_bytes())

    # parse(write(x)) == x on 100 random instances
    round_trips = 0
    combos = [(20, 50, 10, 3), (30, 80, 15, 4), (12, 30, 6, 3), (40, 100, 25, 5)]
    for inst in iter_instances(combos, count=100, seed0=4000):
        assert parse_file(write_file(inst)) == inst
        prob = strip_instance(inst, keep_bounds=round_trips % 2 == 0)
        assert parse_file(write_file(prob)) == prob
        round_trips += 1

    report(
        7,
        instances_identical and solutions_identical and csv_identical and round_trips == 100,
        f"byte-identical CLI reruns (instance={instances_identical}, solution={solutions_identical}, "
        f"csv-minus-wall={csv_identical}); parse(write(x)) == x on {round_trips} instances",
    )

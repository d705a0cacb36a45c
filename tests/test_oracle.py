import random
from math import isqrt

import pytest

from udgl.geometry import Point, dist2
from udgl.model import Edge, GenerationError, Problem, generate_instance, strip_instance, write_file
from udgl.oracle import (
    CapExceededError,
    FixtureNotFoundError,
    brute_force_solutions,
    find_fixture_f1,
    reach_box,
    satisfies,
)
from udgl.solver import NoEligibleNodeError, Ordering, RuleSet, SolverConfig, solve, verify
from tests.conftest import FIXTURE_DIR


def canon(solutions):
    return {tuple(sorted(s.items())) for s in solutions}


def small_instances(count, combos, seed0=0, max_attempts=40):
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


def test_zero_unknowns_returns_anchor_assignment():
    anchors = {0: (0, 0), 1: (2, 0), 2: (0, 2)}
    prob = Problem(n_nodes=3, radius_sq=2, anchors=anchors, edges=())
    for rules in RuleSet:
        assert brute_force_solutions(prob, rules) == [anchors]


def test_fixture_f1_certification(fixture_f1):
    prob = strip_instance(fixture_f1)
    conv = brute_force_solutions(prob, RuleSet.CONVENTIONAL)
    ud = brute_force_solutions(prob, RuleSet.UNIT_DISK)
    assert len(conv) == 2
    assert len(ud) == 1
    assert ud[0] == fixture_f1.assignment()
    assert canon(ud) <= canon(conv)


def test_find_fixture_f1_matches_checked_in_fixture():
    inst = find_fixture_f1(10)
    assert write_file(inst) == (FIXTURE_DIR / "fixture_f1.udgl").read_bytes()


def test_find_fixture_f1_not_found_on_tiny_grids():
    with pytest.raises(FixtureNotFoundError):
        find_fixture_f1(2)


def test_oracle_solver_agreement():
    combos = [(8, 18, 4, 3), (10, 26, 5, 4), (12, 40, 7, 4), (10, 13, 6, 3), (12, 18, 7, 4), (12, 18, 7, 3),
              (10, 26, 7, 3)]
    for inst in small_instances(60, combos, seed0=500):
        prob = strip_instance(inst)
        truth = inst.assignment()
        counts = {}
        for rules in RuleSet:
            got = solve(prob, SolverConfig(rules=rules))
            want = brute_force_solutions(prob, rules)
            assert canon(got.solutions) == canon(want)
            assert truth in want
            counts[rules] = len(want)
        assert counts[RuleSet.UNIT_DISK] <= counts[RuleSet.CONVENTIONAL]


def mutate(prob, rng):
    """One random mutation of prob's edges and its kind; Problem may reject the result."""
    edges = list(prob.edges)
    r2, n = prob.radius_sq, prob.n_nodes
    present = {(e.i, e.j) for e in edges}
    absent = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in present]
    kind = rng.choice(("drop", "change", "add") if absent else ("drop", "change"))
    if kind == "drop":
        edges.pop(rng.randrange(len(edges)))
    elif kind == "change":
        k = rng.randrange(len(edges))
        edges[k] = edges[k]._replace(d2=rng.choice([d for d in range(1, r2 + 1) if d != edges[k].d2]))
    else:
        i, j = rng.choice(absent)
        edges.append(Edge(i, j, rng.randint(1, r2)))
    return kind, Problem(prob.n_nodes, r2, prob.anchors, tuple(edges))


def move(inst, rng):
    """inst's problem with one unknown moved to a free lattice point whose squared distance to
    each of its neighbours lies in [1, r²], only that node's edge lengths rewritten, and the
    moved assignment, which conventional rules accept; None when no such point exists."""
    prob = strip_instance(inst)
    u = rng.choice(prob.unknown_ids)
    truth = inst.assignment()
    nbrs = prob.adjacency[u]
    r2, r = prob.radius_sq, isqrt(prob.radius_sq)
    vx, vy = truth[next(iter(nbrs))]
    taken = set(inst.positions)  # a free point is at least 1 from every neighbour
    free = [p for dx in range(-r, r + 1) for dy in range(-r, r + 1)
            if (p := Point(vx + dx, vy + dy)) not in taken and all(dist2(p, truth[v]) <= r2 for v in nbrs)]
    if not free:
        return None
    truth[u] = rng.choice(free)
    edges = tuple(e._replace(d2=dist2(truth[e.i], truth[e.j])) if u in (e.i, e.j) else e for e in prob.edges)
    return Problem(prob.n_nodes, r2, prob.anchors, edges), truth


def test_oracle_solver_agreement_on_mutated_problems():
    """Dropped, changed and spurious edges: problems that no unit disk graph need realize;
    and, on every other instance, a moved unknown: problems with a known realization."""
    rng = random.Random(77)
    combos = [(8, 20, 5, 3), (10, 26, 5, 4), (10, 30, 6, 4), (12, 40, 7, 4), (12, 32, 6, 3), (10, 13, 6, 3),
              (12, 18, 7, 4), (12, 18, 7, 3), (10, 26, 7, 3)]
    rejected = disconnected = compared = unsolvable = moved = 0
    for k, inst in enumerate(small_instances(1000, combos, seed0=1300)):
        moved_to = move(inst, rng) if k % 2 == 0 else None
        if moved_to is not None:
            kind, (mutant, assignment) = "move", moved_to
        else:
            try:
                kind, mutant = mutate(strip_instance(inst), rng)
            except ValueError:  # e.g. an anchor pair whose new d2 contradicts the positions
                rejected += 1
                continue
        for rules in RuleSet:
            want = None
            for ordering in Ordering:
                try:
                    got = solve(mutant, SolverConfig(rules=rules, ordering=ordering, seed=k))
                except NoEligibleNodeError:
                    assert kind == "drop"
                    with pytest.raises(ValueError, match="no edge path"):
                        brute_force_solutions(mutant, rules)
                    disconnected += 1
                    continue
                if want is None:
                    want = canon(brute_force_solutions(mutant, rules))
                    if kind == "move" and rules is RuleSet.CONVENTIONAL:
                        assert canon([assignment]) <= want
                        moved += 1
                assert not got.stats.budget_exhausted
                assert canon(got.solutions) == want, (kind, mutant, rules, ordering)
                compared += 1
                unsolvable += not want
    assert rejected > 0 and disconnected > 0 and 0 < unsolvable < compared
    assert compared >= 3000 and moved >= 400
    assert compared - unsolvable >= 1500  # comparisons against a non-empty solution set


def test_reach_box_contains_every_solver_solution():
    combos = [(10, 13, 6, 3), (12, 18, 7, 4), (12, 10, 6, 3)]
    for inst in small_instances(25, combos, seed0=900):
        prob = strip_instance(inst)
        for rules in RuleSet:
            result = solve(prob, SolverConfig(rules=rules))
            for sol in result.solutions:
                for u in prob.unknown_ids:
                    box = reach_box(prob, u)
                    assert box.xmin <= sol[u].x <= box.xmax and box.ymin <= sol[u].y <= box.ymax


def test_unknown_cap_and_work_limit():
    """No cap on the unknowns: five are certified; only the points examined are capped."""
    inst = next(iter(small_instances(1, [(10, 30, 9, 4)], seed0=50)))
    prob = strip_instance(inst)
    assert len(prob.unknown_ids) == 5
    for rules in RuleSet:
        want = brute_force_solutions(prob, rules)
        assert inst.assignment() in want
        assert canon(solve(prob, SolverConfig(rules=rules)).solutions) == canon(want)
    with pytest.raises(CapExceededError, match="more than 10 candidate points"):
        brute_force_solutions(prob, RuleSet.UNIT_DISK, work_limit=10)
    # A reach box over 50M points is refused before any is examined: here 20001^2, about 4 * 10^8.
    wide = Problem(n_nodes=4, radius_sq=10**8, anchors={0: (0, 0), 1: (1, 0), 2: (0, 1)}, edges=(Edge(0, 3, 1),))
    with pytest.raises(CapExceededError, match="search box for node 3 spans"):
        brute_force_solutions(wide, RuleSet.CONVENTIONAL)


def test_satisfies_cross_checks_verify():
    rng = random.Random(123)
    for inst in small_instances(15, [(10, 26, 5, 3), (12, 30, 6, 4)], seed0=700):
        prob = strip_instance(inst)
        truth = inst.assignment()
        box = reach_box(prob, prob.unknown_ids[0])
        for _ in range(20):
            assignment = dict(truth)
            if rng.random() < 0.7:  # perturb some unknowns
                for u in prob.unknown_ids:
                    if rng.random() < 0.5:
                        assignment[u] = (rng.randint(box.xmin, box.xmax), rng.randint(box.ymin, box.ymax))
            for rules in RuleSet:
                expected = verify(prob, assignment, rules) is None
                assert satisfies(prob, assignment, rules) == expected


def test_unit_disk_inconsistent_anchors_give_empty_oracle():
    prob = Problem(
        n_nodes=4,
        radius_sq=16,
        anchors={0: (0, 0), 1: (0, 3), 2: (4, 0)},
        edges=(Edge(0, 2, 16), Edge(2, 3, 1)),
    )
    assert brute_force_solutions(prob, RuleSet.UNIT_DISK) == []
    got = solve(prob, SolverConfig(rules=RuleSet.UNIT_DISK))
    assert got.solutions == []
    conv_oracle = brute_force_solutions(prob, RuleSet.CONVENTIONAL)
    conv_solver = solve(prob, SolverConfig(rules=RuleSet.CONVENTIONAL))
    assert canon(conv_oracle) == canon(conv_solver.solutions)

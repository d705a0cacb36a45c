import os
import random
import subprocess
import sys
import tracemalloc
from math import isqrt
from pathlib import Path

import pytest

from udgl.geometry import Point, cell_rule, circle_offsets, collinear, dist2
from udgl.model import Edge, GenerationError, ParseError, Problem, generate_instance, strip_instance
from udgl.solver import (
    AnchorMismatchError,
    Level,
    MissingNodeError,
    NoEligibleNodeError,
    Ordering,
    RuleSet,
    SolverConfig,
    Violation,
    format_solution_set,
    parse_solutions,
    plan_levels,
    realization_order,
    solve,
    sub_locations,
    verify,
)


def canon(solutions):
    return {tuple(sorted(s.items())) for s in solutions}


def star_problem():
    """Unknown 3 sees all three anchors; unknown 4 hangs off node 3 only."""
    return Problem(
        n_nodes=5,
        radius_sq=2,
        anchors={0: (0, 0), 1: (2, 0), 2: (0, 2)},
        edges=(Edge(0, 3, 2), Edge(1, 3, 2), Edge(2, 3, 2), Edge(3, 4, 1)),
    )


# ---------------------------------------------------------------------------
# realization_order
# ---------------------------------------------------------------------------


def test_order_on_fig3_topology(fixture_f2):
    prob = strip_instance(fixture_f2)
    assert realization_order(prob, Ordering.MOST_CONNECTED) == [3, 4]


def test_order_star_topology_under_both_orderings():
    prob = star_problem()
    for ordering in Ordering:
        for seed in range(5):
            assert realization_order(prob, ordering, seed) == [3, 4]


def test_order_zero_unknowns():
    prob = Problem(n_nodes=3, radius_sq=2, anchors={0: (0, 0), 1: (2, 0), 2: (0, 2)}, edges=())
    assert realization_order(prob, Ordering.MOST_CONNECTED) == []


def test_order_raises_for_unreachable_node():
    prob = Problem(
        n_nodes=5,
        radius_sq=2,
        anchors={0: (0, 0), 1: (2, 0), 2: (0, 2)},
        edges=(Edge(0, 3, 2), Edge(1, 3, 2), Edge(2, 3, 2)),  # node 4 has no edges
    )
    with pytest.raises(NoEligibleNodeError):
        realization_order(prob, Ordering.MOST_CONNECTED)


def test_order_properties_on_random_instances():
    rng = random.Random(4)
    for _ in range(15):
        try:
            inst = generate_instance(15, 40, 10, 3, seed=rng.randint(0, 10**6), max_attempts=40)
        except GenerationError:
            continue
        prob = strip_instance(inst)
        for ordering in Ordering:
            order = realization_order(prob, ordering, seed=1)
            assert sorted(order) == sorted(prob.unknown_ids)
            realized = set(prob.anchors)
            for node in order:
                assert any(v in realized for v in prob.adjacency[node])
                realized.add(node)
            # deterministic
            assert realization_order(prob, ordering, seed=1) == order


def test_random_ordering_varies_with_seed():
    rng = random.Random(9)
    inst = generate_instance(20, 60, 12, 3, seed=rng.randint(0, 10**6))
    prob = strip_instance(inst)
    orders = {tuple(realization_order(prob, Ordering.RANDOM, seed=s)) for s in range(10)}
    assert len(orders) > 1


def realization_order_resort(problem, ordering, seed=0):
    """Reference order: rebuild and sort the eligible set on every step, O(N^2 log N)."""
    adj = problem.adjacency
    realized = set(problem.anchors)
    pending = {i for i in range(problem.n_nodes) if i not in realized}
    counts = {u: sum(1 for v in adj[u] if v in realized) for u in pending}
    rng = random.Random(seed)
    order = []
    while pending:
        eligible = [u for u in sorted(pending) if counts[u] > 0]
        if not eligible:
            raise NoEligibleNodeError(f"nodes {sorted(pending)} have no path of edges to the anchors")
        if ordering is Ordering.MOST_CONNECTED:
            pick = max(eligible, key=counts.__getitem__)
        else:
            pick = eligible[rng.randrange(len(eligible))]
        order.append(pick)
        pending.remove(pick)
        for v in adj[pick]:
            if v in pending:
                counts[v] += 1
    return order


def order_or_error(order_fn, prob, ordering, seed):
    try:
        return order_fn(prob, ordering, seed)
    except NoEligibleNodeError as exc:
        return f"NoEligibleNodeError: {exc}"


def test_realization_order_matches_resort_reference():
    rng = random.Random(21)
    problems = [star_problem()]
    # count ties: every unknown sees two anchors, and 4-5-6 also see each other
    problems.append(Problem(
        n_nodes=8,
        radius_sq=100,
        anchors={0: (0, 0), 1: (10, 0), 2: (0, 10)},
        edges=tuple(Edge(a, u, 50) for a in (0, 1) for u in range(3, 8)) + (Edge(4, 5, 1), Edge(5, 6, 1)),
    ))
    while len(problems) < 60:
        n = rng.randint(4, 80)
        grid = rng.randint(isqrt(n) + 1, 3 * isqrt(n) + 8)
        try:
            inst = generate_instance(grid, rng.randint(2, 60), n, rng.randint(3, min(n - 1, 8)),
                                     seed=rng.randint(0, 10**6), max_attempts=40)
        except GenerationError:
            continue
        prob = strip_instance(inst)
        problems.append(prob)
        # the same nodes with some edges dropped: often disconnected from the anchors
        kept = tuple(e for e in prob.edges if rng.random() < 0.6)
        problems.append(Problem(prob.n_nodes, prob.radius_sq, prob.anchors, kept))
    errors = 0
    for prob in problems:
        for ordering in Ordering:
            for seed in range(4):
                want = order_or_error(realization_order_resort, prob, ordering, seed)
                assert order_or_error(realization_order, prob, ordering, seed) == want
                errors += isinstance(want, str)
    assert 0 < errors < len(problems) * len(Ordering) * 4


def test_realization_order_on_a_long_path():
    n = 100_000
    prob = Problem(
        n_nodes=n,
        radius_sq=1,
        anchors={0: (0, 0), 1: (0, 5), 2: (-5, 0)},
        edges=tuple(Edge(k - 1, k, 1) for k in range(3, n)),
    )
    for ordering in Ordering:
        assert realization_order(prob, ordering) == list(range(3, n))


# ---------------------------------------------------------------------------
# sub_locations
# ---------------------------------------------------------------------------


def first_level(prob, rules=RuleSet.UNIT_DISK):
    """The plan of the first tree level plus the positions sub_locations sees there."""
    excl = rules.exclusion(prob.radius_sq)
    level = plan_levels(prob, realization_order(prob, Ordering.MOST_CONNECTED), excl)[0]
    return level, [prob.anchors.get(i) for i in range(prob.n_nodes)]


def placed(level, pos):
    """The points that sub_locations' offsets stand for: each offset from the pivot's point."""
    cx, cy = pos[level.pivot]
    return [(cx + dx, cy + dy) for dx, dy in sub_locations(level, pos)]


def placements(prob, rules):
    """Every placement solve finds for the one unknown of prob, in search order."""
    (unknown,) = prob.unknown_ids
    return [s[unknown] for s in solve(prob, SolverConfig(rules=rules)).solutions]


def test_sub_locations_empty_circle():
    prob = Problem(
        n_nodes=4,
        radius_sq=3,
        anchors={0: (0, 0), 1: (5, 0), 2: (0, 5)},
        edges=(Edge(0, 3, 3),),
    )
    level, pos = first_level(prob)
    assert (level.node, level.pivot, level.offsets) == (3, 0, ())  # no lattice point has squared length 3
    out = placed(level, pos)
    assert out == []


def test_sub_locations_two_circle_intersection():
    prob = Problem(
        n_nodes=4,
        radius_sq=25,
        anchors={0: (0, 0), 1: (10, 0), 2: (0, 20)},
        edges=(Edge(0, 3, 25), Edge(1, 3, 25)),
    )
    for rules in RuleSet:
        level, pos = first_level(prob, rules)
        assert (level.pivot, level.checks) == (0, ((1, 25),))  # equal circles: lowest id pivots
        assert level.expected == (2 if rules is RuleSet.UNIT_DISK else 0)
        out = placed(level, pos)
        assert out == [(5, 0)]
        assert len(level.offsets) == 12  # the pivot circle of squared radius 25
        assert placements(prob, rules) == [(5, 0)]


def test_sub_locations_candidate_count_is_pivot_circle_size(fixture_f1):
    prob = strip_instance(fixture_f1)
    unknown = prob.unknown_ids[0]
    best = min(
        (len(circle_offsets(d2)), m) for m, d2 in prob.adjacency[unknown].items() if m in prob.anchors
    )
    level, pos = first_level(prob)
    assert (level.node, level.pivot) == (unknown, best[1])
    out = placed(level, pos)
    assert len(level.offsets) == best[0]
    # the edges leave both flip placements; only the ground truth survives unit-disk rules
    truth = fixture_f1.assignment()[unknown]
    assert len(out) == 2 and truth in out
    assert placements(prob, RuleSet.CONVENTIONAL) == out
    assert placements(prob, RuleSet.UNIT_DISK) == [truth]


def test_sub_locations_respects_bounds_flag():
    prob = Problem(
        n_nodes=4,
        radius_sq=2,
        anchors={0: (0, 0), 1: (0, 2), 2: (3, 1)},
        edges=(Edge(0, 3, 2), Edge(1, 3, 2)),
        grid_side=4,
    )
    level, pos = first_level(prob)
    free = placed(level, pos)
    assert free == [(-1, 1), (1, 1)]
    # The bounds test is solve's: its cursor skips the offsets that leave the grid.
    res = solve(prob, SolverConfig(enforce_bounds=True))
    bounded = [s[3] for s in res.solutions]
    assert bounded == [(1, 1)]
    assert len(level.offsets) + res.stats.candidates_checked == 8


def plan_levels_reference(problem, order, excl):
    """Reference plan: list each level's realized neighbours, then take the pivot with min()."""
    realized = set(problem.anchors)
    plan = []
    for node in order:
        nbrs = [(m, d2) for m, d2 in problem.adjacency[node].items() if m in realized]
        pivot, pivot_d2 = min(nbrs, key=lambda nb: len(circle_offsets(nb[1])))
        checks = tuple(nb for nb in nbrs if nb[0] != pivot)
        expected = sum(1 for _, d2 in nbrs if d2 <= excl)
        plan.append(Level(node, pivot, pivot_d2, circle_offsets(pivot_d2), checks, expected))
        realized.add(node)
    return plan


def test_plan_levels_matches_reference():
    rng = random.Random(3)
    done = 0
    while done < 40:
        try:
            inst = generate_instance(20, rng.choice((5, 25, 50, 100)), rng.randint(6, 40), 3,
                                     seed=rng.randint(0, 10**6), max_attempts=40)
        except GenerationError:
            continue
        done += 1
        prob = strip_instance(inst)
        for ordering in Ordering:
            order = realization_order(prob, ordering, seed=done)
            for rules in RuleSet:
                excl = rules.exclusion(prob.radius_sq)
                assert plan_levels(prob, order, excl) == plan_levels_reference(prob, order, excl)


def test_plan_levels_follow_the_order():
    prob = star_problem()
    plan = plan_levels(prob, [3, 4], prob.radius_sq)
    assert [lv.node for lv in plan] == [3, 4]
    # node 3: all three anchor circles have 4 points, so anchor 0 pivots
    assert (plan[0].pivot, plan[0].checks, plan[0].expected) == (0, ((1, 2), (2, 2)), 3)
    assert (plan[1].pivot, plan[1].checks, plan[1].expected) == (3, (), 1)
    assert plan_levels(prob, [3, 4], 0)[0].expected == 0


@pytest.mark.parametrize("r2, e", [(2, 1), (50, 25)])
def test_cell_list_boundary(r2, e):
    """A non-neighbour at exactly r2 clashes under unit-disk rules, wherever the cells split."""
    a0 = (-13, -29)  # negative coordinates; r2 is not a perfect square
    cands = [(a0[0] + dx, a0[1] + dy) for dx, dy in circle_offsets(e)]
    side = cell_rule(r2)[0]
    crossings = 0
    for c in cands:
        for ox, oy in circle_offsets(r2):
            a1 = (c[0] + ox, c[1] + oy)
            a2 = (a1[0] + 97, a1[1] - 61)  # out of range of every candidate
            if a1 == a0 or collinear([a0, a1, a2]):
                continue
            crossings += (c[0] // side, c[1] // side) != (a1[0] // side, a1[1] // side)
            # anchors 0 and 1 may lie within r2 of each other; then their edge must be there
            s01 = dist2(a0, a1)
            edges = (Edge(0, 3, e),) + ((Edge(0, 1, s01),) if s01 <= r2 else ())
            prob = Problem(n_nodes=4, radius_sq=r2, anchors={0: a0, 1: a1, 2: a2}, edges=edges)
            ud = placements(prob, RuleSet.UNIT_DISK)
            assert c not in ud
            assert ud == [q for q in cands if dist2(q, a1) > r2]
            conv = placements(prob, RuleSet.CONVENTIONAL)
            assert c in conv
            assert conv == [q for q in cands if q != a1]
    assert crossings > 0


def test_cell_list_rejects_coincident_point_under_conventional_rules():
    prob = Problem(
        n_nodes=4,
        radius_sq=50,
        anchors={0: (-13, -29), 1: (-13, -24), 2: (40, 7)},  # anchor 1 sits on node 3's circle
        edges=(Edge(0, 3, 25),),
    )
    res = solve(prob, SolverConfig(rules=RuleSet.CONVENTIONAL))
    circle = [Point(-13 + dx, -29 + dy) for dx, dy in circle_offsets(25)]
    assert [s[3] for s in res.solutions] == [q for q in circle if q != (-13, -24)]
    assert (res.stats.candidates_checked, res.stats.instances_visited) == (12, 11)


def chain_problem(lengths, d2_max):
    """A path off anchor 2 at (-5, 0) whose k-th edge has squared length lengths[k]: find-first
    always takes the offset with the most negative dx, so it never collides or backtracks."""
    n = len(lengths) + 3
    edges = tuple(Edge(k - 1, k, d2) for k, d2 in zip(range(3, n), lengths))
    return Problem(n_nodes=n, radius_sq=d2_max, anchors={0: (0, 0), 1: (0, 5), 2: (-5, 0)}, edges=edges)


def test_deep_chain_leaves_recursion_limit_alone():
    n = 20_000
    prob = chain_problem([1] * (n - 3), 1)
    before = sys.getrecursionlimit()
    try:
        sys.setrecursionlimit(1000)
        res = solve(prob, SolverConfig(rules=RuleSet.CONVENTIONAL, find_all=False))
        assert sys.getrecursionlimit() == 1000
    finally:
        sys.setrecursionlimit(before)
    assert res.stats.instances_visited == res.stats.max_depth_reached == n - 3
    assert res.solutions[0][n - 1] == (-5 - (n - 3), 0)  # find-first always steps to -x


def test_active_path_memory_does_not_grow_with_the_circle():
    """A level of the active path holds a cursor, not its candidates: the 48-point circle of
    d2 = 5525 peaks like the 4-point circle of d2 = 1 (circle cache warm, 3000-node chains)."""
    peaks = []
    for d2 in (1, 5525):
        prob = chain_problem([d2] * 2997, d2)
        config = SolverConfig(rules=RuleSet.CONVENTIONAL, find_all=False)
        solve(prob, config)
        tracemalloc.start()
        try:
            res = solve(prob, config)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert res.stats.instances_visited == 2997
    assert max(peaks) <= 1.5 * min(peaks), peaks


def test_find_first_chain_counts_each_pivot_circle_once():
    """Each level is expanded once, and an expansion counts its whole pivot circle, however
    few of its points the cursor reaches."""
    rng = random.Random(3)
    lengths = [rng.choice((1, 2, 4, 5, 8, 9, 10, 13, 16, 17, 18, 20, 25)) for _ in range(500)]
    for ordering in Ordering:
        res = solve(chain_problem(lengths, 25), SolverConfig(rules=RuleSet.CONVENTIONAL, ordering=ordering, find_all=False))
        assert res.stats.instances_visited == res.stats.max_depth_reached == 500
        assert res.stats.candidates_checked == sum(len(circle_offsets(d2)) for d2 in lengths)


def test_enforce_bounds_keeps_exactly_the_in_grid_solutions():
    rng = random.Random(11)
    done = clipped = 0
    while done < 30:
        try:
            inst = generate_instance(12, rng.choice((8, 13, 20)), 8, 3, seed=rng.randint(0, 10**6), max_attempts=40)
        except GenerationError:
            continue
        done += 1
        prob = strip_instance(inst, keep_bounds=True)
        for rules in RuleSet:
            free = solve(prob, SolverConfig(rules=rules)).solutions
            bounded = solve(prob, SolverConfig(rules=rules, enforce_bounds=True)).solutions
            assert bounded == [s for s in free if all(0 <= c < 12 for p in s.values() for c in p)]
            assert inst.assignment() in bounded
            clipped += len(bounded) < len(free)
    assert clipped > 0


_HUGE_ANCHOR_EDGE = """
import sys
from udgl.model import Edge, Problem
from udgl.solver import RuleSet, SolverConfig, solve
far = 10**9 - 1
edges = (Edge(0, 1, far * far), Edge(0, 2, 49), Edge(0, 3, 1), Edge(2, 3, 36))
prob = Problem(n_nodes=4, radius_sq=far * far, anchors={0: (0, 0), 1: (far, 0), 2: (0, 7)}, edges=edges)
print([tuple(s[3]) for s in solve(prob, SolverConfig(rules=RuleSet(sys.argv[1]))).solutions])
"""


@pytest.mark.parametrize("rules", list(RuleSet))
def test_huge_anchor_edge_does_not_hang_solve(rules):
    """No level uses the (10^9 - 1)^2 anchor-anchor edge, so its circle is never scanned. A child
    process under a timeout turns a regression into a failure rather than a hang."""
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-c", _HUGE_ANCHOR_EDGE, rules.value],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=30, check=True,
    )
    assert out.stdout.strip() == "[(0, 1)]"


def test_sub_locations_matches_circle_walk_reference():
    """Every level along random paths agrees with walking the pivot circle and testing all pairs:
    sub_locations on the edges, and solve on the one-unknown problem the level poses."""
    rng = random.Random(5)
    done = 0
    while done < 25:
        try:
            r2 = rng.choice((20, 40, 65))
            inst = generate_instance(14, r2, 11, 3, seed=rng.randint(0, 10**6), max_attempts=40)
        except GenerationError:
            continue
        done += 1
        prob = strip_instance(inst)
        order = realization_order(prob, Ordering.RANDOM, seed=done)
        for rules in RuleSet:
            excl = rules.exclusion(prob.radius_sq)
            realized = dict(prob.anchors)
            pos = [realized.get(i) for i in range(prob.n_nodes)]
            for level in plan_levels(prob, order, excl):
                adj = prob.adjacency[level.node]
                px, py = realized[level.pivot]
                circle = [Point(px + dx, py + dy) for dx, dy in circle_offsets(level.pivot_d2)]
                edge_ok = [
                    c for c in circle if all(dist2(c, realized[m]) == d2 for m, d2 in adj.items() if m in realized)
                ]
                assert placed(level, pos) == edge_ok
                expected = [
                    c
                    for c in circle
                    if c not in realized.values()
                    and all(
                        dist2(c, q) == adj[m] if m in adj else dist2(c, q) > excl
                        for m, q in realized.items()
                    )
                ]
                # the realized nodes become anchors 0..k-1 and level.node becomes node k
                ids = {m: k for k, m in enumerate(realized)}
                ids[level.node] = len(realized)
                edges = tuple(Edge(*sorted((ids[i], ids[j])), d2) for i, j, d2 in prob.edges if i in ids and j in ids)
                sub = Problem(len(ids), prob.radius_sq, {ids[m]: q for m, q in realized.items()}, edges)
                out = placements(sub, rules)
                assert out == expected
                if not out:
                    break
                pos[level.node] = realized[level.node] = rng.choice(out)


def test_enforce_bounds_requires_grid():
    prob = star_problem()
    with pytest.raises(ValueError):
        solve(prob, SolverConfig(enforce_bounds=True))


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def test_solve_zero_unknowns():
    anchors = {0: (0, 0), 1: (2, 0), 2: (0, 2)}
    prob = Problem(n_nodes=3, radius_sq=2, anchors=anchors, edges=())
    for rules in RuleSet:
        result = solve(prob, SolverConfig(rules=rules))
        assert result.solutions == [anchors]
        assert result.stats.instances_visited == 0
        assert result.stats.solutions_found == 1


def test_solve_fixture_f2_unique(fixture_f2):
    prob = strip_instance(fixture_f2)
    result = solve(prob, SolverConfig(rules=RuleSet.UNIT_DISK))
    assert len(result.solutions) == 1
    assert result.solutions[0] == fixture_f2.assignment()


def test_solve_fixture_f1_counts(fixture_f1):
    prob = strip_instance(fixture_f1)
    conv = solve(prob, SolverConfig(rules=RuleSet.CONVENTIONAL))
    ud = solve(prob, SolverConfig(rules=RuleSet.UNIT_DISK))
    assert len(conv.solutions) == 2
    assert len(ud.solutions) == 1
    assert ud.solutions[0] == fixture_f1.assignment()
    assert canon(ud.solutions) <= canon(conv.solutions)


def test_solve_ground_truth_always_found():
    rng = random.Random(12)
    found = 0
    while found < 20:
        try:
            inst = generate_instance(14, 36, 9, 3, seed=rng.randint(0, 10**6), max_attempts=40)
        except GenerationError:
            continue
        found += 1
        prob = strip_instance(inst)
        truth = inst.assignment()
        for rules in RuleSet:
            result = solve(prob, SolverConfig(rules=rules))
            assert not result.stats.budget_exhausted
            assert truth in result.solutions


def test_solve_tree_subset_invariant():
    rng = random.Random(21)
    done = 0
    while done < 15:
        try:
            inst = generate_instance(15, 45, 10, 3, seed=rng.randint(0, 10**6), max_attempts=40)
        except GenerationError:
            continue
        done += 1
        prob = strip_instance(inst)
        for ordering in Ordering:
            cfg = dict(ordering=ordering, seed=3, budget=500_000)
            ud = solve(prob, SolverConfig(rules=RuleSet.UNIT_DISK, **cfg))
            conv = solve(prob, SolverConfig(rules=RuleSet.CONVENTIONAL, **cfg))
            assert ud.stats.instances_visited <= conv.stats.instances_visited
            if not ud.stats.budget_exhausted and not conv.stats.budget_exhausted:
                assert canon(ud.solutions) <= canon(conv.solutions)


def test_solve_budget_flags_partial_results(fixture_f1, fixture_f2):
    prob1 = strip_instance(fixture_f1)
    res = solve(prob1, SolverConfig(rules=RuleSet.CONVENTIONAL, budget=1))
    assert res.stats.budget_exhausted
    assert res.stats.instances_visited == 1
    assert len(res.solutions) == 1  # first leaf found before the budget tripped
    prob2 = strip_instance(fixture_f2)
    res2 = solve(prob2, SolverConfig(rules=RuleSet.UNIT_DISK, budget=1))
    assert res2.stats.budget_exhausted
    assert res2.solutions == []


@pytest.mark.parametrize(
    "field, value, error",
    [
        ("budget", 1.5, TypeError),
        ("budget", True, TypeError),
        ("budget", 0, ValueError),
        ("seed", 1.5, TypeError),
        ("seed", "3", TypeError),
        ("rules", "unit-disk", TypeError),
        ("ordering", "random", TypeError),
        ("find_all", "no", TypeError),
        ("find_all", 1, TypeError),
        ("enforce_bounds", None, TypeError),
    ],
)
def test_solver_config_rejects_a_bad_field(field, value, error):
    with pytest.raises(error, match=f"^{field} must be"):
        SolverConfig(**{field: value})


def test_solve_find_first_stops_early(fixture_f1):
    prob = strip_instance(fixture_f1)
    res = solve(prob, SolverConfig(rules=RuleSet.CONVENTIONAL, find_all=False))
    assert len(res.solutions) == 1
    assert not res.stats.budget_exhausted
    assert res.stats.solutions_found == 1


def test_solve_deterministic():
    inst = generate_instance(15, 40, 10, 4, seed=77)
    prob = strip_instance(inst)
    cfg = SolverConfig(rules=RuleSet.UNIT_DISK, ordering=Ordering.RANDOM, seed=5)
    a = solve(prob, cfg)
    b = solve(prob, cfg)
    assert a == b


def test_solve_stats_invariants_and_no_duplicates():
    rng = random.Random(31)
    done = 0
    while done < 10:
        try:
            inst = generate_instance(12, 30, 8, 3, seed=rng.randint(0, 10**6), max_attempts=40)
        except GenerationError:
            continue
        done += 1
        prob = strip_instance(inst)
        n_unknowns = len(prob.unknown_ids)
        for rules in RuleSet:
            res = solve(prob, SolverConfig(rules=rules))
            s = res.stats
            assert s.instances_visited <= s.candidates_checked
            assert s.max_depth_reached <= n_unknowns
            assert s.solutions_found == len(res.solutions)
            assert len(canon(res.solutions)) == len(res.solutions)
            for sol in res.solutions:
                assert verify(prob, sol, rules) is None


def test_solve_rejects_inconsistent_anchor_geometry():
    # two anchors within range but without an edge: no unit-disk realization exists
    prob = Problem(
        n_nodes=4,
        radius_sq=16,
        anchors={0: (0, 0), 1: (0, 3), 2: (4, 0)},
        edges=(Edge(0, 2, 16), Edge(2, 3, 1)),
    )
    ud = solve(prob, SolverConfig(rules=RuleSet.UNIT_DISK))
    assert ud.solutions == []
    conv = solve(prob, SolverConfig(rules=RuleSet.CONVENTIONAL))
    assert conv.solutions  # conventional rules ignore the no-edge contradiction


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_ground_truth_and_displacement():
    inst = generate_instance(20, 50, 10, 3, seed=13)
    prob = strip_instance(inst)
    truth = inst.assignment()
    assert verify(prob, truth, RuleSet.UNIT_DISK) is None
    assert verify(prob, truth, RuleSet.CONVENTIONAL) is None
    moved = dict(truth)
    node = prob.unknown_ids[0]
    moved[node] = (truth[node][0] + 1, truth[node][1])
    violation = verify(prob, moved, RuleSet.UNIT_DISK)
    assert violation is not None
    assert violation.kind == "edge"
    assert node in (violation.i, violation.j)


def test_verify_flags_mirror_as_no_edge(fixture_f1):
    prob = strip_instance(fixture_f1)
    conv = solve(prob, SolverConfig(rules=RuleSet.CONVENTIONAL))
    mirror = next(s for s in conv.solutions if s != fixture_f1.assignment())
    assert verify(prob, mirror, RuleSet.CONVENTIONAL) is None
    violation = verify(prob, mirror, RuleSet.UNIT_DISK)
    assert violation is not None and violation.kind == "no_edge"


def test_verify_error_paths():
    prob = star_problem()
    full = {0: (0, 0), 1: (2, 0), 2: (0, 2), 3: (1, 1), 4: (1, 2)}
    with pytest.raises(MissingNodeError):
        verify(prob, {k: v for k, v in full.items() if k != 4}, RuleSet.UNIT_DISK)
    with pytest.raises(AnchorMismatchError):
        verify(prob, {**full, 0: (5, 5)}, RuleSet.UNIT_DISK)
    with pytest.raises(ValueError):
        verify(prob, {**full, 9: (8, 8)}, RuleSet.UNIT_DISK)


def test_verify_reports_distinctness():
    prob = star_problem()
    duplicated = {0: (0, 0), 1: (2, 0), 2: (0, 2), 3: (1, 1), 4: (1, 1)}
    violation = verify(prob, duplicated, RuleSet.CONVENTIONAL)
    assert violation is not None
    # nodes 3 and 4 are adjacent, so the clash surfaces as an edge-length violation
    assert (violation.i, violation.j) == (3, 4)


def verify_all_pairs(problem, assignment, rules):
    """Reference: scan every pair in ascending (i, j) order, the first violation wins."""
    adj = problem.adjacency
    excl = rules.exclusion(problem.radius_sq)
    n = problem.n_nodes
    for i in range(n):
        for j in range(i + 1, n):
            s = dist2(assignment[i], assignment[j])
            e = adj[i].get(j)
            if e is not None:
                if s != e:
                    return Violation("edge", i, j)
            elif s == 0:
                return Violation("distinct", i, j)
            elif s <= excl:
                return Violation("no_edge", i, j)
    return None


def test_verify_matches_all_pairs_reference_on_corrupted_assignments():
    rng = random.Random(17)
    kinds = set()
    for grid, r2, n, m in ((30, 50, 40, 4), (60, 90, 60, 5), (12, 20, 8, 3)):
        inst = generate_instance(grid, r2, n, m, seed=rng.randint(0, 10**6))
        prob = strip_instance(inst)
        truth = inst.assignment()
        for _ in range(150):
            bad = dict(truth)
            for _ in range(rng.randint(1, 5)):
                u = rng.choice(prob.unknown_ids)
                v = rng.randrange(n)
                how = rng.randrange(3)
                if how == 0:  # nudge: breaks edge lengths
                    bad[u] = (bad[u][0] + rng.randint(-2, 2), bad[u][1] + rng.randint(-2, 2))
                elif how == 1:  # onto another node
                    bad[u] = bad[v]
                else:  # next to another node, usually a non-neighbour
                    bad[u] = (bad[v][0] + rng.randint(-3, 3), bad[v][1] + rng.randint(-3, 3))
            for rules in RuleSet:
                want = verify_all_pairs(prob, bad, rules)
                assert verify(prob, bad, rules) == want
                kinds.add(want and want.kind)
    assert kinds == {None, "edge", "distinct", "no_edge"}


@pytest.mark.parametrize("size", [(40, 60, 50, 4), (200, 400, 400, 6)])
def test_verify_merges_pairs_and_edges_without_adjacency(size):
    """verify walks the pairs within the exclusion radius and the sorted edges in one merge:
    it agrees with the all-pairs reference and never builds the problem's adjacency."""
    rng = random.Random(size[2])
    inst = generate_instance(*size, seed=rng.randrange(10**6))
    unknowns = strip_instance(inst).unknown_ids
    truth = inst.assignment()
    assignments = [truth]
    for _ in range(8):
        moved = dict(truth)
        v = rng.randrange(inst.n_nodes)
        moved[rng.choice(unknowns)] = (truth[v][0] + rng.randint(-2, 2), truth[v][1] + rng.randint(-2, 2))
        assignments.append(moved)
    for rules in RuleSet:
        for assignment in assignments:
            prob = strip_instance(inst)
            got = verify(prob, assignment, rules)
            assert "adjacency" not in prob.__dict__
            assert got == verify_all_pairs(prob, assignment, rules)
            assert (got is None) == (assignment is truth)


def test_verify_stops_at_first_clash_of_coincident_nodes():
    n = 20_000
    a = n - 3
    prob = Problem(
        n_nodes=n,
        radius_sq=25,
        anchors={a: (0, 0), a + 1: (100, 0), a + 2: (0, 100)},
        edges=tuple(Edge(k, a, 25) for k in range(a)),
    )
    stacked = {k: (3, 4) for k in range(a)} | prob.anchors
    for rules in RuleSet:
        assert verify(prob, stacked, rules) == Violation("distinct", 0, 1)


def test_unit_disk_accepts_subset_of_conventional():
    # any assignment valid under unit-disk rules is valid under conventional rules
    rng = random.Random(8)
    inst = generate_instance(12, 30, 7, 3, seed=rng.randint(0, 10**6))
    prob = strip_instance(inst)
    res = solve(prob, SolverConfig(rules=RuleSet.UNIT_DISK))
    for sol in res.solutions:
        assert verify(prob, sol, RuleSet.CONVENTIONAL) is None


# ---------------------------------------------------------------------------
# solution text format
# ---------------------------------------------------------------------------


def test_solution_format_round_trip(fixture_f1):
    prob = strip_instance(fixture_f1)
    res = solve(prob, SolverConfig(rules=RuleSet.CONVENTIONAL))
    data = format_solution_set(res, prob.n_nodes)
    text = data.decode()
    assert text.startswith("solutions 2\n")
    assert "stat instances_visited" in text
    assert "stat budget_exhausted 0" in text
    back = parse_solutions(data)
    assert back == res.solutions


def test_parse_solutions_rejects_malformed():
    with pytest.raises(ValueError):
        parse_solutions("sol 0\n")
    with pytest.raises(ValueError):
        parse_solutions("solutions 2\nsol 0\nnode 0 1 2\n")
    with pytest.raises(ValueError):
        parse_solutions("solutions 1\nsol 0\nnode 0 1 2\nnode 0 1 3\n")


def test_parse_solutions_reports_invalid_utf8_at_its_line():
    with pytest.raises(ParseError, match=r"^line 3: invalid UTF-8 byte 0xff$") as info:
        parse_solutions(b"solutions 1\nsol 0\nnode 0 1 \xff\n")
    assert isinstance(info.value, ValueError) and info.value.line == 3


STAT_ORDER = "repeated or out of order (order: instances_visited, candidates_checked, max_depth, budget_exhausted)"


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("solutions 1\nsol 0\nnode 0 1 x\n", 3, "invalid y coordinate: 'x'"),
        ("solutions 1\n\nsol 0\nnode 0 1\n", 4, "'node' line has 2 fields, expected 3"),
        ("solutions 1\nsol 0 1\n", 2, "'sol' line has 2 fields, expected 1"),
        ("solutions 1\nsol 0\nnode 0 1 2\nstate max_depth 3\n", 4, "unexpected keyword 'state'"),
        ("# header\nsolutions 1 2\n", 2, "solution file must start with a 'solutions <k>' line"),
        ("solutions 1\nsol 1\n", 2, "expected 'sol 0'"),
        ("solutions 1\nnode 0 1 2\n", 2, "'node' line before the first 'sol' line"),
        ("solutions 1\nsol 0\nnode 0 1 2\nnode 0 1 3\n", 4, "duplicate node 0 in solution 0"),
        ("\nsolutions 2\nsol 0\nnode 0 1 2\n", 2, "file declares 2 solutions but contains 1"),
        ("solutions 2\nsol 0\nnode 0 1 2\nstat bogus 5\nstat budget_exhausted 7\nsol 1\n", 4, "unknown stat 'bogus'"),
        ("solutions 1\nsol 0\nnode 0 1 2\nstat budget_exhausted 7\n", 4, "stat 'budget_exhausted' must be 0 or 1, got 7"),
        ("solutions 1\nsol 0\nnode 0 1 2\nstat max_depth -1\n", 4, "stat 'max_depth' must be non-negative, got -1"),
        ("solutions 1\nsol 0\nstat max_depth 1\nstat max_depth 1\n", 4, f"stat 'max_depth' {STAT_ORDER}"),
        ("solutions 1\nsol 0\nstat max_depth 1\nstat candidates_checked 1\n", 4, f"stat 'candidates_checked' {STAT_ORDER}"),
        ("solutions 1\nstat max_depth 1\nsol 0\nnode 0 1 2\n", 3, "'sol' line after a 'stat' line"),
        ("solutions 1\nsol 0\nstat max_depth 1\nnode 0 1 2\n", 4, "'node' line after a 'stat' line"),
    ],
)
def test_parse_solutions_names_the_line_of_each_fault(text, line, message):
    with pytest.raises(ParseError) as info:
        parse_solutions(text)
    assert str(info.value) == f"line {line}: {message}" and info.value.line == line


@pytest.mark.parametrize(
    "text",
    [
        "solutions 1\nsol 0\nnode 0 1_0 +2\n",
        "solutions 1\nsol 0\nnode 0 10 +2\n",
        "solutions 1\nsol 0\nnode \u0660 1 2\n",  # Arabic-Indic zero
        "solutions +1\nsol 0\nnode 0 1 2\n",
        "solutions 1\nsol 0_0\nnode 0 1 2\n",
        "solutions 1\nsol 0\nnode 0 1 2\nstat max_depth 1_0\n",
    ],
)
def test_parse_solutions_rejects_non_canonical_integers(text):
    assert parse_solutions("solutions 1\nsol 0\nnode 0 -1 2\nstat max_depth 10\n") == [{0: (-1, 2)}]
    with pytest.raises(ValueError):
        parse_solutions(text)

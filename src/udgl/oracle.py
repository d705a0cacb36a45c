"""Independent brute-force enumeration of all valid realizations.

This module certifies the search: it places the unknowns over their
hop-bounded reach boxes by plain domain filtering (vectorized with numpy),
with no circle pivoting and no realization ordering. One mask function states
the constraints against a set of placed points, and every surviving tuple is
re-checked over all pairs by `satisfies`. A work limit bounds the candidate
points examined. It shares only the geometry primitives with the solver.
numpy is imported by the two functions that use it, so no other udgl command
pays for loading it.
"""

from __future__ import annotations

from math import isqrt
from typing import NamedTuple

from .geometry import Point, circle_offsets, collinear, dist2
from .model import Instance, Problem, strip_instance
from .solver import RuleSet


class CapExceededError(ValueError):
    """The requested enumeration exceeds the configured work limit."""


class FixtureNotFoundError(Exception):
    """No flip-ambiguous fixture exists within the requested grid range."""


class SearchBox(NamedTuple):
    """Inclusive rectangle of lattice points, never empty: reach_box pads the anchors' bounding box."""

    xmin: int
    ymin: int
    xmax: int
    ymax: int

    @property
    def n_points(self) -> int:
        return (self.xmax - self.xmin + 1) * (self.ymax - self.ymin + 1)


def _ceil_sqrt(s: int) -> int:
    r = isqrt(s)
    return r if r * r == s else r + 1


def _hop_counts(problem: Problem) -> dict[int, int]:
    """Minimum edge count from each unknown to the anchor set (multi-source BFS)."""
    start, nbrs, _ = problem.adjacency
    hops = {i: 0 for i in problem.anchors}
    frontier = list(problem.anchors)
    while frontier:
        nxt = []
        for u in frontier:
            for v in nbrs[start[u]:start[u + 1]]:
                if v not in hops:
                    hops[v] = hops[u] + 1
                    nxt.append(v)
        frontier = nxt
    unreachable = [i for i in range(problem.n_nodes) if i not in hops]
    if unreachable:
        raise ValueError(f"nodes {unreachable} have no edge path to the anchors")
    return hops


def reach_box(problem: Problem, unknown: int, hops: dict[int, int] | None = None) -> SearchBox:
    """Box certain to contain the unknown in any valid realization.

    Along a shortest edge path of h hops from an anchor, every hop spans at
    most the radius, so the node lies within h * ceil(sqrt(radius_sq)) of the
    anchor bounding box. This holds under both rule sets.
    """
    if hops is None:
        hops = _hop_counts(problem)
    pad = hops[unknown] * _ceil_sqrt(problem.radius_sq)
    xs = [p.x for p in problem.anchors.values()]
    ys = [p.y for p in problem.anchors.values()]
    return SearchBox(min(xs) - pad, min(ys) - pad, max(xs) + pad, max(ys) + pad)


def satisfies(problem: Problem, assignment: dict[int, Point], rules: RuleSet) -> bool:
    """Full constraint check over all node pairs, written independently of solver.verify."""
    n = problem.n_nodes
    r2 = problem.radius_sq
    edge_d2 = {(e.i, e.j): e.d2 for e in problem.edges}
    ud = rules is RuleSet.UNIT_DISK
    for i in range(n):
        xi = assignment[i]
        for j in range(i + 1, n):
            xj = assignment[j]
            dx = xi[0] - xj[0]
            dy = xi[1] - xj[1]
            s = dx * dx + dy * dy
            d2 = edge_d2.get((i, j))
            if d2 is not None:
                if s != d2:
                    return False
            elif s == 0 or (ud and s <= r2):
                return False
    return True


def _fits(px: np.ndarray, py: np.ndarray, placed: dict[int, Point], problem: Problem, u: int, excl: int) -> np.ndarray:
    """Which candidate points (px, py) of node u meet every constraint against the placed points.

    A placed neighbour of u (in u's row of the problem's CSR adjacency) fixes the squared
    distance exactly; any other placed point must lie farther than excl, which is 0 (distinct
    points) under conventional rules and radius_sq under unit-disk rules.
    """
    import numpy as np

    start, nbrs, d2s = problem.adjacency
    lengths = dict(zip(nbrs[start[u]:start[u + 1]], d2s[start[u]:start[u + 1]]))
    mask = np.ones(px.shape, dtype=bool)
    for v, (vx, vy) in placed.items():
        s = (px - vx) ** 2 + (py - vy) ** 2
        d2 = lengths.get(v)
        mask &= s == d2 if d2 is not None else s > excl
    return mask


def brute_force_solutions(problem: Problem, rules: RuleSet, work_limit: int = 10**9) -> list[dict[int, Point]]:
    """Every complete valid assignment, by exhaustive placement over reach boxes.

    Each unknown's candidates are the points of its hop-bounded reach box,
    which provably contains it in any valid realization, that meet every
    anchor constraint. Unknowns are then placed one at a time, smallest domain
    first, each domain filtered against the unknowns placed so far, and each
    complete tuple is confirmed by the independent full-pair check. Results
    are in canonical order (sorted by the unknown coordinates in id order).

    work_limit bounds the candidate points examined: every reach-box point,
    plus every domain point each time an unknown is placed. Passing it raises
    CapExceededError, as does a reach box of more than 50M points.
    """
    import numpy as np

    unknowns = problem.unknown_ids
    base = dict(problem.anchors)
    if not unknowns:
        return [base] if satisfies(problem, base, rules) else []

    excl = problem.radius_sq if rules is RuleSet.UNIT_DISK else 0
    examined = 0

    def examine(n_points: int) -> None:
        nonlocal examined
        examined += n_points
        if examined > work_limit:
            raise CapExceededError(f"more than {work_limit} candidate points examined")

    # Per-unknown domains filtered by every anchor constraint.
    hops = _hop_counts(problem)
    domains: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for u in unknowns:
        box = reach_box(problem, u, hops)
        if box.n_points > 50_000_000:
            raise CapExceededError(f"search box for node {u} spans {box.n_points} points")
        examine(box.n_points)
        gx, gy = np.meshgrid(
            np.arange(box.xmin, box.xmax + 1, dtype=np.int64),
            np.arange(box.ymin, box.ymax + 1, dtype=np.int64),
            indexing="ij",
        )
        px, py = gx.ravel(), gy.ravel()
        mask = _fits(px, py, problem.anchors, problem, u, excl)
        domains[u] = (px[mask], py[mask])

    order = sorted(unknowns, key=lambda u: (len(domains[u][0]), u))
    found: list[dict[int, Point]] = []
    chosen: dict[int, Point] = {}

    def extend(idx: int) -> None:
        u = order[idx]
        dx, dy = domains[u]
        examine(len(dx))
        mask = _fits(dx, dy, chosen, problem, u, excl)
        last = idx + 1 == len(order)
        for x, y in zip(dx[mask].tolist(), dy[mask].tolist()):
            chosen[u] = Point(x, y)
            if last:
                assignment = dict(base)
                assignment.update(chosen)
                if satisfies(problem, assignment, rules):
                    found.append(assignment)
            else:
                extend(idx + 1)
        chosen.pop(u, None)

    extend(0)
    found.sort(key=lambda a: tuple(a[u] for u in unknowns))
    return found


# ---------------------------------------------------------------------------
# Flip-ambiguity fixture search
# ---------------------------------------------------------------------------


def find_fixture_f1(max_grid: int) -> Instance:
    """Smallest instance whose unknown is flip-ambiguous on edges alone.

    Searches 3-anchor, 1-unknown instances where the unknown sees exactly two
    anchors, its two-circle intersection has a second (mirror) placement, and
    the third anchor sits within range of the mirror but out of range of the
    truth. The candidate is certified by the brute-force oracle: exactly 2
    solutions under CONVENTIONAL rules and exactly 1 (the ground truth) under
    UNIT_DISK rules. Deterministic, so repeated runs return the same fixture.
    """
    for g in range(3, max_grid + 1):
        cells = [Point(x, y) for x in range(g) for y in range(g)]
        for r2 in range(1, 2 * (g - 1) ** 2 + 1):
            for a1 in cells:
                for a2 in cells:
                    if a2 <= a1:
                        continue
                    for u in cells:
                        if u == a1 or u == a2:
                            continue
                        d1 = dist2(u, a1)
                        d2 = dist2(u, a2)
                        if d1 > r2 or d2 > r2:
                            continue
                        on_a1 = (Point(a1.x + dx, a1.y + dy) for dx, dy in circle_offsets(d1))
                        twins = [p for p in on_a1 if dist2(p, a2) == d2]
                        if len(twins) != 2:
                            continue
                        mirror = twins[0] if twins[1] == u else twins[1]
                        inst = _place_third_anchor(g, r2, a1, a2, u, mirror)
                        if inst is not None:
                            return inst
    raise FixtureNotFoundError(f"no flip-ambiguous fixture on grids up to {max_grid}x{max_grid}")


def _place_third_anchor(
    g: int, r2: int, a1: Point, a2: Point, u: Point, mirror: Point
) -> Instance | None:
    """Try every third anchor that invalidates the mirror; certify via the oracle."""
    for a3 in (Point(x, y) for x in range(g) for y in range(g)):
        if a3 in (a1, a2, u, mirror):
            continue
        if collinear([a1, a2, a3]):
            continue
        if dist2(a3, u) <= r2:  # would give the unknown a third anchor edge
            continue
        if dist2(a3, mirror) > r2:  # mirror must land inside the third anchor's range
            continue
        if dist2(a3, a1) > r2 and dist2(a3, a2) > r2:  # keep the graph connected
            continue
        inst = Instance(
            grid_side=g,
            radius_sq=r2,
            positions=(a1, a2, a3, u),
            anchor_flags=(True, True, True, False),
        )
        problem = strip_instance(inst)
        conventional = brute_force_solutions(problem, RuleSet.CONVENTIONAL)
        if len(conventional) != 2:
            continue
        unit_disk = brute_force_solutions(problem, RuleSet.UNIT_DISK)
        if len(unit_disk) != 1 or unit_disk[0] != inst.assignment():
            continue
        return inst
    return None

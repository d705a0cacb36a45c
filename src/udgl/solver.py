"""Depth-first localization search over integer lattice placements.

The search realizes one unknown node per tree level, enumerating the lattice circle around a
realized neighbour and pruning candidates against the active rule set. CONVENTIONAL prunes with
edge-length equalities and distinctness only; UNIT_DISK additionally requires every non-adjacent
realized pair to be strictly farther apart than the radius, which is what collapses the tree.
realization_order plans every level once, in the walk of the problem's CSR adjacency that orders
it, whatever the rule set; a level's checks are one flat tuple. sub_locations gives a level's
edge-consistent offsets through the solve's capped memo of two-circle meets; solve walks them,
runs the bounds and no-edge tests and keeps every search count. verify is one ordered merge of
pairs_within with the sorted edges; format_solution_set and parse_solutions are the solution
text format.

A solve call is sequential and mutates no process-wide state (the lattice circle cache is
thread-safe); Problem and SolverConfig are immutable, so solve calls may run in parallel threads.
"""

from __future__ import annotations

import random
from bisect import insort
from dataclasses import dataclass
from enum import Enum
from heapq import heapify, heappop, heappush
from itertools import chain
from math import isqrt
from typing import NamedTuple, get_type_hints

from .geometry import Point, cell_rule, check_fields, circle_offsets, dist2, field_rules, pairs_within
from .model import ParseError, Problem, encode_lines, parse_int, text_rows


class RuleSet(Enum):
    """Constraint families: edge equalities only, or edge plus no-edge pruning."""

    CONVENTIONAL = "conventional"
    UNIT_DISK = "unit-disk"

    def exclusion(self, radius_sq: int) -> int:
        """Squared distance at or below which two non-adjacent nodes clash: the
        one difference between the rule sets (0, i.e. distinctness, or r^2)."""
        return radius_sq if self is RuleSet.UNIT_DISK else 0


class Ordering(Enum):
    """How the next unknown to realize is picked when building the static order."""

    RANDOM = "random"
    MOST_CONNECTED = "most-connected"


class NoEligibleNodeError(ValueError):
    """Some unknown can never become adjacent to the realized set (disconnected problem)."""


class MissingNodeError(ValueError):
    """An assignment handed to verify() does not cover every node."""


class AnchorMismatchError(ValueError):
    """An assignment handed to verify() moves an anchor."""


class Violation(NamedTuple):
    """First violated constraint: kind is 'edge', 'no_edge' or 'distinct'."""

    kind: str
    i: int
    j: int


@dataclass(frozen=True)
class SolverConfig:
    rules: RuleSet = RuleSet.UNIT_DISK
    ordering: Ordering = Ordering.MOST_CONNECTED
    seed: int = 0
    find_all: bool = True
    budget: int = 10**8
    enforce_bounds: bool = False

    def __post_init__(self):
        check_fields(self, _CONFIG_RULES)
        if self.budget < 1:
            raise ValueError(f"budget must be >= 1, got {self.budget}")


_CONFIG_RULES = field_rules(get_type_hints(SolverConfig))  # each field's type rule


@dataclass
class SearchStats:
    """Traversal counters; instances_visited is the tree-node count, root excluded."""

    instances_visited: int = 0
    candidates_checked: int = 0
    max_depth_reached: int = 0
    solutions_found: int = 0
    budget_exhausted: bool = False


@dataclass
class SolutionSet:
    """Complete assignments found by one solve call, with its traversal stats."""

    solutions: list[dict[int, Point]]
    stats: SearchStats


# ---------------------------------------------------------------------------
# Node ordering and level plan
# ---------------------------------------------------------------------------


class Level(NamedTuple):
    """What every expansion at one level checks: node is placed on the pivot's circle
    (offsets, of squared radius pivot_d2), and checks holds its other realized neighbours,
    ids ascending, each followed by its squared edge length: one flat (m1, d1, m2, d2, ...)."""

    node: int
    pivot: int
    pivot_d2: int
    offsets: tuple[Point, ...]
    checks: tuple[int, ...]


def realization_order(problem: Problem, ordering: Ordering, seed: int = 0) -> list[Level]:
    """The plan: one Level per unknown, in the static order that every branch shares.

    Each node in the order has at least one edge into the anchors plus the nodes before it.
    MOST_CONNECTED greedily maximizes that edge count (lowest id on ties); RANDOM picks uniformly
    among currently eligible nodes, in ascending id order, with one rng.randrange per step.

    A pick is planned in the walk of its CSR row that raises its unrealized neighbours' counts:
    its realized neighbours, ids ascending, are its level's pivot and checks. The pivot's edge
    spans the fewest lattice circle points (lowest id on ties). Only these edges get circles,
    memoized per call: an anchor-anchor edge may be far too long to scan.

    The order is built in O(E log N) comparisons, because the eligible frontier is kept
    incrementally and never rebuilt. MOST_CONNECTED pops a lazy min-heap of int keys
    id - count * N (a larger count first, then the lower id) that gets a fresh entry whenever a
    count rises, and skips stale entries (at most one per edge). RANDOM keeps the eligible ids in
    a list sorted with bisect, whose inserts and pops shift at most the frontier in one memmove.
    """
    if not isinstance(ordering, Ordering):
        raise TypeError(f"ordering must be an Ordering, got {ordering!r}")
    start, nbrs, d2s = problem.adjacency
    n = problem.n_nodes
    realized = [False] * n
    counts = [0] * n
    ids: list = [None] * n  # a pick is its int object in nbrs, not a fresh int
    for a in problem.anchors:
        realized[a] = True
        for v in nbrs[start[a]:start[a + 1]]:
            counts[v] += 1
            ids[v] = v
    most = ordering is Ordering.MOST_CONNECTED
    frontier = [u for u in range(n) if counts[u] and not realized[u]]
    if most:
        frontier = [u - counts[u] * n for u in frontier]
        heapify(frontier)
    rng = random.Random(seed)
    circles: dict[int, tuple[Point, ...]] = {}
    plan: list[Level] = []
    for _ in range(n - len(problem.anchors)):
        if most:
            while frontier:
                key = heappop(frontier)
                pick = ids[key % n]
                if key == pick - counts[pick] * n:  # one entry per (count, id): this one is live
                    break
            else:
                pick = None
        else:
            pick = ids[frontier.pop(rng.randrange(len(frontier)))] if frontier else None
        if pick is None:
            pending = [u for u in range(n) if not realized[u]]
            raise NoEligibleNodeError(f"nodes {pending} have no path of edges to the anchors")
        realized[pick] = True
        checks = []  # the realized neighbours and lengths, ids ascending; the pivot is taken out below
        best = None
        for k in range(start[pick], start[pick + 1]):
            v = nbrs[k]
            if realized[v]:
                d2 = d2s[k]
                circle = circles.get(d2)
                if circle is None:
                    circle = circles[d2] = circle_offsets(d2)
                if best is None or len(circle) < len(best):
                    at, best = len(checks), circle
                checks.append(v)
                checks.append(d2)
            else:
                counts[v] += 1
                ids[v] = v
                if most:
                    heappush(frontier, v - counts[v] * n)
                elif counts[v] == 1:
                    insort(frontier, v)
        pivot, pivot_d2 = checks.pop(at), checks.pop(at)
        plan.append(Level(pick, pivot, pivot_d2, best, tuple(checks)))
    return plan


# ---------------------------------------------------------------------------
# Candidate enumeration
# ---------------------------------------------------------------------------


# The most meets one solve's table holds (the largest of 200 fig-4/fig-5 trials held 4,241).
MEET_CAP = 1 << 13


def _meet(a: int, d2: int, vx: int, vy: int) -> tuple[tuple[int, int], ...]:
    """The at most two lattice offsets o, sorted, with |o|^2 = a and |o - v|^2 = d2, for the
    (non-zero) offset v = (vx, vy) between the circles' centres: o.v = h gives o = (h*v +
    t*v_perp) / |v|^2 with t^2 = a*|v|^2 - h^2, a lattice point only when t is an integer and
    both divisions are exact. Such a point meets the second circle exactly (2h = k)."""
    n = vx * vx + vy * vy
    k = a - d2 + n
    h = k >> 1
    disc = a * n - h * h
    t = isqrt(disc) if disc >= 0 else -1
    if k & 1 or t * t != disc:
        return ()
    out = []
    for s in (-t, t) if t else (0,):
        px = h * vx - s * vy
        py = h * vy + s * vx
        if not (px % n or py % n):
            out.append((px // n, py // n))
    return tuple(sorted(out))  # on the active path a tuple is smaller than the list


def sub_locations(level: Level, pos: list, meets: dict) -> tuple[tuple[int, int], ...]:
    """In (dx, dy) order, the offsets from the pivot's point that meet every edge constraint of
    level.node: the planned circle itself when the pivot is the one realized neighbour, else the
    points of the first check's meet with it (_meet) that pass the others, read from the flat
    checks by one iterator. pos[i] is node i's point while i is realized. meets is the solve's
    memo of _meet, keyed by its four arguments (v runs from the pivot's point to the first
    check's); a miss is stored only while it holds fewer than MEET_CAP keys. solve keeps the
    search's counts."""
    _, pivot, a, offsets, checks = level
    if not checks:
        return offsets
    cx, cy = pos[pivot]
    (qx, qy), d2 = pos[checks[0]], checks[1]
    vx, vy = qx - cx, qy - cy
    key = (a, d2, vx, vy)
    meet = meets.get(key)
    if meet is None:
        meet = _meet(a, d2, vx, vy)
        if len(meets) < MEET_CAP:
            meets[key] = meet
    if len(checks) == 2:
        return meet
    out = []
    tail = checks[2:]  # the meet passes the first check already
    for dx, dy in meet:
        rest = iter(tail)
        for m in rest:
            qx, qy = pos[m]
            qx -= cx + dx
            qy -= cy + dy
            if qx * qx + qy * qy != next(rest):
                break
        else:
            out.append((dx, dy))
    return tuple(out)


# ---------------------------------------------------------------------------
# Search driver
# ---------------------------------------------------------------------------


def _anchors_consistent(problem: Problem, excl: int) -> bool:
    """Non-adjacent anchor pairs must lie farther apart than the exclusion radius."""
    ids, (start, nbrs, _) = list(problem.anchors), problem.adjacency
    pairs = pairs_within(list(problem.anchors.values()), excl)
    return all(ids[b] in nbrs[start[ids[a]]:start[ids[a] + 1]] for a, b, _ in pairs)


def solve(problem: Problem, config: SolverConfig) -> SolutionSet:
    """Depth-first search for all (or the first) complete realizations.

    Level l of the tree places the l-th node of the static realization order; a leaf at depth
    N - M is a solution. The search stops early when find_all is false and a solution was
    recorded, or when instances_visited hits the budget, in which case budget_exhausted is
    flagged and the partial result returned. A level of the active path keeps its offsets (the
    plan's shared circle or at most two points), an index into them and its point as a plain
    (x, y) tuple; with the CSR adjacency, the plan and the cell list, that is a few flat lists
    and tuples per node whatever the tree or circle size. A Point is built per solution.
    """
    if config.enforce_bounds and problem.grid_side is None:
        raise ValueError("enforce_bounds requires a problem that kept its grid bounds")
    excl = config.rules.exclusion(problem.radius_sq)
    if not _anchors_consistent(problem, excl):
        return SolutionSet([], SearchStats())
    plan = realization_order(problem, config.ordering, config.seed)
    if not plan:
        return SolutionSet([dict(problem.anchors)], SearchStats(solutions_found=1))
    n_levels = len(plan)
    # Every edge has 1 <= d2 <= radius_sq, so the no-edge test at a level expects all of its
    # realized neighbours within excl under unit-disk rules (excl = r^2), none under conventional.
    expects = [len(level.checks) // 2 + 1 for level in plan] if excl else [0] * n_levels
    pos: list[tuple[int, int] | None] = [problem.anchors.get(i) for i in range(problem.n_nodes)]
    meets: dict = {}  # this solve's table of two-circle meets (sub_locations)
    # The cell list of the realized points: the anchors, then the active path.
    side, around = cell_rule(excl)
    cells: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for p in problem.anchors.values():
        cells.setdefault((p.x // side, p.y // side), []).append(p)
    get = cells.get
    bounded, grid = config.enforce_bounds, problem.grid_side
    solutions: list[dict[int, Point]] = []
    budget, find_all = config.budget, config.find_all
    # The search's counts; an expansion checks its level's whole pivot circle.
    visits = max_depth = candidates = 0
    exhausted = False
    # Level depth - 1 places node at offsets[k:] from (cx, cy), where it must have expected
    # realized points within excl; parents holds each level above's offsets and k.
    level = plan[0]
    offsets = sub_locations(level, pos, meets)
    candidates += len(level.offsets)
    cx, cy = pos[level.pivot]
    node, expected = level.node, expects[0]
    k, depth, parents = 0, 1, []
    while True:
        if k == len(offsets):
            if not parents:
                break
            k = parents.pop()
            offsets = parents.pop()
            depth -= 1
            level = plan[depth - 1]
            cx, cy = pos[level.pivot]
            node, expected = level.node, expects[depth - 1]
            x, y = pos[node]
            cells[x // side, y // side].pop()
            continue
        dx, dy = offsets[k]
        k += 1
        x, y = cx + dx, cy + dy
        if bounded and not (0 <= x < grid and 0 <= y < grid):
            continue
        # The no-edge test: the realized neighbours within excl are the only
        # realized points allowed there (and with excl = 0, distinctness).
        kx = x // side
        ky = y // side
        hits = 0
        for i, j in around:
            for px, py in get((kx + i, ky + j), ()):
                px -= x
                py -= y
                if px * px + py * py <= excl:
                    hits += 1
            if hits > expected:
                break
        if hits != expected:
            continue
        if visits >= budget:
            exhausted = True
            break
        visits += 1
        if depth > max_depth:
            max_depth = depth
        pos[node] = point = (x, y)
        if depth == n_levels:
            solutions.append(dict(enumerate(map(Point._make, pos))))
            if find_all:
                continue
            break
        level = plan[depth]
        children = sub_locations(level, pos, meets)
        candidates += len(level.offsets)
        if children:
            if (cell := get((kx, ky))) is None:  # a list only for a new cell, and of one slot
                cells[kx, ky] = [point]
            else:
                cell.append(point)
            parents.append(offsets)
            parents.append(k)
            offsets = children
            k = 0
            cx, cy = pos[level.pivot]
            node, expected = level.node, expects[depth]
            depth += 1
    return SolutionSet(solutions, SearchStats(visits, candidates, max_depth, len(solutions), exhausted))


# ---------------------------------------------------------------------------
# Assignment verification
# ---------------------------------------------------------------------------


def verify(problem: Problem, assignment: dict[int, Point], rules: RuleSet) -> Violation | None:
    """Check a complete assignment against the rule set; None means valid.

    Pairs are scanned in ascending (i, j) order and the first violated
    constraint is reported. Raises MissingNodeError / AnchorMismatchError when
    the assignment does not cover all nodes or moves an anchor.
    """
    n = problem.n_nodes
    missing = [i for i in range(n) if i not in assignment]
    if missing:
        raise MissingNodeError(f"assignment missing node(s) {missing}")
    bogus = [k for k in assignment if not 0 <= k < n]
    if bogus:
        raise ValueError(f"assignment contains unknown node id(s) {sorted(bogus)}")
    for a, p in problem.anchors.items():
        q = assignment[a]
        if q[0] != p.x or q[1] != p.y:
            raise AnchorMismatchError(f"anchor {a} moved from {tuple(p)} to {(q[0], q[1])}")

    # One merge, in (i, j) order, of the pairs within the exclusion radius with the sorted
    # edges: a pair that is an edge is checked by its own length, a pair that is not is a
    # clash, and only an edge the walk passes over (its ends lie farther apart) costs a dist2.
    # The pair (n, n, 0) closes the walk; it meets the edge end, which follows every edge.
    points = [assignment[i] for i in range(n)]
    edges = iter(problem.edges)
    end = (n, n, 0)
    a, b, d2 = next(edges, end)
    for i, j, s in chain(pairs_within(points, rules.exclusion(problem.radius_sq)), (end,)):
        while a < i or (a == i and b < j):
            if dist2(points[a], points[b]) != d2:
                return Violation("edge", a, b)
            a, b, d2 = next(edges, end)
        if a != i or b != j:
            return Violation("no_edge" if s else "distinct", i, j)
        if s != d2:
            return Violation("edge", i, j)
        a, b, d2 = next(edges, end)
    return None


# ---------------------------------------------------------------------------
# Solution text format
# ---------------------------------------------------------------------------
#
#   solutions <k>
#   sol <index>
#   node <id> <x> <y>     (N lines per solution)
#   ...
#   stat instances_visited <v>
#   stat candidates_checked <v>
#   stat max_depth <v>
#   stat budget_exhausted <0|1>
#
# The stat lines are optional; those present come after the last solution, in this order.

# Each stat line's name, in file order, and the SearchStats field it holds.
_STATS = dict(instances_visited="instances_visited", candidates_checked="candidates_checked",
              max_depth="max_depth_reached", budget_exhausted="budget_exhausted")
_FIELD_COUNTS = {"sol": 1, "node": 3, "stat": 2}  # the fields after each row keyword


def format_solution_set(result: SolutionSet, n_nodes: int) -> bytes:
    """Serialize a SolutionSet to canonical text (UTF-8, LF, byte-deterministic)."""
    def lines():
        yield f"solutions {len(result.solutions)}"
        for k, sol in enumerate(result.solutions):
            yield f"sol {k}"
            for i in range(n_nodes):
                x, y = sol[i]
                yield f"node {i} {x} {y}"
        yield from (f"stat {name} {int(getattr(result.stats, field))}" for name, field in _STATS.items())

    return encode_lines(lines())


def parse_solutions(data: bytes | str) -> list[dict[int, Point]]:
    """Parse the solution text format back into assignments (stat lines are checked, not returned).

    Rows follow the udgl line grammar (model.text_rows, model.parse_int). Each stat line names
    one of the stats format_solution_set writes, once at most, in its order and after the last
    solution; its value is non-negative, and budget_exhausted is 0 or 1. Every fault is a
    ParseError at its line; a count that the 'sol' blocks disagree with names the 'solutions' line.
    """
    rows = text_rows(data)
    head_no, head = next(rows, (None, ""))
    toks = head.split()
    if toks[:1] != ["solutions"] or len(toks) != 2:
        raise ParseError("solution file must start with a 'solutions <k>' line", head_no)
    count = parse_int(toks[1], head_no, "solution count")
    out: list[dict[int, Point]] = []
    current: dict[int, Point] | None = None
    later = iter(_STATS)  # the stat names still allowed: `name in later` consumes through name
    stat = None  # the name of the last stat line
    for no, line in rows:
        kind, *args = line.split()
        n_fields = _FIELD_COUNTS.get(kind)
        if n_fields is None:
            raise ParseError(f"unexpected keyword {kind!r}", no)
        if len(args) != n_fields:
            raise ParseError(f"'{kind}' line has {len(args)} fields, expected {n_fields}", no)
        if kind != "stat" and stat:
            raise ParseError(f"'{kind}' line after a 'stat' line", no)
        if kind == "sol":
            if parse_int(args[0], no, "solution index") != len(out):
                raise ParseError(f"expected 'sol {len(out)}'", no)
            current = {}
            out.append(current)
        elif kind == "node":
            if current is None:
                raise ParseError("'node' line before the first 'sol' line", no)
            node_id = parse_int(args[0], no, "node id")
            if node_id in current:
                raise ParseError(f"duplicate node {node_id} in solution {len(out) - 1}", no)
            current[node_id] = Point(parse_int(args[1], no, "x coordinate"), parse_int(args[2], no, "y coordinate"))
        else:
            stat = name = args[0]
            if name not in _STATS:
                raise ParseError(f"unknown stat {name!r}", no)
            if name not in later:
                raise ParseError(f"stat {name!r} repeated or out of order (order: {', '.join(_STATS)})", no)
            value = parse_int(args[1], no, "stat value")
            if value < 0:
                raise ParseError(f"stat {name!r} must be non-negative, got {value}", no)
            if name == "budget_exhausted" and value > 1:
                raise ParseError(f"stat 'budget_exhausted' must be 0 or 1, got {value}", no)
    if len(out) != count:
        raise ParseError(f"file declares {count} solutions but contains {len(out)}", head_no)
    return out

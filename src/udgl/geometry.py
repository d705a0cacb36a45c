"""Exact integer-lattice geometry: squared distances, lattice circles, collinearity, cell lists.

Every operation here is pure integer arithmetic. No floating point is used
anywhere, so distance equalities and strict inequalities are exact. cell_rule is
the one neighbourhood rule: pairs_within and the search both bucket points by it.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache
from math import isqrt
from typing import Iterable, Iterator, NamedTuple, Sequence

# Coordinates are capped so that any squared distance between two in-range
# points stays below 2**63: 2 * (2 * COORD_LIMIT)**2 < 2**63 - 1.
COORD_LIMIT = 10**9


class Point(NamedTuple):
    """A lattice point with exact integer coordinates."""

    x: int
    y: int


def check_int(value, what: str) -> int:
    """value when it is an int and not a bool, else a TypeError naming what: the rule for
    every integer field of a point, an edge, an Instance or a Problem."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{what} must be an integer, got {value!r}")
    return value


def check_point(p: Sequence[int]) -> Point:
    """Validate a coordinate pair (integer type, supported range) and return a Point."""
    x, y = p
    check_int(x, "lattice coordinate")
    check_int(y, "lattice coordinate")
    if abs(x) > COORD_LIMIT or abs(y) > COORD_LIMIT:
        raise ValueError(f"coordinate outside supported range |c| <= {COORD_LIMIT}: {tuple(p)!r}")
    return Point(x, y)


def dist2(a: Sequence[int], b: Sequence[int]) -> int:
    """Squared Euclidean distance between two lattice points, exactly."""
    dx = a[0] - b[0]
    dy = a[1] - b[1]
    return dx * dx + dy * dy


@lru_cache(maxsize=None)
def circle_offsets(s: int) -> tuple[Point, ...]:
    """All integer offsets (dx, dy) with dx^2 + dy^2 == s, sorted by (dx, dy): dx scans
    [-isqrt(s), isqrt(s)] and is kept where the remainder s - dx^2 is a perfect square."""
    if s < 0:
        raise ValueError(f"squared radius must be non-negative, got {s}")
    root = isqrt(s)
    offsets = []
    for dx in range(-root, root + 1):
        rem = s - dx * dx
        dy = isqrt(rem)
        if dy * dy == rem:
            offsets.append(Point(dx, dy))
            if dy:
                offsets.append(Point(dx, -dy))
    offsets.sort()
    return tuple(offsets)


def cell_rule(r2: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Cell side and the cell offsets that hold every point within squared distance r2:
    such a lattice point differs from p by at most isqrt(r2) per axis, so it lies in
    p's cell or one of its eight neighbours, or only in p's own cell when r2 = 0 (the
    cell-list search of Allen & Tildesley, Computer Simulation of Liquids, 5.3)."""
    if r2 < 0:
        raise ValueError(f"squared distance bound must be non-negative, got {r2}")
    # Own cell first, then edge neighbours, then corners: clashes show early.
    around = ((0, 0), (0, -1), (0, 1), (-1, 0), (1, 0), (-1, -1), (-1, 1), (1, -1), (1, 1))
    return max(1, isqrt(r2)), around if r2 else around[:1]


def pairs_within(points: Sequence[Sequence[int]], r2: int) -> Iterator[tuple[int, int, int]]:
    """Lazily yield (i, j, s) for every i < j with s = dist2(points[i], points[j]) <= r2,
    in ascending (i, j) order. Points are bucketed by cell_rule(r2), and each occupied
    cell merges the ids of its neighbourhood once, so only nearby pairs are tested."""
    side, around = cell_rule(r2)
    # Below 24 points testing every pair beats bucketing, so they all share one cell.
    keys = [(p[0] // side, p[1] // side) for p in points] if len(points) >= 24 else [(0, 0)] * len(points)
    cells: dict[tuple[int, int], list[int]] = {}
    for i, key in enumerate(keys):
        cells.setdefault(key, []).append(i)
    near = {}
    for kx, ky in cells:
        ids = near[kx, ky] = []
        for dx, dy in around:
            ids += cells.get((kx + dx, ky + dy), ())
        ids.sort()
    for i, key in enumerate(keys):
        ids = near[key]
        x, y = points[i]
        for j in ids[bisect_right(ids, i) :]:
            q = points[j]
            dx = q[0] - x
            dy = q[1] - y
            s = dx * dx + dy * dy
            if s <= r2:
                yield i, j, s


def collinear(points: Iterable[Sequence[int]]) -> bool:
    """True iff all points lie on one straight line (exact cross products).

    Any set of at most two distinct points is collinear.
    """
    pts = list(points)
    if not pts:
        raise ValueError("collinear requires at least one point")
    base = pts[0]
    ref = next((p for p in pts[1:] if (p[0], p[1]) != (base[0], base[1])), None)
    if ref is None:
        return True
    rx = ref[0] - base[0]
    ry = ref[1] - base[1]
    for p in pts[1:]:
        if rx * (p[1] - base[1]) != ry * (p[0] - base[0]):
            return False
    return True

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from udgl.geometry import (
    COORD_LIMIT,
    Point,
    cell_rule,
    check_point,
    circle_offsets,
    collinear,
    dist2,
    lattice_circle,
    pairs_within,
)

coords = st.integers(min_value=-500, max_value=500)
points = st.tuples(coords, coords)


def brute_circle(center, s):
    """Independent enumeration: scan the full bounding box."""
    cx, cy = center
    r = int(s**0.5) + 2
    return sorted(
        Point(x, y)
        for x in range(cx - r, cx + r + 1)
        for y in range(cy - r, cy + r + 1)
        if (x - cx) ** 2 + (y - cy) ** 2 == s
    )


def test_dist2_examples():
    assert dist2((0, 0), (3, 4)) == 25
    assert dist2((7, 7), (7, 7)) == 0
    assert dist2((-2, 1), (1, -3)) == 25


@given(points, points)
def test_dist2_symmetric_and_zero_iff_equal(a, b):
    assert dist2(a, b) == dist2(b, a)
    assert (dist2(a, b) == 0) == (a == b)
    if a != b:
        assert dist2(a, b) >= 1


def test_lattice_circle_examples():
    assert lattice_circle((0, 0), 0) == [(0, 0)]
    assert lattice_circle((0, 0), 3) == []
    pts = lattice_circle((0, 0), 25)
    assert len(pts) == 12
    assert set(pts) == {
        (5, 0), (-5, 0), (0, 5), (0, -5),
        (3, 4), (3, -4), (-3, 4), (-3, -4),
        (4, 3), (4, -3), (-4, 3), (-4, -3),
    }


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=2500), points)
def test_lattice_circle_matches_brute_force(s, center):
    got = lattice_circle(center, s)
    assert got == brute_circle(center, s)


@given(st.integers(min_value=0, max_value=2500), points, points)
def test_lattice_circle_size_translation_invariant(s, c1, c2):
    assert len(lattice_circle(c1, s)) == len(lattice_circle(c2, s))
    assert len(circle_offsets(s)) == len(lattice_circle(c1, s))


@given(st.integers(min_value=0, max_value=5000))
def test_lattice_circle_strictly_increasing(s):
    pts = lattice_circle((0, 0), s)
    assert all(pts[i] < pts[i + 1] for i in range(len(pts) - 1))
    for p in pts:
        assert dist2(p, (0, 0)) == s


def test_lattice_circle_large_radii_against_vectorized_scan():
    # Up to s = 10**6, compare against a numpy scan of the bounding box.
    rng = random.Random(20240601)
    for _ in range(15):
        s = rng.randint(0, 10**6)
        r = int(s**0.5) + 2
        xs = np.arange(-r, r + 1, dtype=np.int64)
        square_sums = xs[:, None] ** 2 + xs[None, :] ** 2
        ix, iy = np.nonzero(square_sums == s)
        expected = sorted(zip((ix - r).tolist(), (iy - r).tolist()))
        assert [tuple(p) for p in lattice_circle((0, 0), s)] == expected


def test_lattice_circle_rejects_negative():
    with pytest.raises(ValueError):
        lattice_circle((0, 0), -1)


def test_collinear_examples():
    assert collinear([(0, 0), (1, 1), (2, 2)])
    assert not collinear([(0, 0), (1, 0), (0, 1)])
    assert collinear([(0, 0), (4, 0)])
    assert collinear([(3, 3)])
    assert collinear([(1, 2), (1, 2), (1, 2)])
    assert not collinear([(0, 0), (0, 0), (1, 0), (0, 1)])
    with pytest.raises(ValueError):
        collinear([])


@given(st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=6), coords, coords, coords, coords)
def test_collinear_points_on_a_line(ts, px, py, dx, dy):
    pts = [(px + t * dx, py + t * dy) for t in ts]
    assert collinear(pts)


def test_check_point_range():
    assert check_point((COORD_LIMIT, -COORD_LIMIT)) == (COORD_LIMIT, -COORD_LIMIT)
    with pytest.raises(ValueError):
        check_point((COORD_LIMIT + 1, 0))
    with pytest.raises(TypeError):
        check_point((1.5, 0))
    with pytest.raises(TypeError):
        check_point((True, 0))


def brute_pairs(pts, r2):
    """Independent reference: every pair, ascending (i, j)."""
    return [(i, j, dist2(p, q)) for i, p in enumerate(pts) for j, q in enumerate(pts) if i < j and dist2(p, q) <= r2]


@st.composite
def point_sets(draw):
    """Up to 70 points in a box of random half-width: 0 makes them all coincide."""
    w = draw(st.integers(min_value=0, max_value=40))
    c = st.integers(min_value=-w, max_value=w)
    return draw(st.lists(st.tuples(c, c), max_size=70))


@settings(max_examples=300)
@given(point_sets(), st.integers(min_value=0, max_value=300))
def test_pairs_within_matches_all_pairs(pts, r2):
    got = list(pairs_within(pts, r2))
    assert got == brute_pairs(pts, r2)
    assert all(a[:2] < b[:2] for a, b in zip(got, got[1:]))


@pytest.mark.parametrize("r2", [0, 1, 2, 25, 50, 65])
def test_pairs_within_exact_radius_across_cell_boundaries(r2):
    """A pair at exactly r2 is found for every lattice offset, from a point in the corner of its cell."""
    side = cell_rule(r2)[0]
    pts, pairs = [], []
    for k, (dx, dy) in enumerate(circle_offsets(r2)):
        base = (side * (10 * k - 40) - 1, -side * 10 * k - 1)  # the last lattice point of its cell
        pairs.append((len(pts), len(pts) + 1, r2))
        pts += [base, (base[0] + dx, base[1] + dy)]
    pts += [(10**6 + 100 * k, 10**6) for k in range(24)]  # far apart: enough points to bucket
    got = list(pairs_within(pts, r2))
    assert got == brute_pairs(pts, r2)
    assert set(pairs) <= set(got)
    ends = pts[: 2 * len(pairs)]
    crossings = sum((p[0] // side, p[1] // side) != (q[0] // side, q[1] // side) for p, q in zip(ends[::2], ends[1::2]))
    assert crossings > 0 or r2 == 0


def test_pairs_within_is_lazy():
    assert next(pairs_within([(5, -5)] * 20_000, 4)) == (0, 1, 0)
    with pytest.raises(ValueError):
        next(pairs_within([(0, 0), (1, 1)], -1))

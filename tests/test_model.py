import random

import pytest

from udgl.geometry import collinear, dist2
from udgl.model import (
    Edge,
    GenerationError,
    Instance,
    ParseError,
    Problem,
    generate_instance,
    parse_file,
    strip_instance,
    write_file,
)


def test_generate_paper_scale_instance():
    inst = generate_instance(100, 625, 100, 4, seed=42)
    assert inst.n_nodes == 100
    assert inst.n_anchors == 4
    # edge completeness against a direct pair scan
    expected = {
        (i, j, dist2(inst.positions[i], inst.positions[j]))
        for i in range(100)
        for j in range(i + 1, 100)
        if dist2(inst.positions[i], inst.positions[j]) <= 625
    }
    assert {tuple(e) for e in inst.edges} == expected
    assert not collinear([inst.positions[i] for i in inst.anchor_ids])
    assert len(set(inst.positions)) == 100
    for p in inst.positions:
        assert 0 <= p.x < 100 and 0 <= p.y < 100


def test_generate_is_deterministic():
    a = generate_instance(40, 100, 30, 5, seed=7)
    b = generate_instance(40, 100, 30, 5, seed=7)
    assert a == b
    assert write_file(a) == write_file(b)
    c = generate_instance(40, 100, 30, 5, seed=8)
    assert c != a


def test_generated_instances_pass_every_instance_check():
    """The generator builds its result from edges it derived itself; full validation agrees."""
    rng = random.Random(6)
    for grid, r2, n, m in ((10, 8, 5, 3), (12, 40, 7, 4), (20, 40, 10, 3), (40, 100, 30, 5), (100, 625, 100, 10)):
        for _ in range(8):
            try:
                inst = generate_instance(grid, r2, n, m, seed=rng.randint(0, 10**6), max_attempts=40)
            except GenerationError:
                continue
            assert Instance(grid, r2, inst.positions, inst.anchor_flags) == inst


def test_generate_complete_graph_when_radius_covers_grid():
    inst = generate_instance(10, 200, 4, 3, seed=1)
    assert len(inst.edges) == 6  # complete graph on 4 nodes


def test_generate_fails_on_hopeless_parameters():
    # 20 unit-radius nodes on a 10x10 grid essentially never connect
    with pytest.raises(GenerationError):
        generate_instance(10, 1, 20, 3, seed=3, max_attempts=200)


def test_generate_rejects_bad_arguments():
    with pytest.raises(ValueError):
        generate_instance(10, 25, 3, 3, seed=0)  # n_nodes < 4
    with pytest.raises(ValueError):
        generate_instance(10, 25, 10, 2, seed=0)  # too few anchors
    with pytest.raises(ValueError):
        generate_instance(10, 25, 10, 10, seed=0)  # anchors == nodes
    with pytest.raises(ValueError):
        generate_instance(3, 25, 10, 3, seed=0)  # grid too small
    with pytest.raises(ValueError):
        generate_instance(10, 0, 10, 3, seed=0)  # radius_sq < 1


def test_instance_validation():
    pts = [(0, 0), (1, 0), (0, 1), (2, 2)]
    flags = (True, True, True, False)
    inst = Instance(5, 8, tuple(pts), flags)
    assert inst.edges  # derived
    with pytest.raises(ValueError):
        Instance(5, 8, ((0, 0), (1, 0), (0, 1), (0, 0)), flags)  # duplicate position
    with pytest.raises(ValueError):
        Instance(5, 8, ((0, 0), (1, 0), (0, 1), (9, 9)), flags)  # outside grid
    with pytest.raises(ValueError):
        Instance(5, 8, ((0, 0), (1, 0), (2, 0), (2, 2)), flags)  # collinear anchors
    with pytest.raises(ValueError):
        Instance(5, 1, tuple(pts), flags)  # disconnected at radius 1
    with pytest.raises(ValueError):
        Instance(5, 8, tuple(pts), (True, True, False, False))  # M < 3


def test_strip_instance():
    inst = generate_instance(20, 50, 10, 4, seed=11)
    prob = strip_instance(inst)
    assert prob.grid_side is None
    assert len(prob.anchors) == 4
    assert prob.edges == inst.edges
    assert prob.n_nodes == 10
    for i, p in prob.anchors.items():
        assert inst.anchor_flags[i] and inst.positions[i] == p
    kept = strip_instance(inst, keep_bounds=True)
    assert kept.grid_side == 20


def test_problem_validation():
    anchors = {0: (0, 0), 1: (3, 0), 2: (0, 3)}
    Problem(n_nodes=4, radius_sq=9, anchors=anchors, edges=(Edge(0, 1, 9), Edge(0, 3, 4)))
    with pytest.raises(ValueError):
        Problem(n_nodes=4, radius_sq=9, anchors=anchors, edges=(Edge(0, 1, 5),))  # wrong anchor d2
    with pytest.raises(ValueError):
        Problem(n_nodes=4, radius_sq=9, anchors=anchors, edges=(Edge(0, 3, 10),))  # d2 > r2
    with pytest.raises(ValueError):
        Problem(n_nodes=4, radius_sq=9, anchors=anchors, edges=(Edge(3, 0, 4),))  # i >= j
    with pytest.raises(ValueError):
        Problem(n_nodes=4, radius_sq=9, anchors=anchors, edges=(Edge(0, 3, 4), Edge(0, 3, 4)))
    with pytest.raises(ValueError):
        Problem(n_nodes=4, radius_sq=9, anchors={0: (0, 0), 1: (1, 0), 2: (2, 0)}, edges=())  # collinear
    with pytest.raises(ValueError):
        Problem(n_nodes=2, radius_sq=9, anchors=anchors, edges=())  # M > N
    # zero-unknown problems are allowed as degenerate solver inputs
    Problem(n_nodes=3, radius_sq=9, anchors=anchors, edges=(Edge(0, 1, 9),))


def test_problem_adjacency():
    prob = Problem(
        n_nodes=4,
        radius_sq=9,
        anchors={0: (0, 0), 1: (3, 0), 2: (0, 3)},
        edges=(Edge(0, 1, 9), Edge(1, 3, 2), Edge(0, 3, 4)),
    )
    assert prob.adjacency[3] == {0: 4, 1: 2}
    assert prob.adjacency[0] == {1: 9, 3: 4}
    assert prob.adjacency[2] == {}
    assert prob.unknown_ids == (3,)


def test_problem_adjacency_keys_ascending_whatever_the_edge_order():
    inst = generate_instance(30, 60, 60, 4, seed=12)
    edges = list(inst.edges)
    random.Random(3).shuffle(edges)
    prob = Problem(inst.n_nodes, inst.radius_sq, strip_instance(inst).anchors, tuple(edges))
    want = {i: {} for i in range(inst.n_nodes)}
    for i, j, d2 in inst.edges:
        want[i][j] = want[j][i] = d2
    assert prob.adjacency == want
    for u, nbrs in prob.adjacency.items():
        assert list(nbrs) == sorted(want[u])


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------


def test_round_trip_instance_and_problem():
    inst = generate_instance(15, 40, 8, 3, seed=5)
    for obj in (inst, strip_instance(inst), strip_instance(inst, keep_bounds=True)):
        data = write_file(obj)
        back = parse_file(data)
        assert back == obj
        assert write_file(back) == data


def test_round_trip_many_random_instances():
    rng = random.Random(99)
    done = 0
    while done < 100:
        grid = rng.choice([8, 12, 20])
        r2 = rng.choice([10, 25, 60])
        n = rng.randint(4, 12)
        m = rng.randint(3, n - 1)
        try:
            inst = generate_instance(grid, r2, n, m, seed=rng.randint(0, 10**6), max_attempts=40)
        except GenerationError:
            continue
        done += 1
        assert parse_file(write_file(inst)) == inst
        prob = strip_instance(inst, keep_bounds=rng.random() < 0.5)
        assert parse_file(write_file(prob)) == prob


def test_write_format_shape():
    inst = generate_instance(10, 30, 5, 3, seed=2)
    text = write_file(inst).decode()
    lines = text.splitlines()
    assert lines[0] == "udgl 1"
    assert lines[1] == "grid 10"
    assert lines[2] == "radius_sq 30"
    assert lines[3] == "nodes 5"
    assert text.endswith("\n") and not text.endswith("\n\n")
    assert all(line == line.rstrip() for line in lines)


def test_parse_accepts_comments_and_blanks():
    inst = generate_instance(10, 30, 5, 3, seed=2)
    noisy = b"# header comment\n" + write_file(inst).replace(b"nodes 5\n", b"\n# hi\nnodes 5\n")
    assert parse_file(noisy) == inst


def parse_error_line(data: str) -> int | None:
    with pytest.raises(ParseError) as info:
        parse_file(data)
    return info.value.line


def test_parse_errors_carry_line_numbers():
    assert parse_error_line("nope 1\n") == 1
    base = (
        "udgl 1\n"
        "grid 10\n"
        "radius_sq 9\n"
        "nodes 4\n"
        "node 0 anchor 0 0\n"
        "node 1 anchor 3 0\n"
        "node 2 anchor 0 3\n"
        "node 3 unknown 3 3\n"
        "edges 4\n"
        "edge 0 1 9\n"
        "edge 0 2 9\n"
        "edge 1 3 9\n"
        "edge 2 3 9\n"
    )
    assert parse_file(base).n_nodes == 4
    # d2 exceeding radius_sq
    assert parse_error_line(base.replace("radius_sq 9", "radius_sq 8")) == 10
    # d2 inconsistent with the two positions
    assert parse_error_line(base.replace("edge 0 1 9", "edge 0 1 8")) == 10
    # duplicate coordinates
    assert parse_error_line(base.replace("node 1 anchor 3 0", "node 1 anchor 0 0")) == 6
    # duplicate node id
    assert parse_error_line(base.replace("node 1 anchor 3 0", "node 0 anchor 3 0")) == 6
    # non-canonical edge
    assert parse_error_line(base.replace("edge 0 1 9", "edge 1 0 9")) == 10
    # bad integer
    assert parse_error_line(base.replace("nodes 4", "nodes four")) == 4
    # truncated file
    with pytest.raises(ParseError):
        parse_file(base.rsplit("edge", 1)[0])


@pytest.mark.parametrize(
    "old, new, line",
    [
        ("grid 10", "grid 1_0", 2),
        ("radius_sq 9", "radius_sq \u0669", 3),  # Arabic-Indic nine
        ("nodes 4", "nodes \uff14", 4),  # fullwidth four
        ("node 1 anchor 3 0", "node 1 anchor +3 0", 6),
        ("node 3 unknown 3 3", "node 3 unknown 3 0_3", 8),
        ("edges 4", "edges +4", 9),
        ("edge 0 1 9", "edge 0 1 +9", 10),
        ("edge 1 3 9", "edge 1 \u0663 9", 12),  # Arabic-Indic three
    ],
)
def test_parse_rejects_non_canonical_integers(old, new, line):
    base = (
        "udgl 1\ngrid 10\nradius_sq 9\nnodes 4\n"
        "node 0 anchor 0 0\nnode 1 anchor 3 0\nnode 2 anchor 0 3\nnode 3 unknown 3 3\n"
        "edges 4\nedge 0 1 9\nedge 0 2 9\nedge 1 3 9\nedge 2 3 9\n"
    )
    assert parse_file(base).n_nodes == 4
    assert old in base
    assert parse_error_line(base.replace(old, new)) == line


def test_canonical_files_round_trip_byte_for_byte():
    rng = random.Random(4)
    done = 0
    while done < 20:
        try:
            inst = generate_instance(40, 60, rng.randint(4, 60), 4, seed=rng.randint(0, 10**6), max_attempts=40)
        except GenerationError:
            continue
        done += 1
        shifted = strip_instance(inst)
        shifted = Problem(  # negative anchor coordinates exercise the minus sign
            n_nodes=shifted.n_nodes,
            radius_sq=shifted.radius_sq,
            anchors={i: (x - 50, y - 50) for i, (x, y) in shifted.anchors.items()},
            edges=shifted.edges,
        )
        for obj in (inst, strip_instance(inst, keep_bounds=True), shifted):
            data = write_file(obj)
            assert write_file(parse_file(data)) == data


def test_parse_rejects_structural_problems():
    # instance missing an edge that the geometry implies
    bad = (
        "udgl 1\n"
        "grid 10\n"
        "radius_sq 625\n"
        "nodes 4\n"
        "node 0 anchor 0 0\n"
        "node 1 anchor 3 0\n"
        "node 2 anchor 0 3\n"
        "node 3 unknown 5 5\n"
        "edges 1\n"
        "edge 0 1 9\n"
    )
    with pytest.raises(ParseError, match="edge list does not match"):
        parse_file(bad)
    # mixing located and unlocated unknowns
    mixed = (
        "udgl 1\n"
        "radius_sq 9\n"
        "nodes 5\n"
        "node 0 anchor 0 0\n"
        "node 1 anchor 3 0\n"
        "node 2 anchor 0 3\n"
        "node 3 unknown 1 1\n"
        "node 4 unknown\n"
        "edges 0\n"
    )
    with pytest.raises(ParseError, match="mix"):
        parse_file(mixed)
    # ground truth without a grid line
    with pytest.raises(ParseError, match="grid"):
        parse_file(
            "udgl 1\n"
            "radius_sq 9\n"
            "nodes 4\n"
            "node 0 anchor 0 0\n"
            "node 1 anchor 3 0\n"
            "node 2 anchor 0 3\n"
            "node 3 unknown 1 1\n"
            "edges 0\n"
        )


def test_parse_returns_problem_for_bare_unknowns():
    text = (
        "udgl 1\n"
        "radius_sq 9\n"
        "nodes 4\n"
        "node 0 anchor 0 0\n"
        "node 1 anchor 3 0\n"
        "node 2 anchor 0 3\n"
        "node 3 unknown\n"
        "edges 2\n"
        "edge 0 1 9\n"
        "edge 0 3 4\n"
    )
    prob = parse_file(text)
    assert isinstance(prob, Problem)
    assert prob.grid_side is None
    assert prob.anchors == {0: (0, 0), 1: (3, 0), 2: (0, 3)}
    assert write_file(prob).decode() == text

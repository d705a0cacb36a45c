import contextlib
import io
import random
import tempfile
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from udgl.bench import parse_sweep_spec
from udgl.cli import main
from udgl.geometry import COORD_LIMIT, collinear, dist2, pairs_within
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
from udgl.solver import SolverConfig, format_solution_set, parse_solutions, solve


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
    for grid in (-20, 0, COORD_LIMIT + 2):  # the grid rule Instance enforces, and coordinates parse_file accepts
        with pytest.raises(ValueError, match="grid_side must be"):
            generate_instance(grid, 25, 10, 3, seed=0)
    with pytest.raises(TypeError, match="n_nodes must be an integer, got 10.5"):
        generate_instance(20, 50, 10.5, 3, seed=1)
    with pytest.raises(TypeError, match="n_anchors must be an integer, got 3.5"):
        generate_instance(20, 50, 10, 3.5, seed=1)


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
    with pytest.raises(ValueError, match="anchor_flags length does not match positions"):
        Instance(5, 8, tuple(pts), flags[:3])


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
    for dup in ((Edge(0, 3, 4), Edge(0, 3, 4)), (Edge(0, 3, 5), Edge(0, 1, 9), Edge(0, 3, 4))):
        with pytest.raises(ValueError, match=r"^duplicate edge \(0, 3\)$"):
            Problem(n_nodes=4, radius_sq=9, anchors=anchors, edges=dup)
    with pytest.raises(ValueError):
        Problem(n_nodes=4, radius_sq=9, anchors={0: (0, 0), 1: (1, 0), 2: (2, 0)}, edges=())  # collinear
    with pytest.raises(ValueError):
        Problem(n_nodes=2, radius_sq=9, anchors=anchors, edges=())  # M > N
    # zero-unknown problems are allowed as degenerate solver inputs
    Problem(n_nodes=3, radius_sq=9, anchors=anchors, edges=(Edge(0, 1, 9),))


_ANCHORS3 = {0: (0, 0), 1: (3, 0), 2: (0, 3)}


@pytest.mark.parametrize(
    "field, value",
    [
        ("radius_sq", 9.5),
        ("radius_sq", True),
        ("n_nodes", 4.0),
        ("grid_side", 10.0),
        ("edges", ((1, 3, 9.0),)),
        ("edges", ((True, 3, 9),)),
        ("anchors", {0: (0, 0), 1: (3, 0), 2.0: (0, 3)}),
    ],
)
def test_problem_rejects_non_integer_fields(field, value):
    fields = dict(n_nodes=4, radius_sq=9, anchors=_ANCHORS3, edges=((0, 3, 4),), grid_side=10)
    Problem(**fields)
    with pytest.raises(TypeError, match="must be an integer"):
        Problem(**{**fields, field: value})


@pytest.mark.parametrize("field, value", [("grid_side", 10.0), ("radius_sq", 8.0), ("radius_sq", True)])
def test_instance_rejects_non_integer_fields(field, value):
    fields = dict(grid_side=5, radius_sq=8, positions=((0, 0), (1, 0), (0, 1), (2, 2)), anchor_flags=(1, 1, 1, 0))
    Instance(**fields)
    with pytest.raises(TypeError, match="must be an integer"):
        Instance(**{**fields, field: value})


def test_strip_instance_equals_validated_problem():
    """strip_instance skips Problem's checks; a fully validated Problem from the same fields agrees."""
    rng = random.Random(13)
    done = 0
    while done < 200:
        grid = rng.choice([8, 12, 20, 40])
        n = rng.randint(4, 30)
        try:
            inst = generate_instance(
                grid, rng.choice([5, 10, 25, 60, 200]), n, rng.randint(3, n - 1), seed=rng.randint(0, 10**6), max_attempts=40
            )
        except GenerationError:
            continue
        done += 1
        for keep_bounds in (False, True):
            prob = strip_instance(inst, keep_bounds)
            anchors = {i: inst.positions[i] for i in inst.anchor_ids}
            want = Problem(inst.n_nodes, inst.radius_sq, anchors, inst.edges, inst.grid_side if keep_bounds else None)
            assert prob == want
            assert list(prob.anchors) == list(want.anchors)
            assert all(type(e) is Edge for e in prob.edges)
            assert prob.adjacency == want.adjacency


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
    widest = generate_instance(COORD_LIMIT + 1, 2 * COORD_LIMIT**2, 4, 3, seed=0)  # its coordinates still parse
    for inst in (generate_instance(15, 40, 8, 3, seed=5), widest):
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


@pytest.mark.parametrize("grid_side", [None, 10])
def test_zero_unknown_problem_round_trips(grid_side):
    """A file of anchors only is a Problem: M = N is a legal Problem and reads back as one."""
    prob = Problem(3, 9, _ANCHORS3, (Edge(0, 1, 9), Edge(0, 2, 9)), grid_side)
    data = write_file(prob)
    assert parse_file(data) == prob
    assert write_file(parse_file(data)) == data


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
    # node id out of range
    assert parse_error_line(base.replace("node 3 unknown", "node 4 unknown")) == 8
    # anchor without coordinates
    assert parse_error_line(base.replace("node 2 anchor 0 3", "node 2 anchor")) == 7
    # a node kind other than anchor or unknown
    with pytest.raises(ParseError, match="^line 6: node kind must be 'anchor' or 'unknown', got 'sensor'$"):
        parse_file(base.replace("node 1 anchor 3 0", "node 1 sensor 3 0"))
    # negative edge count
    assert parse_error_line(base.replace("edges 4", "edges -1")) == 9
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


GT_BASE = (
    "udgl 1\ngrid 10\nradius_sq 9\nnodes 4\n"
    "node 0 anchor 0 0\nnode 1 anchor 3 0\nnode 2 anchor 0 3\nnode 3 unknown 3 3\n"
    "edges 4\nedge 0 1 9\nedge 0 2 9\nedge 1 3 9\nedge 2 3 9\n"
)


@pytest.mark.parametrize("problem", [False, True])
def test_parse_rejects_out_of_order_edges_at_their_line(problem):
    text = GT_BASE.replace("node 3 unknown 3 3", "node 3 unknown") if problem else GT_BASE
    assert parse_file(text).n_nodes == 4
    swapped = text.replace("edge 0 2 9\nedge 1 3 9", "edge 1 3 9\nedge 0 2 9")
    with pytest.raises(ParseError, match=r"edge \(0, 2\) out of order") as info:
        parse_file(swapped)
    assert info.value.line == 12
    # a later edge smaller in j than its predecessor with the same i
    with pytest.raises(ParseError, match="out of order") as info:
        parse_file(text.replace("edge 0 1 9\nedge 0 2 9", "edge 0 2 9\nedge 0 1 9"))
    assert info.value.line == 11


@pytest.mark.parametrize("problem", [False, True])
def test_parse_rejects_duplicate_edge_line_at_its_line(problem):
    text = GT_BASE.replace("node 3 unknown 3 3", "node 3 unknown") if problem else GT_BASE
    dup = text.replace("edges 4\n", "edges 5\n").replace("edge 0 2 9\n", "edge 0 2 9\nedge 0 2 9\n")
    with pytest.raises(ParseError, match=r"duplicate edge \(0, 2\)$") as info:
        parse_file(dup)
    assert info.value.line == 12


@pytest.mark.parametrize("ws", ["\t", "\u3000", "\xa0", "\x1f", "  \t "])
def test_parse_accepts_any_in_line_whitespace_between_edge_tokens(ws):
    text = GT_BASE.replace("edge 0 2 9", f"{ws}edge{ws}0{ws}2{ws}9{ws}")
    assert parse_file(text) == parse_file(GT_BASE)


def test_parse_rejects_edge_integers_too_long_for_int():
    # They match the edge-line pattern, but int() refuses more than sys.get_int_max_str_digits() digits.
    too_long = "9" * 5000
    with pytest.raises(ParseError, match="invalid squared edge length") as info:
        parse_file(GT_BASE.replace("edge 0 2 9", f"edge 0 2 {too_long}"))
    assert info.value.line == 11
    with pytest.raises(ParseError, match="invalid edge endpoint") as info:
        parse_file(GT_BASE.replace("edge 0 2 9", f"edge 0 {too_long} 9"))
    assert info.value.line == 11


def test_parse_treats_form_feed_as_a_line_break_in_edge_lines():
    # str.splitlines() breaks lines at a form feed, so it never separates tokens.
    with pytest.raises(ParseError, match=r"'edge' line has 2 fields") as info:
        parse_file(GT_BASE.replace("edge 0 2 9", "edge 0 2\x0c9"))
    assert info.value.line == 11


def test_parse_names_smallest_missing_edge():
    two = GT_BASE.replace("edges 4\nedge 0 1 9\nedge 0 2 9\n", "edges 2\n")
    with pytest.raises(ParseError, match=r"missing Edge\(i=0, j=1, d2=9\)$"):
        parse_file(two)
    prefix = GT_BASE.replace("edges 4", "edges 3").replace("edge 2 3 9\n", "")
    with pytest.raises(ParseError, match=r"missing Edge\(i=2, j=3, d2=9\)$"):
        parse_file(prefix)
    rng = random.Random(8)
    inst = generate_instance(30, 60, 60, 4, seed=3)
    for _ in range(30):
        kept = sorted(rng.sample(inst.edges, rng.randrange(len(inst.edges))))
        head, _ = write_file(inst).decode().split("edges ")
        body = "".join(f"edge {i} {j} {d2}\n" for i, j, d2 in kept)
        with pytest.raises(ParseError) as info:
            parse_file(f"{head}edges {len(kept)}\n{body}")
        assert str(info.value) == f"edge list does not match node geometry: missing {min(set(inst.edges) - set(kept))}"


def _respaced(text: str) -> str:
    """text with every edge row spaced unlike write_file (edge\\t0  2 9): the same file to the
    line grammar, but no row reads as write_file writes it."""
    return "".join(
        (line.replace("edge ", "edge\t", 1).replace(" ", "  ", 1) if line.startswith("edge ") else line) + "\n"
        for line in text.splitlines()
    )


def _edge_row_faults(inst: Instance, k: int) -> dict[str, str]:
    """The canonical file of inst with one fault at its k-th edge row, by name: each fault
    replaces some rows from there on (the last row has none to swap with)."""
    lines = write_file(inst).decode().splitlines()
    at = lines.index(f"edges {len(inst.edges)}") + 1 + k
    i, j, d2 = inst.edges[k]
    implied = {(e.i, e.j) for e in inst.edges}
    a, b = next((a, b) for a in range(i, inst.n_nodes) for b in range(a + 1, inst.n_nodes) if (a, b) not in implied)
    edits = {  # name: (rows replaced, new rows)
        "d2+1": (1, [f"edge {i} {j} {d2 + 1}"]),
        "d2-1": (1, [f"edge {i} {j} {d2 - 1}"]),
        "deleted": (1, []),
        "duplicated": (0, [lines[at]]),
        "not implied": (1, [f"edge {a} {b} {dist2(inst.positions[a], inst.positions[b])}"]),
        "comment": (0, ["# between two edge rows"]),
    }
    if k + 1 < len(inst.edges):
        edits["swapped"] = (2, [lines[at + 1], lines[at]])
    return {name: "\n".join(lines[:at] + new + lines[at + cut :]) + "\n" for name, (cut, new) in edits.items()}


def _outcome(text: str):
    try:
        return parse_file(text)
    except ParseError as exc:
        return str(exc), exc.line


@pytest.mark.parametrize(
    "size, rows, ends",
    [((30, 60, 60, 4), 12, True), ((12, 20, 8, 3), 4, True), ((1000, 2500, 3000, 30), 1, False)],
)
def test_matched_and_tokenized_edge_rows_agree(size, rows, ends):
    """A canonical file's edge rows are matched as written; respaced ones are tokenized and
    checked. Both read the same Instance, and with any one fault the same error at the same line."""
    rng = random.Random(size[2])
    inst = generate_instance(*size, seed=rng.randrange(10**6))
    canonical = write_file(inst).decode()
    assert parse_file(canonical) == parse_file(_respaced(canonical)) == inst
    ks = set(rng.sample(range(1, len(inst.edges) - 1), rows)) | ({0, len(inst.edges) - 1} if ends else set())
    kinds = set()
    for k in sorted(ks):
        for kind, text in _edge_row_faults(inst, k).items():
            want = _outcome(text)
            assert _outcome(_respaced(text)) == want, (k, kind)
            assert (want == inst) == (kind == "comment"), (k, kind, want)
            kinds.add(kind)
    assert len(kinds) == 7


def test_respaced_ground_truth_parses_in_linear_time():
    """Every respaced row takes the tokenizing path and resumes the walk of the implied edges
    where it stands, so the whole file costs about what a canonical one does (min of 5 each)."""
    canonical = write_file(generate_instance(1000, 2500, 3000, 30, seed=0)).decode()
    respaced = _respaced(canonical)
    best = {canonical: float("inf"), respaced: float("inf")}
    for _ in range(5):
        for text in best:
            start = time.perf_counter()
            parse_file(text)
            best[text] = min(best[text], time.perf_counter() - start)
    assert best[respaced] <= 3 * best[canonical]


@pytest.mark.parametrize(
    "data, line",
    [
        (b"\xff", 1),
        (b"udgl 1\ngrid 10\n\xfe\n", 3),
        (b"udgl 1\n# caf\xc3\xa9 \xc3\n", 2),  # a valid two-byte char, then a truncated one
        (b"udgl 1\r\n\r\nnodes \xed\xa0\x80\n", 3),  # an encoded surrogate
        (b"udgl 1\x0cgrid \x80", 2),  # splitlines() counts the form feed as a line break
    ],
)
def test_parse_reports_invalid_utf8_at_its_line(data, line):
    with pytest.raises(ParseError, match="invalid UTF-8") as info:
        parse_file(data)
    assert info.value.line == line


def test_parse_peak_memory_is_a_small_multiple_of_the_instance():
    """The parse keeps no per-line token lists or edge copies beside the Instance it builds."""
    data = write_file(generate_instance(1000, 2500, 3000, 30, seed=0))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        inst = parse_file(data)
        size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert isinstance(inst, Instance) and len(inst.edges) > 30_000
    assert peak - base <= 2.2 * (size - base)


def _dense_ground_truth(n: int, collinear_anchors: bool) -> bytes:
    """n nodes packed row by row into a 40-wide block, radius_sq 3200 (every pair adjacent), edges 0."""
    anchors = [(0, 0), (1, 0), (2, 0)] if collinear_anchors else [(0, 0), (1, 0), (0, 1)]
    rest = [(x, y) for y in range(100) for x in range(40) if (x, y) not in anchors][: n - 3]
    nodes = [f"node {i} anchor {x} {y}" for i, (x, y) in enumerate(anchors)]
    nodes += [f"node {i} unknown {x} {y}" for i, (x, y) in enumerate(rest, start=3)]
    return ("\n".join(["udgl 1", "grid 100", "radius_sq 3200", f"nodes {n}", *nodes, "edges 0"]) + "\n").encode()


@pytest.mark.parametrize(
    "collinear_anchors, message",
    [(False, r"missing Edge\(i=0, j=1, d2=1\)$"), (True, "anchor positions must not be collinear")],
)
def test_dense_ground_truth_parse_memory_grows_with_its_bytes(collinear_anchors, message):
    """A file that implies every pair as an edge but declares none is rejected without walking
    or keeping the implied edges: doubling its bytes at most 2.5x the parse's peak memory."""
    peaks = []
    for n in (600, 1200):
        data = _dense_ground_truth(n, collinear_anchors)
        tracemalloc.start()
        try:
            with pytest.raises(ParseError, match=message):
                parse_file(data)
            peaks.append((len(data), tracemalloc.get_traced_memory()[1]))
        finally:
            tracemalloc.stop()
    (small, small_peak), (large, large_peak) = peaks
    assert large >= 2 * small
    assert large_peak <= 2.5 * small_peak


_SOUP_WORDS = ["udgl", "grid", "radius_sq", "nodes", "node", "anchor", "unknown", "edges", "edge", "#", "1"]
_SOUP_INTS = st.one_of(
    st.integers(-3, 12).map(str),
    st.integers(-(10**20), 10**20).map(str),
    st.sampled_from(["+1", "1_0", "0_3", "-", "--1", "\u0663", "\uff14", "1.0", "0x10", "9" * 5000]),
)
_SOUP_TOKENS = st.one_of(st.sampled_from(_SOUP_WORDS), _SOUP_INTS)
_SOUP_SPACES = st.sampled_from([" ", " ", "  ", "\t", "\u3000", "\xa0"])
_SOUP_BREAKS = st.sampled_from(["\n", "\n", "\n", "\r\n", "\r", "\x0c", "\x85", "\u2028", "\n\n"])


@st.composite
def _token_soup(draw):
    lines = []
    for _ in range(draw(st.integers(0, 25))):
        lines.append(draw(_SOUP_SPACES).join(draw(st.lists(_SOUP_TOKENS, min_size=1, max_size=6))))
    header = draw(st.sampled_from(["", "udgl 1\n", "udgl 1\ngrid 10\nradius_sq 9\nnodes 4\n"]))
    return header + "".join(line + draw(_SOUP_BREAKS) for line in lines)


@st.composite
def _mutated_file(draw):
    """A valid file with a few tokens swapped for soup or a few lines dropped, duplicated or swapped."""
    lines = GT_BASE.splitlines()
    if draw(st.booleans()):
        lines = [line.replace(" 3 3", "") if line.startswith("node 3") else line for line in lines]
    for _ in range(draw(st.integers(1, 4))):
        k = draw(st.integers(0, len(lines) - 1))
        toks = lines[k].split()
        action = draw(st.sampled_from(["token", "token", "drop", "dup", "swap"]))
        if action == "token":
            toks[draw(st.integers(0, len(toks) - 1))] = draw(_SOUP_TOKENS)
            lines[k] = " ".join(toks)
        elif action == "drop":
            del lines[k]
        elif action == "dup":
            lines.insert(k, lines[k])
        else:
            m = draw(st.integers(0, len(lines) - 1))
            lines[k], lines[m] = lines[m], lines[k]
        if not lines:
            break
    return "\n".join(lines) + "\n"


def _parses_or_raises_parse_error(data):
    try:
        obj = parse_file(data)
    except ParseError:
        return
    assert parse_file(write_file(obj)) == obj


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.binary(max_size=300))
def test_arbitrary_bytes_raise_only_parse_error(data):
    _parses_or_raises_parse_error(data)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(_token_soup(), _mutated_file()), st.booleans())
def test_token_soup_raises_only_parse_error(text, as_bytes):
    _parses_or_raises_parse_error(text.encode("utf-8") if as_bytes else text)


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


# ---------------------------------------------------------------------------
# The line grammar shared by instance, problem, solution and sweep-spec files
# ---------------------------------------------------------------------------

_LONG = "9" * 5000  # more digits than int() converts by default


@pytest.mark.parametrize(
    "parse, text, line",
    [
        (parse_file, GT_BASE.replace("node 3 unknown 3 3", f"node 3 unknown 3 {_LONG}"), 8),
        (parse_file, GT_BASE.replace("edge 1 3 9", f"edge 1 3 {_LONG}"), 12),
        (parse_solutions, f"solutions 1\nsol 0\nnode 0 {_LONG} 2\n", 3),
        (parse_sweep_spec, f"grid_side 20\n\nn_nodes {_LONG}\n", 3),
        (parse_sweep_spec, f"grid_side 20\nn_nodes 10\nradius_sq_values 50,-{_LONG}\n", 3),
    ],
    ids=["node", "edge", "solution", "spec", "spec-list"],
)
def test_over_long_integers_are_parse_errors_at_their_line(parse, text, line):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert info.value.line == line
    message = str(info.value)
    assert message.endswith(" characters)")  # a 20-character prefix and the length
    assert "limit" not in message and len(message) < 100


_GRAMMAR_INST = generate_instance(20, 50, 10, 3, seed=1)
_GRAMMAR_TEXTS = {
    "truth": (parse_file, write_file(_GRAMMAR_INST).decode()),
    "problem": (parse_file, write_file(strip_instance(_GRAMMAR_INST, keep_bounds=True)).decode()),
    "solution": (
        parse_solutions,
        format_solution_set(solve(strip_instance(_GRAMMAR_INST), SolverConfig()), _GRAMMAR_INST.n_nodes).decode(),
    ),
    "spec": (
        parse_sweep_spec,
        "grid_side 20\nn_nodes 10\nradius_sq_values 40, 50\nanchor_counts 3\nrule_sets conventional\n"
        "orderings random\ntrials 2\nbase_seed 5\nbudget 900\nfind_all false\n",
    ),
}
_JUNK_LINES = st.sampled_from(["", " ", "\t", "\u3000", "\xa0", "\u3000\xa0\t", "#", "# note", "\u3000# udgl", "\t#sol 0"])


@st.composite
def _with_junk(draw, text):
    """text with blank, whitespace-only and comment lines inserted between (and around) its rows."""
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 6))):
        lines.insert(draw(st.integers(0, len(lines))), draw(_JUNK_LINES))
    return "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_blank_and_comment_lines_change_no_parse_and_no_routing(data):
    noisy = {}
    for name, (parse, text) in _GRAMMAR_TEXTS.items():
        noisy[name] = data.draw(_with_junk(text), label=name)
        assert parse(noisy[name]) == parse(text)
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, text in noisy.items():
            paths[name] = Path(tmp) / name
            paths[name].write_text(text, encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main(["verify", str(paths["truth"]), str(paths["truth"])]) == 0
            assert main(["verify", str(paths["truth"]), str(paths["solution"])]) == 0
            assert main(["verify", str(paths["truth"]), str(paths["problem"])]) == 2
        assert "carries no coordinates" in err.getvalue()  # routed to parse_file, not parse_solutions


# ---------------------------------------------------------------------------
# parse_file and the constructors state each invariant once, through the same rules
# ---------------------------------------------------------------------------

_FAULTS = [
    "none", "off_grid", "beyond_limit", "coincident", "two_anchors", "collinear", "disconnected",
    "missing_edge", "wrong_d2", "d2_over_r2", "non_canonical", "duplicate_edge",
]


def _break(fault, inst, rng):
    """inst's positions, anchor flags and edge list with one invariant broken by fault, or None
    when inst offers no way to break it. The edges are the pairs the positions imply, unless
    the fault is in the edge list itself."""
    pos, flags = list(inst.positions), list(inst.anchor_flags)
    n, grid, r2 = inst.n_nodes, inst.grid_side, inst.radius_sq
    k = rng.randrange(n)
    if fault == "off_grid":
        pos[k] = (grid, pos[k][1])
    elif fault == "beyond_limit":
        pos[k] = (COORD_LIMIT + 1, pos[k][1])
    elif fault == "coincident":
        pos[k] = pos[(k + 1) % n]
    elif fault == "two_anchors":
        flags = [i < 2 for i in range(n)]
    elif fault == "collinear":
        line = next(
            (t for t in ((a, b, c) for a in range(n) for b in range(a + 1, n) for c in range(b + 1, n))
             if collinear([pos[i] for i in t])),
            None,
        )
        if line is None:
            return None
        flags = [i in line for i in range(n)]
    elif fault == "disconnected":
        free = [(x, y) for x in range(grid) for y in range(grid) if all(dist2((x, y), p) > r2 for p in pos)]
        if not free:
            return None
        pos[k] = rng.choice(free)
    edges = list(pairs_within(pos, r2))
    if fault in ("missing_edge", "wrong_d2", "d2_over_r2", "non_canonical", "duplicate_edge"):
        e = rng.randrange(len(edges))
        i, j, d2 = edges[e]
        if fault == "missing_edge":
            del edges[e]
        elif fault == "duplicate_edge":
            edges.insert(e, edges[e])
        else:
            edges[e] = {"wrong_d2": (i, j, d2 + 1), "d2_over_r2": (i, j, r2 + 1), "non_canonical": (j, i, d2)}[fault]
    return pos, flags, edges


def _udgl_text(grid, r2, nodes, edges):
    """The udgl text of raw fields: nodes is a list of (kind, point or None) in id order."""
    head = ["udgl 1"] + ([f"grid {grid}"] if grid is not None else []) + [f"radius_sq {r2}", f"nodes {len(nodes)}"]
    rows = [f"node {i} {kind}" + (f" {p[0]} {p[1]}" if p is not None else "") for i, (kind, p) in enumerate(nodes)]
    rows += [f"edges {len(edges)}"] + [f"edge {i} {j} {d2}" for i, j, d2 in edges]
    return "\n".join(head + rows) + "\n"


def _built(build):
    try:
        return build()
    except ValueError:
        return None


def test_parse_agrees_with_the_constructors():
    """One fault at a time in generated instance and problem files: parse_file raises ParseError
    exactly when the constructor rejects the same fields (for a ground-truth file, also when its
    edge lines are not the edges its positions imply), and otherwise returns what it builds."""
    rng = random.Random(10)
    outcomes = {}
    done = 0
    while done < 40:
        grid, n = rng.choice([8, 12, 20]), rng.randint(5, 16)
        r2, m = rng.choice([10, 25, 60]), rng.randint(3, n - 1)
        try:
            inst = generate_instance(grid, r2, n, m, seed=rng.randint(0, 10**6), max_attempts=40)
        except GenerationError:
            continue
        done += 1
        for fault in _FAULTS:
            broken = _break(fault, inst, rng)
            if broken is None:
                continue
            pos, flags, edges = broken
            truth = _built(lambda: Instance(grid, r2, tuple(pos), tuple(flags)))
            if truth is not None and truth.edges != tuple(edges):
                truth = None
            truth_text = _udgl_text(grid, r2, [("anchor" if f else "unknown", p) for p, f in zip(pos, flags)], edges)
            bounds = grid if rng.random() < 0.5 else None
            anchors = {i: p for i, (p, f) in enumerate(zip(pos, flags)) if f}
            problem = _built(lambda: Problem(n, r2, anchors, tuple(edges), bounds))
            bare = [("anchor", p) if f else ("unknown", None) for p, f in zip(pos, flags)]
            problem_text = _udgl_text(bounds, r2, bare, edges)
            for built, text in ((truth, truth_text), (problem, problem_text)):
                outcomes[fault, built is None] = outcomes.get((fault, built is None), 0) + 1
                if built is None:
                    with pytest.raises(ParseError):
                        parse_file(text)
                else:
                    assert parse_file(text) == built
    assert outcomes[("none", False)] == 80
    for fault in _FAULTS[1:]:
        assert outcomes.get((fault, True), 0) >= 10, fault  # every fault is rejected somewhere

"""Network instances and solver-facing problems: generation, validation, text format.

An Instance is the ground truth (all node positions known); a Problem is what
the solver receives (non-anchor positions withheld). Both serialize to the
same line-based ``udgl 1`` text format. Values are immutable after
construction and safe to share across threads.

Each invariant (the sizes, a position, an edge, the anchor set, a connected network, a
generated grid) has one rule, which the constructors, the generator and parse_file all call.
parse_file checks the grid and anchor rules as soon as the node lines are read, and stops once
a ground-truth file leaves more implied edges undeclared than edge lines remain, so any file
costs time and memory in proportion to its bytes. text_rows and parse_int are the line grammar
of every udgl text: instance, problem, solution and sweep-spec files. A text is read and
written in chunks, never as a list of all its lines, and Problem.adjacency is CSR columns.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, chain, islice
from typing import Iterable, Iterator, NamedTuple

from .geometry import COORD_LIMIT, Point, check_int, check_point, collinear, dist2, pairs_within


class Edge(NamedTuple):
    """Undirected edge with exact squared length; canonical orientation i < j."""

    i: int
    j: int
    d2: int


class GenerationError(ValueError):
    """No valid instance was found within the resampling attempt budget."""


class ParseError(ValueError):
    """A udgl file could not be parsed, or any parsed text is not UTF-8; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


def decode_text(data: bytes | str) -> str:
    """data as text; invalid UTF-8 is a ParseError naming its line and byte."""
    if not isinstance(data, (bytes, bytearray)):
        return data
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        text = data[: exc.start].decode("utf-8")  # the bytes before the first bad one decode
        line = 1 + sum(map(text.count, "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029")) - text.count("\r\n")  # as splitlines
        raise ParseError(f"invalid UTF-8 byte 0x{data[exc.start]:02x}", line) from None


READ_CHUNK, WRITE_CHUNK = 1 << 16, 1 << 12  # characters per piece read, lines per piece written


def text_rows(data: bytes | str) -> Iterator[tuple[int, str]]:
    """(line number, stripped line) for each line that is neither blank nor a '#' comment:
    the line grammar of every udgl text (instance, problem, solution and sweep-spec files), read in
    pieces of at least READ_CHUNK characters that each end just after a "\n" (no list of all its
    lines is built, and the line numbers are those of str.splitlines on the whole text)."""
    text = decode_text(data)
    start = no = 0
    while start < len(text):
        cut = text.find("\n", start + READ_CHUNK)
        end = cut + 1 if cut >= 0 else len(text)
        for no, raw in enumerate(text[start:end].splitlines(), no + 1):
            if (s := raw.strip()) and s[0] != "#":
                yield no, s
        start = end


def encode_lines(lines: Iterator[str]) -> bytes:
    """The lines as UTF-8 text, each ended by "\n", encoded WRITE_CHUNK lines at a time."""
    chunks = iter(lambda: [*islice(lines, WRITE_CHUNK), ""], [""])  # "" ends the join with "\n"
    return b"".join("\n".join(chunk).encode("utf-8") for chunk in chunks)


def parse_int(token: str, line: int | None = None, what: str | None = None) -> int:
    """The value of an ASCII integer token -?[0-9]+. Anything else int() would take (underscores,
    a plus sign, non-ASCII digits) or cannot convert (too many digits) is a ParseError naming
    the field what and the line; it quotes at most 20 characters of the token."""
    if token.isascii() and token.removeprefix("-").isdigit():
        try:
            return int(token)
        except ValueError:  # beyond sys.get_int_max_str_digits()
            pass
    shown = repr(token) if len(token) <= 20 else f"{token[:20]!r}... ({len(token)} characters)"
    raise ParseError(f"invalid {what}: {shown}" if what else f"not an integer: {shown}", line)


# ---------------------------------------------------------------------------
# Core types
# ---------------------------------------------------------------------------


def _is_connected(n: int, edges: Iterable[tuple[int, int, int]]) -> bool:
    """Whether the edges join all n nodes: union-find with path halving, in one list of n ids."""
    root = list(range(n))
    for i, j, _ in edges:
        while root[i] != i:
            root[i] = i = root[root[i]]
        while root[j] != j:
            root[j] = j = root[root[j]]
        root[i] = j
    return sum(root[u] == u for u in range(n)) == 1


# One rule per Instance/Problem invariant; the constructors and parse_file both call them.


def _check_size(value, what: str) -> int:
    """The rule for a grid side, squared radius or node count: a positive integer."""
    if check_int(value, what) < 1:
        raise ValueError(f"{what} must be positive")
    return value


def check_grid(grid_side, n_nodes: int) -> None:
    """The rule for the grid side of a generated instance or a sweep: a positive integer, at
    most COORD_LIMIT + 1 so that parse_file accepts every coordinate, with n_nodes cells."""
    if _check_size(grid_side, "grid_side") > COORD_LIMIT + 1:
        raise ValueError(f"grid_side must be at most {COORD_LIMIT + 1}, got {grid_side}")
    if grid_side * grid_side < n_nodes:
        raise ValueError(f"grid {grid_side}x{grid_side} cannot hold {n_nodes} distinct nodes")


def _place(p, grid: int | None, seen: dict[Point, int], i: int) -> Point:
    """The position rule: p is a lattice point (check_point), inside [0, grid)^2 when there
    is a grid, and no node in seen (point -> id) sits there; p is recorded as node i's."""
    p = check_point(p)
    if grid is not None and not (0 <= p.x < grid and 0 <= p.y < grid):
        raise ValueError(f"position {tuple(p)} outside [0, {grid})^2")
    if p in seen:
        raise ValueError(f"position {tuple(p)} duplicates node {seen[p]}")
    seen[p] = i
    return p


def _check_edge(i: int, j: int, d2: int, n: int, radius_sq: int, placed: dict[int, Point], last: int) -> int:
    """The edge rule: 0 <= i < j < n, (i, j) after the edge before it (whose key is last),
    1 <= d2 <= radius_sq, and d2 is the exact squared length when both ends are placed.
    Strictly ascending (i, j) is ascending key i * n + j; returns this edge's key."""
    if not 0 <= i < j < n:
        raise ValueError(f"edge ({i}, {j}) is not canonical (need 0 <= i < j < N)")
    key = i * n + j
    if key <= last:
        if key == last:
            raise ValueError(f"duplicate edge ({i}, {j})")
        raise ValueError(f"edge ({i}, {j}) out of order: edges must be in ascending (i, j) order")
    if d2 < 1:
        raise ValueError(f"edge ({i}, {j}) has non-positive d2={d2}")
    if d2 > radius_sq:
        raise ValueError(f"edge ({i}, {j}) has d2={d2} exceeding radius_sq={radius_sq}")
    p = placed.get(i)
    q = placed.get(j)
    if p is not None and q is not None and dist2(p, q) != d2:
        raise ValueError(f"edge ({i}, {j}) d2={d2} inconsistent with positions (true d2={dist2(p, q)})")
    return key


def _check_anchors(points: list[Point], n: int, unknown_needed: bool) -> None:
    """The anchor rule: 3 <= M <= N anchors (M < N when an unknown is needed), not collinear."""
    if not 3 <= len(points) <= n - unknown_needed:
        bound = "<" if unknown_needed else "<="
        raise ValueError(f"anchor count must satisfy 3 <= M {bound} N, got M={len(points)}, N={n}")
    if collinear(points):
        raise ValueError("anchor positions must not be collinear")


def _check_connected(n: int, edges: Iterable[Edge]) -> None:
    """The rule of a whole Instance's edges: its derived edge graph is connected."""
    if not _is_connected(n, edges):
        raise ValueError("derived edge graph is not connected")


def _prechecked(cls, **fields):
    """An object of the frozen dataclass cls from fields that already meet every
    invariant its __post_init__ enforces; those checks are skipped."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


@dataclass(frozen=True)
class Instance:
    """Ground-truth network on a square grid; the edge set is always derived.

    Invariants enforced at construction: integer fields, positions distinct and
    inside the grid, 3 <= anchors < nodes, anchors not collinear, derived edge
    graph connected.
    """

    grid_side: int
    radius_sq: int
    positions: tuple[Point, ...]
    anchor_flags: tuple[bool, ...]
    edges: tuple[Edge, ...] = field(init=False)

    def __post_init__(self):
        _check_size(self.grid_side, "grid_side")
        _check_size(self.radius_sq, "radius_sq")
        seen: dict[Point, int] = {}
        positions = tuple(_place(p, self.grid_side, seen, i) for i, p in enumerate(self.positions))
        flags = tuple(bool(f) for f in self.anchor_flags)
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "anchor_flags", flags)
        if len(flags) != len(positions):
            raise ValueError("anchor_flags length does not match positions")
        _check_anchors([p for p, f in zip(positions, flags) if f], len(positions), True)
        object.__setattr__(self, "edges", tuple(Edge(*e) for e in pairs_within(positions, self.radius_sq)))
        _check_connected(len(positions), self.edges)

    @property
    def n_nodes(self) -> int:
        return len(self.positions)

    @property
    def n_anchors(self) -> int:
        return sum(self.anchor_flags)

    @property
    def anchor_ids(self) -> tuple[int, ...]:
        return tuple(i for i, f in enumerate(self.anchor_flags) if f)

    def assignment(self) -> dict[int, Point]:
        """Ground-truth assignment of every node id to its position."""
        return dict(enumerate(self.positions))


@dataclass(frozen=True)
class Problem:
    """Solver input: anchor positions, the edge list, and the node count.

    grid_side is present only when bounds were kept at strip time. Anchor
    count may equal n_nodes (degenerate zero-unknown problems are legal
    solver inputs even though the generator never produces them).
    """

    n_nodes: int
    radius_sq: int
    anchors: dict[int, Point]
    edges: tuple[Edge, ...]
    grid_side: int | None = None

    def __post_init__(self):
        _check_size(self.n_nodes, "n_nodes")
        _check_size(self.radius_sq, "radius_sq")
        if self.grid_side is not None:
            _check_size(self.grid_side, "grid_side")
        seen: dict[Point, int] = {}
        items = sorted(self.anchors.items())
        anchors = {check_int(i, "anchor id"): _place(p, self.grid_side, seen, i) for i, p in items}
        object.__setattr__(self, "anchors", anchors)
        for i in anchors:
            if not 0 <= i < self.n_nodes:
                raise ValueError(f"anchor id {i} out of range [0, {self.n_nodes})")
        _check_anchors(list(anchors.values()), self.n_nodes, False)
        edges = tuple(sorted(Edge(*e) for e in self.edges))
        object.__setattr__(self, "edges", edges)
        last = -1  # sorted, so a duplicate pair follows its first copy
        for i, j, d2 in edges:
            i, j, d2 = check_int(i, "edge endpoint"), check_int(j, "edge endpoint"), check_int(d2, "edge d2")
            last = _check_edge(i, j, d2, self.n_nodes, self.radius_sq, anchors, last)

    @cached_property
    def adjacency(self) -> tuple[list[int], list[int], list[int]]:
        """The edges as CSR columns (start, nbrs, d2s) of the edges' own ints: node u's neighbours
        are nbrs[start[u]:start[u + 1]], ids ascending, with their squared lengths at the same places
        of d2s. The edges are sorted by (i, j), so a row gets its lower neighbours before its upper."""
        deg = [0] * self.n_nodes
        for i, j, _ in self.edges:
            deg[i] += 1
            deg[j] += 1
        start = [0, *accumulate(deg)]
        fill = start[:-1]  # each row's next free place
        nbrs, d2s = [0] * start[-1], [0] * start[-1]
        for i, j, d2 in self.edges:
            k = fill[i]
            nbrs[k], d2s[k], fill[i] = j, d2, k + 1
            k = fill[j]
            nbrs[k], d2s[k], fill[j] = i, d2, k + 1
        return start, nbrs, d2s

    @property
    def unknown_ids(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.n_nodes) if i not in self.anchors)


# ---------------------------------------------------------------------------
# Random instance generation
# ---------------------------------------------------------------------------


def generate_instance(
    grid_side: int,
    radius_sq: int,
    n_nodes: int,
    n_anchors: int,
    seed: int,
    max_attempts: int = 1000,
) -> Instance:
    """Generate a connected random instance, deterministic for a fixed seed.

    Nodes are sampled uniformly without replacement over grid cells and the
    anchors uniformly among nodes; attempts failing connectivity or anchor
    non-collinearity are rejected and resampled. Raises GenerationError after
    max_attempts failures. The grid side meets check_grid. Sampled positions are
    distinct integer cells inside the grid, so the accepted attempt's edges are
    derived once, here.
    """
    if check_int(n_nodes, "n_nodes") < 4:
        raise ValueError(f"n_nodes must be >= 4, got {n_nodes}")
    if not 3 <= check_int(n_anchors, "n_anchors") < n_nodes:
        raise ValueError(f"need 3 <= n_anchors < n_nodes, got {n_anchors} of {n_nodes}")
    check_grid(grid_side, n_nodes)
    _check_size(radius_sq, "radius_sq")

    rng = random.Random(seed)
    n_cells = grid_side * grid_side
    for _ in range(max_attempts):
        cells = rng.sample(range(n_cells), n_nodes)
        positions = tuple(Point(c % grid_side, c // grid_side) for c in cells)
        anchor_set = set(rng.sample(range(n_nodes), n_anchors))
        if collinear([positions[i] for i in sorted(anchor_set)]):
            continue
        pairs = list(pairs_within(positions, radius_sq))
        if not _is_connected(n_nodes, pairs):
            continue
        flags = tuple(i in anchor_set for i in range(n_nodes))
        edges = tuple(Edge(*e) for e in pairs)
        return _prechecked(
            Instance, grid_side=grid_side, radius_sq=radius_sq, positions=positions, anchor_flags=flags, edges=edges
        )
    raise GenerationError(
        f"no connected instance with non-collinear anchors in {max_attempts} attempts "
        f"(grid={grid_side}, radius_sq={radius_sq}, nodes={n_nodes}, anchors={n_anchors})"
    )


def strip_instance(inst: Instance, keep_bounds: bool = False) -> Problem:
    """Project an Instance to the Problem the solver sees (unknown positions withheld).

    Every Problem invariant follows from the Instance's own (its anchors are distinct,
    in-grid, non-collinear points; its edges are sorted, canonical and exact), so the
    Problem is built without re-checking them."""
    anchors = {i: inst.positions[i] for i in inst.anchor_ids}
    return _prechecked(
        Problem,
        n_nodes=inst.n_nodes,
        radius_sq=inst.radius_sq,
        anchors=anchors,
        edges=inst.edges,
        grid_side=inst.grid_side if keep_bounds else None,
    )


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------
#
#   udgl 1
#   grid <C>               (omitted for a Problem saved without bounds)
#   radius_sq <r2>
#   nodes <N>
#   node <id> anchor <x> <y>
#   node <id> unknown <x> <y>      (ground-truth files)
#   node <id> unknown              (problem files; a file of anchors only is a Problem)
#   edges <E>
#   edge <i> <j> <d2>              (i < j, strictly ascending (i, j); enforced on parse)
#
# Comment lines starting with '#' are ignored on parse and never written.


def write_file(obj: Instance | Problem) -> bytes:
    """Serialize to canonical text: UTF-8, LF endings, byte-deterministic."""
    head = ["udgl 1", f"radius_sq {obj.radius_sq}", f"nodes {obj.n_nodes}"]
    if obj.grid_side is not None:  # always present in an Instance
        head.insert(1, f"grid {obj.grid_side}")
    if isinstance(obj, Instance):
        kinds = ("unknown", "anchor")
        nodes = (f"node {i} {kinds[f]} {x} {y}" for i, ((x, y), f) in enumerate(zip(obj.positions, obj.anchor_flags)))
    else:
        nodes = (f"node {i} unknown" if (p := obj.anchors.get(i)) is None else f"node {i} anchor {p.x} {p.y}"
                 for i in range(obj.n_nodes))
    edges = (f"edge {i} {j} {d2}" for i, j, d2 in obj.edges)
    return encode_lines(chain(head, nodes, [f"edges {len(obj.edges)}"], edges))


# One edge line with its three integers, as take("edge", 3) and parse_int accept it: in
# a str pattern \s matches exactly the characters str.split() splits on.
_EDGE_LINE = re.compile(r"edge\s+(-?[0-9]+)\s+(-?[0-9]+)\s+(-?[0-9]+)")


def parse_file(data: bytes | str) -> Instance | Problem:
    """Parse the udgl text format: an Instance when the unknown nodes carry coordinates,
    otherwise a Problem (so a file of anchors only is a zero-unknown Problem).

    Violations are rejected with the offending line number: invalid UTF-8, malformed
    rows, duplicate positions, non-canonical, duplicate or out-of-order edges, d2
    outside [1, radius_sq], and edge lengths inconsistent with two given positions.
    One pass checks each row once, by the constructors' own rules, and builds the result
    without running a constructor. A ground-truth file's edge lines are matched in step
    with the edges its positions imply, and only those are kept: a line written exactly as
    write_file writes the next implied edge is taken as it stands, any other is tokenized
    and checked.
    """
    rows = text_rows(data)
    ahead = next(rows, None)  # the next non-blank, non-comment row

    def take(keyword: str, n_args: int | tuple[int, ...]) -> tuple[int, list[str]]:
        nonlocal ahead
        if ahead is None:
            raise ParseError(f"unexpected end of file, expected '{keyword}' line")
        no, toks = ahead[0], ahead[1].split()
        ahead = next(rows, None)
        if toks[0] != keyword:
            raise ParseError(f"expected '{keyword}', got '{toks[0]}'", no)
        allowed = (n_args,) if isinstance(n_args, int) else n_args
        if len(toks) - 1 not in allowed:
            raise ParseError(f"'{keyword}' line has {len(toks) - 1} fields, expected {allowed}", no)
        return no, toks

    def edge_ints(no: int, toks: list[str]) -> tuple[int, int, int]:
        i = parse_int(toks[0], no, "edge endpoint")
        j = parse_int(toks[1], no, "edge endpoint")
        return i, j, parse_int(toks[2], no, "squared edge length")

    def checked(no: int | None, rule, *args):
        """rule(*args), with its ValueError reported as a ParseError at line no."""
        try:
            return rule(*args)
        except ValueError as exc:
            raise ParseError(str(exc), no) from None

    no, toks = take("udgl", 1)
    if toks[1] != "1":
        raise ParseError(f"unsupported format version {toks[1]!r}", no)

    grid: int | None = None
    if ahead is not None and ahead[1].split(None, 1)[0] == "grid":
        no, toks = take("grid", 1)
        grid = checked(no, _check_size, parse_int(toks[1], no, "grid side"), "grid side")

    no, toks = take("radius_sq", 1)
    radius_sq = checked(no, _check_size, parse_int(toks[1], no, "squared radius"), "radius_sq")

    no, toks = take("nodes", 1)
    n = checked(no, _check_size, parse_int(toks[1], no, "node count"), "node count")

    kinds: dict[int, str] = {}
    coords: dict[int, Point] = {}
    seen: dict[Point, int] = {}
    for _ in range(n):
        no, toks = take("node", (2, 4))
        node_id = parse_int(toks[1], no, "node id")
        if not 0 <= node_id < n:
            raise ParseError(f"node id {node_id} out of range [0, {n})", no)
        if node_id in kinds:
            raise ParseError(f"duplicate node id {node_id}", no)
        kind = toks[2]
        if kind not in ("anchor", "unknown"):
            raise ParseError(f"node kind must be 'anchor' or 'unknown', got {kind!r}", no)
        kinds[node_id] = kind
        if len(toks) == 5:
            xy = (parse_int(toks[3], no, "x coordinate"), parse_int(toks[4], no, "y coordinate"))
            coords[node_id] = checked(no, _place, xy, grid, seen, node_id)
        elif kind == "anchor":
            raise ParseError("anchor line requires coordinates", no)

    located_unknowns = [i for i in kinds if kinds[i] == "unknown" and i in coords]
    bare_unknowns = [i for i in kinds if kinds[i] == "unknown" and i not in coords]
    if located_unknowns and bare_unknowns:
        raise ParseError(
            f"unknown nodes mix located ({located_unknowns[0]}) and unlocated ({bare_unknowns[0]}) forms"
        )
    # Ground truth: every node is located, and its edges are the pairs within radius_sq.
    positions = tuple(coords[i] for i in range(n)) if located_unknowns else None
    if positions is not None and grid is None:
        raise ParseError("ground-truth file requires a 'grid' line")
    anchors = {i: coords[i] for i in sorted(coords) if kinds[i] == "anchor"}
    checked(None, _check_anchors, list(anchors.values()), n, positions is not None)
    derived = pairs_within(positions, radius_sq) if positions is not None else iter(())

    no, toks = take("edges", 1)
    n_edges = parse_int(toks[1], no, "edge count")
    if n_edges < 0:
        raise ParseError("edge count must be non-negative", no)

    edges: list[Edge] = []
    missing = None  # the first implied edge that no line declares; no edge is kept after it
    n_missing = 0

    def mismatch() -> ParseError:
        return ParseError(f"edge list does not match node geometry: missing {Edge(*missing)}")

    def skip(e: tuple[int, int, int], unread: int) -> None:
        """Count implied edge e as undeclared. Each unread line may still name one such edge,
        out of order at its line, so the parse stops once more are undeclared than lines remain."""
        nonlocal missing, n_missing
        missing = missing or e
        n_missing += 1
        if n_missing > unread:
            raise mismatch()

    last = -1
    # The first implied edge after last: every edge line before it was matched or skipped.
    peek = next(derived, None)
    for unread in range(n_edges - 1, -1, -1):
        if peek is not None and ahead is not None and ahead[1] == f"edge {peek[0]} {peek[1]} {peek[2]}":
            # Written as write_file writes the next implied edge, the line is that edge, so it
            # meets every edge rule: canonical, after last, 1 <= d2 <= radius_sq, exact.
            if missing is None:
                edges.append(Edge._make(peek))
            last = peek[0] * n + peek[1]
            ahead = next(rows, None)
            peek = next(derived, None)
            continue
        m = _EDGE_LINE.fullmatch(ahead[1]) if ahead is not None else None
        if m is not None:
            no = ahead[0]
            ahead = next(rows, None)
            try:
                i, j, d2 = int(m[1]), int(m[2]), int(m[3])
            except ValueError:  # more digits than int() converts; parse_int words the error
                i, j, d2 = edge_ints(no, m.groups())
        else:  # take and edge_ints word the error
            no, toks = take("edge", 3)
            i, j, d2 = edge_ints(no, toks[1:])
        last = checked(no, _check_edge, i, j, d2, n, radius_sq, coords, last)
        if positions is None:
            edges.append(Edge(i, j, d2))
            continue
        # A checked ground-truth edge is an implied edge after last, so peek reaches it:
        # the implied edges before it are missing.
        while peek[0] != i or peek[1] != j:
            skip(peek, unread)
            peek = next(derived, None)
        peek = next(derived, None)
        if missing is None:
            edges.append(Edge(i, j, d2))

    if ahead is not None:
        raise ParseError(f"unexpected trailing line '{ahead[1].split(None, 1)[0]}'", ahead[0])
    if peek is not None:
        skip(peek, 0)

    if positions is None:
        return _prechecked(Problem, n_nodes=n, radius_sq=radius_sq, anchors=anchors, edges=tuple(edges), grid_side=grid)
    if missing:
        raise mismatch()
    checked(None, _check_connected, n, edges)
    flags = tuple(kinds[i] == "anchor" for i in range(n))
    return _prechecked(
        Instance, grid_side=grid, radius_sq=radius_sq, positions=positions, anchor_flags=flags, edges=tuple(edges)
    )

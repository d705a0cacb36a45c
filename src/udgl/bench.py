"""Experiment harness: anchor-count and radius sweeps across rule sets and orderings.

A sweep cell is one (radius_sq, anchor count, rule set, ordering) combination.
Trial t of every cell reuses the instance generated with seed base_seed + t,
so rule sets and orderings are compared on identical inputs. Search outputs
are deterministic for a fixed spec; only the wall-clock column varies.
SweepSpec's field types are both the spec-file grammar and its checks, and one
column table gives the CSV header and every row.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import MISSING, dataclass, fields
from itertools import chain, product
from typing import Callable, TextIO, get_args, get_origin, get_type_hints

from .geometry import check_fields, field_rules
from .model import (GenerationError, Instance, ParseError, check_grid, encode_lines, generate_instance, parse_int,
                    strip_instance, text_rows)
from .solver import Ordering, RuleSet, SearchStats, SolutionSet, SolverConfig, solve

class SpecValueError(ValueError):
    """A SweepSpec value out of range; key names the field that holds it."""

    def __init__(self, key: str, message: str):
        self.key = key
        super().__init__(message)


@dataclass(frozen=True)
class SweepSpec:
    grid_side: int
    n_nodes: int
    radius_sq_values: tuple[int, ...]
    anchor_counts: tuple[int, ...]
    rule_sets: tuple[RuleSet, ...] = (RuleSet.UNIT_DISK, RuleSet.CONVENTIONAL)
    orderings: tuple[Ordering, ...] = (Ordering.MOST_CONNECTED, Ordering.RANDOM)
    trials: int = 20
    base_seed: int = 0
    budget: int = 10**8
    find_all: bool = True

    def __post_init__(self):
        check_fields(self, _SPEC_RULES)  # each field's type is its first rule
        try:
            check_grid(self.grid_side, self.n_nodes)
        except ValueError as exc:
            raise SpecValueError("grid_side", str(exc)) from None
        for key in ("trials", "budget"):
            if getattr(self, key) < 1:
                raise SpecValueError(key, f"{key} must be >= 1, got {getattr(self, key)}")
        for r2 in self.radius_sq_values:
            if r2 < 1:
                raise SpecValueError("radius_sq_values", f"radius_sq value {r2} must be >= 1")
        for m in self.anchor_counts:
            if not 3 <= m < self.n_nodes:
                raise SpecValueError("anchor_counts", f"anchor count {m} outside [3, {self.n_nodes})")


# Field name -> type: the keys of a spec file and the type rules of SweepSpec.__post_init__.
_SPEC_TYPES = get_type_hints(SweepSpec)
_SPEC_RULES = field_rules(_SPEC_TYPES)


@dataclass(frozen=True)
class CellResult:
    """Aggregates of one cell; censored (budget-exhausted) runs are excluded from means."""

    grid_side: int
    n_nodes: int
    n_anchors: int
    radius_sq: int
    rules: RuleSet
    ordering: Ordering
    trials: int
    mean_visits_per_unknown: float
    mean_checks_per_unknown: float
    unique_fraction: float
    censored_fraction: float
    wall_seconds: float
    generation_failures: int = 0


def run_sweep(
    spec: SweepSpec,
    on_result: Callable[[Instance, SolverConfig, int, SolutionSet], None] | None = None,
    log: TextIO | None = None,
) -> list[CellResult]:
    """Run every cell of the sweep; cell order follows the spec's field order.

    Trials whose instance generation fails are counted per cell and excluded;
    budget-exhausted trials are counted in censored_fraction and excluded from
    the traversal means so censoring never deflates them.

    on_result is called once per solved trial with (instance, config, trial, result).
    """
    if log is None:
        log = sys.stderr
    results: list[CellResult] = []
    for radius_sq, n_anchors in product(spec.radius_sq_values, spec.anchor_counts):
        n_unknowns = spec.n_nodes - n_anchors
        # Trial t's instance (None where generation failed), shared by this group's cells only.
        instances: list[Instance | None] = []
        for t in range(spec.trials):
            try:
                instances.append(generate_instance(
                    spec.grid_side, radius_sq, spec.n_nodes, n_anchors, seed=spec.base_seed + t,
                ))
            except GenerationError:
                instances.append(None)
        gen_failed = instances.count(None)
        for rules, ordering in product(spec.rule_sets, spec.orderings):
            wall = 0.0
            done: list[SearchStats] = []
            for t, inst in enumerate(instances):
                if inst is None:
                    continue
                problem = strip_instance(inst, keep_bounds=False)
                config = SolverConfig(rules=rules, ordering=ordering, seed=spec.base_seed + t,
                                      find_all=spec.find_all, budget=spec.budget)
                t0 = time.perf_counter()
                result = solve(problem, config)
                wall += time.perf_counter() - t0
                if on_result is not None:
                    on_result(inst, config, t, result)
                done.append(result.stats)
            finished = [s for s in done if not s.budget_exhausted]
            cell = CellResult(
                grid_side=spec.grid_side, n_nodes=spec.n_nodes, n_anchors=n_anchors, radius_sq=radius_sq,
                rules=rules, ordering=ordering, trials=spec.trials,
                mean_visits_per_unknown=_mean([s.instances_visited / n_unknowns for s in finished]),
                mean_checks_per_unknown=_mean([s.candidates_checked / n_unknowns for s in finished]),
                unique_fraction=_mean([s.solutions_found == 1 for s in finished]),
                censored_fraction=_mean([s.budget_exhausted for s in done]),
                wall_seconds=wall, generation_failures=gen_failed,
            )
            results.append(cell)
            r_over_c = math.sqrt(radius_sq) / spec.grid_side
            print(
                f"cell radius_sq={radius_sq} (r/C={r_over_c:.3f}) anchors={n_anchors} "
                f"rules={rules.value} ordering={ordering.value}: "
                f"visits/unknown={_fmt(cell.mean_visits_per_unknown)} "
                f"censored={len(done) - len(finished)}/{len(done)} gen_failures={gen_failed} "
                f"wall={wall:.2f}s",
                file=log,
            )
    return results


def _mean(values: list) -> float:
    """The mean of values, or nan for a mean over no trials."""
    return sum(values) / len(values) if values else math.nan


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------


def _fmt(value: float) -> str:
    """Fixed 6-significant-digit decimal rendering, no exponent notation."""
    if math.isnan(value):
        return "nan"
    if value == 0:
        return "0.00000"
    decimals = 5 - math.floor(math.log10(abs(value)))
    if decimals <= 0:
        return f"{round(value, decimals):.0f}"
    return f"{value:.{decimals}f}"


# The CSV columns in order: each header name with the text of its value in a cell.
_CSV_COLUMNS: tuple[tuple[str, Callable[[CellResult], str]], ...] = (
    ("grid", lambda c: str(c.grid_side)),
    ("nodes", lambda c: str(c.n_nodes)),
    ("anchors", lambda c: str(c.n_anchors)),
    ("radius_sq", lambda c: str(c.radius_sq)),
    ("rules", lambda c: c.rules.value),
    ("ordering", lambda c: c.ordering.value),
    ("trials", lambda c: str(c.trials)),
    ("mean_visits_per_unknown", lambda c: _fmt(c.mean_visits_per_unknown)),
    ("mean_checks_per_unknown", lambda c: _fmt(c.mean_checks_per_unknown)),
    ("unique_fraction", lambda c: _fmt(c.unique_fraction)),
    ("censored_fraction", lambda c: _fmt(c.censored_fraction)),
    ("wall_s", lambda c: _fmt(c.wall_seconds)),
)
CSV_HEADER = ",".join(name for name, _ in _CSV_COLUMNS)


def write_csv(results: list[CellResult]) -> bytes:
    """Serialize cell results; byte-deterministic for a given result list."""
    return encode_lines(chain([CSV_HEADER], (",".join(text(c) for _, text in _CSV_COLUMNS) for c in results)))


# ---------------------------------------------------------------------------
# Sweep spec files (one `key value` pair per line, lists comma-separated)
# ---------------------------------------------------------------------------


def parse_sweep_spec(text: bytes | str) -> SweepSpec:
    """Parse a sweep spec file: one `key value` row per SweepSpec field.

    The keys, which of them are required and the defaults of the rest are SweepSpec's
    fields. Tuple fields take comma-separated items; find_all takes 0, 1, true or false.
    Rows follow the line grammar shared by every udgl text (model.text_rows) and its
    integer rule (model.parse_int). Every fault in a row, and every value SweepSpec
    rejects, is a ParseError naming its line; so is a missing required key, without one.
    """
    kwargs: dict = {}
    lines: dict[str, int] = {}
    for no, line in text_rows(text):
        parts = line.split(None, 1)
        if len(parts) != 2:
            raise ParseError(f"expected 'key value', got {parts[0]!r} alone", no)
        key, raw = parts
        if key not in _SPEC_TYPES:
            raise ParseError(f"unknown key {key!r} (expected one of {sorted(_SPEC_TYPES)})", no)
        if key in kwargs:
            raise ParseError(f"duplicate key {key!r}", no)
        kwargs[key] = _spec_value(_SPEC_TYPES[key], raw, no, key)
        lines[key] = no
    for f in fields(SweepSpec):
        if f.default is MISSING and f.name not in kwargs:
            raise ParseError(f"spec is missing required key {f.name!r}")
    try:
        return SweepSpec(**kwargs)
    except SpecValueError as exc:
        raise ParseError(str(exc), lines.get(exc.key)) from None


def _spec_value(kind: type, raw: str, no: int, what: str):
    """The value of a spec row's raw text for a field of type kind (a tuple's items are
    named by the singular of the key: 'rule_sets' items are 'rule set's)."""
    if get_origin(kind) is tuple:
        item = what.removesuffix("s").replace("_", " ")
        return tuple(_spec_value(get_args(kind)[0], v.strip(), no, item) for v in raw.split(","))
    if kind is int:
        return parse_int(raw, no, what)
    if kind is bool:
        if raw.lower() not in ("0", "1", "true", "false"):
            raise ParseError(f"{what} must be 0, 1, true or false, got {raw!r}", no)
        return raw.lower() in ("1", "true")
    try:
        return kind(raw)
    except ValueError:
        expected = sorted(k.value for k in kind)
        raise ParseError(f"unknown {what} {raw!r} (expected one of {expected})", no) from None

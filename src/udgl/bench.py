"""Experiment harness: anchor-count and radius sweeps across rule sets and orderings.

A sweep cell is one (radius_sq, anchor count, rule set, ordering) combination.
Trial t of every cell reuses the instance generated with seed base_seed + t,
so rule sets and orderings are compared on identical inputs. Search outputs
are deterministic for a fixed spec; only the wall-clock column varies.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import MISSING, dataclass, fields
from typing import Callable, TextIO, get_args, get_origin, get_type_hints

from .model import GenerationError, Instance, ParseError, generate_instance, parse_int, strip_instance, text_rows
from .solver import Ordering, RuleSet, SolutionSet, SolverConfig, solve

CSV_HEADER = (
    "grid,nodes,anchors,radius_sq,rules,ordering,trials,"
    "mean_visits_per_unknown,mean_checks_per_unknown,"
    "unique_fraction,censored_fraction,wall_s"
)

# Callback invoked once per completed trial: (instance, config, trial, result).
TrialHook = Callable[[Instance, SolverConfig, int, SolutionSet], None]


def anchor_count_for_fraction(fraction: float, n_nodes: int) -> int:
    """Anchor count for a requested anchor percentage, floored at the 3-anchor minimum."""
    return max(3, round(fraction * n_nodes))


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
        for key in ("radius_sq_values", "anchor_counts", "rule_sets", "orderings"):
            object.__setattr__(self, key, tuple(getattr(self, key)))
            if not getattr(self, key):
                raise SpecValueError(key, f"{key} must be non-empty")
        if self.trials < 1:
            raise SpecValueError("trials", f"trials must be >= 1, got {self.trials}")
        for r2 in self.radius_sq_values:
            if r2 < 1:
                raise SpecValueError("radius_sq_values", f"radius_sq value {r2} must be >= 1")
        for m in self.anchor_counts:
            if not 3 <= m < self.n_nodes:
                raise SpecValueError("anchor_counts", f"anchor count {m} outside [3, {self.n_nodes})")


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
    on_result: TrialHook | None = None,
    log: TextIO | None = None,
) -> list[CellResult]:
    """Run every cell of the sweep; cell order follows the spec's field order.

    Trials whose instance generation fails are counted per cell and excluded;
    budget-exhausted trials are counted in censored_fraction and excluded from
    the traversal means so censoring never deflates them.
    """
    if log is None:
        log = sys.stderr
    results: list[CellResult] = []
    for radius_sq in spec.radius_sq_values:
        for n_anchors in spec.anchor_counts:
            n_unknowns = spec.n_nodes - n_anchors
            # Trial t's instance, shared by this group's rule sets and orderings only.
            instances: dict[int, Instance | None] = {}
            for rules in spec.rule_sets:
                for ordering in spec.orderings:
                    sum_visits = 0.0
                    sum_checks = 0.0
                    unique = 0
                    censored = 0
                    gen_failed = 0
                    wall = 0.0
                    for t in range(spec.trials):
                        if t not in instances:
                            try:
                                instances[t] = generate_instance(
                                    spec.grid_side, radius_sq, spec.n_nodes, n_anchors,
                                    seed=spec.base_seed + t,
                                )
                            except GenerationError:
                                instances[t] = None
                        inst = instances[t]
                        if inst is None:
                            gen_failed += 1
                            continue
                        problem = strip_instance(inst, keep_bounds=False)
                        config = SolverConfig(
                            rules=rules,
                            ordering=ordering,
                            seed=spec.base_seed + t,
                            find_all=spec.find_all,
                            budget=spec.budget,
                        )
                        t0 = time.perf_counter()
                        result = solve(problem, config)
                        wall += time.perf_counter() - t0
                        if on_result is not None:
                            on_result(inst, config, t, result)
                        if result.stats.budget_exhausted:
                            censored += 1
                            continue
                        sum_visits += result.stats.instances_visited / n_unknowns
                        sum_checks += result.stats.candidates_checked / n_unknowns
                        if len(result.solutions) == 1:
                            unique += 1
                    completed = spec.trials - gen_failed
                    uncensored = completed - censored
                    cell = CellResult(
                        grid_side=spec.grid_side,
                        n_nodes=spec.n_nodes,
                        n_anchors=n_anchors,
                        radius_sq=radius_sq,
                        rules=rules,
                        ordering=ordering,
                        trials=spec.trials,
                        mean_visits_per_unknown=sum_visits / uncensored if uncensored else math.nan,
                        mean_checks_per_unknown=sum_checks / uncensored if uncensored else math.nan,
                        unique_fraction=unique / uncensored if uncensored else math.nan,
                        censored_fraction=censored / completed if completed else math.nan,
                        wall_seconds=wall,
                        generation_failures=gen_failed,
                    )
                    results.append(cell)
                    r_over_c = math.sqrt(radius_sq) / spec.grid_side
                    print(
                        f"cell radius_sq={radius_sq} (r/C={r_over_c:.3f}) anchors={n_anchors} "
                        f"rules={rules.value} ordering={ordering.value}: "
                        f"visits/unknown={_fmt(cell.mean_visits_per_unknown)} "
                        f"censored={censored}/{completed} gen_failures={gen_failed} "
                        f"wall={wall:.2f}s",
                        file=log,
                    )
    return results


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


def write_csv(results: list[CellResult]) -> bytes:
    """Serialize cell results; byte-deterministic for a given result list."""
    lines = [CSV_HEADER]
    for c in results:
        lines.append(
            ",".join(
                (
                    str(c.grid_side),
                    str(c.n_nodes),
                    str(c.n_anchors),
                    str(c.radius_sq),
                    c.rules.value,
                    c.ordering.value,
                    str(c.trials),
                    _fmt(c.mean_visits_per_unknown),
                    _fmt(c.mean_checks_per_unknown),
                    _fmt(c.unique_fraction),
                    _fmt(c.censored_fraction),
                    _fmt(c.wall_seconds),
                )
            )
        )
    return ("\n".join(lines) + "\n").encode("utf-8")


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
    spec_fields = {f.name: f for f in fields(SweepSpec)}
    types = get_type_hints(SweepSpec)
    kwargs: dict = {}
    lines: dict[str, int] = {}
    for no, line in text_rows(text):
        parts = line.split(None, 1)
        if len(parts) != 2:
            raise ParseError(f"expected 'key value', got {parts[0]!r} alone", no)
        key, raw = parts
        if key not in spec_fields:
            raise ParseError(f"unknown key {key!r} (expected one of {sorted(spec_fields)})", no)
        if key in kwargs:
            raise ParseError(f"duplicate key {key!r}", no)
        kwargs[key] = _spec_value(types[key], raw, no, key)
        lines[key] = no
    for name, f in spec_fields.items():
        if f.default is MISSING and name not in kwargs:
            raise ParseError(f"spec is missing required key {name!r}")
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

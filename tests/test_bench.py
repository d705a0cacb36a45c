import gc
import io
import math
import weakref
from typing import get_args, get_type_hints

import pytest

from udgl.bench import (
    CSV_HEADER,
    CellResult,
    SweepSpec,
    parse_sweep_spec,
    run_sweep,
    write_csv,
    _fmt,
)
from udgl.model import ParseError, generate_instance, strip_instance
from udgl.solver import Ordering, RuleSet, SolverConfig, solve


def tiny_spec(**overrides):
    kwargs = dict(
        grid_side=14,
        n_nodes=8,
        radius_sq_values=(40,),
        anchor_counts=(3,),
        rule_sets=(RuleSet.UNIT_DISK, RuleSet.CONVENTIONAL),
        orderings=(Ordering.MOST_CONNECTED,),
        trials=3,
        base_seed=100,
        budget=100_000,
    )
    kwargs.update(overrides)
    return SweepSpec(**kwargs)


def test_spec_validation():
    with pytest.raises(ValueError):
        tiny_spec(trials=0)
    with pytest.raises(ValueError):
        tiny_spec(anchor_counts=(2,))
    with pytest.raises(ValueError):
        tiny_spec(anchor_counts=(8,))
    with pytest.raises(ValueError):
        tiny_spec(radius_sq_values=())


INT_FIELDS = [name for name, kind in get_type_hints(SweepSpec).items() if int in (kind, *get_args(kind))]


@pytest.mark.parametrize("bad", [1.5, 3.0, True])
@pytest.mark.parametrize("name", INT_FIELDS)
def test_spec_int_fields_and_items_reject_floats_and_bools(name, bad):
    value = getattr(tiny_spec(), name)
    with pytest.raises(TypeError, match="must be an integer"):
        tiny_spec(**{name: (bad,) + value[1:] if isinstance(value, tuple) else bad})


def test_bad_radius_fails_before_any_cell_runs():
    calls = []
    with pytest.raises(ValueError, match="radius_sq value 0 must be >= 1"):
        run_sweep(tiny_spec(radius_sq_values=(40, 0)), on_result=lambda *a: calls.append(a), log=io.StringIO())
    assert calls == []


def test_single_trial_cell_echoes_solve_stats():
    spec = tiny_spec(trials=1, rule_sets=(RuleSet.UNIT_DISK,))
    [cell] = run_sweep(spec, log=io.StringIO())
    inst = generate_instance(14, 40, 8, 3, seed=100)
    result = solve(
        strip_instance(inst),
        SolverConfig(rules=RuleSet.UNIT_DISK, ordering=Ordering.MOST_CONNECTED, seed=100, budget=100_000),
    )
    unknowns = 8 - 3
    assert cell.mean_visits_per_unknown == result.stats.instances_visited / unknowns
    assert cell.mean_checks_per_unknown == result.stats.candidates_checked / unknowns
    assert cell.unique_fraction == (1.0 if len(result.solutions) == 1 else 0.0)
    assert cell.censored_fraction == 0.0
    assert cell.generation_failures == 0


def test_instances_are_shared_across_rules_and_orderings():
    records = []
    spec = tiny_spec(orderings=(Ordering.MOST_CONNECTED, Ordering.RANDOM))
    cells = run_sweep(spec, on_result=lambda inst, cfg, t, res: records.append((t, inst)), log=io.StringIO())
    assert len(cells) == 4  # one row per (rule set x ordering) series
    assert len(write_csv(cells).splitlines()) == 5
    by_trial = {}
    for t, inst in records:
        by_trial.setdefault(t, []).append(inst)
    for insts in by_trial.values():
        assert len(insts) == 4  # 2 rule sets x 2 orderings
        assert all(i == insts[0] for i in insts)


def test_instances_die_with_their_group():
    """A finished (radius, anchors) group's instances are not kept alive for the rest of the sweep."""
    first_group = []
    dead_at_next_group = []

    def hook(inst, cfg, t, res):
        if inst.radius_sq == 40:
            first_group.append(weakref.ref(inst))
        elif not dead_at_next_group:
            gc.collect()
            dead_at_next_group.append([r() is None for r in first_group])

    run_sweep(tiny_spec(radius_sq_values=(40, 50), trials=3), on_result=hook, log=io.StringIO())
    assert len(first_group) == 6  # 3 trials x 2 rule sets
    assert dead_at_next_group == [[True] * 6]


def test_paired_invariant_per_trial():
    stats = {}
    spec = tiny_spec(trials=5)
    run_sweep(
        spec,
        on_result=lambda inst, cfg, t, res: stats.setdefault(t, {}).__setitem__(cfg.rules, res.stats),
        log=io.StringIO(),
    )
    for per_rules in stats.values():
        assert (
            per_rules[RuleSet.UNIT_DISK].instances_visited
            <= per_rules[RuleSet.CONVENTIONAL].instances_visited
        )


def test_generation_failures_reported_and_excluded():
    spec = tiny_spec(grid_side=10, n_nodes=7, radius_sq_values=(1,), trials=2, rule_sets=(RuleSet.UNIT_DISK,))
    log = io.StringIO()
    [cell] = run_sweep(spec, log=log)
    assert cell.generation_failures == 2
    assert math.isnan(cell.mean_visits_per_unknown)
    assert math.isnan(cell.censored_fraction)
    assert "gen_failures=2" in log.getvalue()


def test_run_sweep_deterministic_except_wall():
    spec = tiny_spec(trials=4)
    a = run_sweep(spec, log=io.StringIO())
    b = run_sweep(spec, log=io.StringIO())
    for ca, cb in zip(a, b):
        assert ca.mean_visits_per_unknown == cb.mean_visits_per_unknown
        assert ca.mean_checks_per_unknown == cb.mean_checks_per_unknown
        assert ca.unique_fraction == cb.unique_fraction
        assert ca.censored_fraction == cb.censored_fraction
        assert ca.generation_failures == cb.generation_failures


def test_cell_order_follows_spec_nesting():
    spec = tiny_spec(
        radius_sq_values=(40, 60),
        anchor_counts=(3, 4),
        rule_sets=(RuleSet.UNIT_DISK,),
        orderings=(Ordering.MOST_CONNECTED, Ordering.RANDOM),
        trials=1,
    )
    cells = run_sweep(spec, log=io.StringIO())
    keys = [(c.radius_sq, c.n_anchors, c.ordering) for c in cells]
    assert keys == [
        (40, 3, Ordering.MOST_CONNECTED),
        (40, 3, Ordering.RANDOM),
        (40, 4, Ordering.MOST_CONNECTED),
        (40, 4, Ordering.RANDOM),
        (60, 3, Ordering.MOST_CONNECTED),
        (60, 3, Ordering.RANDOM),
        (60, 4, Ordering.MOST_CONNECTED),
        (60, 4, Ordering.RANDOM),
    ]


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------


def test_fmt_six_significant_digits():
    assert _fmt(2.57) == "2.57000"
    assert _fmt(252.0) == "252.000"
    assert _fmt(0.05) == "0.0500000"
    assert _fmt(123456.7) == "123457"
    assert _fmt(0.0) == "0.00000"
    assert _fmt(1.0) == "1.00000"
    assert _fmt(float("nan")) == "nan"


def test_write_csv_empty_and_single():
    assert write_csv([]).decode() == CSV_HEADER + "\n"
    cell = CellResult(
        grid_side=100, n_nodes=100, n_anchors=3, radius_sq=625,
        rules=RuleSet.UNIT_DISK, ordering=Ordering.RANDOM, trials=20,
        mean_visits_per_unknown=2.57, mean_checks_per_unknown=20.5,
        unique_fraction=1.0, censored_fraction=0.0, wall_seconds=1.25,
    )
    text = write_csv([cell]).decode()
    lines = text.splitlines()
    assert len(lines) == 2
    assert lines[0] == CSV_HEADER
    assert lines[1] == "100,100,3,625,unit-disk,random,20,2.57000,20.5000,1.00000,0.00000,1.25000"


def test_write_csv_byte_deterministic():
    spec = tiny_spec(trials=2)
    cells = run_sweep(spec, log=io.StringIO())
    assert write_csv(cells) == write_csv(cells)


# ---------------------------------------------------------------------------
# sweep spec files
# ---------------------------------------------------------------------------


def test_parse_sweep_spec_round_trip():
    text = (
        "# fig-4 style sweep\n"
        "grid_side 100\n"
        "n_nodes 100\n"
        "radius_sq_values 400,625,900\n"
        "anchor_counts 3,5,10,20\n"
        "rule_sets unit-disk,conventional\n"
        "orderings random,most-connected\n"
        "trials 20\n"
        "base_seed 7\n"
        "budget 400000\n"
        "find_all 0\n"
    )
    spec = parse_sweep_spec(text)
    assert spec.grid_side == 100
    assert spec.radius_sq_values == (400, 625, 900)
    assert spec.anchor_counts == (3, 5, 10, 20)
    assert spec.rule_sets == (RuleSet.UNIT_DISK, RuleSet.CONVENTIONAL)
    assert spec.orderings == (Ordering.RANDOM, Ordering.MOST_CONNECTED)
    assert spec.trials == 20 and spec.base_seed == 7 and spec.budget == 400000
    assert spec.find_all is False


def test_parse_sweep_spec_defaults_and_errors():
    minimal = "grid_side 20\nn_nodes 10\nradius_sq_values 50\nanchor_counts 3\n"
    spec = parse_sweep_spec(minimal)
    assert spec.trials == 20 and spec.find_all is True
    with pytest.raises(ValueError, match="missing required key"):
        parse_sweep_spec("grid_side 20\n")
    with pytest.raises(ValueError, match="unknown key"):
        parse_sweep_spec(minimal + "bogus 1\n")
    with pytest.raises(ValueError, match="unknown rule set"):
        parse_sweep_spec(minimal + "rule_sets euclid\n")
    with pytest.raises(ValueError, match="duplicate key"):
        parse_sweep_spec(minimal + "grid_side 21\n")


def test_parse_sweep_spec_reports_invalid_utf8_at_its_line():
    with pytest.raises(ParseError, match=r"^line 3: invalid UTF-8 byte 0xfe$") as info:
        parse_sweep_spec(b"grid_side 20\nn_nodes 10\n# caf\xfe\nradius_sq_values 50\nanchor_counts 3\n")
    assert isinstance(info.value, ValueError) and info.value.line == 3


@pytest.mark.parametrize(
    "old, new, line, message",
    [
        ("n_nodes 10", "n_nodes 1x", 2, "invalid n_nodes: '1x'"),
        ("radius_sq_values 50", "radius_sq_values 50,6x", 4, "invalid radius sq value: '6x'"),
        ("n_nodes 10", "n_nodes", 2, "expected 'key value', got 'n_nodes' alone"),
        ("anchor_counts 3", "anchor_counts 3\nbogus 1", 6, "unknown key 'bogus'"),
        ("anchor_counts 3", "anchor_counts 3\n\u3000\ngrid_side 21", 7, "duplicate key 'grid_side'"),
        ("anchor_counts 3", "anchor_counts 3\norderings random,best", 6, "unknown ordering 'best'"),
        ("anchor_counts 3", "anchor_counts 3\nfind_all maybe", 6, "find_all must be 0, 1, true or false"),
        # values only SweepSpec rejects name the line of their key
        ("anchor_counts 3", "anchor_counts 3\ntrials 0", 6, "trials must be >= 1, got 0"),
        ("radius_sq_values 50", "radius_sq_values 40,0", 4, "radius_sq value 0 must be >= 1"),
        ("anchor_counts 3", "anchor_counts 3,10", 5, "anchor count 10 outside [3, 10)"),
        ("anchor_counts 3", "anchor_counts 3\nbudget 0", 6, "budget must be >= 1, got 0"),
        # grid sides generate_instance refuses (model.check_grid)
        ("grid_side 20", "grid_side 0", 1, "grid_side must be positive"),
        ("grid_side 20", "grid_side 3", 1, "grid 3x3 cannot hold 10 distinct nodes"),
        ("grid_side 20", "grid_side 2000000000", 1, "grid_side must be at most 1000000001, got 2000000000"),
    ],
)
def test_parse_sweep_spec_names_the_line_of_each_fault(old, new, line, message):
    minimal = "grid_side 20\nn_nodes 10\n# comment\nradius_sq_values 50\nanchor_counts 3\n"
    with pytest.raises(ParseError) as info:
        parse_sweep_spec(minimal.replace(old, new))
    assert str(info.value).startswith(f"line {line}: {message}") and info.value.line == line


@pytest.mark.parametrize(
    "old, new",
    [
        ("grid_side 20", "grid_side 2_0"),
        ("n_nodes 10", "n_nodes +10"),
        ("radius_sq_values 50", "radius_sq_values 50,+60"),
        ("anchor_counts 3", "anchor_counts \u0663"),  # Arabic-Indic three
        ("anchor_counts 3", "anchor_counts 3\ntrials 2_0"),
        ("anchor_counts 3", "anchor_counts 3\nbudget +400"),
    ],
)
def test_parse_sweep_spec_rejects_non_canonical_integers(old, new):
    minimal = "grid_side 20\nn_nodes 10\nradius_sq_values 50, 60\nanchor_counts 3\n"
    assert parse_sweep_spec(minimal).radius_sq_values == (50, 60)  # blanks around list items are fine
    with pytest.raises(ValueError):
        parse_sweep_spec(minimal.replace(old, new))

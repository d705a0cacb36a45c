"""udgl: localization of integer-lattice unit-disk networks by pruned tree search."""

from .bench import CellResult, SweepSpec, parse_sweep_spec, run_sweep, write_csv
from .geometry import Point, collinear, dist2, pairs_within
from .model import (
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
from .oracle import CapExceededError, FixtureNotFoundError, brute_force_solutions, find_fixture_f1, satisfies
from .solver import (
    AnchorMismatchError,
    MissingNodeError,
    NoEligibleNodeError,
    Ordering,
    RuleSet,
    SearchStats,
    SolutionSet,
    SolverConfig,
    Violation,
    format_solution_set,
    parse_solutions,
    realization_order,
    solve,
    verify,
)

__version__ = "0.1.0"

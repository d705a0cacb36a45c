"""The four benchmark workloads: inputs from a seed, one unit of work, and its checks.

Each workload calls udgl layers through module attributes (``cli.main``,
``solver.solve``, ...) so that a traced run sees them, and checks outputs
with the functions captured in ``self.orig`` before any tracing or
tampering wrapper is installed. A unit is one op, except in paper-sweeps,
where a unit is one sweep round and every trial inside it is an op.

Why these four, and the per-stage split that motivated each, is written
down in README.md next to this file.
"""

from __future__ import annotations

import io
import os
import random
import shutil
from pathlib import Path

# Distinct workload seeds must never share generated inputs, even at 10^6 ops a run.
SEED_STRIDE = 10**7


def _canon(solutions) -> frozenset:
    return frozenset(tuple(sorted((i, (p[0], p[1])) for i, p in s.items())) for s in solutions)


def _stats(stats) -> tuple[int, int, int, int, int]:
    """(visits, candidates, max_depth, solutions, censored) of one solve."""
    return (
        stats.instances_visited,
        stats.candidates_checked,
        stats.max_depth_reached,
        stats.solutions_found,
        int(stats.budget_exhausted),
    )


class Workload:
    name = ""
    prefix_units = 1  # units covered by the recorded fingerprint
    min_units = 1  # units run even when the time window is shorter

    def __init__(self, udgl, seed: int, tiny: bool, root: Path):
        self.u = udgl
        self.seed = seed
        s = udgl.solver
        self.orig = {
            "verify": s.verify,
            "parse_solutions": s.parse_solutions,
            "strip_instance": udgl.model.strip_instance,
        }

    def unit(self, k: int, run) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass


class PaperSweeps(Workload):
    """Fig-4 anchor sweep and fig-5 radius sweep of the acceptance tests, one round at a time.

    Round k runs every cell of both specs with trials=1 and base seed
    base + k, which is exactly trial k of the acceptance sweep (instance
    seed and solver seed are both base_seed + t). Interleaving the cells
    keeps the cell mix of a time-bounded run the same as the full sweep's.
    """

    name = "paper-sweeps"
    prefix_units = 1

    def __init__(self, udgl, seed, tiny, root):
        super().__init__(udgl, seed, tiny, root)
        S = udgl.solver
        UD, CONV = S.RuleSet.UNIT_DISK, S.RuleSet.CONVENTIONAL
        if tiny:
            common = dict(grid_side=20, n_nodes=10, budget=50_000, find_all=False, trials=1)
            self.specs = [
                dict(common, radius_sq_values=(40,), anchor_counts=(3, 4), rule_sets=(UD, CONV),
                     orderings=(S.Ordering.RANDOM,), base_seed=1000),
                dict(common, radius_sq_values=(40, 60), anchor_counts=(3,), rule_sets=(UD, CONV),
                     orderings=(S.Ordering.RANDOM, S.Ordering.MOST_CONNECTED), base_seed=2000),
            ]
        else:
            common = dict(grid_side=100, n_nodes=100, budget=400_000, find_all=False, trials=1)
            self.specs = [
                dict(common, radius_sq_values=(625,), anchor_counts=(3, 5, 10, 20), rule_sets=(UD, CONV),
                     orderings=(S.Ordering.RANDOM,), base_seed=1000),
                dict(common, radius_sq_values=(400, 625, 900), anchor_counts=(10,), rule_sets=(UD, CONV),
                     orderings=(S.Ordering.RANDOM, S.Ordering.MOST_CONNECTED), base_seed=2000),
            ]
        for spec in self.specs:
            spec["base_seed"] += SEED_STRIDE * seed

    def unit(self, k, run):
        bench = self.u.bench
        verify = self.orig["verify"]
        strip = self.orig["strip_instance"]
        with run.round():
            for fields in self.specs:
                spec = bench.SweepSpec(**dict(fields, base_seed=fields["base_seed"] + k))
                seen: dict[tuple, tuple] = {}

                def hook(inst, config, t, result):
                    run.trial_done()
                    with run.check():
                        st = _stats(result.stats)
                        sols = result.solutions
                        if st[4]:
                            ok = not sols and st[0] == spec.budget
                        else:
                            ok = len(sols) == 1 and st[0] <= spec.budget
                            ok = ok and verify(strip(inst), sols[0], config.rules) is None
                        key = (inst.radius_sq, inst.n_anchors, config.rules.value, config.ordering.value)
                        seen[key] = (st, inst.n_nodes - inst.n_anchors)
                        coords = [(i, q[0], q[1]) for i, q in sorted(sols[0].items())] if sols else None
                        record = f"{key}:{config.seed}:{st}:{coords};"
                        run.result(ok, [st], record.encode())
                    run.trial_start()

                run.trial_start()
                cells = bench.run_sweep(spec, on_result=hook, log=io.StringIO())
                csv = bench.write_csv(cells)
                with run.check():
                    ok = _csv_matches(csv.decode(), seen)
                    no_wall = "\n".join(line.rsplit(",", 1)[0] for line in csv.decode().splitlines())
                    run.unit_record(no_wall.encode(), ok)


def _csv_matches(text: str, seen: dict) -> bool:
    """Every CSV row (wall_s aside) agrees with the trials the hook observed."""
    rows = text.splitlines()[1:]
    if len(rows) != len(seen):
        return False
    for row in rows:
        f = row.split(",")
        key = (int(f[3]), int(f[2]), f[4], f[5])
        if key not in seen or f[6] != "1":
            return False
        (visits, cands, _, _, censored), unknowns = seen[key]
        if f[10] != ("1.00000" if censored else "0.00000"):
            return False
        if censored:
            if f[7] != "nan" or f[8] != "nan":
                return False
        elif abs(float(f[7]) - visits / unknowns) > 1e-5 * max(1.0, visits / unknowns) or abs(
            float(f[8]) - cands / unknowns
        ) > 1e-5 * max(1.0, cands / unknowns):
            return False
    return True


class PipelineN3000(Workload):
    """README flow through udgl.cli.main: generate -> solve (unit-disk, find-all) -> verify."""

    name = "pipeline-n3000"
    prefix_units = 1
    min_units = 2

    def __init__(self, udgl, seed, tiny, root):
        super().__init__(udgl, seed, tiny, root)
        self.size = ("100", "625", "60", "5") if tiny else ("1000", "2500", "3000", "30")
        self.dir = root / "perfbench" / "out" / f"tmp-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)

    def unit(self, k, run):
        grid, r2, n, m = self.size
        inst_path, sol_path = str(self.dir / "net.udgl"), str(self.dir / "net.sol")
        main = self.u.cli.main
        with run.op():
            rcs = (
                main(["generate", "--grid", grid, "--radius-sq", r2, "--nodes", n, "--anchors", m,
                      "--seed", str(SEED_STRIDE * self.seed + k), "-o", inst_path]),
                main(["solve", inst_path, "--rules", "unit-disk", "--ordering", "most-connected", "--all",
                      "-o", sol_path]),
                main(["verify", inst_path, sol_path, "--rules", "unit-disk"]),
            )
        with run.check():
            truth = {}
            for line in Path(inst_path).read_text().splitlines():
                tok = line.split()
                if tok[0] == "node":
                    truth[int(tok[1])] = (int(tok[3]), int(tok[4]))
            data = Path(sol_path).read_bytes()
            stat = {t[1]: int(t[2]) for t in (line.split() for line in data.decode().splitlines()) if t[0] == "stat"}
            sols = self.orig["parse_solutions"](data)
            st = (stat["instances_visited"], stat["candidates_checked"], stat["max_depth"], len(sols),
                  stat["budget_exhausted"])
            ok = rcs == (0, 0, 0) and len(truth) == int(n) and not st[4]
            ok = ok and frozenset(truth.items()) in {frozenset((i, tuple(p)) for i, p in s.items()) for s in sols}
            run.result(ok, [st], data)

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


class Chain20k(Workload):
    """A 2*10^4-node path: write -> parse -> solve (conventional, find-first) -> format.

    Nodes 0-2 are non-collinear anchors; unknown k's only edge goes to k-1.
    The path starts at the anchor with the smallest x and the first lattice
    offset always has the most negative dx, so find-first never collides or
    backtracks: visits = N - 3 exactly.
    """

    name = "chain-20k"
    prefix_units = 2
    min_units = 2
    LENGTHS = (1, 2, 4, 5, 8, 9, 10, 13, 16, 17, 18, 20, 25)

    def __init__(self, udgl, seed, tiny, root):
        super().__init__(udgl, seed, tiny, root)
        rng = random.Random(seed)
        n = 300 if tiny else 20_000
        P, E = udgl.geometry.Point, udgl.model.Edge
        anchors = {
            0: P(rng.randrange(1000, 1100), rng.randrange(0, 100)),
            1: P(rng.randrange(1000, 1100), rng.randrange(1000, 1100)),
            2: P(rng.randrange(0, 100), rng.randrange(500, 600)),
        }
        edges = tuple(E(k - 1, k, rng.choice(self.LENGTHS)) for k in range(3, n))
        self.problem = udgl.model.Problem(n_nodes=n, radius_sq=25, anchors=anchors, edges=edges)

    def unit(self, k, run):
        model, solver = self.u.model, self.u.solver
        ordering = (solver.Ordering.MOST_CONNECTED, solver.Ordering.RANDOM)[k % 2]
        config = solver.SolverConfig(rules=solver.RuleSet.CONVENTIONAL, ordering=ordering, seed=k, find_all=False)
        with run.op():
            problem = model.parse_file(model.write_file(self.problem))
            result = solver.solve(problem, config)
            text = solver.format_solution_set(result, problem.n_nodes)
        with run.check():
            st = _stats(result.stats)
            n = problem.n_nodes
            ok = problem == self.problem and st == (n - 3, st[1], n - 3, 1, 0) and len(result.solutions) == 1
            if ok:
                sol = result.solutions[0]
                ok = len(sol) == n and len(set(sol.values())) == n
                ok = ok and all(sol[a] == p for a, p in problem.anchors.items())
                for e in problem.edges:
                    a, b = sol[e.i], sol[e.j]
                    ok = ok and (a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2 == e.d2
            run.result(ok, [st], text)


class CertifySmall(Workload):
    """Acceptance criterion 1: solver under both rule sets against the brute-force oracle."""

    name = "certify-small"
    COMBOS = [
        (8, 18, 4, 3), (8, 20, 5, 3), (10, 26, 5, 4), (10, 30, 6, 4),
        (12, 40, 7, 4), (12, 32, 6, 3), (10, 13, 6, 3), (12, 18, 7, 4),
        (12, 10, 6, 3), (10, 8, 5, 3),
    ]

    def __init__(self, udgl, seed, tiny, root):
        super().__init__(udgl, seed, tiny, root)
        self.prefix_units = self.min_units = 20 if tiny else 1000
        self.cursor = SEED_STRIDE * seed

    def unit(self, k, run):
        model, solver, oracle = self.u.model, self.u.solver, self.u.oracle
        with run.op():
            while True:
                s = self.cursor
                self.cursor += 1
                grid, r2, n, m = self.COMBOS[s % len(self.COMBOS)]
                try:
                    inst = model.generate_instance(grid, r2, n, m, seed=s, max_attempts=40)
                    break
                except model.GenerationError:
                    continue
            problem = model.strip_instance(inst)
            pairs = [
                (solver.solve(problem, solver.SolverConfig(rules=rules)),
                 oracle.brute_force_solutions(problem, rules, work_limit=10**10))
                for rules in (solver.RuleSet.UNIT_DISK, solver.RuleSet.CONVENTIONAL)
            ]
        with run.check():
            truth = _canon([inst.assignment()])
            stats, record, ok = [], [f"{s}:"], True
            for got, want in pairs:
                st = _stats(got.stats)
                stats.append(st)
                ok = ok and not st[4] and _canon(got.solutions) == _canon(want) and truth <= _canon(want)
                record.append(f"{st}{sorted(_canon(got.solutions))};")
            run.result(ok, stats, "".join(record).encode())


WORKLOADS = {w.name: w for w in (PaperSweeps, PipelineN3000, Chain20k, CertifySmall)}

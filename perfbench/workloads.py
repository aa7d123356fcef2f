"""The benchmark's workloads.

Each workload makes its inputs from the benchmark seed, runs one timed
repetition through the package's public functions, and checks what came
back.  A repetition returns exact counts and sha256 digests that run.py
compares against golden copies, plus failures found by checks that do
not depend on golden copies.

Why these three (each stresses a different layer):

- sweep-small-n: the criterion-5 grid through `stlsbb bench` in-process.
  Per-iteration work is O(100), so loop dispatch, `kernels.policy_step`
  and trace-row building dominate.
- rawbb-large-n: `quadratic.solve_bb` at n = 1e5, where the seven O(n)
  passes of `kernels.hessian_apply` dominate and dispatch is negligible.
- gbb-linesearch: the criterion-7 Rosenbrock table plus one line-search
  run on a quadratic.  `solver`, `steps.next_steplength` and per-feval
  objective callbacks dominate; neither raw loop runs.
"""

import csv
import hashlib
import io
from contextlib import redirect_stdout
from dataclasses import dataclass

import numpy as np

from stlsbb import cli, harness, kernels, quadratic, solver, steps
from stlsbb.steps import parse_policy

from calibrate import Timing, YardstickSpec, elapsed, reading
from spans import patched

POLICIES = ("bb1", "bb2", "gamma:1", "gamma:20")
KAPPA = 1e4
EPSILON = 1e-6
MAX_ITER = 20000

# Computed, not measured, traffic of one kernels.hessian_apply call on
# vectors of length n, counting every numpy temporary as materialised.
# Each of the six reflections u - (2 (w'u)) w reads 5n and writes 2n
# doubles and does 4n flops (dot 2n, scale n, subtract n); the diagonal
# scaling reads 2n, writes n and does n flops.
HESSIAN_BYTES_PER_ELEM = 8 * (6 * 7 + 3)
HESSIAN_FLOPS_PER_ELEM = 6 * 4 + 1


# Yardsticks the workloads are timed against (see calibrate.py): a slice
# of 30 iterations at n=100 is dispatch-bound like the small-n loops and
# the line search; one iteration at n=1e5 is bound by numpy's O(n) passes
# like the large-n raw loop.  ref_slice_s is a slice's CPU time on the
# 2-vCPU Xeon host the benchmark was written on, so normalised times read
# as CPU time on that host.
SMALL_YARDSTICK = YardstickSpec(n=100, slice_iterations=30, every_s=0.01, ref_slice_s=1e-3)
LARGE_YARDSTICK = YardstickSpec(n=100_000, slice_iterations=1, every_s=0.04,
                                ref_slice_s=2.5e-3)


@dataclass
class Rep:
    """One timed repetition of a workload."""

    timing: Timing  # the workload's work, yardstick slices taken out
    iterations: int
    cell_s: list  # wall seconds of each solver run in the repetition
    counts: dict  # exact counts, compared against golden copies
    digests: dict  # sha256 of outputs, compared against golden copies
    cells: int  # solver runs attempted
    errors: int  # error cells and failed independent checks

    @property
    def wall_s(self):
        return self.timing.wall_s


def sha256_text(text):
    return hashlib.sha256(text.encode()).hexdigest()


def trace_digest(traces):
    """sha256 over the rows and final iterates of run traces."""
    h = hashlib.sha256()
    for tr in traces:
        h.update(tr.termination.encode())
        for arr in (tr.f_values(), tr.grad_norms(), [r.alpha for r in tr.rows],
                    [r.backtracks for r in tr.rows], tr.final_x):
            h.update(np.ascontiguousarray(arr, dtype=float).tobytes())
    return h.hexdigest()


def householder_gradient(inst, x):
    """A x - b written out independently of kernels.hessian_apply."""
    u = np.array(x, dtype=float)
    for w in (inst.w3, inst.w2, inst.w1):
        u = u - 2.0 * float(np.dot(w, u)) * w
    u = u * inst.eigenvalues
    for w in (inst.w1, inst.w2, inst.w3):
        u = u - 2.0 * float(np.dot(w, u)) * w
    return u - inst.linear


def averages_from_cells_csv(text):
    """Mean iterations per (setting, kappa, epsilon, n, policy) recomputed
    from a sweep CSV, keyed like the averages CSV rows."""
    groups = {}
    for row in csv.DictReader(line for line in io.StringIO(text) if not line.startswith("#")):
        key = (row["setting"], row["kappa"], row["epsilon"], row["n"], row["policy"])
        if row["iterations"]:
            groups.setdefault(key, []).append(int(row["iterations"]))
    return {k: sum(v) / len(v) for k, v in groups.items()}


class SweepSmallN:
    """`stlsbb bench` in-process: n=100, settings 1-7, ten seeds, four
    policies (280 cells), writing the cells, averages and profile CSVs."""

    name = "sweep-small-n"
    yardstick = SMALL_YARDSTICK
    settings = "1,2,3,4,5,6,7"
    cells = 7 * 10 * len(POLICIES)

    def make_inputs(self, seed):
        return [10 * seed + i for i in range(10)]

    def _argv(self, seeds, out_dir):
        return [
            "bench", "--n", "100", "--settings", self.settings,
            "--kappas", "1e4", "--epsilons", "1e-6",
            "--seeds", ",".join(str(s) for s in seeds),
            "--policies", ",".join(POLICIES), "--max-iter", str(MAX_ITER), "--quiet",
            "--out", str(out_dir / "sweep-cells.csv"),
            "--averages", str(out_dir / "sweep-averages.csv"),
            "--profile", str(out_dir / "sweep-profile.csv"),
        ]

    def warmup(self, seeds, out_dir):
        self.run(seeds, out_dir)

    def run(self, seeds, out_dir, tracer=None):
        stamps = []

        def timed_sweep(original):
            # the public progress callback times each cell
            def sweep(grid, progress=None):
                def tick(cell):
                    stamps.append(reading())
                    if progress is not None:
                        progress(cell)

                stamps.append(reading())
                return original(grid, progress=tick)

            return sweep

        shown = io.StringIO()
        argv = self._argv(seeds, out_dir)
        with patched([(harness, "run_quadratic_sweep", timed_sweep)]), redirect_stdout(shown):
            start = reading()
            rc = cli.main(argv)
            timing = elapsed(start, reading())
        texts = {k: (out_dir / f"sweep-{k}.csv").read_text()
                 for k in ("cells", "averages", "profile")}
        rows = [r for r in csv.reader(io.StringIO(texts["cells"]))
                if r and not r[0].startswith("#")][1:]
        statuses = [r[8] for r in rows]
        iterations = sum(int(r[7]) for r in rows if r[7])
        errors = int(rc != 0)
        errors += sum(1 for s in statuses if s not in ("ok", "cap"))
        errors += abs(len(rows) - self.cells)
        errors += int(shown.getvalue() != texts["averages"])
        recomputed = averages_from_cells_csv(texts["cells"])
        for row in csv.DictReader(
            line for line in io.StringIO(texts["averages"]) if not line.startswith("#")
        ):
            key = (row["setting"], row["kappa"], row["epsilon"], row["n"], row["policy"])
            errors += int(float(row["mean_iterations"]) != recomputed.get(key))
        return Rep(
            timing=timing,
            iterations=iterations,
            cell_s=[elapsed(a, b).wall_s for a, b in zip(stamps, stamps[1:])],
            counts={"iterations": iterations, "cells": len(rows),
                    "capped": statuses.count("cap")},
            digests={k: sha256_text(v) for k, v in texts.items()},
            cells=len(rows),
            errors=errors,
        )


class RawBBLargeN:
    """`quadratic.solve_bb` with the four policies on three pre-generated
    n=1e5, setting 1 instances (twelve runs); several instances per
    repetition keep the work per run steady across benchmark seeds."""

    name = "rawbb-large-n"
    yardstick = LARGE_YARDSTICK
    n = 100_000
    instances = 3

    def make_inputs(self, seed):
        setting = quadratic.SpectrumSetting(1, KAPPA)
        return [quadratic.generate_instance(self.n, setting, self.instances * seed + i)
                for i in range(self.instances)]

    def warmup(self, insts, out_dir):
        for inst in insts:
            quadratic.solve_bb(inst, parse_policy(POLICIES[0]), EPSILON, 50)

    def run(self, insts, out_dir, tracer=None):
        policies = [parse_policy(p) for p in POLICIES]
        timing, cell_s, cell_its, traces = Timing(), [], [], []
        errors = 0
        for inst in insts:
            g0 = float(np.linalg.norm(householder_gradient(inst, np.ones(inst.dim))))
            for pol in policies:
                start = reading()
                tr = quadratic.solve_bb(inst, pol, EPSILON, MAX_ITER)
                cell = elapsed(start, reading())
                timing += cell
                cell_s.append(cell.wall_s)
                cell_its.append(tr.iterations)
                traces.append(tr)
                if tr.solved:
                    # the recurrence gradient drifts from A x - b; allow
                    # ten times the tolerance on the recomputed residual
                    g = float(np.linalg.norm(householder_gradient(inst, tr.final_x)))
                    errors += int(g > 10.0 * EPSILON * g0)
        iterations = sum(cell_its)
        return Rep(
            timing=timing,
            iterations=iterations,
            cell_s=cell_s,
            counts={"iterations": iterations, "cell_iterations": cell_its,
                    "capped": sum(1 for tr in traces if not tr.solved)},
            digests={"traces": trace_digest(traces)},
            cells=len(traces),
            errors=errors,
        )


class GbbLineSearch:
    """`harness.run_rosenbrock_table()` at the criterion-7 defaults plus
    `solver.run` with gamma:20 on the n=1000, setting 1 quadratic (relative
    tolerance 1e-6, cap 2000, every other SolverConfig field default)."""

    name = "gbb-linesearch"
    yardstick = SMALL_YARDSTICK
    n = 1000
    config = solver.SolverConfig(epsilon=1e-6, stop_rule=solver.STOP_GRAD_REL,
                                 max_iter=2000)
    policy = "gamma:20"

    def make_inputs(self, seed):
        inst = quadratic.generate_instance(self.n, quadratic.SpectrumSetting(1, KAPPA), seed)
        return quadratic.as_objective(inst)

    def warmup(self, obj, out_dir):
        self.run(obj, out_dir)

    def run(self, obj, out_dir, tracer=None):
        if tracer is not None:
            obj = solver.Objective(obj.name, obj.dim,
                                   tracer.wrap("quadratic.objective_eval", obj.eval), obj.x0)
        policy = parse_policy(self.policy)
        cell_s, traces = [], []

        def timed_run(original):
            def run(*args, **kwargs):
                start = reading()
                tr = original(*args, **kwargs)
                cell_s.append(elapsed(start, reading()).wall_s)
                traces.append(tr)
                return tr

            return run

        with patched([(solver, "run", timed_run)]):
            start = reading()
            table = harness.run_rosenbrock_table()
            table_csv = table.to_csv()
            tr = solver.run(obj, obj.x0, self.config, policy)
            timing = elapsed(start, reading())
        ros = traces[:-1]
        errors = sum(1 for r in ros if r.solved
                     and float(np.linalg.norm(r.final_x - 1.0)) > r.meta["epsilon"])
        errors += len(solver.audit_trace(tr))
        ros_its = sum(r.iterations for r in ros)
        ros_fevals = sum(row.fevals for r in ros for row in r.rows)
        quad_fevals = sum(row.fevals for row in tr.rows)
        return Rep(
            timing=timing,
            iterations=ros_its + tr.iterations,
            cell_s=cell_s,
            counts={
                "rosenbrock_iterations": ros_its,
                "rosenbrock_fevals": ros_fevals,
                "rosenbrock_counts": [list(row) for row in table.counts],
                "quadratic_iterations": tr.iterations,
                "quadratic_fevals": quad_fevals,
                "quadratic_termination": tr.termination,
            },
            digests={"rosenbrock_csv": sha256_text(table_csv),
                     "quadratic_trace": trace_digest([tr])},
            cells=len(traces),
            errors=errors,
        )


WORKLOADS = {w.name: w for w in (SweepSmallN(), RawBBLargeN(), GbbLineSearch())}


def trace_targets(tracer):
    """(owner, attribute, make) triples that put spans and counters on
    every layer boundary the per-layer metrics read."""

    def span(name, on_call=None):
        return lambda original: tracer.wrap(name, original, on_call)

    def raw_rows(t, args, tr):
        t.count("trace.rows", len(tr.rows))
        t.count("raw.iterations", tr.iterations)

    def gbb_rows(t, args, tr):
        t.count("trace.rows", len(tr.rows))
        t.count("solver.iterations", tr.iterations)
        t.count("solver.fevals", sum(r.fevals for r in tr.rows))
        t.count("solver.backtracks", sum(r.backtracks for r in tr.rows))

    def hessian_elems(t, args, result):
        t.count("kernels.hessian_apply.elems", args[4].size)

    def counted_safeguard(original):
        def safeguard(alpha, eta, delta):
            out = original(alpha, eta, delta)
            if not out == alpha:
                tracer.count("solver.delta_resets")
            return out

        return safeguard

    def traced_rosenbrock(original):
        def factory():
            obj = original()
            return solver.Objective(obj.name, obj.dim,
                                    tracer.wrap("solver.rosenbrock2.eval", obj.eval), obj.x0)

        return factory

    writers = span("harness.writers")
    targets = [
        (cli, "main", span("cli.main")),
        (harness, "run_quadratic_sweep", span("harness.run_quadratic_sweep")),
        (harness, "run_rosenbrock_table", span("harness.run_rosenbrock_table")),
        (harness.ProfileTable, "to_csv", writers),
        (harness.RosenbrockTable, "to_csv", writers),
        (quadratic, "generate_instance", span("quadratic.generate_instance")),
        (quadratic, "solve_bb", span("quadratic.solve_bb", raw_rows)),
        (solver, "run", span("solver.run", gbb_rows)),
        (solver, "safeguard", counted_safeguard),
        (solver, "rosenbrock2", traced_rosenbrock),
        (solver, "next_steplength", span("steps.next_steplength")),
        (steps, "next_steplength", span("steps.next_steplength")),
        (kernels, "raw_bb_loop", span("kernels.raw_bb_loop")),
        (kernels, "hessian_apply", span("kernels.hessian_apply", hessian_elems)),
        (kernels, "policy_step", span("kernels.policy_step")),
    ]
    targets += [(harness, name, writers) for name in (
        "average_table", "averages_to_csv", "sweep_to_csv", "sweep_to_json",
        "profile_from_cells")]
    return targets

"""Experiment orchestration and reporting.

Iteration-count sweeps over the random quadratic family, the planar
Rosenbrock iteration table, and performance profiles over a cost matrix.
All writers emit deterministic bytes: fixed row order and floats at 17
significant digits, so identical runs produce identical files.
"""

import csv
import io
import json
import math
from dataclasses import dataclass, fields
from itertools import product
from operator import attrgetter

import numpy as np

from . import kernels, quadratic, solver, trace
from .errors import (AllFailedOnProblemError, InvalidParameterError, StlsbbError, count,
                     inside, real)
from .steps import parse_policy

CAP_MARK = "--"


def fmt17(x):
    """Floats at 17 significant digits; round-trips float64 exactly."""
    return format(float(x), ".17g")


def _csv_value(v):
    """A table value as written: floats at 17 digits, None as empty."""
    if v is None:
        return ""
    return fmt17(v) if isinstance(v, float) else v


def _csv_text(comment, header, rows):
    """Deterministic CSV text: a '# comment' line, the header, the rows."""
    buf = io.StringIO()
    buf.write(f"# {comment}\n")
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def _csv_rows(text):
    """The rows of CSV text, without empty rows and '#' comment lines."""
    return [r for r in csv.reader(io.StringIO(text)) if r and not r[0].startswith("#")]


@dataclass(frozen=True)
class ExperimentGrid:
    """Cross product of spectrum recipes, condition numbers, tolerances,
    seeds and policies at one dimension."""

    n: int
    setting_ids: tuple = (1,)
    kappas: tuple = (1e4,)
    epsilons: tuple = (1e-6,)
    seeds: tuple = tuple(range(10))
    policies: tuple = ("bb1", "bb2", "gamma:1", "gamma:20")
    max_iter: int = 20000

    def __post_init__(self):
        for name in ("n", "max_iter"):
            object.__setattr__(self, name, count(getattr(self, name), name))
        for name, check in _AXES:
            object.__setattr__(self, name, _axis(name, getattr(self, name), check))

    def cell_count(self):
        return math.prod(len(getattr(self, name)) for name, _ in _AXES)


def _axis(name, values, check):
    """check(value, name) of each value, as a tuple; an empty axis, or a
    value repeated, which would count one run twice, is refused.  Policies
    compare as parsed, so gamma:20 and gamma:20.0 are one, and typos fail."""
    values = tuple(check(v, name) for v in values)
    if not values:
        raise InvalidParameterError(f"grid axis {name} is empty")
    seen = set()
    for value in values:
        key = parse_policy(value) if name == "policies" else value
        if key in seen:
            raise InvalidParameterError(f"grid axis {name} repeats {value!r}")
        seen.add(key)
    return values


# ExperimentGrid's axes in grid order, the order run_quadratic_sweep
# iterates them, each with the check its values are stored through.  A
# recipe number, or a kappa under a recipe's floor, that the instances
# refuse ends its cells as errors; a kappa, an epsilon or a seed that no
# cell could run with fails here
_AXES = (("setting_ids", lambda sid, name: count(sid, name, least=None)),
         ("kappas", lambda kappa, name: inside(kappa, name, 1.0, math.inf)),
         ("epsilons", lambda e, name: inside(e, name, 0.0, 1.0)),
         ("seeds", lambda seed, name: count(seed, name, least=0)),
         ("policies", lambda text, name: text))  # parse_policy checks each


@dataclass(frozen=True)
class SweepCell:
    """One solver run on one instance, with enough provenance to replay it.

    The fields are the sweep's columns, in _SWEEP_HEADER's order."""

    setting_id: int
    kappa: float
    epsilon: float
    seed: int
    n: int
    policy: str
    max_iter: int
    iterations: int | None
    status: str  # "ok", "cap", "nonfinite", or "error:<type>"

    @property
    def solved(self):
        return self.status == "ok"

    def cost(self):
        """Profile cost: iterations when solved, +inf otherwise."""
        return float(self.iterations) if self.solved else math.inf

    def problem_key(self):
        return (self.setting_id, self.kappa, self.epsilon, self.seed)


_SWEEP_HEADER = [
    "setting", "kappa", "epsilon", "seed", "n", "policy",
    "max_iter", "iterations", "status",
]
_sweep_values = attrgetter(*(f.name for f in fields(SweepCell)))


# A sweep's lock-step block holds at most this many rows, which is the
# tighter cap below n = 342.  The block stays full while the grid has rows
# left, so a wider one takes fewer steps but holds more memory.  On the
# benchmark's n = 100, 280-cell sweep (2-vCPU Xeon, BLAS threads 1), blocks
# of 40 / 96 / 140 / 280 rows took 0.46-0.50 / 0.39-0.41 / 0.41 /
# 0.42-0.45 s (min of 7 CPU times, two rounds) at 36.2 / 37.5 / 38.4 /
# 41.8 MB peak RSS.  The 96-row block averages 75 live rows per step
# (1 499 steps for 112 992 iterations); 96-row calls that each ran until
# their slowest row finished averaged 42 (2 682 steps).
_SWEEP_ROWS = 96


def _outcome(termination, iterations):
    if termination == trace.NONFINITE:
        return None, trace.NONFINITE
    return iterations, "ok" if termination == trace.GRADIENT_TOLERANCE else "cap"


def run_quadratic_sweep(grid, progress=None):
    """Run every grid cell; returns SweepCells in deterministic grid order
    (setting, kappa, epsilon, seed, policy, outermost first).

    The whole grid goes, in grid order, through one count-only
    (history=False) kernels.raw_bb_loop whose block holds at most 96 rows
    and at most 2^15 doubles per (rows x n) array; a row that finishes
    hands its slot to the next cell, whatever its (setting, kappa,
    epsilon) group.  Each row is keyed by its cell's place in the grid
    and gives back only its termination and its iteration count: its
    block steps the gradient alone and holds no x and no b.  The grid has
    already checked epsilon, max_iter and the policies.  Every cell counts
    exactly what a solve_bb call on it counts.  Each (setting, kappa,
    seed) instance is generated once, when its first cell takes a slot,
    and freed once its last row has left.  A cell that hits the iteration
    cap is recorded at the cap with solved=False; a cell whose gradient
    turns nan or inf is recorded as nonfinite, and a cell whose instance
    fails to build as an error marker that takes no row, both without an
    iteration count; neither aborts the sweep.  progress, when given, is
    called with each cell as it ends, in the order the cells finish.
    """
    policies = {p: parse_policy(p) for p in grid.policies}
    width = min(max(1, kernels._BLOCK_DOUBLES // grid.n), _SWEEP_ROWS)
    cells = []  # a SweepCell, or the grid values of a cell still running

    def finish(i, iterations, status):
        sid, kappa, eps, seed, pol = cells[i]
        cells[i] = SweepCell(sid, kappa, eps, seed, grid.n, pol, grid.max_iter,
                             iterations, status)
        if progress is not None:
            progress(cells[i])

    def grid_rows():
        x0 = np.ones(grid.n)
        for sid, kappa in product(grid.setting_ids, grid.kappas):
            insts = {}  # the last group's instances live on only in the block
            for eps, seed, pol in product(grid.epsilons, grid.seeds, grid.policies):
                if seed not in insts:
                    try:
                        insts[seed] = quadratic.generate_instance(
                            grid.n, quadratic.SpectrumSetting(sid, kappa), seed)
                    except StlsbbError as exc:
                        insts[seed] = f"error:{type(exc).__name__}"
                cells.append((sid, kappa, eps, seed, pol))
                inst = insts[seed]
                if isinstance(inst, str):  # the instance failed to build: its status
                    finish(len(cells) - 1, None, inst)
                else:
                    yield len(cells) - 1, inst, policies[pol], x0, None, eps

    kernels.raw_bb_loop(grid_rows(), width, grid.max_iter,
                        lambda i, end: finish(i, *_outcome(*end)), history=False)
    return cells


_AVERAGES_HEADER = [
    "setting", "kappa", "epsilon", "n", "policy", "seeds", "failed", "mean_iterations",
]


def average_table(cells):
    """Mean iteration count per (setting, kappa, epsilon, policy) over
    seeds; capped cells enter the mean at the cap value and are counted in
    'failed', error and nonfinite cells are excluded from the mean
    entirely."""
    groups = {}
    for c in cells:
        groups.setdefault((c.setting_id, c.kappa, c.epsilon, c.n, c.policy), []).append(c)
    rows = []
    for key, members in groups.items():
        counted = [c.iterations for c in members if c.iterations is not None]
        mean = sum(counted) / len(counted) if counted else math.nan
        failed = sum(not c.solved for c in members)
        rows.append(dict(zip(_AVERAGES_HEADER, (*key, len(members), failed, mean))))
    return rows


def sweep_to_csv(cells):
    """Cells as deterministic CSV text; every row is self-contained."""
    return _csv_text(
        "stlsbb-sweep-v1 stop_rule=grad_rel alpha0_rule=inf_norm x0=ones",
        _SWEEP_HEADER,
        ([_csv_value(v) for v in _sweep_values(c)] for c in cells),
    )


def sweep_from_csv(text):
    """Inverse of sweep_to_csv, which reads back every row it writes.

    A row must have the nine columns and numbers of their kinds, read
    through count and inside; otherwise it raises ValueError, as for
    text where a number belongs.  A row that reads but breaks a rule
    the writer keeps raises InvalidParameterError: its policy must parse,
    and its status hold its iterations, 0..max_iter for ok, max_iter for
    cap, and none for nonfinite and error:<type>.  Either error names the
    row as "sweep row i: ...", counting data rows from 1.
    """
    rows = _csv_rows(text)
    if not rows or rows[0] != _SWEEP_HEADER:
        raise InvalidParameterError("not a sweep CSV (missing or wrong header row)")
    cells = []
    for i, row in enumerate(rows[1:], 1):
        if len(row) != len(_SWEEP_HEADER):
            raise ValueError(
                f"sweep row {i}: has {len(row)} columns, expected {len(_SWEEP_HEADER)}")
        sid, kappa, eps, seed, n, policy, max_iter, iterations, status = row
        try:
            cell = SweepCell(
                # setting, kappa, epsilon and seed through their grid axes' checks
                *(check(v, name) for (_, check), v, name
                  in zip(_AXES, (sid, kappa, eps, seed), _SWEEP_HEADER)),
                count(n, "n"), policy, count(max_iter, "max_iter"),
                None if iterations == "" else count(iterations, "iterations", least=0), status)
        except InvalidParameterError as exc:
            raise ValueError(f"sweep row {i}: {exc}") from exc
        try:
            parse_policy(policy)
        except InvalidParameterError as exc:
            raise InvalidParameterError(f"sweep row {i}: {exc}") from exc
        k, cap = cell.iterations, cell.max_iter
        if status == "ok":
            held = k is not None and k <= cap
        elif status == "cap":
            held = k == cap
        else:
            held = k is None and (status == "nonfinite" or status.startswith("error:"))
        if not held:
            raise InvalidParameterError(
                f"sweep row {i}: status {status!r} cannot hold iterations {iterations!r} "
                f"at max_iter {cap}")
        cells.append(cell)
    return cells


def averages_to_csv(avg_rows):
    return _csv_text("stlsbb-averages-v1", _AVERAGES_HEADER,
                     ([_csv_value(r[k]) for k in _AVERAGES_HEADER] for r in avg_rows))


def sweep_to_json(cells):
    return json.dumps(
        {
            "format": "stlsbb-sweep-v1",
            "stop_rule": "grad_rel",
            "alpha0_rule": "inf_norm",
            "x0": "ones",
            "cells": [dict(zip(_SWEEP_HEADER, _sweep_values(c))) for c in cells],
        },
        indent=2,
    )


@dataclass(frozen=True)
class RosenbrockTable:
    """Iteration counts per (epsilon, policy); None marks a cap hit."""

    epsilons: tuple
    policies: tuple
    counts: tuple  # counts[i][j] for epsilons[i] x policies[j]

    def count(self, epsilon, policy):
        i = self.epsilons.index(epsilon)
        j = self.policies.index(policy)
        return self.counts[i][j]

    def render(self):
        """Plain-text table with cap hits shown as '--'."""
        width = max(12, max(len(p) for p in self.policies) + 2)
        head = "epsilon".ljust(12) + "".join(p.rjust(width) for p in self.policies)
        lines = [head]
        for i, eps in enumerate(self.epsilons):
            cells = "".join(
                (CAP_MARK if c is None else str(c)).rjust(width)
                for c in self.counts[i]
            )
            lines.append(f"{eps:<12g}" + cells)
        return "\n".join(lines)

    def to_csv(self):
        return _csv_text(
            "stlsbb-rosenbrock-v1 x0=-1.2,1 alpha0=1 stop=point_dist",
            ["epsilon", "policy", "iterations"],
            ([fmt17(eps), pol, CAP_MARK if c is None else c]
             for eps, row in zip(self.epsilons, self.counts)
             for pol, c in zip(self.policies, row)),
        )


def run_rosenbrock_table(
    epsilons=(1e-1, 1e-2, 1e-4, 1e-8),
    policies=("bb1", "bb2", "gamma:1", "gamma:1.5"),
    max_iter=5000,
):
    """Iteration counts on the planar Rosenbrock valley.

    Each run starts at (-1.2, 1) with opening steplength 1 and stops when
    the iterate is within epsilon of the minimizer (1, 1); a run that
    exhausts max_iter first gets None.  Every cell is an independent run.
    Both axes are checked as ExperimentGrid's are before the first run.
    """
    # each value keeps the table's own check and message
    epsilons = _axis("epsilons", epsilons, lambda e, _: inside(e, "epsilon", 0.0, math.inf))
    policies = _axis("policies", policies, lambda pol, _: pol)
    max_iter = count(max_iter, "max_iter")
    obj = solver.rosenbrock2()
    target = np.array([1.0, 1.0])
    counts = []
    for eps in epsilons:
        row = []
        for pol in policies:
            config = solver.SolverConfig(
                epsilon=eps,
                max_iter=max_iter,
                alpha0=1.0,
                stop_rule=solver.STOP_POINT_DIST,
                target=target,
            )
            tr = solver.run(obj, obj.x0, config, parse_policy(pol))
            row.append(tr.iterations if tr.solved else None)
        counts.append(tuple(row))
    return RosenbrockTable(
        epsilons=epsilons,
        policies=policies,
        counts=tuple(counts),
    )


@dataclass(frozen=True)
class ProfileTable:
    """Performance ratios r[p, s] = cost[p, s] / min_s cost[p, s], with
    +inf marking failures.

    Each solver's ratios are sorted once, so rho(theta) is a binary
    search: the count of ratios <= theta over the P problems, the same
    float64 as the mean of the boolean column.  A whole profile of T
    thresholds costs O(S P log P + T S log P) instead of T S passes over
    P problems."""

    solvers: tuple
    ratios: np.ndarray

    def __post_init__(self):
        r = np.array(self.ratios, dtype=float, copy=True)
        r.setflags(write=False)
        object.__setattr__(self, "ratios", r)
        object.__setattr__(self, "solvers", tuple(self.solvers))
        object.__setattr__(self, "_sorted", np.sort(r, axis=0))

    def _col(self, s):
        # solver s's ratios in ascending order, nan (if any) last
        if isinstance(s, str):
            s = self.solvers.index(s)
        return self._sorted[:, s]

    def rho(self, s, theta):
        """Fraction of problems solver s solves within a factor theta of
        the per-problem best."""
        t = real(theta, "theta")
        if not t >= 1.0:
            raise InvalidParameterError(f"theta must be >= 1, got {theta!r}")
        return int(np.searchsorted(self._col(s), t, side="right")) / len(self.ratios)

    def solve_fraction(self, s):
        """rho at theta -> inf: the fraction of problems solved at all."""
        return int(np.count_nonzero(np.isfinite(self._col(s)))) / len(self.ratios)

    def thresholds(self):
        """Sorted unique finite ratios (always starting at 1), the points
        where some rho curve steps."""
        v = np.sort(np.concatenate(([1.0], self.ratios[np.isfinite(self.ratios)])))
        return v[np.concatenate(([True], v[1:] != v[:-1]))]

    def to_csv(self):
        thetas = self.thresholds()
        if not thetas[0] >= 1.0:  # a ratio below 1, which rho rejects as theta
            raise InvalidParameterError(f"theta must be >= 1, got {thetas[0]!r}")
        counts = [np.searchsorted(col, thetas, side="right") for col in self._sorted.T]
        rhos = np.stack(counts, axis=1) / len(self.ratios)
        return _csv_text(
            "stlsbb-profile-v1",
            ["theta", *self.solvers],
            ([fmt17(theta)] + [fmt17(r) for r in row]
             for theta, row in zip(thetas.tolist(), rhos.tolist())),
        )


def performance_profile(costs, solvers=None):
    """Build a ProfileTable from a (problems x solvers) cost matrix.

    Costs must be positive; nan or inf marks failure and maps to ratio
    +inf.  Raises AllFailedOnProblemError when some problem row has no
    finite cost, since its best-cost denominator would be undefined.
    """
    c = np.array(costs, dtype=float)
    if c.ndim != 2 or c.shape[0] < 1 or c.shape[1] < 2:
        raise InvalidParameterError(
            "cost matrix must be 2-D with at least 1 problem and 2 solvers"
        )
    if solvers is None:
        solvers = tuple(f"s{j}" for j in range(c.shape[1]))
    elif len(solvers) != c.shape[1]:
        raise InvalidParameterError("solver names do not match the matrix width")
    repeated = next((s for j, s in enumerate(solvers) if s in solvers[:j]), None)
    if repeated is not None:
        raise InvalidParameterError(f"solver {repeated!r} is named more than once")
    c[~np.isfinite(c)] = math.inf
    if np.any(c <= 0.0):
        raise InvalidParameterError("costs must be positive")
    best = c.min(axis=1)
    bad = np.where(~np.isfinite(best))[0]
    if bad.size:
        raise AllFailedOnProblemError(
            f"every solver failed on problem row(s) {bad.tolist()}"
        )
    return ProfileTable(solvers=tuple(solvers), ratios=c / best[:, None])


def profile_from_cells(cells):
    """Pivot sweep cells into a profile: problems are (setting, kappa,
    epsilon, seed), solvers are policies, cost is the iteration count with
    cap or error as failure.  A policy has at most one cell per problem."""
    problems = {}  # key -> row, in first-seen order
    solvers_ = {}  # policy -> column
    for c in cells:
        problems.setdefault(c.problem_key(), len(problems))
        solvers_.setdefault(c.policy, len(solvers_))
    costs = np.full((len(problems), len(solvers_)), math.inf)
    seen = set()
    for c in cells:
        at = problems[c.problem_key()], solvers_[c.policy]
        if at in seen:
            raise InvalidParameterError(
                f"policy {c.policy!r} has more than one cell on problem {c.problem_key()!r}")
        seen.add(at)
        costs[at] = c.cost()
    return performance_profile(costs, tuple(solvers_))


def profile_from_matrix_csv(text):
    """Profile from a generic cost-matrix CSV: a header row naming the
    first column freely and one column per solver, then one row per
    problem, as wide as the header.  Empty cells and the tokens
    nan/inf/fail/-- mean failure."""
    rows = _csv_rows(text)
    if len(rows) < 2 or len(rows[0]) < 3:
        raise InvalidParameterError(
            "cost matrix CSV needs a header row and at least 1 problem x 2 solvers"
        )
    solvers_ = tuple(h.strip() for h in rows[0][1:])
    costs = []
    for i, r in enumerate(rows[1:], 1):
        if len(r) != len(rows[0]):
            raise ValueError(
                f"problem row {i} ({r[0]!r}) has {len(r)} fields; the header has {len(rows[0])}"
            )
        vals = []
        for cell in r[1:]:
            token = cell.strip().lower()
            if token in ("", "nan", "inf", "fail", CAP_MARK):
                vals.append(math.inf)
            else:
                vals.append(float(cell))
        costs.append(vals)
    return performance_profile(np.array(costs), solvers_)

"""Globalized BB gradient solver for general smooth objectives.

BB-type steplengths are made safe outside the convex quadratic world by
three guards: a safeguard band that resets wild steplengths to a fixed
fallback, a nonmonotone acceptance test against the largest of the last
memory+1 objective values, and geometric backtracking.  An accepted step
hands its secant pair to the steplength policy for the next proposal.
"""

import math
from collections import deque
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple

import numpy as np

from . import kernels
from .errors import (
    DimensionMismatchError,
    InvalidParameterError,
    LineSearchStallError,
    NonpositiveCurvatureError,
    count,
    inside,
    vector,
)
from .steps import SecantProducts, next_steplength
from .trace import GRADIENT_TOLERANCE, ITERATION_CAP, NONFINITE, RunTrace

STOP_GRAD_ABS = "grad_abs"
STOP_GRAD_REL = "grad_rel"
STOP_POINT_DIST = "point_dist"
STOP_RULES = (STOP_GRAD_ABS, STOP_GRAD_REL, STOP_POINT_DIST)


@dataclass(frozen=True)
class Objective:
    """Differentiable objective: eval(x) returns (f, gradient).

    x0 is the conventional starting point, when the problem has one.
    eval_rows, when given, evaluates a block at once: eval_rows(X) for a
    (rows, dim) array returns (f_rows, G_rows), with f_rows a list of
    floats or a 1-D float array, and row i must equal eval(X[i]) bit for
    bit, because run() uses it to evaluate a round of trial points whose
    first acceptable row it keeps.  G_rows may be any sequence of one
    gradient per row: run() reads only len(G_rows) and the kept row
    G_rows[i], so an objective whose gradients cost more than its f may
    compute each when it is read, as rosenbrock2 does; a row may be any
    sequence of floats, which run() copies once into the float64 array it
    keeps.  Without it, run() calls eval once per trial point and never at
    a point it does not need.  An objective may be written once, as
    eval_rows, as the built-in ones are: eval(x) is then row 0 of
    eval_rows(x[None]), f as a float and the gradient as a float64 array,
    and a strided x is made contiguous first, so a view gives its copy's
    bits.

    lower_bounds, when given, is lower_bounds(x, f, g, steps): for an
    iterate x with the f and g that eval gave there, and each steplength
    a in steps, one float lo such that the f eval_rows computes at the row
    kernels.trial_rows(x, g, [a]) is finite and at least lo, or -inf
    where the bound cannot say.  run() rejects the leading trials of a
    round whose lo > f_max - beta * a * ||g||^2 without evaluating them,
    so a nan or -inf lo decides nothing, a bound that breaks this contract
    changes the run, and one that keeps it changes no decision and no
    trace.  It needs eval_rows, since only rounds of two or more trials
    read it.  quadratic.as_objective supplies one, proven from
    rounding-error bounds.
    """

    name: str
    dim: int
    eval: Callable | None = None
    x0: np.ndarray | None = None
    eval_rows: Callable | None = None
    lower_bounds: Callable | None = None

    def __post_init__(self):
        object.__setattr__(self, "dim", count(self.dim, "dim"))
        for name in ("eval_rows", "lower_bounds"):
            value = getattr(self, name)
            if value is not None and not callable(value):
                raise InvalidParameterError(f"{name} must be callable or None, got {value!r}")
        eval_rows = self.eval_rows
        if self.eval is None and eval_rows is not None:
            # a closure, so that an Objective holds no reference to itself
            def eval_(x):
                f, g = eval_rows(np.ascontiguousarray(x, dtype=float)[None])
                return float(f[0]), np.asarray(g[0], dtype=float)
            object.__setattr__(self, "eval", eval_)
        if not callable(self.eval):
            raise InvalidParameterError(f"eval must be callable, got {self.eval!r}")
        if self.lower_bounds is not None and self.eval_rows is None:
            raise InvalidParameterError("lower_bounds needs eval_rows")
        if self.x0 is not None:
            object.__setattr__(self, "x0", vector(self.x0, "x0", self.dim))


def _square_or_inf(r):
    try:
        return r**2
    except OverflowError:
        return math.inf


def _rosenbrock_gradient(x1, x2):
    t = x2 - x1 * x1
    return -400.0 * x1 * t - 2.0 * (1.0 - x1), 200.0 * t


class _RosenbrockGradients:
    # the gradient rows of one block, each computed from the block's Python
    # floats (x1, x2, x1, x2, ...) when it is read, since run reads one row
    # of a round; np.asarray reads every row through __getitem__
    __slots__ = ("_flat",)

    def __init__(self, flat):
        self._flat = flat

    def __len__(self):
        return len(self._flat) // 2

    def __getitem__(self, i):
        # 2i and 2i + 1 index the flat list as i indexes the rows, from
        # either end, and raise IndexError where i is past one.  The row is
        # its two Python floats, so the one array made of it is the copy
        # run keeps
        return _rosenbrock_gradient(self._flat[2 * i], self._flat[2 * i + 1])


def rosenbrock2():
    """Planar Rosenbrock valley, minimum f = 0 at (1, 1); the conventional
    start is (-1.2, 1).

    Its eval_rows gives f as a list of floats and G as a sequence of
    gradient rows that computes row i, a pair of Python floats, only when
    it is read (np.asarray(G) reads them one by one into a (rows, 2)
    float64 block): run reads the gradient of the one row it keeps from
    each round, and makes its one float64 copy of that pair.  It is
    written once: eval is row 0, its gradient a float64 array.
    """

    def eval_rows(xs):
        # one pass on Python floats, which round each operation as float64
        # does and overflow to inf, and give nan, without a warning.
        # (1 - x1)^2 is squared through libm pow, which the published
        # traces and goldens were recorded with; numpy's square, power and
        # u * u do not always round the same way.  pow raises OverflowError
        # where the square passes float range, from |1 - x1| about 1.34e154
        # on; only then is the block taken again row by row, with that
        # square read as inf
        flat = xs.ravel().tolist()
        it = iter(flat)
        try:
            f = [100.0 * (t := x2 - x1 * x1) * t + (1.0 - x1) ** 2 for x1, x2 in zip(it, it)]
        except OverflowError:
            it = iter(flat)
            f = [100.0 * (t := x2 - x1 * x1) * t + _square_or_inf(1.0 - x1)
                 for x1, x2 in zip(it, it)]
        return f, _RosenbrockGradients(flat)

    return Objective("rosenbrock2", 2, x0=np.array([-1.2, 1.0]), eval_rows=eval_rows)


@dataclass(frozen=True)
class SolverConfig:
    """Line-search solver parameters.

    memory is the nonmonotone window length M (the test compares against
    the max of the last M+1 objective values, which run and audit_trace
    both read in O(1) amortised per row); beta the sufficient
    decrease coefficient; eta the safeguard band edge (steplengths outside
    (eta, 1/eta) reset to delta); sigma the backtracking shrink factor, by
    which run builds one trial ladder alpha, sigma*alpha, ... per
    safeguarded alpha, extended as rounds need it and kept while alpha is
    unchanged, as it is across delta resets;
    epsilon/stop_rule/target define termination, and only the point_dist
    rule takes a target, which must be finite; alpha0 = None means run's
    opening probe.
    """

    epsilon: float = 1e-8
    max_iter: int = 5000
    memory: int = 10
    beta: float = 0.1
    delta: float = 0.1
    eta: float = 0.001
    sigma: float = 0.8
    alpha0: float | None = None
    stop_rule: str = STOP_GRAD_ABS
    target: np.ndarray | None = None
    backtrack_cap: int = 100

    def __post_init__(self):
        for name, lo, hi in (("epsilon", 0.0, math.inf), ("beta", 0.0, 1.0),
                             ("eta", 0.0, 1.0), ("sigma", 0.0, 1.0)):
            object.__setattr__(self, name, inside(getattr(self, name), name, lo, hi))
        # the fallback steplength lies inside the safeguard band (eta, 1/eta)
        object.__setattr__(self, "delta", inside(self.delta, "delta", self.eta, 1.0 / self.eta))
        for name, least in (("max_iter", 1), ("memory", 0), ("backtrack_cap", 1)):
            object.__setattr__(self, name, count(getattr(self, name), name, least))
        if self.alpha0 is not None:
            object.__setattr__(self, "alpha0", inside(self.alpha0, "alpha0", 0.0, math.inf))
        if self.stop_rule not in STOP_RULES:
            raise InvalidParameterError(
                f"stop_rule must be one of {STOP_RULES}, got {self.stop_rule!r}"
            )
        if self.stop_rule != STOP_POINT_DIST:
            if self.target is not None:
                raise InvalidParameterError(f"stop rule {self.stop_rule!r} takes no target")
        elif self.target is None:
            raise InvalidParameterError("stop rule 'point_dist' needs a target point")
        else:
            object.__setattr__(self, "target", vector(self.target, "target", finite=True))

    def to_meta(self):
        """Trace meta: every field but alpha0 and target in declaration
        order, then target when it is set.  from_meta inverts it."""
        d = {"solver": "gbb"}
        d.update((name, getattr(self, name)) for name in _META_FIELDS)
        if self.target is not None:
            d["target"] = [float(v) for v in self.target]
        return d

    @classmethod
    def from_meta(cls, meta):
        missing = [name for name in _META_FIELDS if name not in meta]
        if missing:
            raise InvalidParameterError(f"trace meta lacks {', '.join(missing)}")
        return cls(**{name: meta[name] for name in _META_FIELDS}, target=meta.get("target"))


# alpha0 is stored apart, as the value the run used; target only when set
_META_FIELDS = tuple(
    f.name for f in fields(SolverConfig) if f.name not in ("alpha0", "target")
)


def nonmonotone_accept(f_trial, f_max, beta, alpha, grad_sq):
    """Acceptance test: f_trial <= f_max - beta * alpha * grad_sq, where
    f_max is the largest of the last memory+1 objective values.

    audit_trace() decides with it on one trial's Python floats, which
    overflow to inf quietly, and run() writes the same expression out in
    its loop, so a replayed trace reproduces each decision bit for bit.
    On numpy arrays it rounds each element as on floats.
    """
    return f_trial <= f_max - beta * alpha * grad_sq


def safeguard(alpha, eta, delta):
    """Reset alpha to delta when it is outside (eta, 1/eta) or not finite."""
    if not math.isfinite(alpha) or alpha <= eta or alpha >= 1.0 / eta:
        return delta
    return alpha


def _norm(x):
    # np.linalg.norm of a 1-D array is sqrt(x.dot(x)); this is the same
    # bits without its dispatch
    return math.sqrt(float(x.dot(x)))


def _stopped(config, x, gn, gn0):
    if config.stop_rule == STOP_GRAD_ABS:
        return gn < config.epsilon
    if config.stop_rule == STOP_GRAD_REL:
        return gn <= config.epsilon * gn0
    return _norm(x - config.target) <= config.epsilon


def _rounds_of_one(objective):
    # eval_rows for an objective without one: each round is one eval call
    def eval_rows(xs):
        f, g = objective.eval(xs[0])
        return [float(f)], [g]

    return eval_rows


class _Continuation(NamedTuple):
    # what a resumed run reads beside the trace's read-only columns: the
    # run it continues (origin is run's own copy of x0), and the state at
    # its last row that the columns do not hold.  meta and final_x are the
    # caller's to change, so nothing is read from them
    objective: Objective
    origin: np.ndarray
    config: SolverConfig
    policy: object
    x: np.ndarray
    g: np.ndarray
    alpha: float  # the next safeguard's input, which it maps to itself if safeguarded
    prev: float | None  # ATC's previous steplength
    alpha0: float


def _bits(value):
    # an array (x0, a config's target) compares by its bits
    return value.tobytes() if isinstance(value, np.ndarray) else value


def _continuation(resume, objective, origin, config, policy):
    """resume's continuation, checked to continue this very run: the same
    objective object, x0 bits and policy, and a config equal in every
    field but epsilon, which may only tighten."""
    cont = getattr(resume, "_continuation", None) if isinstance(resume, RunTrace) else None
    if cont is None:
        raise InvalidParameterError(
            "resume takes a trace that solver.run returned, not one loaded from JSON, "
            f"written by another solver or built by hand; got {type(resume).__name__}")
    then = cont.config
    same = {"objective": cont.objective is objective,
            "x0": _bits(cont.origin) == _bits(origin),
            "policy": cont.policy == policy}
    same.update((f.name, _bits(getattr(then, f.name)) == _bits(getattr(config, f.name)))
                for f in fields(SolverConfig) if f.name != "epsilon")
    differs = [name for name, held in same.items() if not held]
    if differs:
        raise InvalidParameterError(
            f"resume takes a trace of this same run, but its {', '.join(differs)} differ "
            f"from this call's")
    if then.epsilon < config.epsilon:
        raise InvalidParameterError(
            f"resume takes a trace run at a looser or equal epsilon; it ran at "
            f"{then.epsilon!r}, tighter than {config.epsilon!r}")
    return cont.origin, cont.x, cont.g, cont.alpha, cont.prev, cont.alpha0


@np.errstate(**kernels._QUIET)
def run(objective, x0, config, policy, resume=None):
    """Minimize a smooth objective with safeguarded nonmonotone BB steps.

    The opening steplength is config.alpha0, or else the probe from the
    start's own f0 and g0: a = 1 / ||g0||_inf, kept when
    f(x0 - a g0) < f0 and quartered otherwise, so x0 is evaluated once.
    Each iteration safeguards the proposed steplength into (eta, 1/eta)
    (resetting to delta otherwise), backtracks by sigma until the trial
    point passes the nonmonotone test, then steps and asks the policy for
    the next proposal from the accepted secant pair.  The test's window,
    the last memory+1 values of f, is read from the trace's own f column
    by the sliding-window maximum audit_trace replays with, in O(1)
    amortised per iteration.  Nonpositive curvature maps the proposal to
    +inf, which the next safeguard resets to delta, and ATC then reads
    delta as its previous steplength.  A zero gradient stops immediately
    regardless of stop rule; a nan or inf f or ||g|| at an iterate stops the run first,
    with termination nonfinite.  So does a line search whose every trial f was
    nan or +inf when the backtrack cap is hit; if some trial f was finite,
    that raises LineSearchStallError instead.

    The line search backtracks in rounds: a round evaluates the next trial
    steplengths a, sigma*a, sigma^2*a, ... as the rows of one
    objective.eval_rows call and keeps the first row that passes; rows
    after it are discarded.  An iteration's first round holds as many
    trials as the larger of the last two iterations needed, read from the
    trace's backtracks column, and one at k = 0; if it fails,
    the next round holds one trial and each later round twice as many as
    the one before.  The trials are rungs of one ladder per safeguarded
    alpha: the steplengths alpha, sigma*alpha, sigma^2*alpha, ... made by
    repeated multiplication, beta times each, and a float64 array of them
    for kernels.trial_rows.  The ladder is started only when alpha
    changes, so the many searches that start at delta share one, and
    extended only when a round needs rungs past its end; a round reads
    slices of it, and lower_bounds is handed a list of its own.  An
    iteration never evaluates more than backtrack_cap + 1 trials, and a
    round never more rows than fit kernels._BLOCK_DOUBLES.  An objective without eval_rows takes rounds
    of one through eval.  With objective.lower_bounds, a round of two or
    more trials first rejects, unevaluated, its leading trials whose lower
    bound lo already fails the test, lo > f_max - beta * a * grad_sq,
    and evaluates its rows from the first trial left undecided; a nan lo
    decides nothing.  Such trials count as finite, failed trials.  Each
    bound and each trial is compared with nonmonotone_accept's float
    expression, written out in the loop.  On quadratics most rejected
    trials are decided by the proven bound, so fevals counts trials
    decided, not objective calls.  Where the safeguard band lets the
    policies' steps through, as a wide band does, few trials are rejected
    and the bound seldom acts.  Every decision is
    the one trial-by-trial backtracking makes, on the same floats as
    audit_trace, so every trace is the same bit for bit with or without
    the bound.  run copies the opening gradient and each accepted point
    and gradient out of what the objective returned, so an objective may
    reuse its output arrays and no round's block outlives its round.  Its
    copy of x0 is read-only, as Objective.x0 is, so an eval that writes
    into the point it is handed raises instead of moving the iterate.
    A round whose eval_rows gives other than one f and one gradient per
    row, or a kept gradient whose length is not objective.dim, raises
    DimensionMismatchError.

    The whole run, the objective's evaluations included, runs under
    np.errstate(**kernels._QUIET), as the raw loop's products do: an
    overflow, inf - inf or zero divisor warns of nothing and ends the run
    as nonfinite or takes a safeguard reset.

    resume, when given, is a trace that an earlier run call returned for
    this same run at a looser or equal epsilon: the same objective object,
    the same x0 bits, an equal policy and a config equal in every field but
    epsilon.  The run then starts at that trace's last row instead of at
    x0: it takes over x, f, g, ||g||, ||g0||, the pending alpha, ATC's
    previous steplength, k and the opening steplength, and its columns are
    the earlier ones without the last row, which the loop appends again
    and tests under this epsilon.  It returns the very trace an
    independent run gives, bit for bit, because epsilon reaches the loop
    only through the stop test, and each rule is monotone in it (||g|| <
    eps, ||g|| <= eps ||g0||, ||x - target|| <= eps): every earlier row
    failed the looser test, so it fails this one too.  The zero-gradient,
    nonfinite and max_iter stops read no epsilon, the window and the round
    sizes read the columns, and the trial ladder depends only on alpha, so
    a resume from a capped or nonfinite trace ends the same way at the
    same row.  What the resume reads beside the read-only columns is held
    by a private continuation that run attaches to each trace it returns;
    nothing is read from the trace's meta or final_x, and to_dict writes
    none of it.  Any other resume, such as a trace loaded from JSON or one
    of solve_bb, or a trace of another run or of a tighter epsilon, raises
    InvalidParameterError naming what differs.

    Returns a RunTrace; row k records f and ||g|| at iterate k plus the
    post-safeguard steplength alpha, so the step actually taken is
    alpha * sigma**backtracks.
    """
    x = vector(x0, "x0", objective.dim)
    if config.target is not None:
        vector(config.target, "target", objective.dim)
    eval_rows, lower_bounds = objective.eval_rows, objective.lower_bounds
    block_rows = max(1, kernels._BLOCK_DOUBLES // objective.dim)
    if eval_rows is None:
        eval_rows, block_rows = _rounds_of_one(objective), 1
    if resume is not None:
        origin, x, g, alpha, prev, alpha0_used = _continuation(
            resume, objective, x, config, policy)
        # the earlier run's columns without its last row, which the loop
        # appends again and tests under this run's epsilon
        f_col, gn_col = resume.f.tolist(), resume.grad_norm.tolist()
        f, gn, gn0 = f_col.pop(), gn_col.pop(), resume.grad_norm[0].item()
        alpha_col, bt_col = resume.alpha[:-1].tolist(), resume.backtracks[:-1].tolist()
        k = len(bt_col)
    else:
        origin = x  # never written: each step binds x to a new array
        f, g = objective.eval(x)
        f = float(f)
        g = np.array(g, dtype=float).reshape(-1)
        if g.size != objective.dim:
            raise DimensionMismatchError(
                f"gradient has length {g.size}, expected {objective.dim}")
        gn = gn0 = _norm(g)
        if config.alpha0 is not None:
            alpha = config.alpha0
        elif gn0 == 0.0 or not math.isfinite(gn0):
            alpha = config.delta  # never used: the loop stops before stepping
        else:
            a = 1.0 / float(np.max(np.abs(g)))
            alpha = a if objective.eval(x - a * g)[0] < f else 0.25 * a
        alpha0_used = float(alpha)
        # the trace's columns, one entry per iterate, from which the line
        # search reads its window and its first round's size
        f_col, gn_col, alpha_col, bt_col = [], [], [], []
        k = 0
        prev = None  # ATC's state is (k, prev), as in kernels.raw_bb_loop
    beta, sigma, eta, delta = config.beta, config.sigma, config.eta, config.delta
    cap, max_iter = config.backtrack_cap, config.max_iter
    # the largest of the last memory + 1 values of f, read once per step
    # after its f is appended and found finite, so every value it reads is
    # finite and it is builtin max's; a resumed run's window first passes
    # the rows it inherits
    window = _window_maxima(f_col, config.memory)
    for _ in range(k):
        next(window)
    # the trial ladder of the current safeguarded alpha: rungs, beta times
    # each in rungs_beta, and rungs_array; see the docstring
    ladder_alpha = math.nan  # equal to no alpha, so the first search starts one
    while True:
        f_col.append(f)
        gn_col.append(gn)
        if not (math.isfinite(f) and math.isfinite(gn)):
            termination = NONFINITE
            break
        if gn == 0.0 or _stopped(config, x, gn, gn0):
            termination = GRADIENT_TOLERANCE
            break
        if k >= max_iter:
            termination = ITERATION_CAP
            break
        alpha = safeguard(alpha, eta, delta)
        if alpha != ladder_alpha:
            ladder_alpha, next_rung, rungs, rungs_beta = alpha, alpha, [], []
        grad_sq = gn * gn
        f_max = next(window)
        tried = 0  # trials in this iteration's earlier rounds
        size = 1 + max(bt_col[-2:]) if k else 1  # the larger of the last two needs
        finite_trial = False
        while tried <= cap:
            size = min(size, cap + 1 - tried, block_rows)
            stop = tried + size
            if stop > len(rungs):
                for _ in range(stop - len(rungs)):
                    rungs.append(next_rung)
                    rungs_beta.append(beta * next_rung)
                    next_rung *= sigma
                rungs_array = np.array(rungs)
            # the leading trials whose lower bound fails the test fail it at
            # their f too, which is finite, so they are rejected unevaluated;
            # the rows start at the first trial the bound leaves undecided,
            # as a nan lo does.  A round of one trial costs about what the
            # bound costs, so it is evaluated outright.  The bound is handed
            # a copy of the round's rungs, so it cannot change the ladder
            skip = 0
            if lower_bounds is not None and size > 1:
                for lo, ba in zip(lower_bounds(x, f, g, rungs[tried:stop]),
                                  rungs_beta[tried:stop]):
                    if not lo > f_max - ba * grad_sq:
                        break
                    skip += 1
            start = tried + skip
            f_rows = ()
            if start < stop:
                xs = kernels.trial_rows(x, g, rungs_array[start:stop])
                f_rows, g_rows = eval_rows(xs)
                if not isinstance(f_rows, list):
                    f_rows = np.asarray(f_rows, dtype=float).tolist()
                if len(f_rows) != stop - start or len(g_rows) != stop - start:
                    raise DimensionMismatchError(
                        f"eval_rows gave {len(f_rows)} f values and {len(g_rows)} gradients "
                        f"for {stop - start} rows")
            # the first row that passes is taken, and ends the line search;
            # rows after it are discarded.  beta * a * grad_sq multiplies
            # left to right, so beta * a read from the ladder gives its bits
            for hit, (f_trial, ba) in enumerate(zip(f_rows, rungs_beta[start:stop])):
                if f_trial <= f_max - ba * grad_sq:  # nonmonotone_accept's test
                    break
            else:
                finite_trial = (finite_trial or skip > 0
                                or any(ft < math.inf for ft in f_rows))  # false for nan
                # most iterations need only a trial or two more than the
                # last one, so the round after the first holds one trial,
                # and each later round twice as many as the one before
                size, tried = (1 if tried == 0 else 2 * size), stop
                continue
            break
        else:
            if finite_trial:
                raise LineSearchStallError(
                    f"no acceptable step after {cap} backtracks at iterate {k}"
                )
            termination = NONFINITE  # f was nan or +inf at every trial
            break
        alpha_col.append(alpha)
        bt_col.append(start + hit)
        # one copy of each, so no round's block outlives its round and an
        # objective may reuse its output arrays
        x_trial = xs[hit].copy()
        g_trial = np.array(g_rows[hit], dtype=float)
        if g_trial.ndim != 1:
            g_trial = g_trial.reshape(-1)
        if g_trial.size != objective.dim:
            raise DimensionMismatchError(
                f"gradient has length {g_trial.size}, expected {objective.dim}")
        s, y = x_trial - x, g_trial - g
        x = x_trial
        f = f_rows[hit]
        g = g_trial
        gn = _norm(g)
        try:
            alpha = prev = next_steplength(
                policy, SecantProducts(float(s.dot(s)), float(y.dot(y)), float(s.dot(y))), k, prev)
        except NonpositiveCurvatureError:
            # out of band on purpose: the next safeguard resets it to delta
            alpha, prev = math.inf, delta
        k += 1
    # each step counts its accepted trial and its backtracks; no step
    # leaves the last iterate
    fevals = [1 + b for b in bt_col] + [0]
    alpha_col.append(math.nan)
    bt_col.append(0)
    meta = config.to_meta()
    meta.update(
        {
            "objective": objective.name,
            "policy": policy.describe(),
            "alpha0": alpha0_used,
            "alpha0_rule": "fixed" if config.alpha0 is not None else "probe",
        }
    )
    tr = RunTrace(f_col, gn_col, alpha_col, bt_col, fevals, termination, x, meta)
    tr._continuation = _Continuation(objective, origin, config, policy, x, g, alpha, prev,
                                     alpha0_used)
    return tr


def _window_maxima(f, memory):
    """Yield max(f[max(0, k - memory):k + 1]) for k = 0, 1, ..., each the
    very float that builtin max returns, in O(1) amortised per entry.

    The k-th value is computed when it is asked for, from the items f then
    holds, so run reads its window from its growing f column, one row
    after each append, and audit_trace reads a whole column at once.  A
    list f must not be asked for a value past its end, since its iterator
    then stops for good.

    max keeps its first item and replaces it only by a later item greater
    than it, so it returns a nan first item, and otherwise the earliest
    item equal to the largest of the window's items that are not nan.  The
    deque holds the indices of the window's items that are not nan and
    that no later item exceeds, in order, their values falling or level.
    """
    best = deque()
    for k, v in enumerate(f):
        if v == v:  # not nan
            while best and f[best[-1]] < v:
                best.pop()
            best.append(k)
        lo = k - memory
        if best and best[0] < lo:
            best.popleft()
        first = f[max(0, lo)]
        yield first if first != first else f[best[0]]


def audit_trace(run_trace, config=None):
    """Replay a line-search trace and report inconsistencies.

    For every non-terminal row the recorded alpha must be delta or lie
    strictly inside the safeguard band, fevals must be 1 + backtracks and
    backtracks at most backtrack_cap, ||g|| must not be zero nor, under a
    gradient stop rule, meet it, and the next row's objective value must
    pass the nonmonotone test against the largest of the last memory+1
    values of f at the effective steplength alpha * sigma**backtracks,
    reconstructed by repeated multiplication exactly as the solver applied
    it; a row past backtrack_cap is not replayed.  The terminal row must
    have alpha nan, 0 backtracks and 0 fevals.  A trace ends
    gradient_tolerance exactly when its last row is finite and meets its
    stop rule (or has a zero gradient), no trace runs past k = max_iter,
    and an iteration_cap trace ends there.  config defaults to the one
    stored in the trace meta, which only a gbb trace has; any other trace
    without a config raises InvalidParameterError.  Returns a list of
    violation strings; empty means the trace is internally consistent.
    """
    solver = run_trace.meta.get("solver")
    if config is None and solver != "gbb":
        raise InvalidParameterError(f"a {solver!r} trace stores no line-search config")
    cfg = config if config is not None else SolverConfig.from_meta(run_trace.meta)
    violations = []
    f, gn, alpha, backtracks, fevals = (
        col.tolist() for col in (run_trace.f, run_trace.grad_norm, run_trace.alpha,
                                 run_trace.backtracks, run_trace.fevals))
    last = run_trace.iterations
    f_max = list(_window_maxima(f, cfg.memory))
    for k in range(last):
        a = alpha[k]
        if not (a == cfg.delta or (cfg.eta < a < 1.0 / cfg.eta)):
            violations.append(
                f"row {k}: alpha {a!r} is neither delta nor inside the safeguard band"
            )
        if fevals[k] != 1 + backtracks[k]:
            violations.append(
                f"row {k}: {fevals[k]} fevals after {backtracks[k]} backtracks, "
                f"not 1 + backtracks"
            )
        # x_k is not in the trace, so only the gradient rules are read here
        if gn[k] == 0.0 or (cfg.stop_rule != STOP_POINT_DIST
                            and _stopped(cfg, None, gn[k], gn[0])):
            violations.append(
                f"row {k}: ||g|| {gn[k]!r} would have stopped the run before its last row"
            )
        if backtracks[k] > cfg.backtrack_cap:
            violations.append(
                f"row {k}: {backtracks[k]} backtracks, more than backtrack_cap = "
                f"{cfg.backtrack_cap}"
            )
            continue
        a_eff = a
        for _ in range(backtracks[k]):
            a_eff *= cfg.sigma
        if not nonmonotone_accept(f[k + 1], f_max[k], cfg.beta, a_eff, gn[k] * gn[k]):
            violations.append(
                f"row {k}: accepted step fails the nonmonotone test on replay"
            )
    if not (math.isnan(alpha[last]) and backtracks[last] == fevals[last] == 0):
        violations.append(
            f"row {last}: the terminal row has alpha {alpha[last]!r}, {backtracks[last]} "
            f"backtracks and {fevals[last]} fevals, not nan, 0 and 0"
        )
    x = run_trace.final_x
    if cfg.stop_rule == STOP_POINT_DIST and x.shape != cfg.target.shape:
        raise DimensionMismatchError(
            f"final_x has length {x.size}, the target {cfg.target.size}")
    stops = (math.isfinite(f[last]) and math.isfinite(gn[last])
             and (gn[last] == 0.0 or _stopped(cfg, x, gn[last], gn[0])))
    if stops != (run_trace.termination == GRADIENT_TOLERANCE):
        violations.append(
            f"row {last}: the trace ends {run_trace.termination} but "
            f"{'meets' if stops else 'does not meet'} its {cfg.stop_rule} rule "
            f"at epsilon {cfg.epsilon!r}"
        )
    if last > cfg.max_iter:
        violations.append(f"row {last}: the trace runs past max_iter = {cfg.max_iter}")
    elif run_trace.termination == ITERATION_CAP and last != cfg.max_iter:
        violations.append(
            f"row {last}: the trace ends {ITERATION_CAP} at k = {last}, "
            f"not at max_iter = {cfg.max_iter}"
        )
    return violations

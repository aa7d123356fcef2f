"""Globalized BB gradient solver for general smooth objectives.

BB-type steplengths are made safe outside the convex quadratic world by
three guards: a safeguard band that resets wild steplengths to a fixed
fallback, a nonmonotone acceptance test against the largest of the last
memory+1 objective values, and geometric backtracking.  An accepted step
hands its secant pair to the steplength policy for the next proposal.
"""

import math
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidParameterError,
    LineSearchStallError,
    NonpositiveCurvatureError,
    ZeroGradientError,
)
from .steps import StepPair, next_steplength
from .trace import (
    GRADIENT_TOLERANCE,
    ITERATION_CAP,
    NONFINITE,
    RunTrace,
    TraceRow,
    terminal_row,
)

STOP_GRAD_ABS = "grad_abs"
STOP_GRAD_REL = "grad_rel"
STOP_POINT_DIST = "point_dist"
STOP_RULES = (STOP_GRAD_ABS, STOP_GRAD_REL, STOP_POINT_DIST)


@dataclass(frozen=True)
class Objective:
    """Differentiable objective: eval(x) returns (f, gradient).

    x0 is the conventional starting point, when the problem has one.
    """

    name: str
    dim: int
    eval: Callable
    x0: np.ndarray | None = None

    def __post_init__(self):
        if int(self.dim) < 1:
            raise InvalidParameterError(f"dim must be >= 1, got {self.dim!r}")
        object.__setattr__(self, "dim", int(self.dim))
        if self.x0 is not None:
            x0 = np.array(self.x0, dtype=float, copy=True).reshape(-1)
            if x0.size != self.dim:
                raise DimensionMismatchError(
                    f"x0 has length {x0.size}, expected {self.dim}"
                )
            x0.setflags(write=False)
            object.__setattr__(self, "x0", x0)


def rosenbrock2():
    """Planar Rosenbrock valley, minimum f = 0 at (1, 1); the conventional
    start is (-1.2, 1)."""

    def eval_(x):
        x1 = float(x[0])
        x2 = float(x[1])
        t = x2 - x1 * x1
        f = 100.0 * t * t + (1.0 - x1) ** 2
        g = np.array([-400.0 * x1 * t - 2.0 * (1.0 - x1), 200.0 * t])
        return f, g

    return Objective("rosenbrock2", 2, eval_, x0=np.array([-1.2, 1.0]))


@dataclass(frozen=True)
class SolverConfig:
    """Line-search solver parameters.

    memory is the nonmonotone window length M (the test compares against
    the max of the last M+1 objective values); beta the sufficient
    decrease coefficient; eta the safeguard band edge (steplengths outside
    (eta, 1/eta) reset to delta); sigma the backtracking shrink factor;
    epsilon/stop_rule/target define termination; alpha0 = None means the
    probe rule of initial_steplength.
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
        if not (math.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise InvalidParameterError(f"epsilon must be positive, got {self.epsilon!r}")
        if int(self.max_iter) < 1:
            raise InvalidParameterError(f"max_iter must be >= 1, got {self.max_iter!r}")
        if int(self.memory) < 0:
            raise InvalidParameterError(f"memory must be >= 0, got {self.memory!r}")
        if not (0.0 < self.beta < 1.0):
            raise InvalidParameterError(f"beta must lie in (0, 1), got {self.beta!r}")
        if not (0.0 < self.eta < 1.0):
            raise InvalidParameterError(f"eta must lie in (0, 1), got {self.eta!r}")
        if not (self.eta < self.delta < 1.0 / self.eta):
            raise InvalidParameterError(
                f"delta must lie inside the safeguard band (eta, 1/eta), got {self.delta!r}"
            )
        if not (0.0 < self.sigma < 1.0):
            raise InvalidParameterError(f"sigma must lie in (0, 1), got {self.sigma!r}")
        if self.alpha0 is not None and not (
            math.isfinite(self.alpha0) and self.alpha0 > 0.0
        ):
            raise InvalidParameterError(f"alpha0 must be positive, got {self.alpha0!r}")
        if self.stop_rule not in STOP_RULES:
            raise InvalidParameterError(
                f"stop_rule must be one of {STOP_RULES}, got {self.stop_rule!r}"
            )
        if self.stop_rule == STOP_POINT_DIST:
            if self.target is None:
                raise InvalidParameterError("stop rule 'point_dist' needs a target point")
            t = np.array(self.target, dtype=float, copy=True).reshape(-1)
            t.setflags(write=False)
            object.__setattr__(self, "target", t)
        if int(self.backtrack_cap) < 1:
            raise InvalidParameterError(
                f"backtrack_cap must be >= 1, got {self.backtrack_cap!r}"
            )
        object.__setattr__(self, "max_iter", int(self.max_iter))
        object.__setattr__(self, "memory", int(self.memory))
        object.__setattr__(self, "backtrack_cap", int(self.backtrack_cap))

    def to_meta(self):
        d = {
            "solver": "gbb",
            "epsilon": self.epsilon,
            "max_iter": self.max_iter,
            "memory": self.memory,
            "beta": self.beta,
            "delta": self.delta,
            "eta": self.eta,
            "sigma": self.sigma,
            "stop_rule": self.stop_rule,
            "backtrack_cap": self.backtrack_cap,
        }
        if self.target is not None:
            d["target"] = [float(v) for v in self.target]
        return d

    @classmethod
    def from_meta(cls, meta, **overrides):
        kw = {
            "epsilon": meta["epsilon"],
            "max_iter": meta["max_iter"],
            "memory": meta["memory"],
            "beta": meta["beta"],
            "delta": meta["delta"],
            "eta": meta["eta"],
            "sigma": meta["sigma"],
            "stop_rule": meta["stop_rule"],
            "backtrack_cap": meta["backtrack_cap"],
            "target": meta.get("target"),
        }
        kw.update(overrides)
        return cls(**kw)


class NonmonotoneWindow:
    """Ring buffer over the most recent memory+1 objective values."""

    def __init__(self, memory):
        if int(memory) < 0:
            raise InvalidParameterError(f"memory must be >= 0, got {memory!r}")
        self._values = deque(maxlen=int(memory) + 1)

    def push(self, f):
        self._values.append(float(f))

    def max(self):
        if not self._values:
            raise InvalidParameterError("the window is empty")
        return max(self._values)

    def __len__(self):
        return len(self._values)


def nonmonotone_accept(f_trial, window, beta, alpha, grad_sq):
    """Acceptance test: f_trial <= max(window) - beta * alpha * grad_sq.

    The same expression decides acceptance in run() and in audit_trace(),
    so a replayed trace reproduces the decision bit for bit.
    """
    return f_trial <= window.max() - beta * alpha * grad_sq


def safeguard(alpha, eta, delta):
    """Reset alpha to delta when it is outside (eta, 1/eta) or not finite."""
    if not math.isfinite(alpha) or alpha <= eta or alpha >= 1.0 / eta:
        return delta
    return alpha


def backtrack(alpha, sigma):
    """One backtracking shrink."""
    return sigma * alpha


def initial_steplength(objective, x0):
    """Opening steplength probe.

    With a = 1 / ||g0||_inf, return a when f(x0 - a*g0) < f(x0) and a/4
    otherwise.  Raises ZeroGradientError at a stationary start.
    """
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    f0, g0 = objective.eval(x0)
    gi = float(np.max(np.abs(np.asarray(g0))))
    if gi == 0.0:
        raise ZeroGradientError("gradient at x0 is zero; no steplength scale exists")
    a = 1.0 / gi
    f_probe, _ = objective.eval(x0 - a * np.asarray(g0))
    return a if f_probe < f0 else 0.25 * a


def _stopped(config, x, gn, gn0):
    if config.stop_rule == STOP_GRAD_ABS:
        return gn < config.epsilon
    if config.stop_rule == STOP_GRAD_REL:
        return gn <= config.epsilon * gn0
    return float(np.linalg.norm(x - config.target)) <= config.epsilon


def run(objective, x0, config, policy):
    """Minimize a smooth objective with safeguarded nonmonotone BB steps.

    Each iteration safeguards the proposed steplength into (eta, 1/eta)
    (resetting to delta otherwise), backtracks by sigma until the trial
    point passes the nonmonotone test, then steps and asks the policy for
    the next proposal from the accepted secant pair.  Nonpositive
    curvature maps the proposal to +inf, which the next safeguard resets
    to delta.  A zero gradient stops immediately regardless of stop rule;
    a nan or inf f or ||g|| at an iterate stops the run first, with
    termination nonfinite.  So does a line search whose every trial f was
    nan or +inf when the backtrack cap is hit; if some trial f was finite,
    that raises LineSearchStallError instead.

    Returns a RunTrace; row k records f and ||g|| at iterate k plus the
    post-safeguard steplength alpha, so the step actually taken is
    alpha * sigma**backtracks.
    """
    x = np.array(x0, dtype=float, copy=True).reshape(-1)
    if x.size != objective.dim:
        raise DimensionMismatchError(f"x0 has length {x.size}, expected {objective.dim}")
    f, g = objective.eval(x)
    f = float(f)
    g = np.asarray(g, dtype=float).reshape(-1)
    gn0 = float(np.linalg.norm(g))
    if config.alpha0 is not None:
        alpha = config.alpha0
    elif gn0 == 0.0 or not math.isfinite(gn0):
        alpha = config.delta  # never used: the loop stops before stepping
    else:
        alpha = initial_steplength(objective, x)
    alpha0_used = float(alpha)
    window = NonmonotoneWindow(config.memory)
    window.push(f)
    rows = []
    termination = ITERATION_CAP
    k = 0
    while True:
        gn = float(np.linalg.norm(g))
        if not (math.isfinite(f) and math.isfinite(gn)):
            termination = NONFINITE
            break
        if gn == 0.0 or _stopped(config, x, gn, gn0):
            termination = GRADIENT_TOLERANCE
            break
        if k >= config.max_iter:
            termination = ITERATION_CAP
            break
        alpha = safeguard(alpha, config.eta, config.delta)
        grad_sq = gn * gn
        a_eff = alpha
        backtracks = 0
        finite_trial = False
        while True:
            x_trial = x - a_eff * g
            f_trial, g_trial = objective.eval(x_trial)
            f_trial = float(f_trial)
            if nonmonotone_accept(f_trial, window, config.beta, a_eff, grad_sq):
                break
            finite_trial = finite_trial or f_trial < math.inf  # false for nan
            if backtracks >= config.backtrack_cap:
                if finite_trial:
                    raise LineSearchStallError(
                        f"no acceptable step after {backtracks} backtracks at iterate {k}"
                    )
                termination = NONFINITE  # f was nan or +inf at every trial
                break
            a_eff = backtrack(a_eff, config.sigma)
            backtracks += 1
        if termination == NONFINITE:
            break
        rows.append(
            TraceRow(k=k, f=f, grad_norm=gn, alpha=alpha,
                     backtracks=backtracks, fevals=1 + backtracks)
        )
        pair = StepPair(x_trial - x, np.asarray(g_trial, dtype=float).reshape(-1) - g)
        x = x_trial
        f = f_trial
        g = np.asarray(g_trial, dtype=float).reshape(-1)
        window.push(f)
        try:
            alpha, policy = next_steplength(policy, pair)
        except NonpositiveCurvatureError:
            # out of band on purpose: the next safeguard resets it to delta
            alpha = math.inf
            policy = replace(
                policy,
                iteration_index=policy.iteration_index + 1,
                prev_alpha=config.delta,
            )
        k += 1
    rows.append(terminal_row(k, f, gn))
    meta = config.to_meta()
    meta.update(
        {
            "objective": objective.name,
            "policy": policy.describe(),
            "alpha0": alpha0_used,
            "alpha0_rule": "fixed" if config.alpha0 is not None else "probe",
        }
    )
    return RunTrace(rows=rows, termination=termination, final_x=x, meta=meta)


def audit_trace(run_trace, config=None):
    """Replay a line-search trace and report inconsistencies.

    For every non-terminal row the recorded alpha must be delta or lie
    strictly inside the safeguard band, and the next row's objective value
    must pass the nonmonotone test at the effective steplength
    alpha * sigma**backtracks, reconstructed by repeated multiplication
    exactly as the solver applied it.  config defaults to the one stored
    in the trace meta.  Returns a list of violation strings; empty means
    the trace is internally consistent.
    """
    cfg = config if config is not None else SolverConfig.from_meta(run_trace.meta)
    violations = []
    rows = run_trace.rows
    window = NonmonotoneWindow(cfg.memory)
    window.push(rows[0].f)
    for i, row in enumerate(rows[:-1]):
        a = row.alpha
        if not (a == cfg.delta or (cfg.eta < a < 1.0 / cfg.eta)):
            violations.append(
                f"row {row.k}: alpha {a!r} is neither delta nor inside the safeguard band"
            )
        a_eff = a
        for _ in range(row.backtracks):
            a_eff = backtrack(a_eff, cfg.sigma)
        f_next = rows[i + 1].f
        grad_sq = row.grad_norm * row.grad_norm
        if not nonmonotone_accept(f_next, window, cfg.beta, a_eff, grad_sq):
            violations.append(
                f"row {row.k}: accepted step fails the nonmonotone test on replay"
            )
        window.push(f_next)
    return violations

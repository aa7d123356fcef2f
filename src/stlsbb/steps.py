"""Steplength mathematics for BB-type gradient methods.

The two classical BB steplengths are least-squares fits of the secant pair
(s, y); the family implemented here interpolates between them through a
scaled total-least-squares fit with scale parameter gamma.  Also provided:
the equivalent convex-combination form, the adaptive truncated cyclic
(ATC) rule, and a tagged policy type that names one rule.  A policy holds
no run state: ATC's iteration index and previous steplength belong to the
loop that evaluates it, which passes them to next_steplength.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import (
    DimensionMismatchError,
    InvalidParameterError,
    MissingStateError,
    NonpositiveCurvatureError,
)

# the interval [bb2, bb1] is treated as collapsed below this relative width
DEGENERACY_RTOL = 1e-14

POLICY_KINDS = ("bb1", "bb2", "gamma", "gamma_prime", "tau", "atc")

@dataclass(frozen=True)
class StepPair:
    """Secant pair: iterate difference s and gradient difference y.

    The arrays are copied, coerced to float64 and frozen; the inner
    products ss = ||s||^2, yy = ||y||^2 and sy = s'y are cached at
    construction.
    """

    s: np.ndarray
    y: np.ndarray
    ss: float = field(init=False, repr=False, compare=False)
    yy: float = field(init=False, repr=False, compare=False)
    sy: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        s = np.array(self.s, dtype=float, copy=True).reshape(-1)
        y = np.array(self.y, dtype=float, copy=True).reshape(-1)
        if s.size == 0 or y.size == 0:
            raise DimensionMismatchError("secant vectors must be nonempty")
        if s.shape != y.shape:
            raise DimensionMismatchError(
                f"secant vectors disagree in length: {s.size} vs {y.size}"
            )
        s.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "ss", float(s @ s))
        object.__setattr__(self, "yy", float(y @ y))
        object.__setattr__(self, "sy", float(s @ y))


@dataclass(frozen=True)
class FamilyParameter:
    """Scale gamma of the total-least-squares fit; positive and finite."""

    gamma: float

    def __post_init__(self):
        g = _as_float(self.gamma, "gamma")
        if not (math.isfinite(g) and g > 0.0):
            raise InvalidParameterError(
                f"gamma must be positive and finite, got {self.gamma!r}"
            )
        object.__setattr__(self, "gamma", g)


@dataclass(frozen=True)
class ConvexWeight:
    """Weight tau in [0, 1] mixing the long and short BB steplengths."""

    tau: float

    def __post_init__(self):
        t = _as_float(self.tau, "tau")
        if not (math.isfinite(t) and 0.0 <= t <= 1.0):
            raise InvalidParameterError(f"tau must lie in [0, 1], got {self.tau!r}")
        object.__setattr__(self, "tau", t)


def _as_float(value, name):
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidParameterError(f"{name} must be a real number, got {value!r}") from exc


def _gamma_value(gamma):
    if isinstance(gamma, FamilyParameter):
        return gamma.gamma
    return FamilyParameter(gamma).gamma


def _tau_value(tau):
    if isinstance(tau, ConvexWeight):
        return tau.tau
    return ConvexWeight(tau).tau


def _positive_curvature(pair):
    if not pair.sy > 0.0:
        raise NonpositiveCurvatureError(
            f"s'y = {pair.sy:.6g} is not positive; no BB steplength is defined"
        )
    return pair.sy


def curvature(pair):
    """Inner product s'y; positive iff the pair admits BB steplengths."""
    return pair.sy


def bb1(pair):
    """Long BB steplength ||s||^2 / s'y."""
    sy = _positive_curvature(pair)
    return float(kernels.bb1_step(pair.ss, sy))


def bb2(pair):
    """Short BB steplength s'y / ||y||^2."""
    sy = _positive_curvature(pair)
    return float(kernels.bb2_step(sy, pair.yy))


def alpha_convex(pair, tau):
    """Convex combination tau*bb1 + (1-tau)*bb2."""
    t = _tau_value(tau)
    sy = _positive_curvature(pair)
    return float(kernels.convex_step(pair.ss, pair.yy, sy, t))


def alpha_family(pair, gamma):
    """Scaled-TLS family steplength; increasing in gamma from bb2 to bb1."""
    g = _gamma_value(gamma)
    sy = _positive_curvature(pair)
    return float(kernels.family_step(pair.ss, pair.yy, sy, g))


def alpha_family_prime(pair, gamma):
    """Inverse-fit family steplength; decreasing in gamma from bb1 to bb2."""
    g = _gamma_value(gamma)
    sy = _positive_curvature(pair)
    return float(kernels.family_prime_step(pair.ss, pair.yy, sy, g))


def alpha_tls(pair):
    """Plain TLS steplength: the gamma = 1 member, where the two family
    parameterizations coincide."""
    return alpha_family(pair, 1.0)


def tau_from_gamma(pair, gamma):
    """Weight placing alpha_family(pair, gamma) inside [bb2, bb1].

    Returns ConvexWeight((alpha - bb2) / (bb1 - bb2)), clipped into [0, 1]
    against last-ulp rounding.  When the interval is collapsed (bb1 and
    bb2 equal to within DEGENERACY_RTOL, which happens exactly when s and
    y are parallel) every weight gives the same steplength and 1/2 is
    returned by convention.
    """
    g = _gamma_value(gamma)
    sy = _positive_curvature(pair)
    b1 = float(kernels.bb1_step(pair.ss, sy))
    b2 = float(kernels.bb2_step(sy, pair.yy))
    if b1 - b2 <= DEGENERACY_RTOL * max(1.0, abs(b1)):
        return ConvexWeight(0.5)
    a = float(kernels.family_step(pair.ss, pair.yy, sy, g))
    t = (a - b2) / (b1 - b2)
    return ConvexWeight(min(max(t, 0.0), 1.0))


@dataclass(frozen=True)
class SteplengthPolicy:
    """Tagged steplength rule on the secant scalars.

    kind is one of POLICY_KINDS; gamma/tau/cycle are the rule's fixed
    parameters where applicable.  A policy is only the rule: the run state
    ATC reads (the iteration index and the previous steplength) is carried
    by the calling loop and passed to next_steplength.
    """

    kind: str
    gamma: float | None = None
    tau: float | None = None
    cycle: int | None = None

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise InvalidParameterError(
                f"unknown policy kind {self.kind!r}; expected one of {POLICY_KINDS}"
            )
        if self.kind in ("gamma", "gamma_prime"):
            if self.gamma is None:
                raise InvalidParameterError(f"policy {self.kind!r} needs gamma")
            object.__setattr__(self, "gamma", _gamma_value(self.gamma))
        if self.kind == "tau":
            if self.tau is None:
                raise InvalidParameterError("policy 'tau' needs a weight")
            object.__setattr__(self, "tau", _tau_value(self.tau))
        if self.kind == "atc":
            if self.cycle is None:
                raise InvalidParameterError("policy 'atc' needs a cycle length")
            c = _as_float(self.cycle, "cycle")
            if not (c >= 1.0 and c.is_integer()):  # false for inf and nan
                raise InvalidParameterError(f"cycle must be an integer >= 1, got {self.cycle!r}")
            object.__setattr__(self, "cycle", int(c))

    @classmethod
    def long(cls):
        return cls("bb1")

    @classmethod
    def short(cls):
        return cls("bb2")

    @classmethod
    def family(cls, gamma):
        return cls("gamma", gamma=gamma)

    @classmethod
    def family_prime(cls, gamma):
        return cls("gamma_prime", gamma=gamma)

    @classmethod
    def convex(cls, tau):
        return cls("tau", tau=tau)

    @classmethod
    def adaptive_cyclic(cls, cycle):
        return cls("atc", cycle=cycle)

    def describe(self):
        """Stable textual form; parse_policy inverts it."""
        if self.kind == "gamma":
            return f"gamma:{self.gamma:g}"
        if self.kind == "gamma_prime":
            return f"gammaPrime:{self.gamma:g}"
        if self.kind == "tau":
            return f"tau:{self.tau:g}"
        if self.kind == "atc":
            return f"atc:{self.cycle}"
        return self.kind


def parse_policy(text):
    """Parse a policy descriptor string.

    Accepted forms: 'bb1', 'bb2', 'gamma:G', 'gammaPrime:G', 'tau:T',
    'atc:C' (names case-insensitive).  Inverse of
    SteplengthPolicy.describe.
    """
    if not isinstance(text, str):
        raise InvalidParameterError(f"policy descriptor must be a string, got {text!r}")
    name, sep, arg = text.strip().partition(":")
    key = name.strip().lower()
    arg = arg.strip()
    try:
        if key in ("bb1", "bb2"):
            if sep:
                raise InvalidParameterError(f"policy {key!r} takes no argument")
            return SteplengthPolicy(key)
        if key == "gamma":
            return SteplengthPolicy.family(float(arg))
        if key == "gammaprime":
            return SteplengthPolicy.family_prime(float(arg))
        if key == "tau":
            return SteplengthPolicy.convex(float(arg))
        if key == "atc":
            return SteplengthPolicy.adaptive_cyclic(int(arg))
    except ValueError as exc:
        raise InvalidParameterError(f"bad policy argument in {text!r}") from exc
    raise InvalidParameterError(f"unknown policy descriptor {text!r}")


def atc_next(policy, pair, index=0, prev_alpha=None):
    """One ATC evaluation: BB1 on cycle restarts (index a multiple of
    cycle), otherwise prev_alpha clamped into [bb2, bb1]."""
    if policy.kind != "atc":
        raise InvalidParameterError(f"atc_next needs an 'atc' policy, got {policy.kind!r}")
    return next_steplength(policy, pair, index, prev_alpha)


def next_steplength(policy, pair, index=0, prev_alpha=None):
    """Steplength a policy gives on a secant pair, as a float.

    index and prev_alpha are ATC's state, carried by the calling loop:
    index counts the run's policy evaluations from 0 (the opening
    steplength is never the policy's), and prev_alpha is the last one.
    Raises InvalidParameterError for a negative index,
    NonpositiveCurvatureError when s'y <= 0 (callers such as the
    line-search solver turn that into a safeguard reset), and
    MissingStateError for ATC between cycle restarts without prev_alpha.
    """
    if index < 0:
        raise InvalidParameterError(f"index must be >= 0, got {index!r}")
    sy = _positive_curvature(pair)
    prev = math.nan  # read only by ATC off a cycle restart
    if policy.kind == "atc" and index % policy.cycle != 0:
        if prev_alpha is None:
            raise MissingStateError(
                "ATC needs prev_alpha between cycle restarts; none was given"
            )
        prev = float(prev_alpha)
    return float(kernels.policy_step(policy, pair.ss, pair.yy, sy, prev, index))

"""Steplength mathematics for BB-type gradient methods.

The two classical BB steplengths are least-squares fits of the secant pair
(s, y); the family implemented here interpolates between them through a
scaled total-least-squares fit with scale parameter gamma.  Also provided:
the equivalent convex-combination form, the adaptive truncated cyclic
(ATC) rule, and a tagged policy type that names one rule.  A policy holds
no run state: ATC's iteration index and previous steplength belong to the
loop that evaluates it, which passes them to next_steplength.

SteplengthPolicy checks a rule's parameter and next_steplength checks the
pair and the ATC state; the arithmetic of every rule is in
kernels.policy_step.  bb1, bb2, alpha_convex, alpha_family,
alpha_family_prime and alpha_tls are that one call on the named rule.
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

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


class SecantProducts(NamedTuple):
    """The inner products ss = ||s||^2, yy = ||y||^2 and sy = s'y of a
    secant pair, which is all next_steplength reads of a StepPair.  A loop
    that has s and y at hand passes these rather than copy them into one.
    """

    ss: float
    yy: float
    sy: float


def _as_float(value, name):
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidParameterError(f"{name} must be a real number, got {value!r}") from exc


def _gamma_value(gamma):
    # the scale gamma of the total-least-squares fit: positive and finite
    g = _as_float(gamma, "gamma")
    if not (math.isfinite(g) and g > 0.0):
        raise InvalidParameterError(f"gamma must be positive and finite, got {gamma!r}")
    return g


def bb1(pair):
    """Long BB steplength ||s||^2 / s'y."""
    return next_steplength(SteplengthPolicy.long(), pair)


def bb2(pair):
    """Short BB steplength s'y / ||y||^2."""
    return next_steplength(SteplengthPolicy.short(), pair)


def alpha_convex(pair, tau):
    """Convex combination tau*bb1 + (1-tau)*bb2."""
    return next_steplength(SteplengthPolicy.convex(tau), pair)


def alpha_family(pair, gamma):
    """Scaled-TLS family steplength; increasing in gamma from bb2 to bb1."""
    return next_steplength(SteplengthPolicy.family(gamma), pair)


def alpha_family_prime(pair, gamma):
    """Inverse-fit family steplength; decreasing in gamma from bb1 to bb2."""
    return next_steplength(SteplengthPolicy.family_prime(gamma), pair)


def alpha_tls(pair):
    """Plain TLS steplength: the gamma = 1 member, where the two family
    parameterizations coincide."""
    return next_steplength(SteplengthPolicy.family(1.0), pair)


def tau_from_gamma(pair, gamma):
    """Weight placing alpha_family(pair, gamma) inside [bb2, bb1].

    Returns (alpha - bb2) / (bb1 - bb2), clipped into [0, 1] against
    last-ulp rounding.  When the interval is collapsed (bb1 and bb2 equal
    to within DEGENERACY_RTOL, which happens exactly when s and y are
    parallel) every weight gives the same steplength and 1/2 is returned
    by convention.
    """
    policy = SteplengthPolicy.family(gamma)
    b1, b2 = bb1(pair), bb2(pair)
    if b1 - b2 <= DEGENERACY_RTOL * max(1.0, abs(b1)):
        return 0.5
    t = (next_steplength(policy, pair) - b2) / (b1 - b2)
    return min(max(t, 0.0), 1.0)


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
            t = _as_float(self.tau, "tau")
            if not 0.0 <= t <= 1.0:  # false for nan
                raise InvalidParameterError(f"tau must lie in [0, 1], got {self.tau!r}")
            object.__setattr__(self, "tau", t)
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
            return f"gamma:{_number(self.gamma)}"
        if self.kind == "gamma_prime":
            return f"gammaPrime:{_number(self.gamma)}"
        if self.kind == "tau":
            return f"tau:{_number(self.tau)}"
        if self.kind == "atc":
            return f"atc:{self.cycle}"
        return self.kind


def _number(value):
    # the short :g form where it reads back as the same float, and the
    # shortest form that does (repr) where six digits would round it
    text = f"{value:g}"
    return text if float(text) == value else repr(value)


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


def next_steplength(policy, pair, index=0, prev_alpha=None):
    """Steplength a policy gives on a secant pair, as a float.

    pair is a StepPair or SecantProducts; only its ss, yy and sy are read.
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
    if not pair.sy > 0.0:
        raise NonpositiveCurvatureError(
            f"s'y = {pair.sy:.6g} is not positive; no BB steplength is defined"
        )
    prev = math.nan  # read only by ATC off a cycle restart
    if policy.kind == "atc" and index % policy.cycle != 0:
        if prev_alpha is None:
            raise MissingStateError(
                "ATC needs prev_alpha between cycle restarts; none was given"
            )
        prev = float(prev_alpha)
    return float(kernels.policy_step(policy, pair.ss, pair.yy, pair.sy, prev, index))

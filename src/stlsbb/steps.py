"""Steplength mathematics for BB-type gradient methods.

The two classical BB steplengths are least-squares fits of the secant pair
(s, y); the family implemented here interpolates between them through a
scaled total-least-squares fit with scale parameter gamma.  Also provided:
the equivalent convex-combination form, the adaptive truncated cyclic
(ATC) rule, and a tagged policy type that names one rule.  A policy holds
no run state: ATC's iteration index and previous steplength belong to the
loop that evaluates it, which passes them to next_steplength.

One table declares each policy kind with its descriptor name and its one
parameter field; next_steplength checks the ATC state (through
_run_state, which the oracle shares) and the pair, and the arithmetic
of every rule is in kernels.policy_step: float64's, so a vanishing
divisor gives inf or nan.  bb1, bb2, alpha_convex, alpha_family,
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
    count,
    inside,
    real,
    vector,
)

# the interval [bb2, bb1] is treated as collapsed below this relative width
DEGENERACY_RTOL = 1e-14

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
        s, y = vector(self.s, "s"), vector(self.y, "y")
        if s.size == 0 or y.size == 0:
            raise DimensionMismatchError("secant vectors must be nonempty")
        if s.shape != y.shape:
            raise DimensionMismatchError(
                f"secant vectors disagree in length: {s.size} vs {y.size}"
            )
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "y", y)
        with np.errstate(over="ignore"):  # an overflowed product is inf, as the rules expect
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


def _gamma_value(gamma):
    # the scale gamma of the total-least-squares fit: positive and finite
    return inside(gamma, "gamma", 0.0, math.inf)


# each parameter field and the check that gives the value a policy keeps:
# tau is the weight on bb1 of the convex combination, cycle ATC's length
_FIELDS = {"gamma": _gamma_value,
           "tau": lambda tau: inside(tau, "tau", 0.0, 1.0, closed=True),
           "cycle": lambda cycle: count(cycle, "cycle")}
# each kind: its descriptor name and its one parameter field (None for
# bb1 and bb2); kernels.policy_step and oracle_steplength hold its rule
_KINDS = {
    "bb1": ("bb1", None),
    "bb2": ("bb2", None),
    "gamma": ("gamma", "gamma"),
    "gamma_prime": ("gammaPrime", "gamma"),
    "tau": ("tau", "tau"),
    "atc": ("atc", "cycle"),
}
POLICY_KINDS = tuple(_KINDS)


def bb1(pair):
    """Long BB steplength ||s||^2 / s'y."""
    return next_steplength(SteplengthPolicy("bb1"), pair)


def bb2(pair):
    """Short BB steplength s'y / ||y||^2."""
    return next_steplength(SteplengthPolicy("bb2"), pair)


def alpha_convex(pair, tau):
    """Convex combination tau*bb1 + (1-tau)*bb2."""
    return next_steplength(SteplengthPolicy("tau", tau=tau), pair)


def alpha_family(pair, gamma):
    """Scaled-TLS family steplength; increasing in gamma from bb2 to bb1.

    gamma is measured in units of ||y||/||s||, a curvature: with y scaled
    by c and gamma by c the steplength is 1/c times the unscaled one, as
    bb1's and bb2's are, but at a fixed gamma it moves inside [bb2, bb1].
    """
    return next_steplength(SteplengthPolicy("gamma", gamma=gamma), pair)


def alpha_family_prime(pair, gamma):
    """Inverse-fit family steplength; decreasing in gamma from bb1 to bb2."""
    return next_steplength(SteplengthPolicy("gamma_prime", gamma=gamma), pair)


def alpha_tls(pair):
    """Plain TLS steplength: the gamma = 1 member, where the two family
    parameterizations coincide."""
    return next_steplength(SteplengthPolicy("gamma", gamma=1.0), pair)


def tau_from_gamma(pair, gamma):
    """Weight placing alpha_family(pair, gamma) inside [bb2, bb1].

    Returns (alpha - bb2) / (bb1 - bb2), clipped into [0, 1] against
    last-ulp rounding.  When the interval is collapsed (bb1 and bb2 equal
    to within DEGENERACY_RTOL, which happens exactly when s and y are
    parallel) every weight gives the same steplength and 1/2 is returned
    by convention.
    """
    policy = SteplengthPolicy("gamma", gamma=gamma)
    b1, b2 = bb1(pair), bb2(pair)
    if b1 - b2 <= DEGENERACY_RTOL * abs(b1):
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
        own = _KINDS[self.kind][1]
        for name in _FIELDS:
            if getattr(self, name) is not None and name != own:
                raise InvalidParameterError(f"policy {self.kind!r} takes no {name}")
        if own is not None:
            value = getattr(self, own)
            if value is None:
                raise InvalidParameterError(f"policy {self.kind!r} needs {own}")
            object.__setattr__(self, own, _FIELDS[own](value))

    def describe(self):
        """Stable textual form; parse_policy inverts it."""
        name, own = _KINDS[self.kind]
        return name if own is None else f"{name}:{_number(getattr(self, own))}"


def _number(value):
    # a float in the short :g form where that reads back as the same
    # float, and otherwise in its shortest form that does (repr); an int
    # (a cycle) always as its digits
    text = f"{value:g}"
    return text if type(value) is float and float(text) == value else repr(value)


def parse_policy(text):
    """Parse a policy descriptor string: a kind's descriptor name from
    the table of kinds (case-insensitive), then ':' and its parameter if
    it takes one, as in 'bb1', 'bb2', 'gamma:G', 'gammaPrime:G', 'tau:T'
    and 'atc:C'.  Inverse of SteplengthPolicy.describe.
    """
    if not isinstance(text, str):
        raise InvalidParameterError(f"policy descriptor must be a string, got {text!r}")
    name, sep, arg = text.strip().partition(":")
    key = name.strip().lower()
    for kind, (descriptor, own) in _KINDS.items():
        if key == descriptor.lower():
            break
    else:
        raise InvalidParameterError(f"unknown policy descriptor {text!r}")
    if own is None and sep:
        raise InvalidParameterError(f"policy {key!r} takes no argument")
    # the argument's text goes to the field's own check
    return SteplengthPolicy(kind, **({} if own is None else {own: arg}))


def next_steplength(policy, pair, index=0, prev_alpha=None):
    """Steplength a policy gives on a secant pair, as a float.

    pair is a StepPair or SecantProducts; only its ss, yy and sy are read.
    index and prev_alpha are ATC's state, carried by the calling loop:
    index counts the run's policy evaluations from 0 (the opening
    steplength is never the policy's), and prev_alpha is the last one.
    Raises InvalidParameterError for a negative index, MissingStateError
    for ATC between cycle restarts without prev_alpha, and
    NonpositiveCurvatureError when s'y <= 0 (callers such as the
    line-search solver turn that into a safeguard reset).
    An ss or yy underflowed to 0 gives float64's inf or nan, not an error.
    """
    index, prev = _run_state(policy, index, prev_alpha)
    if not pair.sy > 0.0:
        raise NonpositiveCurvatureError(
            f"s'y = {pair.sy:.6g} is not positive; no BB steplength is defined"
        )
    return float(kernels.policy_step(policy, pair.ss, pair.yy, pair.sy, prev, index))


def _run_state(policy, index, prev_alpha):
    # ATC's run state, checked: the index as an int, and the previous
    # steplength the rule reads, nan for every call but ATC's off a restart.
    # count returns a plain int in [0, 2^53] as it is, so only other
    # indices are read through it
    if type(index) is not int or not 0 <= index <= 1 << 53:
        index = count(index, "index", least=0)
    if policy.kind != "atc" or index % policy.cycle == 0:
        return index, math.nan
    if prev_alpha is None:
        raise MissingStateError("ATC needs prev_alpha between cycle restarts; none was given")
    return index, real(prev_alpha, "prev_alpha")

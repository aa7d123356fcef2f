"""Brute-force steplength verifiers.

These deliberately avoid the closed forms in `steps`: a golden-section
scalar minimizer, the scaled-TLS objective it is pointed at, ordinary
least-squares fits for the classical BB steplengths, and a dense angular
grid search for the homogenized secant fit.  They exist so the fast
formulas can be checked against something that only knows the defining
minimization problems.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    DegenerateInputError,
    InvalidBracketError,
    InvalidParameterError,
    MissingStateError,
    NonpositiveCurvatureError,
)
from .steps import _gamma_value, bb1, bb2

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class ScalarMinProblem:
    """One-dimensional minimization task: objective, bracket, tolerance.

    The objective is assumed unimodal on the bracket; minimize_scalar then
    localizes the minimizer to within `tolerance`.
    """

    objective: Callable[[float], float]
    bracket: tuple[float, float]
    tolerance: float = 1e-10

    def __post_init__(self):
        lo, hi = self.bracket
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise InvalidBracketError(f"bracket must satisfy lo < hi, got {self.bracket!r}")
        if not self.tolerance > 0.0:
            raise InvalidBracketError(f"tolerance must be positive, got {self.tolerance!r}")
        object.__setattr__(self, "bracket", (float(lo), float(hi)))
        object.__setattr__(self, "tolerance", float(self.tolerance))


def minimize_scalar(problem):
    """Golden-section search over the bracket.

    Returns (argmin, value).  For a unimodal objective the argmin is
    within problem.tolerance of the true minimizer.
    """
    f = problem.objective
    a, b = problem.bracket
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc = f(c)
    fd = f(d)
    while (b - a) > problem.tolerance:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def stls_ratio(pair, gamma, alpha):
    """Scaled-TLS objective ||alpha*y - s||^2 / (1/gamma^2 + alpha^2).

    Its minimizer over alpha is the family steplength for this gamma.
    """
    g = _gamma_value(gamma)
    a = float(alpha)
    r = a * pair.y - pair.s
    return float(r @ r) / (1.0 / (g * g) + a * a)


def centered_stls_ratio(pair, gamma, alpha, center):
    """The scaled-TLS ratio minus its value at `center`, as one fraction.

    Writing K = ratio(center), the difference ratio(alpha) - K equals

        ((||y||^2 - K) alpha^2 - 2 s'y alpha + ||s||^2 - K t) / (t + alpha^2)

    with t = 1/gamma^2: an exact rearrangement, so the minimizer is that
    of stls_ratio itself.  The searches evaluate this form because the
    ratio's well can be orders of magnitude shallower than its off-well
    value (weak fits, extreme gamma); subtracting the plateau before the
    division keeps the well resolvable at full relative precision instead
    of drowning it in the plateau's rounding.
    """
    g = _gamma_value(gamma)
    t = 1.0 / (g * g)
    a2, a0 = _centered_coeffs(pair.ss, pair.yy, pair.sy, t, float(center))
    a = float(alpha)
    return (a2 * a * a - 2.0 * pair.sy * a + a0) / (t + a * a)


def _centered_coeffs(ss, yy, sy, t, center):
    # quadratic-over-quadratic coefficients of ratio(alpha) - ratio(center)
    k = (yy * center * center - 2.0 * sy * center + ss) / (t + center * center)
    return yy - k, ss - k * t


def family_bracket(pair, margin_frac=0.1, margin_abs=1e-8):
    """Search bracket [bb2 - m, bb1 + m] containing every family member.

    The endpoints use only the elementary BB quotients, not the family
    closed form under test; the margin keeps collapsed intervals (parallel
    s and y) searchable.  The lower end is floored at zero because the
    scaled-TLS ratio has a second critical point at negative alpha, and a
    bracket reaching past it would no longer be unimodal.
    """
    b1 = bb1(pair)
    b2 = bb2(pair)
    m = margin_frac * (b1 - b2) + margin_abs
    return (max(b2 - m, 0.0), b1 + m)


def _search_centered(ss, yy, sy, t, lo, hi, tol):
    # golden section on ratio(a) - ratio(x) for a center x, then once
    # more recentered at the first argmin.  The difference is evaluated
    # with its numerator expanded about x (constant, slope, curvature
    # computed once), so no large terms cancel during the search and the
    # well stays resolvable at full relative precision even when it is
    # orders of magnitude shallower than the surrounding plateau.
    x = 0.5 * (lo + hi)
    for _ in range(2):
        a2, a0 = _centered_coeffs(ss, yy, sy, t, x)
        r0 = a2 * x * x - 2.0 * sy * x + a0
        d0 = 2.0 * (a2 * x - sy)
        xc = x

        def q(a):
            h = a - xc
            return (r0 + d0 * h + a2 * h * h) / (t + a * a)

        x = minimize_scalar(ScalarMinProblem(q, (lo, hi), tol))[0]
    return x


def family_argmin(pair, gamma, tol=1e-10):
    """Brute-force family steplength: golden-section minimizer of the
    scaled-TLS ratio on the BB bracket (searched through its centered
    form, which shares the minimizer exactly)."""
    g = _gamma_value(gamma)
    t = 1.0 / (g * g)
    lo, hi = family_bracket(pair)
    return _search_centered(pair.ss, pair.yy, pair.sy, t, lo, hi, tol)


def family_prime_argmin(pair, gamma, tol=1e-12):
    """Brute-force inverse-fit steplength: 1 over the golden-section
    minimizer of the mirrored ratio, bracketed by the reciprocal BB
    quotients.

    The mirrored fit ||beta*s - y||^2 / (t + beta^2) is the plain fit
    with the roles of s and y swapped, so the same centered search
    applies with swapped scalars.
    """
    g = _gamma_value(gamma)
    t = 1.0 / (g * g)
    b1 = bb1(pair)
    b2 = bb2(pair)
    lo = 1.0 / b1
    hi = 1.0 / b2
    m = 0.1 * (hi - lo) + 1e-8
    beta = _search_centered(
        pair.yy, pair.ss, pair.sy, t, max(lo - m, 0.0), hi + m, tol
    )
    return 1.0 / beta


def bb1_argmin(pair, tol=1e-12):
    """Brute-force long BB steplength: 1 over the least-squares minimizer
    of ||beta*s - y||^2.

    The search evaluates the fit minus its constant term,
    beta * (||s||^2 beta - 2 s'y), which keeps the well resolvable when
    the residual at the minimum dwarfs its depth.
    """
    if not pair.sy > 0.0:
        raise NonpositiveCurvatureError("s'y <= 0; the fitted steplength is not positive")
    hi = math.sqrt(pair.yy / pair.ss) + 1.0

    def obj(beta):
        return beta * (pair.ss * beta - 2.0 * pair.sy)

    prob = ScalarMinProblem(obj, (0.0, hi), tol)
    return 1.0 / minimize_scalar(prob)[0]


def bb2_argmin(pair, tol=1e-12):
    """Brute-force short BB steplength: least-squares minimizer of
    ||alpha*y - s||^2, searched without its constant term as in
    bb1_argmin."""
    if not pair.sy > 0.0:
        raise NonpositiveCurvatureError("s'y <= 0; the fitted steplength is not positive")
    hi = math.sqrt(pair.ss / pair.yy) + 1.0

    def obj(alpha):
        return alpha * (pair.yy * alpha - 2.0 * pair.sy)

    prob = ScalarMinProblem(obj, (0.0, hi), tol)
    return minimize_scalar(prob)[0]


_GRID_CACHE = {}


def _angle_grid(points):
    # angles plus the double-angle cosines and sines the scan needs
    got = _GRID_CACHE.get(points)
    if got is None:
        t = np.linspace(-0.5 * math.pi, 0.5 * math.pi, points)
        got = (t, np.cos(2.0 * t), np.sin(2.0 * t))
        _GRID_CACHE[points] = got
    return got


def homogeneous_residual_min(pair, grid_points=200_000, refine_tol=1e-12):
    """Minimize ||a1*s - a2*y|| over the unit circle a1^2 + a2^2 = 1 and
    return the quotient a2/a1 at the minimizer.

    Parameterizing (a1, a2) = (cos t, sin t), the squared residual is
    cos^2 t * ||s||^2 - 2 cos t sin t * s'y + sin^2 t * ||y||^2, which
    equals (||s||^2 + ||y||^2)/2 plus the exact sinusoid
    (||s||^2 - ||y||^2)/2 * cos 2t - s'y * sin 2t.  A dense grid over
    t in [-pi/2, pi/2] (antipodal points are equivalent) scans the
    sinusoid, then golden section refines inside the winning cell in
    quotient coordinates a = tan t, where the residual minus its
    asymptote is (||s||^2 - ||y||^2 - 2 s'y a) / (1 + a^2).  Refining in
    a rather than t avoids losing precision to the tangent's blowup near
    t = pi/2.  The quotient is the coefficient on y over the coefficient
    on s, i.e. the steplength alpha for which alpha*y best reproduces s
    after homogenizing; for pairs with s'y > 0 it equals the gamma = 1
    family steplength.
    """
    if int(grid_points) < 100:
        raise InvalidParameterError("grid_points must be at least 100")
    if not np.any(pair.y != 0.0):
        raise DegenerateInputError("y is identically zero; the quotient is undefined")
    ss, yy, sy = pair.ss, pair.yy, pair.sy

    t, c2, s2 = _angle_grid(int(grid_points))
    vals = (0.5 * (ss - yy)) * c2 - sy * s2
    i = int(np.argmin(vals))
    h = t[1] - t[0]
    # clip the winning cell strictly inside (-pi/2, pi/2) before taking tans
    margin = 1e-9
    t_lo = max(t[i] - h, -0.5 * math.pi + margin)
    t_hi = min(t[i] + h, 0.5 * math.pi - margin)
    a_lo = math.tan(t_lo)
    a_hi = math.tan(t_hi)
    tol = max(refine_tol, 4e-16 * (abs(a_lo) + abs(a_hi)))
    return _search_centered(ss, yy, sy, 1.0, a_lo, a_hi, tol)


def oracle_steplength(policy, pair, index=0, prev_alpha=None):
    """Independent value for one policy evaluation; index and prev_alpha
    are ATC's run state, as next_steplength takes them.

    Every route goes through golden-section searches on the defining
    least-squares or scaled-TLS objectives; none touches the closed-form
    family expressions.  Like next_steplength, it raises
    InvalidParameterError for a negative index and MissingStateError for
    ATC between cycle restarts without prev_alpha.
    """
    if index < 0:
        raise InvalidParameterError(f"index must be >= 0, got {index!r}")
    k = policy.kind
    if k == "bb1":
        return bb1_argmin(pair)
    if k == "bb2":
        return bb2_argmin(pair)
    if k == "gamma":
        return family_argmin(pair, policy.gamma)
    if k == "gamma_prime":
        return family_prime_argmin(pair, policy.gamma)
    if k == "tau":
        t = policy.tau
        return t * bb1_argmin(pair) + (1.0 - t) * bb2_argmin(pair)
    # atc: restart gives the long steplength, otherwise clamp prev_alpha
    if index % policy.cycle == 0:
        return bb1_argmin(pair)
    if prev_alpha is None:
        raise MissingStateError("ATC oracle needs prev_alpha off a cycle restart")
    lo = bb2_argmin(pair)
    hi = bb1_argmin(pair)
    return min(max(float(prev_alpha), lo), hi)

"""Brute-force steplength verifiers.

These share only input checks with `steps` and none of its closed forms:
a golden-section scalar minimizer, the scaled-TLS objective it is pointed
at, ordinary least-squares fits for the classical BB steplengths, and a
dense angular grid search for the homogenized secant fit.  They exist so
the fast formulas can be checked against something that only knows the
defining minimization problems.
"""

import functools
import math
import sys
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

import numpy as np

from .errors import (DegenerateInputError, InvalidBracketError, InvalidParameterError,
                     NonpositiveCurvatureError, real)
from .steps import _gamma_value, _run_state

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_TINIEST = math.ulp(0.0)  # the least positive float, 5e-324


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
        try:
            lo, hi = self.bracket
        except (TypeError, ValueError) as exc:
            raise InvalidBracketError("bracket must be a pair (lo, hi)") from exc
        try:
            lo, hi = real(lo, "bracket lo"), real(hi, "bracket hi")
            tolerance = real(self.tolerance, "tolerance")
        except InvalidParameterError as exc:
            raise InvalidBracketError(str(exc)) from exc
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise InvalidBracketError(f"bracket must satisfy lo < hi, got {self.bracket!r}")
        if not tolerance > 0.0:
            raise InvalidBracketError(f"tolerance must be positive, got {self.tolerance!r}")
        object.__setattr__(self, "bracket", (lo, hi))
        object.__setattr__(self, "tolerance", tolerance)


def minimize_scalar(problem):
    """Golden-section search over the bracket.

    Returns (argmin, value).  For a unimodal objective the argmin is
    within problem.tolerance of the true minimizer, or within 4 ulps of
    the bracket's larger end when the tolerance is finer than that: floats
    cannot split a bracket that narrow, and the search would not end.
    """
    f = problem.objective
    a, b = problem.bracket
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc = f(c)
    fd = f(d)
    while (b - a) > max(problem.tolerance, 4.0 * math.ulp(max(abs(a), abs(b)))):
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
    Where gamma^2 underflows to 0, 1/gamma^2 is read as inf, as float64
    divides, so the ratio is 0.
    """
    g = _gamma_value(gamma)
    a = float(alpha)
    r = a * pair.y - pair.s
    return float(r @ r) / ((1.0 / (g * g) if g * g else math.inf) + a * a)


def _centered_coeffs(ss, yy, sy, t, center):
    # with K = ratio(center) and t = 1/gamma^2, ratio(alpha) - K is exactly
    # ((yy - K) alpha^2 - 2 sy alpha + ss - K t) / (t + alpha^2); these are
    # its two coefficients
    k = (yy * center * center - 2.0 * sy * center + ss) / (t + center * center)
    return yy - k, ss - k * t


def _pair_scalars(pair):
    # (ss, yy, sy) of a pair every fit is defined on
    if not pair.sy > 0.0:
        raise NonpositiveCurvatureError("s'y <= 0; the fitted steplength is not positive")
    # with s'y > 0 a zero comes only by underflow, an inf only by overflow
    if pair.ss in (0.0, math.inf) or pair.yy in (0.0, math.inf):
        raise DegenerateInputError(
            "||s||^2 or ||y||^2 underflows to 0 or overflows to inf; the fit is undefined")
    return pair.ss, pair.yy, pair.sy


def family_bracket(pair):
    """Search bracket [bb2 - m, bb1 + m] containing every family member.

    The endpoints are the elementary BB quotients of the pair's scalars,
    not the family closed form under test; the margin keeps collapsed
    intervals (parallel s and y) searchable.  The lower end is floored at
    zero because the scaled-TLS ratio has a second critical point at
    negative alpha, and a bracket reaching past it would no longer be
    unimodal.
    """
    ss, yy, sy = _pair_scalars(pair)
    return _widened(sy / yy, ss / sy)


def _widened(lo, hi):
    m = 0.1 * (hi - lo) + 1e-8
    return (max(lo - m, 0.0), hi + m)


def _search_centered(ss, yy, sy, gamma, lo, hi, tol):
    # golden section on ratio(a) - ratio(x) for a center x, then once
    # more recentered at the first argmin.  The difference is evaluated
    # with its numerator expanded about x (constant, slope, curvature
    # computed once), so no large terms cancel during the search and the
    # well stays resolvable at full relative precision even when it is
    # orders of magnitude shallower than the surrounding plateau.  Where
    # gamma^2 is subnormal or 0, t = 1/gamma^2 is inf or beyond float's
    # digits; the ratio's minimizer has then reached its limit as t -> inf,
    # the plain least-squares fit of s by a y.
    g = _gamma_value(gamma)
    if g * g < sys.float_info.min:
        return _least_squares_argmin(yy, ss, sy)
    t = 1.0 / (g * g)
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


def family_argmin(pair, gamma):
    """Brute-force family steplength: golden-section minimizer of the
    scaled-TLS ratio on the BB bracket (searched through its centered
    form, which shares the minimizer exactly)."""
    lo, hi = family_bracket(pair)
    return _search_centered(pair.ss, pair.yy, pair.sy, gamma, lo, hi, 1e-10)


def family_prime_argmin(pair, gamma):
    """Brute-force inverse-fit steplength: 1 over the golden-section
    minimizer of the mirrored ratio, bracketed by the reciprocal BB
    quotients.

    The mirrored fit ||beta*s - y||^2 / (t + beta^2) is the plain fit
    with the roles of s and y swapped, so the same centered search
    applies with swapped scalars.
    """
    ss, yy, sy = _pair_scalars(pair)
    lo, hi = _widened(1.0 / (ss / sy), 1.0 / (sy / yy))
    return 1.0 / _search_centered(yy, ss, sy, gamma, lo, hi, 1e-12)


def family_switch_steplength(pair, gamma):
    """Family steplength written as a curvature switch: bb1 * phi(r, c).

    r = ||y|| / (gamma ||s||) weighs the gradient change against gamma
    times the step and c = s'y / (||s|| ||y||) is the cosine of their
    angle; phi = (1 - r^2 + sqrt((1 - r^2)^2 + 4 r^2 c^2)) / 2 runs from 1
    (bb1) at r -> 0 to c^2 (bb2 = bb1 c^2) at r -> inf and equals c at
    r = 1, where the steplength is sqrt(bb1 bb2).  It is the positive root
    of the scaled-TLS ratio's stationarity condition, in closed form but
    derived here, independently of the kernels; for r > 1 phi is
    evaluated as 2 r^2 c^2 / (sqrt(...) - (1 - r^2)), which cancels
    nothing.
    """
    ss, yy, sy = _pair_scalars(pair)
    ns, ny = math.sqrt(ss), math.sqrt(yy)
    r = ny / (_gamma_value(gamma) * ns)
    c = sy / (ns * ny)
    e, w = (1.0 - r) * (1.0 + r), (r * c) ** 2
    root = math.sqrt(e * e + 4.0 * w)
    phi = 0.5 * (e + root) if r <= 1.0 else 2.0 * w / (root - e)
    return ss / sy * phi


def family_switch_gamma(pair, alpha):
    """The gamma whose family steplength is alpha, the inverse of
    family_switch_steplength: gamma^2 = (alpha yy - s'y) /
    (alpha (ss - alpha s'y)), from the stationarity condition solved for
    1/gamma^2.  alpha must lie strictly inside (bb2, bb1); near either
    end the difference cancels, so gamma there is only as good as alpha's
    distance from it.
    """
    ss, yy, sy = _pair_scalars(pair)
    a = float(alpha)
    num, den = a * yy - sy, a * (ss - a * sy)
    if not (num > 0.0 and den > 0.0):
        raise InvalidParameterError(
            f"alpha = {alpha!r} lies outside (bb2, bb1); no gamma gives it")
    return math.sqrt(num / den)


def _least_squares_argmin(a, b, sy):
    # golden-section minimizer over t > 0 of ||t u - v||^2 for ||u||^2 = a,
    # ||v||^2 = b and u'v = sy, searched as t (a t - 2 sy), the fit minus
    # its constant term, which keeps the well resolvable when the residual
    # at the minimum dwarfs its depth
    hi = math.sqrt(b / a) + 1.0

    def obj(t):
        return t * (a * t - 2.0 * sy)

    return minimize_scalar(ScalarMinProblem(obj, (0.0, hi), 1e-12))[0]


def bb1_argmin(pair):
    """Brute-force long BB steplength: 1 over the least-squares minimizer
    of ||beta*s - y||^2."""
    ss, yy, sy = _pair_scalars(pair)
    return 1.0 / _least_squares_argmin(ss, yy, sy)


def bb2_argmin(pair):
    """Brute-force short BB steplength: least-squares minimizer of
    ||alpha*y - s||^2, the bb1 fit with s and y exchanged."""
    ss, yy, sy = _pair_scalars(pair)
    return _least_squares_argmin(yy, ss, sy)


@functools.cache
def _angle_grid():
    # the scan's angles plus the double-angle cosines and sines it reads
    t = np.linspace(-0.5 * math.pi, 0.5 * math.pi, 200_000)
    return t, np.cos(2.0 * t), np.sin(2.0 * t)


def homogeneous_residual_min(pair):
    """Minimize ||a1*s - a2*y|| over the unit circle a1^2 + a2^2 = 1 and
    return the quotient a2/a1 at the minimizer.

    Parameterizing (a1, a2) = (cos t, sin t), the squared residual is
    cos^2 t * ||s||^2 - 2 cos t sin t * s'y + sin^2 t * ||y||^2, which
    equals (||s||^2 + ||y||^2)/2 plus the exact sinusoid
    (||s||^2 - ||y||^2)/2 * cos 2t - s'y * sin 2t.  A grid of 200 000
    angles over [-pi/2, pi/2] scans the sinusoid, then golden section
    refines the winning cell to 4e-16 times the sum of its end values,
    and once more, 8 of those tolerances either side of the result, to
    4e-16 times the result itself.  Where |t| <= pi/4 it refines in
    quotient coordinates a = tan t, where the residual minus its asymptote
    is (||s||^2 - ||y||^2 - 2 s'y a) / (1 + a^2); elsewhere in cot t, the
    same fit with s and y exchanged, and returns the reciprocal: cot is
    finite and monotone across +-pi/2, where the grid's two ends are one
    antipodal point.  The quotient is the coefficient on y over the
    coefficient on s, i.e. the steplength alpha for which alpha*y best
    reproduces s after homogenizing; for pairs with s'y > 0 it equals the
    gamma = 1 family steplength.  A zero ||y||^2, an overflowed ||s||^2 or
    ||y||^2, or a best fit with a1 = 0 (a refined cot within its
    tolerance of 0) leaves it undefined.
    """
    ss, yy, sy = pair.ss, pair.yy, pair.sy
    if yy == 0.0 or not (math.isfinite(ss) and math.isfinite(yy)):
        raise DegenerateInputError(
            "||y||^2 is 0, or ||s||^2 or ||y||^2 overflows; the quotient is undefined")

    t, c2, s2 = _angle_grid()
    vals = (0.5 * (ss - yy)) * c2 - sy * s2
    i = int(np.argmin(vals))
    h = t[1] - t[0]
    u = t[i]
    wrap = abs(u) > 0.25 * math.pi
    if wrap:  # cot t = tan(+-pi/2 - t), the nearer sign's difference exact
        ss, yy, u = yy, ss, math.copysign(0.5 * math.pi, u) - u
    lo, hi = math.tan(u - h), math.tan(u + h)
    tol = 4e-16 * (abs(lo) + abs(hi))
    a = _search_centered(ss, yy, sy, 1.0, lo, hi, tol)
    # the cell's tolerance is absolute in a: near a = 0 it leaves only
    # about 1e-9 of the quotient's relative digits
    a = _search_centered(ss, yy, sy, 1.0, a - 8.0 * tol, a + 8.0 * tol,
                         max(4e-16 * abs(a), 1e-300))
    if not wrap:
        return a
    if abs(a) <= tol:
        raise DegenerateInputError("the best fit has a1 = 0; the quotient is infinite")
    return 1.0 / a


def _unit_scale(pair):
    # the exact power of two c that brings ||c y|| / ||s|| within a factor
    # 2^0.5 of 1; 1 where the ratio lies within about 2^8 of 1 already, or
    # where ||s||^2 or ||y||^2 is 0 or inf, which leaves every fit degenerate
    ss, yy = pair.ss, pair.yy
    if not (0.0 < ss < math.inf and 0.0 < yy < math.inf):
        return 1.0
    e = round(0.5 * (math.log2(yy) - math.log2(ss)))
    return math.ldexp(1.0, -e) if abs(e) > 8 else 1.0


def oracle_steplength(policy, pair, index=0, prev_alpha=None):
    """Independent value for one policy evaluation; index and prev_alpha
    are ATC's run state, as next_steplength takes them.

    Every route goes through golden-section searches on the defining
    least-squares or scaled-TLS objectives; none touches the closed-form
    family expressions.  Their brackets and tolerances are sized for
    steplengths near 1, so a pair whose ||y|| / ||s|| lies outside about
    [2^-8, 2^8] is searched with y scaled by the exact power of two c that
    brings that ratio near 1, gamma by c (it is a curvature) or, for
    gammaPrime, by 1/c, and ATC's previous steplength by 1/c; the result
    is c times the scaled search's, by the homogeneity of each fit.  A
    gamma that the scaling would take out of float range is clamped into
    it, where the search has reached its limit at either end.  It checks
    index and prev_alpha as next_steplength does, with the same errors.
    """
    index, prev = _run_state(policy, index, prev_alpha)
    k = policy.kind
    c, gamma = _unit_scale(pair), policy.gamma
    if gamma is not None:
        # past float range the search is at its limit either way
        gamma = min(max(gamma * c if k == "gamma" else gamma / c, _TINIEST), sys.float_info.max)
    if c != 1.0:
        # every fit here reads only the three products, each scaled exactly
        pair = SimpleNamespace(ss=pair.ss, yy=c * c * pair.yy, sy=c * pair.sy)
        prev /= c
    if k == "bb1":
        alpha = bb1_argmin(pair)
    elif k == "bb2":
        alpha = bb2_argmin(pair)
    elif k == "gamma":
        alpha = family_argmin(pair, gamma)
    elif k == "gamma_prime":
        alpha = family_prime_argmin(pair, gamma)
    elif k == "tau":
        t = policy.tau
        alpha = t * bb1_argmin(pair) + (1.0 - t) * bb2_argmin(pair)
    elif index % policy.cycle == 0:
        # atc: restart gives the long steplength, otherwise clamp prev_alpha
        alpha = bb1_argmin(pair)
    else:
        alpha = min(max(prev, bb2_argmin(pair)), bb1_argmin(pair))
    return c * alpha

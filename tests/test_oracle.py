"""Brute-force verifiers: golden-section search and the steplength oracles."""

import math

import numpy as np
import pytest

from stlsbb import (
    DegenerateInputError,
    InvalidBracketError,
    InvalidParameterError,
    MissingStateError,
    NonpositiveCurvatureError,
    ScalarMinProblem,
    SteplengthPolicy,
    StepPair,
    alpha_convex,
    alpha_family,
    alpha_family_prime,
    alpha_tls,
    atc_next,
    bb1,
    bb2,
    family_argmin,
    family_prime_argmin,
    homogeneous_residual_min,
    minimize_scalar,
    next_steplength,
    oracle_steplength,
    stls_ratio,
)
from stlsbb.oracle import bb1_argmin, bb2_argmin, family_bracket

from conftest import random_pair


class TestGoldenSection:
    def test_parabola(self):
        prob = ScalarMinProblem(lambda x: (x - 2.0) ** 2, (0.0, 5.0), 1e-12)
        x, v = minimize_scalar(prob)
        assert x == pytest.approx(2.0, abs=1e-10)
        assert v == pytest.approx(0.0, abs=1e-18)

    def test_cosine(self):
        # value-based search localizes a smooth argmin only to about
        # sqrt(eps), so the location tolerance is much looser than the
        # value tolerance
        prob = ScalarMinProblem(math.cos, (2.0, 4.0), 1e-12)
        x, v = minimize_scalar(prob)
        assert x == pytest.approx(math.pi, abs=1e-6)
        assert v == pytest.approx(-1.0, abs=1e-14)

    def test_skewed_quartic(self):
        # a quartic floor is flat to eps**(1/4) around its argmin
        prob = ScalarMinProblem(lambda x: (x - 0.3) ** 4 + 1.5, (-10.0, 10.0), 1e-10)
        x, v = minimize_scalar(prob)
        assert x == pytest.approx(0.3, abs=1e-3)
        assert v == pytest.approx(1.5, rel=1e-12)

    def test_bad_bracket(self):
        with pytest.raises(InvalidBracketError):
            ScalarMinProblem(lambda x: x, (1.0, 1.0))
        with pytest.raises(InvalidBracketError):
            ScalarMinProblem(lambda x: x, (2.0, 1.0))
        with pytest.raises(InvalidBracketError):
            ScalarMinProblem(lambda x: x, (0.0, math.inf))
        with pytest.raises(InvalidBracketError):
            ScalarMinProblem(lambda x: x, (0.0, 1.0), tolerance=0.0)

    def test_call_count_is_logarithmic(self):
        calls = [0]

        def f(x):
            calls[0] += 1
            return x * x

        minimize_scalar(ScalarMinProblem(f, (-1.0, 1.0), 1e-10))
        # one evaluation per shrink plus the warmup pair and final midpoint
        assert calls[0] < 60


class TestStlsRatio:
    def test_worked_minimum(self, canonical_pair):
        """At gamma = 1 the ratio bottoms out at (7 - 3*sqrt(5))/2."""
        a_star = alpha_tls(canonical_pair)
        want = (7.0 - 3.0 * math.sqrt(5.0)) / 2.0
        assert stls_ratio(canonical_pair, 1.0, a_star) == pytest.approx(want, rel=1e-12)

    def test_minimum_is_at_family_steplength(self, canonical_pair):
        a_star = alpha_tls(canonical_pair)
        base = stls_ratio(canonical_pair, 1.0, a_star)
        for da in (-1e-4, 1e-4, -0.05, 0.05):
            assert stls_ratio(canonical_pair, 1.0, a_star + da) > base

    def test_gamma_limits_recover_plain_fits(self, canonical_pair):
        """Tiny gamma weights the denominator constant, so the argmin drifts
        to the ordinary least-squares fit (bb2); huge gamma to bb1."""
        assert family_argmin(canonical_pair, 1e-8) == pytest.approx(
            bb2(canonical_pair), abs=1e-6
        )
        assert family_argmin(canonical_pair, 1e8) == pytest.approx(
            bb1(canonical_pair), abs=1e-6
        )

    def test_bracket_contains_family(self, rng):
        for _ in range(100):
            pair = random_pair(rng)
            lo, hi = family_bracket(pair)
            assert lo >= 0.0
            for g in (0.01, 1.0, 100.0):
                assert lo <= alpha_family(pair, g) <= hi

    def test_centered_form_matches_plain_differences(self, rng):
        """centered_stls_ratio(pair, g, a, c) must equal
        stls_ratio(a) - stls_ratio(c) up to rounding of the plain form."""
        from stlsbb.oracle import centered_stls_ratio

        for _ in range(100):
            pair = random_pair(rng)
            for g in (0.05, 1.0, 20.0):
                lo, hi = family_bracket(pair)
                for frac in (0.1, 0.4, 0.9):
                    a = lo + frac * (hi - lo)
                    c = lo + 0.6 * (hi - lo)
                    plain = stls_ratio(pair, g, a) - stls_ratio(pair, g, c)
                    scale = abs(stls_ratio(pair, g, a)) + abs(stls_ratio(pair, g, c))
                    got = centered_stls_ratio(pair, g, a, c)
                    assert got == pytest.approx(plain, abs=1e-9 * max(scale, 1e-300))


class TestOracleAgreement:
    GAMMAS = (0.01, 0.1, 1.0, 10.0, 100.0)

    def test_family(self, rng):
        for _ in range(150):
            pair = random_pair(rng)
            for g in self.GAMMAS:
                assert family_argmin(pair, g) == pytest.approx(
                    alpha_family(pair, g), abs=1e-6
                )

    def test_family_prime(self, rng):
        # the prime steplength is a reciprocal of a fitted slope, so
        # nearly orthogonal pairs amplify absolute error; relative
        # agreement is the meaningful check
        for _ in range(150):
            pair = random_pair(rng)
            for g in self.GAMMAS:
                assert family_prime_argmin(pair, g) == pytest.approx(
                    alpha_family_prime(pair, g), rel=1e-6
                )

    def test_bb_fits(self, rng):
        for _ in range(150):
            pair = random_pair(rng)
            assert bb1_argmin(pair) == pytest.approx(bb1(pair), rel=1e-6)
            assert bb2_argmin(pair) == pytest.approx(bb2(pair), abs=1e-6)

    def test_bb_fits_need_curvature(self):
        pair = StepPair(np.array([1.0, 0.0]), np.array([-1.0, 0.0]))
        with pytest.raises(NonpositiveCurvatureError):
            bb1_argmin(pair)
        with pytest.raises(NonpositiveCurvatureError):
            bb2_argmin(pair)


class TestHomogeneousResidual:
    def test_matches_tls_on_worked_pair(self, canonical_pair):
        got = homogeneous_residual_min(canonical_pair)
        assert got == pytest.approx(alpha_tls(canonical_pair), abs=1e-9)

    def test_collinear_pair(self):
        """When s = 2y exactly, the best homogenized fit is alpha = 2."""
        pair = StepPair(np.array([2.0, 4.0]), np.array([1.0, 2.0]))
        assert homogeneous_residual_min(pair) == pytest.approx(2.0, abs=1e-9)

    def test_random_pairs(self, rng):
        for _ in range(60):
            pair = random_pair(rng)
            got = homogeneous_residual_min(pair, grid_points=50_000)
            assert got == pytest.approx(alpha_tls(pair), abs=1e-8)

    def test_degenerate_y(self):
        pair = StepPair(np.array([1.0, 2.0]), np.array([0.0, 0.0]))
        with pytest.raises(DegenerateInputError):
            homogeneous_residual_min(pair)

    def test_grid_floor(self, canonical_pair):
        from stlsbb.errors import InvalidParameterError

        with pytest.raises(InvalidParameterError):
            homogeneous_residual_min(canonical_pair, grid_points=10)


class TestOracleDispatch:
    def test_simple_kinds(self, rng):
        pair = random_pair(rng)
        cases = [
            (SteplengthPolicy.long(), bb1(pair)),
            (SteplengthPolicy.short(), bb2(pair)),
            (SteplengthPolicy.family(3.0), alpha_family(pair, 3.0)),
            (SteplengthPolicy.family_prime(0.2), alpha_family_prime(pair, 0.2)),
            (SteplengthPolicy.convex(0.3), alpha_convex(pair, 0.3)),
        ]
        for pol, want in cases:
            assert oracle_steplength(pol, pair) == pytest.approx(
                want, rel=1e-6, abs=1e-8
            )

    def test_atc_branches(self, rng):
        pair = random_pair(rng)
        atc = SteplengthPolicy.adaptive_cyclic(4)
        assert oracle_steplength(atc, pair) == pytest.approx(
            atc_next(atc, pair), rel=1e-6, abs=1e-8
        )
        assert oracle_steplength(atc, pair, 2, 0.01) == pytest.approx(
            atc_next(atc, pair, 2, 0.01), rel=1e-6, abs=1e-8
        )
        inside = 0.5 * (bb1(pair) + bb2(pair))
        assert oracle_steplength(atc, pair, 1, inside) == pytest.approx(inside, abs=1e-8)
        # the oracle rejects the calls next_steplength rejects, with its errors
        for call in (oracle_steplength, next_steplength):
            with pytest.raises(InvalidParameterError):
                call(atc, pair, -1, 0.5)
            with pytest.raises(MissingStateError):
                call(atc, pair, 1)

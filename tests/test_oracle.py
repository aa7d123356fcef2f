"""Brute-force verifiers: golden-section search and the steplength oracles."""

import hashlib
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
    bb1,
    bb2,
    family_argmin,
    family_prime_argmin,
    homogeneous_residual_min,
    minimize_scalar,
    next_steplength,
    oracle_steplength,
    parse_policy,
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

    def test_tolerance_below_the_brackets_ulp_ends(self):
        # 1e-12 is below a float's spacing near 1e5: the search stops at a
        # few ulps instead of running on forever
        prob = ScalarMinProblem(lambda x: (x - 1e5) ** 2, (0.0, 3e5), 1e-12)
        x, _ = minimize_scalar(prob)
        assert x == pytest.approx(1e5, rel=1e-12)

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

    def test_family_prime_at_large_scale_and_tiny_gamma(self):
        # the search runs over 1 / alpha near 1.6e8, where floats are
        # spaced about 3e-8 apart, far above the 1e-12 tolerance
        pair = StepPair(np.array([1.0, 1.0]), np.array([1e8, 2e8]))
        assert family_prime_argmin(pair, 1e-150) == pytest.approx(
            alpha_family_prime(pair, 1e-150), rel=1e-6
        )

    def test_bb_fits(self, rng):
        for _ in range(150):
            pair = random_pair(rng)
            assert bb1_argmin(pair) == pytest.approx(bb1(pair), rel=1e-6)
            assert bb2_argmin(pair) == pytest.approx(bb2(pair), abs=1e-6)

    def test_bb_fits_keep_their_bits(self):
        # bb1_argmin and bb2_argmin are one least-squares search with s and
        # y exchanged; the digest is of the values the two separate
        # searches gave, so a change to the shared search's arithmetic,
        # bracket or order shows here
        rng = np.random.default_rng(20261019)
        pairs = [random_pair(rng, n=int(rng.integers(2, 9)), scale=10.0 ** rng.uniform(-3, 3))
                 for _ in range(200)]
        got = np.array([[bb1_argmin(p), bb2_argmin(p)] for p in pairs])
        assert hashlib.sha256(got.tobytes()).hexdigest() == (
            "e543122f8d02e3f229c0cbd9e395e4d1b246a8bab3b03e89ebdbe1284c32f25a")

    def test_family_searches_keep_their_bits(self):
        # family_argmin and family_prime_argmin are one bracketed centered
        # search with s and y exchanged; the digest is of the values the two
        # separate searches and family_bracket's 0.1 and 1e-8 margins gave,
        # so a change to the shared search, its brackets or the margin
        # shows here
        rng = np.random.default_rng(20261021)
        pairs = [random_pair(rng, n=int(rng.integers(2, 9)), scale=10.0 ** rng.uniform(-3, 3))
                 for _ in range(300)]
        got = np.array([[*family_bracket(p), *(f(p, g) for g in (1e-3, 0.1, 1.0, 10.0, 1e3)
                                               for f in (family_argmin, family_prime_argmin))]
                        for p in pairs])
        assert hashlib.sha256(got.tobytes()).hexdigest() == (
            "bf436a182e3445938573574dae87af2db0c18cf1bd537de3a105a2108dcf81c5")

    @pytest.mark.parametrize("s, y", [
        ([1e150, 0.0], [1e-170, 0.0]),  # y'y underflows to 0, s'y = 1e-20
        ([1e-170, 0.0], [1e150, 0.0]),  # s's underflows to 0
        ([1e200, 0.0], [1e-150, 0.0]),  # s's overflows to inf, s'y = 1e50
        ([1e-150, 0.0], [1e200, 0.0]),  # y'y overflows to inf
    ])
    def test_underflowed_fit_is_degenerate(self, s, y):
        # with s'y > 0 a zero ||s||^2 or ||y||^2 comes only from underflow,
        # an inf one only from overflow, which the pair takes quietly; the
        # fit is then undefined, and the oracle says so instead of searching
        pair = StepPair(s, y)
        assert pair.sy > 0.0
        for fit in (bb1_argmin, bb2_argmin, family_bracket,
                    lambda p: family_argmin(p, 1.0), lambda p: family_prime_argmin(p, 1.0)):
            with pytest.raises(DegenerateInputError):
                fit(pair)
        for text, index in (("bb1", 0), ("bb2", 0), ("gamma:1", 0), ("gammaPrime:1", 0),
                            ("tau:0.5", 0), ("atc:3", 0), ("atc:3", 1)):
            with pytest.raises(DegenerateInputError):
                oracle_steplength(parse_policy(text), pair, index, 0.5)

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
            got = homogeneous_residual_min(pair)
            assert got == pytest.approx(alpha_tls(pair), abs=1e-8)

    def test_degenerate_y(self):
        pair = StepPair(np.array([1.0, 2.0]), np.array([0.0, 0.0]))
        with pytest.raises(DegenerateInputError):
            homogeneous_residual_min(pair)

    @pytest.mark.parametrize("c", [10.0**-k for k in range(5, 13)])
    def test_winning_grid_end_wraps_around(self, c):
        # the quotient is about 1/c; from c = 1e-6 down the scan's best
        # angle is its first, t = -pi/2, which is its last, t = pi/2, too
        pair = StepPair([1.0, 1.0], [c, 1.1 * c])
        got = homogeneous_residual_min(pair)
        assert got > 0.0
        assert got == pytest.approx(alpha_tls(pair), rel=1e-9)

    @pytest.mark.parametrize("c", [10.0**k for k in range(5, 13)])
    def test_tiny_quotients_keep_their_digits(self, c):
        # the quotient is about 1/c, refined in tan t near t = 0 to a
        # tolerance relative to the cell; an absolute floor of 1e-12 gave
        # 7.05e-13 against 9.50e-13 at c = 1e12
        pair = StepPair([1.0, 1.0], [c, 1.1 * c])
        assert homogeneous_residual_min(pair) == pytest.approx(alpha_tls(pair), rel=1e-9, abs=0)

    def test_random_pairs_across_scales(self, rng):
        # ||y|| / ||s|| across 1e+-9; a quotient near 1e+-12 is refined to
        # about 1e-20 absolute in a coordinate near 1e-12, so 1e-8 relative
        for _ in range(2000):
            s, y = rng.standard_normal((2, 3))
            y *= 10.0 ** rng.uniform(-9.0, 9.0) * np.linalg.norm(s) / np.linalg.norm(y)
            pair = StepPair(s, y if s @ y > 0.0 else -y)
            assert homogeneous_residual_min(pair) == pytest.approx(alpha_tls(pair), rel=1e-8,
                                                                   abs=0)

    def test_best_fit_off_s_is_degenerate(self):
        # s'y = 0 and ||s|| > ||y||: the best fit is a1 = 0, an infinite
        # quotient, which came out as -2.16e22
        with pytest.raises(DegenerateInputError):
            homogeneous_residual_min(StepPair([1.0, 0.0], [0.0, 0.5]))

    def test_zero_s_gives_zero(self):
        # the fit is a2 = 0: the quotient is 0 to within the refinement's
        # tolerance (it was -2.4e-13)
        got = homogeneous_residual_min(StepPair([0.0, 0.0], [1.0, 2.0]))
        assert abs(got) <= 1e-20

    @pytest.mark.parametrize("s, y", [
        ([1.0, 1.0], [1e-200, 1e-200]),  # y'y underflows to 0
        ([1e200, 0.0], [1e-150, 0.0]),  # s's overflows to inf
        ([1e-150, 0.0], [1e200, 0.0]),  # y'y overflows to inf
    ])
    def test_lost_norm_is_degenerate(self, s, y):
        with pytest.raises(DegenerateInputError):
            homogeneous_residual_min(StepPair(s, y))


class TestOracleDispatch:
    def test_simple_kinds(self, rng):
        pair = random_pair(rng)
        cases = [
            (SteplengthPolicy("bb1"), bb1(pair)),
            (SteplengthPolicy("bb2"), bb2(pair)),
            (SteplengthPolicy("gamma", gamma=3.0), alpha_family(pair, 3.0)),
            (SteplengthPolicy("gamma_prime", gamma=0.2), alpha_family_prime(pair, 0.2)),
            (SteplengthPolicy("tau", tau=0.3), alpha_convex(pair, 0.3)),
        ]
        for pol, want in cases:
            assert oracle_steplength(pol, pair) == pytest.approx(
                want, rel=1e-6, abs=1e-8
            )

    def test_atc_branches(self, rng):
        pair = random_pair(rng)
        atc = SteplengthPolicy("atc", cycle=4)
        assert oracle_steplength(atc, pair) == pytest.approx(
            next_steplength(atc, pair), rel=1e-6, abs=1e-8
        )
        assert oracle_steplength(atc, pair, 2, 0.01) == pytest.approx(
            next_steplength(atc, pair, 2, 0.01), rel=1e-6, abs=1e-8
        )
        inside = 0.5 * (bb1(pair) + bb2(pair))
        assert oracle_steplength(atc, pair, 1, inside) == pytest.approx(inside, abs=1e-8)
        # the oracle rejects the calls next_steplength rejects, with its
        # errors; the run state is checked before the pair
        flat = StepPair(np.array([1.0, 0.0]), np.array([-1.0, 0.0]))
        for call in (oracle_steplength, next_steplength):
            with pytest.raises(InvalidParameterError):
                call(atc, pair, -1, 0.5)
            with pytest.raises(MissingStateError):
                call(atc, pair, 1)
            with pytest.raises(MissingStateError):
                call(atc, flat, 1)

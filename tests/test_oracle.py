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
from stlsbb.kernels import policy_step
from stlsbb.oracle import (bb1_argmin, bb2_argmin, family_bracket, family_switch_gamma,
                           family_switch_steplength)

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

    @pytest.mark.parametrize("bracket, tolerance", [
        (("a", 1.0), 1e-10), ((0.0, None), 1e-10), ((0.0, 1.0), "tight"),
        ((0.0, 1.0, 2.0), 1e-10), (1.0, 1e-10), ((0.0, 10**5000), 1e-10)])
    def test_a_bracket_of_non_numbers_is_a_bad_bracket(self, bracket, tolerance):
        with pytest.raises(InvalidBracketError):
            ScalarMinProblem(lambda x: x, bracket, tolerance)

    def test_bracket_and_tolerance_are_stored_as_floats(self):
        prob = ScalarMinProblem(lambda x: x, (0, "2.5"), tolerance=np.float32(0.5))
        assert prob.bracket == (0.0, 2.5) and prob.tolerance == 0.5
        assert type(prob.bracket[0]) is float and type(prob.tolerance) is float

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
        # the quotient is about 1/c, refined in tan t near t = 0, last to a
        # tolerance relative to itself; an absolute floor of 1e-12 gave
        # 7.05e-13 against 9.50e-13 at c = 1e12, and a tolerance relative
        # to the grid cell alone 7.5e-10 relative
        pair = StepPair([1.0, 1.0], [c, 1.1 * c])
        assert homogeneous_residual_min(pair) == pytest.approx(alpha_tls(pair), rel=1e-13,
                                                               abs=0)

    def test_random_pairs_across_scales(self, rng):
        # ||y|| / ||s|| across 1e+-9; a quotient near 1e+-12 is refined to
        # full relative precision by the second pass (worst 2.7e-13 here,
        # 2.8e-10 with the grid cell's tolerance alone)
        for _ in range(2000):
            s, y = rng.standard_normal((2, 3))
            y *= 10.0 ** rng.uniform(-9.0, 9.0) * np.linalg.norm(s) / np.linalg.norm(y)
            pair = StepPair(s, y if s @ y > 0.0 else -y)
            assert homogeneous_residual_min(pair) == pytest.approx(alpha_tls(pair), rel=1e-11,
                                                                   abs=0)

    def test_nearly_orthogonal_pair_keeps_its_digits(self):
        # quotient 6.16e-16 at cos(s, y) = 4.2e-7, drawn by the generator
        # above at seed 4: refined to the grid cell's tolerance alone it
        # came out 5.3e-6 off, and now agrees to 1.4e-10
        s = [-float.fromhex("0x1.f770675126650p-3"), -float.fromhex("0x1.35988ed3d8e53p-1"),
             float.fromhex("0x1.a37f0ebf0a49dp-3")]
        y = [-float.fromhex("0x1.cee8e214d0221p+24"), float.fromhex("0x1.329fbba944904p+27"),
             float.fromhex("0x1.a1de1703ed675p+28")]
        pair = StepPair(s, y)
        assert alpha_tls(pair) == 6.1597078036772681e-16
        assert homogeneous_residual_min(pair) == pytest.approx(alpha_tls(pair), rel=1e-9, abs=0)

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


class TestCurvatureSwitch:
    """The family as bb1 * phi(r, c), and its inverse alpha -> gamma."""

    def draws(self, rng, count):
        # ||y|| / ||s|| and gamma log-uniform across 1e+-4
        for _ in range(count):
            s, y = rng.standard_normal((2, 3))
            y *= 10.0 ** rng.uniform(-4.0, 4.0) * np.linalg.norm(s) / np.linalg.norm(y)
            yield StepPair(s, y if s @ y > 0.0 else -y), 10.0 ** rng.uniform(-4.0, 4.0)

    def test_matches_the_kernel(self, rng):
        # worst 7.9e-15 relative over 1e5 such draws
        for pair, g in self.draws(rng, 2000):
            want = policy_step(SteplengthPolicy("gamma", gamma=g), pair.ss, pair.yy, pair.sy,
                               None, 0)
            assert family_switch_steplength(pair, g) == pytest.approx(want, rel=2e-14, abs=0)

    def test_gamma_round_trips(self, rng):
        # alpha -> gamma -> alpha, for alpha at least 1e-6 relative inside
        # (bb2, bb1); worst 6.9e-15 over 1e5 draws
        checked = 0
        for pair, g in self.draws(rng, 2000):
            a = family_switch_steplength(pair, g)
            b1, b2 = bb1(pair), bb2(pair)
            if a - b2 >= 1e-6 * b2 and b1 - a >= 1e-6 * b1:
                checked += 1
                back = family_switch_steplength(pair, family_switch_gamma(pair, a))
                assert back == pytest.approx(a, rel=2e-14, abs=0)
        assert checked > 1000

    def test_balanced_gamma_gives_the_geometric_mean(self, rng):
        # gamma = ||y|| / ||s|| is r = 1, where phi = c
        for pair, _ in self.draws(rng, 200):
            g = math.sqrt(pair.yy / pair.ss)
            assert family_switch_steplength(pair, g) == pytest.approx(
                math.sqrt(bb1(pair) * bb2(pair)), rel=1e-14, abs=0)

    @pytest.mark.parametrize("alpha", [lambda b1, b2: 0.5 * b2, lambda b1, b2: 2.0 * b1,
                                       lambda b1, b2: -b2, lambda b1, b2: -b1])
    def test_alpha_outside_the_bb_interval_has_no_gamma(self, canonical_pair, alpha):
        with pytest.raises(InvalidParameterError, match="outside"):
            family_switch_gamma(canonical_pair, alpha(bb1(canonical_pair), bb2(canonical_pair)))


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

    @pytest.mark.parametrize("text", ["bb1", "bb2", "gamma:1", "gamma:20", "gammaPrime:0.05",
                                      "tau:0.3", "atc:3"])
    @pytest.mark.parametrize("k", [-40, 40])
    def test_every_kind_is_scale_free(self, rng, text, k):
        # the searches' brackets and tolerances are sized for steplengths
        # near 1; with ||y|| / ||s|| scaled by 2^k each kind still agrees
        # with its closed form
        policy = parse_policy(text)
        pairs = [StepPair([1.0, 0.2], [1.0, 1.0])] + [random_pair(rng) for _ in range(30)]
        for pair in pairs:
            scaled = StepPair(pair.s, 2.0**k * pair.y)
            b1, b2 = bb1(scaled), bb2(scaled)
            prev = b2 + rng.uniform(-0.5, 1.5) * (b1 - b2)  # ATC's last step, maybe outside
            for index in (0, 1):
                want = next_steplength(policy, scaled, index, prev)
                got = oracle_steplength(policy, scaled, index, prev)
                assert abs(got - want) <= 1e-7 * want, (pair, index)

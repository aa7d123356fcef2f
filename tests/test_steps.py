"""Steplength math: closed forms, family properties, policies."""

import dataclasses
import math
import types

import numpy as np
import pytest

import stlsbb
from stlsbb import (
    InvalidParameterError,
    MissingStateError,
    NonpositiveCurvatureError,
    StepPair,
    SteplengthPolicy,
    alpha_convex,
    alpha_family,
    alpha_family_prime,
    alpha_tls,
    bb1,
    bb2,
    next_steplength,
    parse_policy,
    tau_from_gamma,
)
from stlsbb.errors import DimensionMismatchError

from conftest import random_pair

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class TestWorkedExample:
    """Hand-checkable values on the pair with ss=2, yy=5, s'y=3."""

    def test_bb1(self, canonical_pair):
        assert bb1(canonical_pair) == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_bb2(self, canonical_pair):
        assert bb2(canonical_pair) == pytest.approx(3.0 / 5.0, rel=1e-15)

    def test_convex_midpoint(self, canonical_pair):
        assert alpha_convex(canonical_pair, 0.5) == pytest.approx(19.0 / 30.0, rel=1e-15)

    def test_tls_is_golden_ratio_conjugate(self, canonical_pair):
        assert alpha_tls(canonical_pair) == pytest.approx(GOLDEN, rel=1e-14)

    def test_family_at_one_equals_tls(self, canonical_pair):
        assert alpha_family(canonical_pair, 1.0) == alpha_tls(canonical_pair)
        assert alpha_family_prime(canonical_pair, 1.0) == pytest.approx(
            alpha_tls(canonical_pair), rel=1e-14
        )

    def test_tau_at_one(self, canonical_pair):
        w = tau_from_gamma(canonical_pair, 1.0)
        assert type(w) is float
        assert w == pytest.approx(0.2705098312484227, rel=1e-12)


class TestPairValidation:
    def test_arrays_are_frozen_copies(self):
        s = np.array([1.0, 2.0])
        y = np.array([3.0, 4.0])
        pair = StepPair(s, y)
        s[0] = 99.0
        assert pair.s[0] == 1.0
        with pytest.raises(ValueError):
            pair.s[0] = 5.0

    def test_cached_products(self, canonical_pair):
        assert canonical_pair.ss == 2.0
        assert canonical_pair.yy == 5.0
        assert canonical_pair.sy == 3.0

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            StepPair(np.ones(3), np.ones(4))

    def test_empty(self):
        with pytest.raises(DimensionMismatchError):
            StepPair(np.array([]), np.array([]))

    def test_nonpositive_curvature_rejected(self):
        pair = StepPair(np.array([1.0, 0.0]), np.array([-1.0, 0.0]))
        for fn in (bb1, bb2, alpha_tls):
            with pytest.raises(NonpositiveCurvatureError):
                fn(pair)
        with pytest.raises(NonpositiveCurvatureError):
            alpha_family(pair, 2.0)
        with pytest.raises(NonpositiveCurvatureError):
            alpha_convex(pair, 0.5)
        # solver.run turns this error into its delta reset, for every kind
        for pol in (
            SteplengthPolicy("bb1"),
            SteplengthPolicy("bb2"),
            SteplengthPolicy("gamma", gamma=2.0),
            SteplengthPolicy("gamma_prime", gamma=2.0),
            SteplengthPolicy("tau", tau=0.5),
            SteplengthPolicy("atc", cycle=3),
        ):
            with pytest.raises(NonpositiveCurvatureError):
                next_steplength(pol, pair)
        with pytest.raises(NonpositiveCurvatureError):
            next_steplength(SteplengthPolicy("atc", cycle=3), pair, 1, 0.5)

    def test_parameter_validation(self, canonical_pair):
        for gamma in (0.0, -3.0, float("inf"), float("nan"), 10**400, "not a number"):
            with pytest.raises(InvalidParameterError):
                SteplengthPolicy("gamma", gamma=gamma)
            with pytest.raises(InvalidParameterError):
                alpha_family(canonical_pair, gamma)
        for tau in (1.5, -0.1, float("nan"), "x"):
            with pytest.raises(InvalidParameterError):
                SteplengthPolicy("tau", tau=tau)
            with pytest.raises(InvalidParameterError):
                alpha_convex(canonical_pair, tau)


class TestFamilyProperties:
    GAMMAS = np.logspace(-4, 4, 33)

    def test_containment(self, rng):
        for _ in range(300):
            pair = random_pair(rng)
            lo, hi = bb2(pair), bb1(pair)
            for g in self.GAMMAS:
                a = alpha_family(pair, g)
                ap = alpha_family_prime(pair, g)
                slack = 1e-12 * max(1.0, hi)
                assert lo - slack <= a <= hi + slack
                assert lo - slack <= ap <= hi + slack

    def test_monotone_in_gamma(self, rng):
        for _ in range(200):
            pair = random_pair(rng)
            fam = [alpha_family(pair, g) for g in self.GAMMAS]
            prm = [alpha_family_prime(pair, g) for g in self.GAMMAS]
            slack = 1e-12 * max(1.0, bb1(pair))
            assert all(b >= a - slack for a, b in zip(fam, fam[1:]))
            assert all(b <= a + slack for a, b in zip(prm, prm[1:]))

    def test_limits(self, rng):
        for _ in range(200):
            pair = random_pair(rng)
            assert alpha_family(pair, 1e8) == pytest.approx(bb1(pair), rel=1e-6)
            assert alpha_family(pair, 1e-8) == pytest.approx(bb2(pair), rel=1e-6)
            assert alpha_family_prime(pair, 1e-8) == pytest.approx(bb1(pair), rel=1e-6)
            assert alpha_family_prime(pair, 1e8) == pytest.approx(bb2(pair), rel=1e-6)

    def test_branches_cross_at_one(self, rng):
        for _ in range(200):
            pair = random_pair(rng)
            t = alpha_tls(pair)
            assert alpha_family(pair, 1.0) == pytest.approx(t, rel=1e-12)
            assert alpha_family_prime(pair, 1.0) == pytest.approx(t, rel=1e-12)

    def test_tls_min_max(self, rng):
        """alpha_tls minimizes max(family, prime) over gamma."""
        for _ in range(100):
            pair = random_pair(rng)
            t = alpha_tls(pair)
            for g in self.GAMMAS:
                m = max(alpha_family(pair, g), alpha_family_prime(pair, g))
                assert m >= t - 1e-10 * max(1.0, t)

    def test_tls_identity_in_bb_quotients(self, rng):
        """alpha_tls = (bb1 - 1/bb2 + sqrt((1/bb2 - bb1)^2 + 4)) / 2."""
        for _ in range(500):
            pair = random_pair(rng)
            b1, b2 = bb1(pair), bb2(pair)
            direct = 0.5 * (b1 - 1.0 / b2 + math.hypot(1.0 / b2 - b1, 2.0))
            assert alpha_tls(pair) == pytest.approx(direct, rel=1e-12)

    def test_convex_roundtrip(self, rng):
        for _ in range(500):
            pair = random_pair(rng)
            for g in (0.02, 0.5, 1.0, 3.0, 80.0):
                w = tau_from_gamma(pair, g)
                assert alpha_convex(pair, w) == pytest.approx(
                    alpha_family(pair, g), rel=1e-12
                )

    def test_scale_invariance(self, rng):
        """Scaling s and y together leaves every steplength unchanged."""
        for _ in range(100):
            pair = random_pair(rng)
            for c in (1e-6, 1e-3, 1e3, 1e6):
                scaled = StepPair(c * pair.s, c * pair.y)
                assert bb1(scaled) == pytest.approx(bb1(pair), rel=1e-10)
                assert bb2(scaled) == pytest.approx(bb2(pair), rel=1e-10)
                assert alpha_family(scaled, 2.5) == pytest.approx(
                    alpha_family(pair, 2.5), rel=1e-10
                )

    def test_extreme_gamma_stays_finite(self, rng):
        """Far outside the working range the evaluation must neither
        overflow nor collapse to zero; it lands on the exact limits."""
        pair = random_pair(rng)
        for g in (1e-160, 1e-80, 5e-324):
            assert alpha_family(pair, g) == pytest.approx(bb2(pair), rel=1e-12)
            assert alpha_family_prime(pair, g) == pytest.approx(bb1(pair), rel=1e-12)
        for g in (1e80, 1e160, 1e308):
            assert alpha_family(pair, g) == pytest.approx(bb1(pair), rel=1e-12)
            assert alpha_family_prime(pair, g) == pytest.approx(bb2(pair), rel=1e-12)

    def test_parallel_pair_collapses(self):
        pair = StepPair(np.array([2.0, 4.0]), np.array([1.0, 2.0]))
        assert bb1(pair) == pytest.approx(bb2(pair), rel=1e-15)
        assert tau_from_gamma(pair, 7.0) == 0.5
        assert alpha_family(pair, 7.0) == pytest.approx(bb1(pair), rel=1e-12)


class TestPolicy:
    def test_describe_parse_roundtrip(self):
        policies = [
            SteplengthPolicy("bb1"),
            SteplengthPolicy("bb2"),
            SteplengthPolicy("gamma", gamma=2.5),
            SteplengthPolicy("gamma_prime", gamma=0.125),
            SteplengthPolicy("tau", tau=0.75),
            SteplengthPolicy("atc", cycle=4),
        ]
        for pol in policies:
            again = parse_policy(pol.describe())
            assert again.kind == pol.kind
            assert again.gamma == pol.gamma
            assert again.tau == pol.tau
            assert again.cycle == pol.cycle

    def test_describe_parses_back_to_the_same_float(self, rng):
        # six significant digits would name a different gamma or tau, so
        # such values take their shortest round-trip form
        assert SteplengthPolicy("gamma", gamma=1.0000001).describe() == "gamma:1.0000001"
        assert parse_policy("gamma:1.0000001").describe() == "gamma:1.0000001"
        gammas = np.concatenate([10.0 ** rng.uniform(-300, 300, 200),
                                 rng.uniform(0.0, 30.0, 200),
                                 [1.0, 1.5, 20.0, 0.5, 5e-324, 1.7976931348623157e308]])
        taus = np.concatenate([rng.uniform(0.0, 1.0, 200), [0.0, 0.3, 1.0, 1.0 - 2.0**-53]])
        policies = ([SteplengthPolicy("gamma", gamma=g) for g in gammas]
                    + [SteplengthPolicy("gamma_prime", gamma=g) for g in gammas]
                    + [SteplengthPolicy("tau", tau=t) for t in taus])
        for pol in policies:
            assert parse_policy(pol.describe()) == pol, pol.describe()

    def test_short_descriptors_keep_their_form(self):
        # the forms the golden sweeps and traces were recorded with
        for text in ("bb1", "bb2", "gamma:1", "gamma:1.5", "gamma:20", "gammaPrime:0.5",
                     "tau:0.3", "atc:3", "atc:10"):
            assert parse_policy(text).describe() == text

    def test_parse_case_insensitive(self):
        assert parse_policy("BB1").kind == "bb1"
        assert parse_policy("Gamma:2").gamma == 2.0
        assert parse_policy("gammaprime:3").kind == "gamma_prime"
        assert parse_policy(" atc:5 ").cycle == 5

    def test_parse_rejects_garbage(self):
        for text in ("bb3", "gamma", "gamma:zap", "tau:2x", "atc:0", "bb1:7", ""):
            with pytest.raises(InvalidParameterError):
                parse_policy(text)
        with pytest.raises(InvalidParameterError):
            parse_policy(42)

    def test_constructor_validation(self, canonical_pair):
        with pytest.raises(InvalidParameterError):
            SteplengthPolicy("nope")
        with pytest.raises(InvalidParameterError):
            SteplengthPolicy("gamma")
        with pytest.raises(InvalidParameterError):
            SteplengthPolicy("tau")
        with pytest.raises(InvalidParameterError):
            SteplengthPolicy("atc")
        for cycle in (0, -2, 2.5, "x", float("inf"), float("nan"), 10**400):
            with pytest.raises(InvalidParameterError):
                SteplengthPolicy("atc", cycle=cycle)
        assert SteplengthPolicy("atc", cycle=4.0).cycle == 4
        # a parameter the kind does not take would make an unequal policy
        # that describes itself as the plain one
        takes = {"gamma": "gamma", "gamma_prime": "gamma", "tau": "tau", "atc": "cycle"}
        ok = {"gamma": 2.0, "tau": 0.5, "cycle": 3}
        for kind in ("bb1", "bb2", "gamma", "gamma_prime", "tau", "atc"):
            own = {takes[kind]: ok[takes[kind]]} if kind in takes else {}
            for name, value in ok.items():
                if name not in own:
                    with pytest.raises(InvalidParameterError, match=name):
                        SteplengthPolicy(kind, **own, **{name: value})
        assert SteplengthPolicy("atc", cycle=np.int64(3)).describe() == "atc:3"
        # the index is the caller's, so the call checks it
        with pytest.raises(InvalidParameterError):
            next_steplength(SteplengthPolicy("bb1"), canonical_pair, -1)

    def test_next_steplength_returns_a_float(self, canonical_pair):
        pol = SteplengthPolicy("gamma", gamma=1.0)
        a = next_steplength(pol, canonical_pair)
        assert type(a) is float
        assert a == pytest.approx(GOLDEN, rel=1e-14)
        # a policy is its rule alone; no run state rides on it
        assert [f.name for f in dataclasses.fields(pol)] == ["kind", "gamma", "tau", "cycle"]

    def test_each_kind_matches_direct_form(self, canonical_pair):
        # both sides evaluate the same kernel, so the match is exact
        b1, b2 = bb1(canonical_pair), bb2(canonical_pair)
        cases = [
            (SteplengthPolicy("bb1"), b1),
            (SteplengthPolicy("bb2"), b2),
            (SteplengthPolicy("gamma", gamma=3.0), alpha_family(canonical_pair, 3.0)),
            (SteplengthPolicy("gamma_prime", gamma=3.0), alpha_family_prime(canonical_pair, 3.0)),
            (SteplengthPolicy("tau", tau=0.25), alpha_convex(canonical_pair, 0.25)),
            (SteplengthPolicy("atc", cycle=3), b1),
        ]
        for pol, want in cases:
            assert next_steplength(pol, canonical_pair) == want
        atc = SteplengthPolicy("atc", cycle=3)
        for index, prev, want in [(3, 9.0, b1), (1, 0.01, b2), (2, 50.0, b1), (1, 0.62, 0.62)]:
            assert next_steplength(atc, canonical_pair, index, prev) == want


class TestAdaptiveCyclic:
    def test_restart_uses_bb1(self, canonical_pair):
        pol = SteplengthPolicy("atc", cycle=3)
        assert next_steplength(pol, canonical_pair) == pytest.approx(
            bb1(canonical_pair), rel=1e-15
        )

    def test_lower_clamp(self, canonical_pair):
        pol = SteplengthPolicy("atc", cycle=3)
        assert next_steplength(pol, canonical_pair, 1, 0.01) == pytest.approx(
            bb2(canonical_pair), rel=1e-15
        )

    def test_upper_clamp(self, canonical_pair):
        pol = SteplengthPolicy("atc", cycle=3)
        assert next_steplength(pol, canonical_pair, 2, 50.0) == pytest.approx(
            bb1(canonical_pair), rel=1e-15
        )

    def test_interior_pass_through(self, canonical_pair):
        inside = 0.62  # strictly between bb2 = 0.6 and bb1 = 2/3
        pol = SteplengthPolicy("atc", cycle=3)
        assert next_steplength(pol, canonical_pair, 1, inside) == inside

    def test_cycle_sequence(self, rng):
        """Indices 0, cycle, 2*cycle restart; the rest carry state."""
        pol = SteplengthPolicy("atc", cycle=2)
        a = None
        for k in range(6):
            pair = random_pair(rng)
            a = next_steplength(pol, pair, k, a)
            if k % 2 == 0:
                assert a == pytest.approx(bb1(pair), rel=1e-14)
            else:
                lo, hi = bb2(pair), bb1(pair)
                assert lo - 1e-15 <= a <= hi + 1e-15

    def test_missing_state(self, canonical_pair):
        pol = SteplengthPolicy("atc", cycle=3)
        with pytest.raises(MissingStateError):
            next_steplength(pol, canonical_pair, 1)


def test_version_string():
    assert stlsbb.__version__ == "0.1.0"


def test_all_is_the_public_namespace():
    names = stlsbb.__all__
    assert len(names) == len(set(names)) == 62
    # every name resolves, and no submodule or private name leaks
    for name in names:
        assert not isinstance(getattr(stlsbb, name), types.ModuleType), name
    assert [n for n in names if n.startswith("_")] == ["__version__"]

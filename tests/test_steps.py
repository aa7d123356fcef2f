"""Steplength math: closed forms, family properties, policies."""

import dataclasses
import math
import types
import warnings

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
from stlsbb import kernels, steps
from stlsbb.errors import DimensionMismatchError
from stlsbb.oracle import oracle_steplength
from stlsbb.steps import POLICY_KINDS, SecantProducts

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

    def test_tau_from_gamma_is_scale_free(self):
        # y scaled by c and gamma by c scale bb1, bb2 and the family step
        # by 1/c, exactly for a power of two c, so the weight keeps its
        # bits; an interval is collapsed relative to bb1, not below 1
        s = np.array([1.0, 0.0])
        for y, gamma in (([1.0, 1.0], 1.0), ([1.0, 0.2], 1.5), ([3.0, -0.5], 0.25)):
            want = tau_from_gamma(StepPair(s, np.array(y)), gamma)
            assert 0.0 < want < 1.0
            for k in range(61):
                c = 2.0**k
                got = tau_from_gamma(StepPair(s, c * np.array(y)), c * gamma)
                assert got.hex() == want.hex(), (y, k)

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

    # a value for each parameter field; a kind with a field not named here
    # fails the table test below until it is given one
    FIELD_VALUES = {"gamma": 2.5, "tau": 0.3, "cycle": 3}

    @pytest.mark.parametrize("kind", POLICY_KINDS)
    def test_every_kind_in_the_table(self, kind, rng):
        # each kind the table declares builds, round-trips through its
        # descriptor, has a rule in kernels.policy_step that lands in
        # [bb2, bb1], and has an oracle that agrees with it to criterion
        # 1's 1e-6.  A kind without its own policy_step arm falls into the
        # ATC arm and fails there.
        name, own = steps._KINDS[kind]
        policy = SteplengthPolicy(kind, **({} if own is None else {own: self.FIELD_VALUES[own]}))
        assert policy.describe().partition(":")[0] == name
        assert parse_policy(policy.describe()) == policy
        for _ in range(40):
            pair = random_pair(rng)
            b1, b2 = bb1(pair), bb2(pair)
            prev = b2 + rng.uniform(-0.5, 1.5) * (b1 - b2)  # ATC's last step, maybe outside
            for index in (0, 1):
                alpha = kernels.policy_step(policy, pair.ss, pair.yy, pair.sy, prev, index)
                slack = 1e-12 * max(1.0, b1)
                assert b2 - slack <= alpha <= b1 + slack, (kind, index)
                assert abs(oracle_steplength(policy, pair, index, prev) - alpha) <= 1e-6

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


# s = (1e150, 0), y = (1e-170, 0): y'y underflows to 0 while s'y = 1e-20 > 0
UNDERFLOWED = StepPair([1e150, 0.0], [1e-170, 0.0])


class TestVanishingDivisors:
    """A divisor that underflows to 0 gives float64's inf or nan on every
    path to the rules, as the raw loop's rows always did; nothing raises."""

    PAIRS = {
        "underflowed-yy": UNDERFLOWED,
        # c (1, 400, 5) at c = 1e-170, products rounded as they come: the
        # family fits' terms underflow, and gammaPrime:0.05's to a zero divisor
        "tiny-triple": SecantProducts(1e-170, 1e-170 * 400.0, 1e-170 * 5.0),
    }
    # one policy of each kind; atc is read off a cycle restart
    POLICIES = {"bb1": "bb1", "bb2": "bb2", "gamma": "gamma:20",
                "gamma_prime": "gammaPrime:0.05", "tau": "tau:0.5", "atc": "atc:3"}

    def test_every_kind_is_covered(self):
        assert tuple(self.POLICIES) == POLICY_KINDS

    @pytest.mark.parametrize("kind", POLICY_KINDS)
    @pytest.mark.parametrize("name", PAIRS)
    def test_value_is_the_rule_on_float64(self, name, kind):
        pair, policy = self.PAIRS[name], parse_policy(self.POLICIES[kind])
        f = np.float64
        with np.errstate(all="ignore"):
            want = kernels.policy_step(policy, f(pair.ss), f(pair.yy), f(pair.sy), 0.5, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = next_steplength(policy, pair, 1, 0.5)
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_named_helpers_give_inf(self):
        pair = UNDERFLOWED
        for got in (bb1(pair), bb2(pair), alpha_convex(pair, 0.5), alpha_family(pair, 2.0),
                    alpha_family_prime(pair, 2.0), alpha_tls(pair)):
            assert got == math.inf


def test_version_string():
    assert stlsbb.__version__ == "0.1.0"


def test_all_is_the_public_namespace():
    names = stlsbb.__all__
    assert len(names) == len(set(names)) == 63
    # every name resolves, and no submodule or private name leaks
    for name in names:
        assert not isinstance(getattr(stlsbb, name), types.ModuleType), name
    assert [n for n in names if n.startswith("_")] == ["__version__"]

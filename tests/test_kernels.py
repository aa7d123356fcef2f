"""Kernel-level checks: closed forms, the policy dispatch, the Householder
Hessian product, and the raw BB loop."""

import math

import numpy as np
import pytest

from stlsbb import SteplengthPolicy, kernels

from conftest import random_pair


def scalars(pair):
    return pair.ss, pair.yy, pair.sy


class TestScalarKernels:
    def test_bb_steps_are_the_ratios(self, rng):
        for _ in range(50):
            ss, yy, sy = scalars(random_pair(rng))
            assert kernels.bb1_step(ss, sy) == ss / sy
            assert kernels.bb2_step(sy, yy) == sy / yy

    def test_convex_step(self, rng):
        ss, yy, sy = scalars(random_pair(rng))
        for tau in (0.0, 0.25, 1.0):
            want = tau * (ss / sy) + (1.0 - tau) * (sy / yy)
            assert kernels.convex_step(ss, yy, sy, tau) == want

    def test_family_matches_naive_formula(self, rng):
        # the textbook expression cancels badly when d < 0, so evaluate it
        # in extended precision to make a fair reference; the kernel in
        # plain doubles must still agree to rounding
        for _ in range(50):
            ss, yy, sy = (np.longdouble(v) for v in scalars(random_pair(rng)))
            for g in (0.3, 1.0, 4.0):
                t = 1.0 / np.longdouble(g) ** 2
                d = ss - yy * t
                e = 4.0 * sy * sy * t
                naive = float((d + np.sqrt(d * d + e)) / (2.0 * sy))
                assert kernels.family_step(
                    float(ss), float(yy), float(sy), g
                ) == pytest.approx(naive, rel=1e-14)

    def test_prime_matches_naive_formula(self, rng):
        for _ in range(50):
            ss, yy, sy = (np.longdouble(v) for v in scalars(random_pair(rng)))
            for g in (0.3, 1.0, 4.0):
                t = 1.0 / np.longdouble(g) ** 2
                d = yy - ss * t
                e = 4.0 * sy * sy * t
                naive = float(2.0 * sy / (d + np.sqrt(d * d + e)))
                assert kernels.family_prime_step(
                    float(ss), float(yy), float(sy), g
                ) == pytest.approx(naive, rel=1e-14)

    def test_prime_is_reciprocal_of_swapped_family(self, rng):
        # swapping s and y in the family fit and inverting gives the prime
        # steplength, which pins both formulas against each other
        for _ in range(50):
            ss, yy, sy = scalars(random_pair(rng))
            for g in (1e-3, 0.5, 1.0, 7.0, 1e4):
                swapped = kernels.family_step(yy, ss, sy, g)
                assert kernels.family_prime_step(ss, yy, sy, g) == pytest.approx(
                    1.0 / swapped, rel=1e-14
                )

    def test_atc_step_branches(self):
        ss, yy, sy = 2.0, 5.0, 3.0  # bb1 = 2/3, bb2 = 3/5
        assert kernels.atc_step(ss, yy, sy, 0.123, 0, 4) == 2.0 / 3.0
        assert kernels.atc_step(ss, yy, sy, 0.123, 8, 4) == 2.0 / 3.0
        assert kernels.atc_step(ss, yy, sy, 0.1, 1, 4) == 3.0 / 5.0
        assert kernels.atc_step(ss, yy, sy, 5.0, 2, 4) == 2.0 / 3.0
        assert kernels.atc_step(ss, yy, sy, 0.62, 3, 4) == 0.62


class TestPolicyDispatch:
    def test_codes_match_kernel_args(self):
        cases = [
            (SteplengthPolicy.long(), kernels.POLICY_BB1, 0.0),
            (SteplengthPolicy.short(), kernels.POLICY_BB2, 0.0),
            (SteplengthPolicy.family(3.5), kernels.POLICY_FAMILY, 3.5),
            (SteplengthPolicy.family_prime(0.2), kernels.POLICY_FAMILY_PRIME, 0.2),
            (SteplengthPolicy.convex(0.75), kernels.POLICY_CONVEX, 0.75),
        ]
        for pol, code, param in cases:
            assert pol.kernel_args() == (code, param, 1)
        assert SteplengthPolicy.adaptive_cyclic(6).kernel_args() == (
            kernels.POLICY_ATC,
            0.0,
            6,
        )

    def test_dispatch_equals_direct_kernels(self, rng):
        ss, yy, sy = scalars(random_pair(rng))
        step = kernels.policy_step
        assert step(0, 0.0, 1, ss, yy, sy, 0.5, 0) == kernels.bb1_step(ss, sy)
        assert step(1, 0.0, 1, ss, yy, sy, 0.5, 0) == kernels.bb2_step(sy, yy)
        assert step(2, 2.0, 1, ss, yy, sy, 0.5, 0) == kernels.family_step(ss, yy, sy, 2.0)
        assert step(3, 2.0, 1, ss, yy, sy, 0.5, 0) == kernels.family_prime_step(
            ss, yy, sy, 2.0
        )
        assert step(4, 0.4, 1, ss, yy, sy, 0.5, 0) == kernels.convex_step(ss, yy, sy, 0.4)
        assert step(5, 0.0, 3, ss, yy, sy, 0.5, 2) == kernels.atc_step(
            ss, yy, sy, 0.5, 2, 3
        )


class TestHouseholder:
    def test_hessian_apply_matches_dense_product(self, rng):
        n = 14
        ws = [u / np.linalg.norm(u) for u in rng.standard_normal((3, n))]
        v = np.sort(rng.uniform(1.0, 50.0, n))
        eye = np.eye(n)
        q = eye - 2.0 * np.outer(ws[2], ws[2])
        q = q @ (eye - 2.0 * np.outer(ws[1], ws[1]))
        q = q @ (eye - 2.0 * np.outer(ws[0], ws[0]))
        dense = q @ np.diag(v) @ q.T
        for _ in range(10):
            x = rng.standard_normal(n)
            fast = np.asarray(kernels.hessian_apply(ws[0], ws[1], ws[2], v, x.copy()))
            assert fast == pytest.approx(dense @ x, rel=1e-12, abs=1e-12)


class TestRawLoop:
    def run_tiny(self, rng, max_iter=500, code=0, param=0.0, cycle=1):
        n = 12
        ws = [u / np.linalg.norm(u) for u in rng.standard_normal((3, n))]
        v = np.sort(rng.uniform(1.0, 100.0, n))
        b = rng.uniform(-10.0, 10.0, n)
        return ws, v, b, kernels.raw_bb_loop(
            ws[0], ws[1], ws[2], v, b, np.ones(n), 0.01, 1e-10, max_iter, code, param, cycle
        )

    def test_histories_align(self, rng):
        ws, v, b, out = self.run_tiny(rng)
        rows, capped, f_hist, g_hist, a_hist, x = out
        assert not capped
        assert len(f_hist) == len(g_hist) == len(a_hist) == rows
        g0 = np.asarray(kernels.hessian_apply(ws[0], ws[1], ws[2], v, np.ones(12))) - b
        assert g_hist[0] == pytest.approx(np.linalg.norm(g0), rel=1e-14)
        assert f_hist[0] == pytest.approx(0.5 * float(np.ones(12) @ (g0 - b)), rel=1e-14)
        assert a_hist[0] == 0.01
        assert math.isnan(a_hist[-1])
        assert g_hist[-1] <= 1e-10 * g_hist[0]
        gx = np.asarray(kernels.hessian_apply(ws[0], ws[1], ws[2], v, np.asarray(x))) - b
        assert np.linalg.norm(gx) == pytest.approx(g_hist[-1], rel=1e-6, abs=1e-18)

    def test_identity_spectrum_finishes_in_two_steps(self):
        # with A = I the first BB steplength is exactly 1 and the second
        # step lands on the minimizer, whatever alpha0 was
        n = 8
        e1 = np.zeros(n)
        e1[0] = 1.0
        v = np.ones(n)
        b = np.linspace(-1.0, 2.5, n)
        rows, capped, f_hist, g_hist, a_hist, x = kernels.raw_bb_loop(
            e1, e1, e1, v, b, np.zeros(n), 0.3, 1e-12, 50, 0, 0.0, 1
        )
        assert rows == 3 and not capped
        assert g_hist[-1] == 0.0
        assert a_hist[1] == 1.0
        assert np.asarray(x) == pytest.approx(b, abs=1e-15)

    def test_iteration_cap(self, rng):
        _, _, _, out = self.run_tiny(rng, max_iter=3)
        rows, capped, f_hist, g_hist, a_hist, _ = out
        assert capped
        assert rows == 4
        assert math.isnan(a_hist[-1])
        assert g_hist[-1] > 0.0


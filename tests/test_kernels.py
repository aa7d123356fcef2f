"""Kernel-level checks: closed forms, the policy dispatch, the Householder
Hessian product, and the raw BB loop."""

import math

import numpy as np
import pytest

from stlsbb import (
    GRADIENT_TOLERANCE,
    ITERATION_CAP,
    QuadraticInstance,
    SteplengthPolicy,
    kernels,
)

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
    def test_dispatch_equals_direct_kernels(self, rng):
        ss, yy, sy = scalars(random_pair(rng))

        def step(policy, prev=0.5, index=0):
            return kernels.policy_step(policy, ss, yy, sy, prev, index)

        assert step(SteplengthPolicy.long()) == kernels.bb1_step(ss, sy)
        assert step(SteplengthPolicy.short()) == kernels.bb2_step(sy, yy)
        assert step(SteplengthPolicy.family(2.0)) == kernels.family_step(ss, yy, sy, 2.0)
        assert step(SteplengthPolicy.family_prime(2.0)) == kernels.family_prime_step(
            ss, yy, sy, 2.0
        )
        assert step(SteplengthPolicy.convex(0.4)) == kernels.convex_step(ss, yy, sy, 0.4)
        assert step(SteplengthPolicy.adaptive_cyclic(3), index=2) == kernels.atc_step(
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
            fast = kernels.hessian_apply(ws[0], ws[1], ws[2], v, x.copy())
            assert fast == pytest.approx(dense @ x, rel=1e-12, abs=1e-12)


class TestRawLoop:
    def run_tiny(self, rng, max_iter=500):
        n = 12
        ws = [u / np.linalg.norm(u) for u in rng.standard_normal((3, n))]
        v = np.sort(rng.uniform(1.0, 100.0, n))
        b = rng.uniform(-10.0, 10.0, n)
        inst = QuadraticInstance(n, ws[0], ws[1], ws[2], v, b)
        out = kernels.raw_bb_loop(inst, SteplengthPolicy.long(), np.ones(n), 0.01, 1e-10,
                                  max_iter)
        return inst, out

    def test_histories_align(self, rng):
        inst, out = self.run_tiny(rng)
        termination, f_hist, g_hist, a_hist, x = out
        assert termination == GRADIENT_TOLERANCE
        assert len(f_hist) == len(g_hist) == len(a_hist)
        ws, v, b = (inst.w1, inst.w2, inst.w3), inst.eigenvalues, inst.linear
        g0 = kernels.hessian_apply(ws[0], ws[1], ws[2], v, np.ones(12)) - b
        assert g_hist[0] == pytest.approx(np.linalg.norm(g0), rel=1e-14)
        assert f_hist[0] == pytest.approx(0.5 * float(np.ones(12) @ (g0 - b)), rel=1e-14)
        assert a_hist[0] == 0.01
        assert math.isnan(a_hist[-1])
        assert g_hist[-1] <= 1e-10 * g_hist[0]
        gx = kernels.hessian_apply(ws[0], ws[1], ws[2], v, x) - b
        assert np.linalg.norm(gx) == pytest.approx(g_hist[-1], rel=1e-6, abs=1e-18)

    def test_x0_is_not_modified(self, rng):
        inst, _ = self.run_tiny(rng)
        x0 = np.ones(inst.dim)
        kernels.raw_bb_loop(inst, SteplengthPolicy.long(), x0, 0.01, 1e-10, 50)
        assert np.all(x0 == 1.0)

    def test_identity_spectrum_finishes_in_two_steps(self):
        # with A = I the first BB steplength is exactly 1 and the second
        # step lands on the minimizer, whatever alpha0 was
        n = 8
        e1 = np.zeros(n)
        e1[0] = 1.0
        b = np.linspace(-1.0, 2.5, n)
        inst = QuadraticInstance(n, e1, e1, e1, np.ones(n), b)
        termination, f_hist, g_hist, a_hist, x = kernels.raw_bb_loop(
            inst, SteplengthPolicy.long(), np.zeros(n), 0.3, 1e-12, 50
        )
        assert termination == GRADIENT_TOLERANCE
        assert len(g_hist) == 3
        assert g_hist[-1] == 0.0
        assert a_hist[1] == 1.0
        assert x == pytest.approx(b, abs=1e-15)

    def test_iteration_cap(self, rng):
        _, out = self.run_tiny(rng, max_iter=3)
        termination, f_hist, g_hist, a_hist, _ = out
        assert termination == ITERATION_CAP
        assert len(g_hist) == 4
        assert math.isnan(a_hist[-1])
        assert g_hist[-1] > 0.0

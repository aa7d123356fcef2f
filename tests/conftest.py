"""Shared helpers for the test suite."""

import numpy as np
import pytest

from stlsbb import StepPair, kernels


def random_pair(rng, n=5, scale=1.0):
    """Draw a random secant pair with positive curvature.

    Components are standard normals (optionally scaled); pairs with
    s'y <= 0 are resampled so every caller can assume the curvature
    condition holds.
    """
    while True:
        s = rng.standard_normal(n) * scale
        y = rng.standard_normal(n) * scale
        if float(s @ y) > 1e-12:
            return StepPair(s, y)


def raw_results(rows, width, max_iter, history=True):
    """kernels.raw_bb_loop's results for rows keyed 0, 1, 2, ..., in key
    order, collected through its on_end as the rows leave."""
    ends = {}
    kernels.raw_bb_loop(rows, width, max_iter, ends.__setitem__, history)
    return [ends[j] for j in range(len(ends))]


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def canonical_pair():
    """The worked example pair: ss = 2, yy = 5, s'y = 3."""
    return StepPair(np.array([1.0, 1.0]), np.array([1.0, 2.0]))

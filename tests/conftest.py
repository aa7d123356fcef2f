"""Shared helpers for the test suite."""

import ctypes
import os
from pathlib import Path

import numpy as np
import pytest

from stlsbb import StepPair, kernels


def blas_kernel():
    """The kernel numpy's bundled OpenBLAS picked as it loaded, as its
    scipy_openblas_get_corename64_ names it; else OPENBLAS_CORETYPE, which
    forces one; else "unknown"."""
    for lib in Path(np.__file__).parent.parent.glob("numpy.libs/*openblas*"):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return os.environ.get("OPENBLAS_CORETYPE", "unknown")


def pytest_report_header(config):
    # every dot goes through OpenBLAS, and each kernel sums in its own
    # order, so the golden digests hold on the kernel they were recorded on
    return (f"BLAS kernel: {blas_kernel()}; the golden digests were recorded on SkylakeX, "
            "and on Haswell or Prescott about 40 tests fail on their bits alone")


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


@pytest.fixture(autouse=True)
def numpy_state_is_restored():
    """Fail a test that leaves numpy's error state or buffer size changed.
    pyproject turns RuntimeWarnings into errors, and an errstate left at
    "ignore" would silence them in every test that runs after."""
    err, bufsize = np.geterr(), np.getbufsize()
    yield
    assert (np.geterr(), np.getbufsize()) == (err, bufsize), "numpy state left changed"


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def canonical_pair():
    """The worked example pair: ss = 2, yy = 5, s'y = 3."""
    return StepPair(np.array([1.0, 1.0]), np.array([1.0, 2.0]))

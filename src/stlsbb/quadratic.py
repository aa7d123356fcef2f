"""Random strictly convex quadratics with a factored Householder Hessian,
plus the raw BB solver for them.

An instance stores A = Q diag(v) Q' through three unit Householder
vectors and the spectrum v, so Hessian products cost O(n) and the
spectrum is known exactly.  Seven preset spectrum recipes place the
interior eigenvalues in different bands between v[0] = 1 and
v[n-1] = kappa.
"""

import json
import math
from dataclasses import MISSING, dataclass, fields

import numpy as np

from . import kernels, trace
from .errors import (
    DimensionMismatchError,
    DimensionTooSmallError,
    InvalidParameterError,
    InvalidSettingError,
    count,
    inside,
)
from .solver import Objective, first_row_eval
from .steps import SteplengthPolicy

SETTING_IDS = (1, 2, 3, 4, 5, 6, 7)

_FORMAT = "stlsbb-instance-v1"

# QuadraticInstance's array fields, in declaration order; the first three
# are the Householder vectors
_ARRAYS = ("w1", "w2", "w3", "eigenvalues", "linear")


def _setting_id(value):
    sid = count(value, "setting_id", least=None)
    if sid not in SETTING_IDS:
        raise InvalidSettingError(f"setting_id must be in 1..7, got {value!r}")
    return sid


# the checks of a generated instance's provenance: SpectrumSetting's two
# fields, then generate_instance's seed
_PROVENANCE = {
    "setting_id": _setting_id,
    "kappa": lambda kappa: inside(kappa, "kappa", 1.0, math.inf),
    "seed": lambda seed: count(seed, "seed", least=0),
}


@dataclass(frozen=True)
class SpectrumSetting:
    """Recipe id (1..7) and condition number kappa for instance spectra."""

    setting_id: int
    kappa: float

    def __post_init__(self):
        for name in ("setting_id", "kappa"):
            object.__setattr__(self, name, _PROVENANCE[name](getattr(self, name)))


@dataclass(frozen=True)
class QuadraticInstance:
    """Factored quadratic f(x) = x'Ax/2 - b'x with A = Q diag(v) Q'.

    w1, w2, w3 are the unit Householder vectors composing Q, eigenvalues
    is v (positive), linear is b.  setting_id/kappa/seed record how a
    generated instance was drawn, checked as there, and are None for
    hand-built ones.
    """

    dim: int
    w1: np.ndarray
    w2: np.ndarray
    w3: np.ndarray
    eigenvalues: np.ndarray
    linear: np.ndarray
    setting_id: int | None = None
    kappa: float | None = None
    seed: int | None = None

    def __post_init__(self):
        n = count(self.dim, "dim", least=None)
        if n < 1:
            raise DimensionTooSmallError(f"dim must be >= 1, got {self.dim!r}")
        object.__setattr__(self, "dim", n)
        for name, check in _PROVENANCE.items():
            if getattr(self, name) is not None:
                object.__setattr__(self, name, check(getattr(self, name)))
        for name in _ARRAYS:
            arr = np.array(getattr(self, name), dtype=float, copy=True).reshape(-1)
            if arr.size != n:
                raise DimensionMismatchError(
                    f"{name} has length {arr.size}, expected {n}"
                )
            if not np.all(np.isfinite(arr)):
                raise InvalidParameterError(f"{name} must be finite")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        for name in _ARRAYS[:3]:
            nrm = float(np.linalg.norm(getattr(self, name)))
            if abs(nrm - 1.0) > 1e-12:
                raise InvalidParameterError(f"{name} must be a unit vector (norm {nrm:.3g})")
        if not np.all(self.eigenvalues > 0.0):
            raise InvalidParameterError("eigenvalues must all be positive")

    def to_dict(self):
        # the scalar fields in declaration order, then the arrays as lists
        d = {"format": _FORMAT}
        d.update((f.name, getattr(self, f.name)) for f in fields(self) if f.name not in _ARRAYS)
        d.update((name, [float(v) for v in getattr(self, name)]) for name in _ARRAYS)
        return d

    @classmethod
    def from_dict(cls, d):
        """Inverse of to_dict: a missing field without a default raises
        KeyError, one with a default reads as None."""
        fmt = d.get("format") if isinstance(d, dict) else None
        if fmt != _FORMAT:
            raise InvalidParameterError(f"not a serialized instance (format {fmt!r})")
        return cls(**{f.name: d[f.name] if f.default is MISSING else d.get(f.name)
                      for f in fields(cls)})

    def to_json(self, **kwargs):
        return json.dumps(self.to_dict(), **kwargs)

    @classmethod
    def from_json(cls, text):
        return cls.from_dict(json.loads(text))


def _interior_blocks(n, setting):
    """Half-open index blocks (lo, hi, low, high) tiling 1..n-2, each drawn
    uniformly from [low, high].  Ranges are increasing across blocks for
    every recipe, which for recipes 2..7 needs kappa > 200."""
    sid = setting.setting_id
    kappa = setting.kappa
    p5 = n // 5
    p2 = n // 2
    p45 = (4 * n) // 5
    if sid == 1:
        return [(1, n - 1, 1.0, kappa)]
    if sid == 2:
        return [(1, p5, 1.0, 100.0), (p5, n - 1, kappa / 2.0, kappa)]
    if sid == 3:
        return [(1, p2, 1.0, 100.0), (p2, n - 1, kappa / 2.0, kappa)]
    if sid == 4:
        return [(1, p45, 1.0, 100.0), (p45, n - 1, kappa / 2.0, kappa)]
    if sid == 5:
        return [
            (1, p5, 1.0, 100.0),
            (p5, p45, 100.0, kappa / 2.0),
            (p45, n - 1, kappa / 2.0, kappa),
        ]
    if sid == 6:
        return [(1, 10, 1.0, 100.0), (10, n - 1, kappa / 2.0, kappa)]
    return [(1, n - 10, 1.0, 100.0), (n - 10, n - 1, kappa / 2.0, kappa)]


def generate_instance(n, setting, seed):
    """Draw a random instance for a spectrum recipe.

    The Householder vectors are unit-normalized standard normals, b is
    uniform on [-10, 10]^n, and the spectrum fixes v[0] = 1 and
    v[n-1] = kappa with the interior drawn block-by-block per the recipe
    and then sorted ascending.  The seed is expanded with numpy's
    SeedSequence into five independent child streams, one per drawn field
    (w1, w2, w3, v, b), so every instance is reproducible bit-for-bit.

    Recipes 2..7 need n >= 10 (their interior breakpoints collapse below
    that) and kappa > 200 (so the block ranges stay increasing).
    """
    n = count(n, "n", least=None)
    seed = _PROVENANCE["seed"](seed)
    if not isinstance(setting, SpectrumSetting):
        raise InvalidParameterError("setting must be a SpectrumSetting")
    if n < 3:
        raise DimensionTooSmallError(f"n must be >= 3 to hold both extremes, got {n}")
    if setting.setting_id != 1:
        if n < 10:
            raise DimensionTooSmallError(
                f"recipe {setting.setting_id} needs n >= 10, got {n}"
            )
        if not setting.kappa > 200.0:
            raise InvalidSettingError(
                f"recipe {setting.setting_id} needs kappa > 200, got {setting.kappa:g}"
            )
    children = np.random.SeedSequence(seed).spawn(5)
    rngs = [np.random.default_rng(c) for c in children]

    def unit(vec):
        return vec / np.linalg.norm(vec)

    w1 = unit(rngs[0].standard_normal(n))
    w2 = unit(rngs[1].standard_normal(n))
    w3 = unit(rngs[2].standard_normal(n))
    v = np.empty(n)
    v[0] = 1.0
    v[n - 1] = setting.kappa
    for lo, hi, low, high in _interior_blocks(n, setting):
        v[lo:hi] = rngs[3].uniform(low, high, hi - lo)
    v[1 : n - 1] = np.sort(v[1 : n - 1])
    b = rngs[4].uniform(-10.0, 10.0, n)
    return QuadraticInstance(
        dim=n,
        w1=w1,
        w2=w2,
        w3=w3,
        eigenvalues=v,
        linear=b,
        setting_id=setting.setting_id,
        kappa=setting.kappa,
        seed=seed,
    )


def _check_vec(inst, x):
    # a strided view's dots round unlike its copy's; contiguous x is not copied
    x = np.ascontiguousarray(x, dtype=float).reshape(-1)
    if x.size != inst.dim:
        raise DimensionMismatchError(f"x has length {x.size}, expected {inst.dim}")
    return x


def apply_hessian(inst, x):
    """A x through the Householder factorization, O(n)."""
    x = _check_vec(inst, x)
    return kernels.hessian_apply(inst.w1, inst.w2, inst.w3, inst.eigenvalues, x)


def _eval_rows(inst, xs):
    # f = x'Ax/2 - b'x and g = Ax - b of a 1-D x or of each row of a block:
    # one block product, row dots through np.vecdot (which rounds like the
    # 1-D dot), and b taken out of the product's own fresh array once f
    # has read it
    ax = kernels.hessian_apply(inst.w1, inst.w2, inst.w3, inst.eigenvalues, xs)
    f = 0.5 * np.vecdot(xs, ax) - np.vecdot(xs, inst.linear)
    ax -= inst.linear
    return f, ax


def gradient(inst, x):
    """Gradient A x - b: the evaluator's g to the bit, without the f dots
    that would overflow, and warn, long before A x does."""
    return apply_hessian(inst, x) - inst.linear


def objective(inst, x):
    """Objective value x'Ax/2 - b'x."""
    return float(_eval_rows(inst, _check_vec(inst, x))[0])


def dense_hessian(inst):
    """Dense reconstruction of A; reference oracle, O(n^2) memory."""
    n = inst.dim
    eye = np.eye(n)
    q = eye - 2.0 * np.outer(inst.w3, inst.w3)
    q = q @ (eye - 2.0 * np.outer(inst.w2, inst.w2))
    q = q @ (eye - 2.0 * np.outer(inst.w1, inst.w1))
    return q @ np.diag(inst.eigenvalues) @ q.T


def as_objective(inst):
    """Wrap an instance as a generic (f, grad) objective for the
    line-search solver.

    Its eval_rows is the evaluator objective also runs: one block Hessian
    product for all rows and row dots that round like the 1-D dot, so each
    row's f and g equal objective's and gradient's bit for bit; eval is
    row 0 of the one-row block.
    """

    def eval_rows(xs):
        if xs.ndim != 2 or xs.shape[1] != inst.dim:
            raise DimensionMismatchError(
                f"rows have shape {xs.shape}, expected (m, {inst.dim})"
            )
        return _eval_rows(inst, xs)

    return Objective(f"quadratic-n{inst.dim}", inst.dim, first_row_eval(eval_rows),
                     x0=np.ones(inst.dim), eval_rows=eval_rows)


def solve_bb(inst, policy, epsilon, max_iter, x0=None, alpha0=None):
    """Raw BB iteration (no line search) on an instance: a block of one.

    Stops when ||g_k|| is not finite (termination nonfinite), when ||g_k||
    <= epsilon * ||g_0||, or after max_iter steps; x0 defaults to the
    all-ones vector and alpha0 to 1 / ||g0||_inf, which the loop takes from
    the g0 it computes (1 at a stationary start).  s'y = s'As > 0 in exact
    arithmetic; a secant scalar that under- or overflows gives the policy
    inf or nan, and the run ends nonfinite.  Returns a RunTrace whose rows
    carry f, ||g|| and the steplength taken from each iterate, nan on the
    last (backtracks and fevals are zero: the raw method never evaluates f
    to decide anything); meta["alpha0"] is the opening steplength.
    """
    x0 = np.ones(inst.dim) if x0 is None else _check_vec(inst, x0)
    a0 = None if alpha0 is None else inside(alpha0, "alpha0", 0.0, math.inf)
    if not isinstance(policy, SteplengthPolicy):
        raise InvalidParameterError("policy must be a SteplengthPolicy")
    eps = inside(epsilon, "epsilon", 0.0, 1.0)
    cap = count(max_iter, "max_iter")
    ends = {}
    kernels.raw_bb_loop([(0, inst, policy, x0, a0, eps)], 1, cap, ends.__setitem__)
    termination, f_hist, g_hist, a_hist, x = ends[0]
    alpha0_used = a_hist[0]
    a_hist[-1] = math.nan  # no step leaves the last iterate
    zeros = np.zeros(len(f_hist), dtype=np.int64)
    meta = {
        "solver": "raw_bb",
        "policy": policy.describe(),
        "stop_rule": "grad_rel",
        "epsilon": eps,
        "max_iter": cap,
        "alpha0": alpha0_used,
        "alpha0_rule": "inf_norm" if alpha0 is None else "fixed",
        "n": inst.dim,
        "setting_id": inst.setting_id,
        "kappa": inst.kappa,
        "seed": inst.seed,
    }
    return trace.RunTrace.from_columns(f_hist, g_hist, a_hist, zeros, zeros, termination, x,
                                       meta)

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
    vector,
)
from .solver import Objective
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
            object.__setattr__(self, name, vector(getattr(self, name), name, n, finite=True))
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

    Recipes 2..5 need n >= 10 and recipes 6 and 7 n >= 11, whose fixed
    blocks of ten interior eigenvalues need n - 1 >= 10 (the breakpoints
    collapse below that), and recipes 2..7 need kappa > 200 (so the block
    ranges stay increasing).
    """
    n = count(n, "n", least=None)
    seed = _PROVENANCE["seed"](seed)
    if not isinstance(setting, SpectrumSetting):
        raise InvalidParameterError("setting must be a SpectrumSetting")
    if n < 3:
        raise DimensionTooSmallError(f"n must be >= 3 to hold both extremes, got {n}")
    if setting.setting_id != 1:
        least = 11 if setting.setting_id >= 6 else 10
        if n < least:
            raise DimensionTooSmallError(
                f"recipe {setting.setting_id} needs n >= {least}, got {n}"
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


def _norm_bound(sq):
    # N(y) of _trial_lower_bounds' step 1, from sq = fl(y . y)
    return math.sqrt(sq) * (1.0 + 2.0**-30) + 2.0**-520


def _trial_lower_bounds(inst):
    """as_objective's lower_bounds(x, f, g, steps), or None for an
    instance outside the window.  For each steplength a it gives lo such
    that the f the evaluator computes at the row fl(x - a g) is finite
    and at least lo, where f and g are what the evaluator gave at x; lo is
    -inf outside the window.  The bound is the exact quadratic model
    f - a g'g + a^2 g'Ag/2 less a rounding-error bound, whose derivation
    follows (Higham, Accuracy and Stability of Numerical Algorithms, 2nd
    ed., 2002, ch. 3 and 19).

    Notation.  u = 2^-53 and n = dim.  M = P diag(v) P' with P = H3 H2 H1
    and H_i = I - 2 w_i w_i' for the stored w_i, exactly: the matrix that
    hessian_apply rounds.  F(y) = y'My/2 - b'y exactly, and
    f^(y) = fl(fl(y . fl(My))/2 - fl(y . b)) is what the evaluator gives;
    f = f^(x) and g = fl(fl(Mx) - b).  A float64 product rounds to
    z(1 + e), |e| <= u, plus at most 2^-1075 where it lands below 2^-1022;
    a sum or difference rounds to z(1 + e) everywhere; an n-term dot, in
    any order and with or without fused multiply-adds, errs by at most
    gamma_n |y|'|z|, gamma_n = nu/(1 - nu) (Higham (3.5)).  Steps 1-8 omit
    the underflow terms, which step 9 collects.

    Window.  The instance needs n <= 2^20, so that gamma_n <= nu(1 + 2^-32),
    and fl(w_i . w_i) <= 1 + 2^-32, so that ||w_i||^2 <= 1 + 2^-31 and
    ||H_i|| = max(1, 2||w_i||^2 - 1) <= 1 + 2^-30: the w_i are unit only to
    rounding.  A call needs f finite, and a step needs a > 0 and
    (V + 1)(1 + X + G + B + a(G + 1))^2 <= 2^1000 as computed (below 2^1001
    exactly); then every quantity the evaluator and this bound compute
    stays below 2^1003, so none overflows and f^(x - a g) is finite.

    1. Norms.  N(y) = fl(sqrt(fl(y . y)))(1 + 2^-30) + 2^-520 >= ||y||,
       since fl(y . y) >= (1 - gamma_n) y'y - n 2^-1075.  X = N(x),
       G = N(g), B = N(b) and V = max(v).
    2. Householder products.  One reflection fl(y - fl(c w)), with
       c = 2 fl(w . y) (doubling is exact), errs from H y by at most (2 gamma_n ||w||^2 + u
       + 2u ||w||^2 (1 + gamma_n)(2 + u)) ||y|| <= (2n + 6)u ||y||, and the
       scaling by v by at most uV ||y||.  Through the seven stages, whose
       exact norms are at most 1 + 2^-30 and V, fl(My) errs from My by at
       most ((1 + 2^-30 + (2n + 6)u)^6 (1 + u) - (1 + 2^-30)^6) V ||y||
       <= ka V ||y||, ka = (12n + 38)u; and ||M|| <= (1 + 2^-30)^6 V, so
       ||My|| and ||fl(My)|| are at most V1 ||y||, V1 = (1 + 2^-26)V.
    3. Evaluation.  |f^(y) - F(y)| <= k1 V ||y||^2 + k2 B ||y|| with
       k1 = (7n + 21)u >= gamma_n (1 + 2^-26)/2 + ka/2
       + u(1 + gamma_n)(1 + 2^-26)/2 (the dot with fl(My), whose halving is
       exact; fl(My) - My; the last difference) and
       k2 = (n + 2)u >= gamma_n + u(1 + gamma_n) (the dot with b; the last
       difference).
    4. Gradient.  g = Mx - b + r with ||r|| <= ka V X + uG/(1 - u) <= R,
       R = ka V X + 1.01uG (step 2, then the rounding of the subtraction).
    5. Trial rows.  fl(x - fl(a g)) = x - a g + d with
       ||d|| <= u(X + (2 + u)aG) <= u(X + 3aG), and
       ||x - a g + d|| <= Y = (1 + 2^-50)(X + aG).
    6. Model.  M = P diag(v) P' is positive semidefinite, so
       F(x - a g + d) >= F(x - a g) - ||d|| ||M(x - a g) - b||, where
       ||M(x - a g) - b|| = ||g - r - aMg|| <= G + R + aV1 G, and exactly
       F(x - a g) = F(x) - a g'g + a g'r + a^2 g'Mg/2.  In it
       F(x) >= f - k1 V X^2 - k2 B X (step 3), g'g <= gg + kq G^2 with
       gg = fl(g . g) and kq = (n + 1)u >= gamma_n, |g'r| <= GR, and
       g'Mg >= c - kc V G^2 with c = fl(g . fl(Mg)) and
       kc = (13n + 39)u >= gamma_n (1 + 2^-26) + ka.
    7. The bound.  With step 3 at the trial point, f^(x - a g) is at least
       f - a gg + a^2 c/2 - E(a), where
       E(a) = k1 V (X^2 + Y^2) + k2 B (X + Y) + a(kq G^2 + GR)
       + a^2 kc V G^2/2 + u(X + 3aG)(G + R + aV1 G) + W(1 + a)^2
       and W (step 9) bounds the underflow.  Taking k1 = (7n + 22)u and
       k2 = (n + 3)u absorbs Y^2 <= (1 + 2^-49)(X + aG)^2 and
       Y <= (1 + 2^-50)(X + aG), and then E(a) = e0 + e1 a + e2 a^2 with
       e0 = 2k1 V X^2 + 2k2 B X + uX(G + R) + W,
       e1 = 2k1 V X G + k2 B G + kq G^2 + GR + uG(3(G + R) + V1 X) + 2W,
       e2 = (k1 V + kc V/2 + 3uV1) G^2 + W.
    8. Its own rounding.  lo = fl(q0 - a q1 + a^2 q2) with
       q0 = f - e0 - s(|f| + e0), q1 = (gg + e1)(1 + s) and
       q2 = c/2 - e2 - s(|c|/2 + e2), s = 2^-40.  Each e takes fewer than 30
       roundings of nonnegative terms, and the q's and the polynomial fewer
       than 10 more, so the computed lo lies within gamma_40 T < 2^-47 T of
       the exact step 7 bound less sT, where
       T = |f| + e0 + a(gg + e1) + a^2 (|c|/2 + e2); sT covers that.
    9. Underflow.  Fewer than 2^30 products are rounded, each within 2^-1075
       of its value; an error in fl(My) reaches f^ through one dot with y,
       one in d through the gradient of step 6, one in r, gg or c through
       a, a or a^2/2, and one of this bound's own arithmetic directly.  Each
       factor is at most 4(V + 1)(1 + a)^2 (1 + X + G)^2, so together they
       stay below 2^-1040 (V + 1)(1 + a)^2 (1 + X + G)^2, which
       W(1 + a)^2, W = 2^-1000 (V + 1)(1 + X + G)^2, covers.

    Each call computes gg and, inside the window, c through one 1-D
    Hessian product, and keeps nothing for the next call: an iteration
    seldom reads the bound twice, since only rounds of two or more trials
    read it.
    """
    n, v = inst.dim, inst.eigenvalues
    ws = (inst.w1, inst.w2, inst.w3)
    # the window is the proof's hypothesis, so both halves are checked,
    # though a validated instance never fails the second: its unit check
    # (|norm - 1| <= 1e-12) keeps fl(w . w) below 1 + 3e-12
    if n > 2**20 or any(float(w.dot(w)) > 1.0 + 2.0**-32 for w in ws):
        return None
    u = 2.0**-53
    k1, k2, kq = (7 * n + 22) * u, (n + 3) * u, (n + 1) * u
    ka, kc = (12 * n + 38) * u, (13 * n + 39) * u
    v_max = float(np.max(v))
    v1 = (1.0 + 2.0**-26) * v_max
    with np.errstate(**kernels._QUIET):  # an overflowing b'b closes the window
        b_norm = _norm_bound(float(inst.linear.dot(inst.linear)))
    # the window on a (G + 1) is room0 - X - G
    room0 = 2.0**500 / math.sqrt(v_max + 1.0) - b_norm - 1.0
    e2_per_gg = v_max * (k1 + 0.5 * kc) + 3.0 * u * v1
    s = 2.0**-40

    @np.errstate(**kernels._QUIET)
    def lower_bounds(x, f, g, steps):
        x, g = _check_vec(inst, x), _check_vec(inst, g)
        gg = float(g.dot(g))
        gn, xn = _norm_bound(gg), _norm_bound(float(x.dot(x)))
        room = room0 - xn - gn
        if not (room >= 0.0 and math.isfinite(f)):
            return [-math.inf] * len(steps)
        # inside the window the product cannot overflow
        c = float(g.dot(kernels.hessian_apply(*ws, v, g)))
        t = 1.0 + xn + gn
        w = 2.0**-1000 * (v_max + 1.0) * t * t
        r = ka * v_max * xn + 1.01 * u * gn
        e0 = 2.0 * xn * (k1 * v_max * xn + k2 * b_norm) + u * xn * (gn + r) + w
        e1 = (gn * (2.0 * k1 * v_max * xn + k2 * b_norm + kq * gn + r
                    + u * (3.0 * (gn + r) + v1 * xn)) + 2.0 * w)
        e2 = e2_per_gg * gn * gn + w
        q0 = f - e0 - s * (abs(f) + e0)
        q1 = (gg + e1) * (1.0 + s)
        q2 = 0.5 * c - e2 - s * (0.5 * abs(c) + e2)
        top = gn + 1.0
        return [q0 - a * q1 + a * a * q2 if 0.0 < a and a * top <= room else -math.inf
                for a in steps]

    return lower_bounds


def as_objective(inst):
    """Wrap an instance as a generic (f, grad) objective for the
    line-search solver.

    Its eval_rows is the evaluator objective also runs: one block Hessian
    product for all rows and row dots that round like the 1-D dot, so each
    row's f and g equal objective's and gradient's bit for bit, and it is
    written once: eval is its row 0.  Its lower_bounds is the proven bound of
    _trial_lower_bounds, so run rejects most trials of a backtracking
    search without a Hessian product.
    """

    def eval_rows(xs):
        if xs.ndim != 2 or xs.shape[1] != inst.dim:
            raise DimensionMismatchError(
                f"rows have shape {xs.shape}, expected (m, {inst.dim})"
            )
        return _eval_rows(inst, xs)

    return Objective(f"quadratic-n{inst.dim}", inst.dim, x0=np.ones(inst.dim),
                     eval_rows=eval_rows, lower_bounds=_trial_lower_bounds(inst))


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
    return trace.RunTrace(f_hist, g_hist, a_hist, zeros, zeros, termination, x, meta)

"""ODE solving in the q-variation Young regime.

One Heun (explicit trapezoidal) stepper handles the controlled ODE
dy = sigma(y) d(eps X + gamma) + beta(eps, y) dt, taking the paths X and
gamma and forming each step's driver increment itself.  It steps
coordinate-major, with the batch axis innermost in memory, so each stage's
small (n, d) contraction runs along the batch; a field declared without
drift (``beta=None``) gets no drift pass.  Every inhomogeneous linear equation
sharing the homogeneous part  dz = [grad sigma(phi0)<z, dgamma> +
grad beta0(phi0)<z>] dt + source  is solved through its flow.  A Heun step
of that equation is one affine map z_{i+1} = T_i z_i + b_i: T from the
generator increments (:func:`_step_maps`), and b the source's two stage
values folded by the stage weights (:func:`_stage_fold`, the one place that
knows them).  :func:`linear_flow` multiplies the step maps out once into a
flow table: a fundamental matrix M with M_{k+1} = T_k M_k (normalized at
the middle grid point) and its inverses.  :func:`linear_perturbation_solve`
is then the variation-of-constants formula

    z_k = M_k sum_{i<k} M_{i+1}^{-1} b_i,

two batched matrix-vector products and one cumulative sum, with no loop
over grid steps.  It is exactly linear in b: additivity identities between
perturbation terms hold to rounding, not just to discretization order.

:func:`linear_perturbation_costate` reads that formula backwards: for a
covector path g it returns one co-state lambda_i = M_{i+1}^{-T}
sum_{j>i} M_j^T g_j with sum_j g_j . z_j = sum_i lambda_i . b_i for every b,
so a consumer that reads solves only through one fixed covector
(grad F(phi0) in the expansion) needs no solve at all (Giles & Glasserman,
"Smoking adjoints", Risk 2006).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .grids import TimeGrid

__all__ = [
    "VectorFieldSpec",
    "DivergenceError",
    "heun_controlled",
    "linear_flow",
    "linear_perturbation_solve",
    "linear_perturbation_costate",
]


class DivergenceError(RuntimeError):
    """State magnitude crossed the runaway guard of a bounded-field model, or
    the state is no longer finite."""


# Outer step of a derivative that differences a difference.  Rounding in the
# inner 1e-5 difference (about 1e-11) over a 1e-5 outer step gave errors of
# 1-4e-6; at 1e-3 rounding and the O(h^4) truncation of the Richardson-refined
# difference both stay below 1e-7 on the tanh fields.
_NESTED_STEP = 1e-3


def _fd_jacobian(f, x, h=1e-5):
    """Centered difference with one Richardson sweep along the last axis of
    ``x`` (leading axes batch); the direction axis is appended last."""
    x = np.asarray(x, dtype=float)
    cols = []
    for b in range(x.shape[-1]):
        e = np.zeros(x.shape[-1])
        e[b] = 1.0
        d1 = (np.asarray(f(x + h * e)) - np.asarray(f(x - h * e))) / (2 * h)
        d2 = (np.asarray(f(x + 0.5 * h * e)) - np.asarray(f(x - 0.5 * h * e))) / h
        cols.append((4.0 * d2 - d1) / 3.0)
    return np.stack(cols, axis=-1)


@dataclass
class VectorFieldSpec:
    """Coefficients sigma, beta of the controlled equation and their derivatives.

    sigma(y) -> (n, d); beta(eps, y) -> (n,).  Derivative evaluators append
    one axis per differentiation direction (y-derivatives last).  The beta
    derivatives are taken at eps = 0, the only point the expansion reads
    them at, so they are functions of y alone: dbeta_y(y) is
    d_y beta(0, y), dbeta_eps(y) is d_eps beta(0, y), and so on.  Any
    evaluator left as None falls back to centered finite differences with
    step 1e-5 (``_NESTED_STEP`` for the outer difference of a mixed or
    second y-derivative) and Richardson refinement.

    Every evaluator broadcasts over leading axes: given y of shape (..., n)
    it returns the shapes above with the same leading axes prepended, e.g.
    sigma(y) -> (..., n, d).  The solvers evaluate whole paths and batches
    of paths in one call and rely on this; the finite-difference fallbacks
    keep it, since they perturb the last axis of y only.

    Evaluator outputs are read-only to callers: an evaluator may return a
    broadcast view of a constant table (``constant_field`` does), so no
    solver or source assembly writes into what an evaluator returned.

    ``beta=None`` declares a field without drift: every beta evaluator then
    returns zeros, whatever its own entry, and the Heun stepper skips the
    drift term instead of adding zeros on every stage.
    """

    n: int
    d: int
    sigma: Callable
    beta: Optional[Callable] = None
    dsigma: Optional[Callable] = None  # (n, d, n)
    d2sigma: Optional[Callable] = None  # (n, d, n, n)
    dbeta_y: Optional[Callable] = None  # (n, n)
    d2beta_y: Optional[Callable] = None  # (n, n, n)
    dbeta_eps: Optional[Callable] = None  # (n,)
    d2beta_eps: Optional[Callable] = None  # (n,)
    dbeta_y_eps: Optional[Callable] = None  # (n, n)
    guard: float = 1e6
    name: str = "custom"

    def sigma_at(self, y):
        return np.asarray(self.sigma(y), dtype=float)

    def _no_drift(self, y, *tail):
        """The zeros every beta evaluator returns when the field has no drift."""
        return np.zeros(np.shape(y)[:-1] + (self.n,) + tail)

    def beta_at(self, eps, y):
        if self.beta is None:
            return self._no_drift(y)
        return np.asarray(self.beta(eps, y), dtype=float)

    def dsigma_at(self, y):
        if self.dsigma is not None:
            return np.asarray(self.dsigma(y), dtype=float)
        return _fd_jacobian(lambda x: self.sigma(x), y)

    def d2sigma_at(self, y):
        if self.d2sigma is not None:
            return np.asarray(self.d2sigma(y), dtype=float)
        return _fd_jacobian(self.dsigma_at, y, _NESTED_STEP)

    def dbeta_y_at(self, y):
        if self.beta is None:
            return self._no_drift(y, self.n)
        if self.dbeta_y is not None:
            return np.asarray(self.dbeta_y(y), dtype=float)
        return _fd_jacobian(lambda x: self.beta(0.0, x), y)

    def d2beta_y_at(self, y):
        if self.beta is None:
            return self._no_drift(y, self.n, self.n)
        if self.d2beta_y is not None:
            return np.asarray(self.d2beta_y(y), dtype=float)
        return _fd_jacobian(self.dbeta_y_at, y, _NESTED_STEP)

    def dbeta_eps_at(self, y):
        if self.beta is None:
            return self._no_drift(y)
        if self.dbeta_eps is not None:
            return np.asarray(self.dbeta_eps(y), dtype=float)
        h = 1e-5
        d1 = (self.beta_at(h, y) - self.beta_at(-h, y)) / (2 * h)
        d2 = (self.beta_at(h / 2, y) - self.beta_at(-h / 2, y)) / h
        return (4.0 * d2 - d1) / 3.0

    def d2beta_eps_at(self, y):
        if self.beta is None:
            return self._no_drift(y)
        if self.d2beta_eps is not None:
            return np.asarray(self.d2beta_eps(y), dtype=float)
        h = 1e-4
        return (self.beta_at(h, y) - 2.0 * self.beta_at(0.0, y) + self.beta_at(-h, y)) / h**2

    def dbeta_y_eps_at(self, y):
        if self.beta is None:
            return self._no_drift(y, self.n)
        if self.dbeta_y_eps is not None:
            return np.asarray(self.dbeta_y_eps(y), dtype=float)
        return _fd_jacobian(self.dbeta_eps_at, y, _NESTED_STEP)

    def check_guard(self, y):
        peak = np.abs(y).max()
        if not peak <= self.guard:  # true for NaN too, which compares False
            what = (f"|y| exceeded {self.guard:.1e}" if np.isfinite(peak)
                    else f"the state is not finite (max |y| = {peak})")
            raise DivergenceError(f"{what}; the C_b model makes this a bug indicator")


def heun_controlled(
    field: VectorFieldSpec,
    grid: TimeGrid,
    y0: np.ndarray,
    *,
    eps: float = 0.0,
    X: Optional[np.ndarray] = None,
    gamma: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Heun steps for dy = sigma(y) d(eps X + gamma) + beta(eps, y) dt.

    ``X`` and ``gamma`` are paths (..., N, d) on ``grid``, leading axes
    batch; either may be absent (a gamma of shape (N, d) is shared by every
    batch row).  The returned array is (..., N, n).  The steps run
    coordinate-major, with every leading axis flattened into one batch axis
    B that is innermost in memory: each path is copied once into (N, d, B)
    order (no copy when the caller's array is already laid out so) and the
    states are written into an (N, n, B) buffer.  No increments array is
    built: each step forms its increment
    (eps X_{i+1} + gamma_{i+1}) - (eps X_i + gamma_i) in (d, B) scratch,
    the subtraction ``np.diff`` of eps X + gamma would make.  The field
    evaluators see (B, n) transposed views of the states ((n,) unbatched),
    and each stage's contraction sum_b sigma(y)[a, b] dZ[b] runs along B into
    a preallocated buffer, adding the terms from b = 0 up at every B, so each
    row of a batched solve has the bits of its unbatched solve.  A field
    without drift (``beta=None``) gets no drift pass.  The result is the
    buffer's (..., N, n) view, which is not C-contiguous.
    """
    drivers = [a for a in (X, gamma) if a is not None]
    if not drivers:
        raise ValueError("the driver needs a path X or gamma")
    N, d, n = len(grid), field.d, field.n
    if any(np.shape(a)[-2:] != (N, d) for a in drivers):
        raise ValueError(f"driver paths must be (..., {N}, {d}) on the grid")
    lead = np.broadcast_shapes(*(np.shape(a)[:-2] for a in drivers))
    B = math.prod(lead)

    def coordinate_major(a):
        """(N, d, B) layout of a driver path, or (N, d, 1) for one (N, d)
        path shared by the batch."""
        a = np.asarray(a, dtype=float)
        if a.ndim == 2:
            return a[:, :, None]
        a = np.broadcast_to(a, lead + (N, d))
        return np.ascontiguousarray(np.moveaxis(a, (-2, -1), (0, 1)).reshape(N, d, B))

    X, gamma = (None if a is None else coordinate_major(a) for a in (X, gamma))
    z = np.empty((2, d, B))  # eps X + gamma at the step's two ends, alternately

    def point(i):
        """eps X_i + gamma_i: gamma's own view without X, else in z[i % 2]."""
        if X is None:
            return gamma[i]
        buf = np.multiply(eps, X[i], out=z[i % 2])
        if gamma is not None:
            buf += gamma[i]
        return buf

    out = np.empty((N, n, B))
    out[0] = np.broadcast_to(np.asarray(y0, dtype=float), lead + (n,)).reshape(B, n).T

    def view(a):
        """The evaluators' (..., B, k) view of a coordinate-major (..., k, B)
        array, or (..., k) unbatched; taken once per array, not per stage."""
        return np.swapaxes(a, -1, -2) if lead else a[..., 0]

    ys, dz = view(out), np.empty((d, B))
    dzv = view(dz)
    s1, s2, y_mid, beta_h = (view(np.empty((n, B))) for _ in range(4))
    has_drift = field.beta is not None

    def stage(y, h, buf):
        # order "F" iterates the batch fastest and b slowest, so the terms
        # add from b = 0 up at every B (the default order sums otherwise)
        np.einsum("...ab,...b->...a", field.sigma_at(y), dzv, out=buf, order="F")
        if has_drift:
            buf += np.multiply(field.beta_at(eps, y), h, out=beta_h)

    dt = grid.dt
    left = point(0)
    for i in range(N - 1):
        right = point(i + 1)
        np.subtract(right, left, out=dz)
        left = right
        y, h = ys[i], dt[i]
        stage(y, h, s1)
        stage(np.add(y, s1, out=y_mid), h, s2)
        s1 += s2
        s1 *= 0.5
        field.check_guard(np.add(y, s1, out=ys[i + 1]))
    return np.moveaxis(out.reshape((N, n) + lead), (0, 1), (-2, -1))


def _matvec(C: np.ndarray, v: np.ndarray, out=None) -> np.ndarray:
    """Per-step products sum_b C[..., i, a, b] v[..., i, b] -> (..., i, a),
    added in place into ``out`` when given.

    The loops run over the small axes a and b (n or d), one output
    component per pass, so every array operation runs along the step and
    batch axes rather than over an (a, b) block of two or three entries; at
    desk-scale n, d that is several times faster than the equivalent einsum
    or a broadcast product.  The terms add from b = 0 up.
    """
    fresh = out is None
    if fresh:
        out = np.empty(np.broadcast_shapes(C.shape[:-1], v.shape[:-1] + C.shape[-2:-1]))
    for a in range(C.shape[-2]):
        row = out[..., a]
        for b in range(C.shape[-1]):
            if fresh and b == 0:
                np.multiply(C[..., a, 0], v[..., 0], out=row)
            else:
                row += C[..., a, b] * v[..., b]
    return out


def _is_identity(flow: tuple) -> bool:
    """True when both tables of a flow are exactly I at every grid point, as
    they are for constant sigma without linear drift: a product with them
    would return its vector's bits (up to the sign of a zero entry), so the
    solve and the co-state skip their products."""
    eye = np.eye(flow[0].shape[-1])
    return all((table == eye).all() for table in flow)


def _step_maps(omL: np.ndarray, omR: np.ndarray) -> np.ndarray:
    """The Heun step maps T_i = I + (omL_i + omR_i + omR_i omL_i) / 2, (n_steps, n, n)."""
    return np.eye(omL.shape[-1]) + 0.5 * (omL + omR + omR @ omL)


def _stage_fold(omR: np.ndarray, left: np.ndarray, right: np.ndarray):
    """Stage-weighted tables (1/2 (I + omR_i) left_i, 1/2 right_i) of a source
    with values ``left`` and ``right`` at the left and right step endpoints:
    the step z <- T z + b takes b_i = [(I + omR_i) left_i + right_i] / 2,
    their sum.  Tables (..., n_steps, n, ...) take omR (..., n_steps, n, n)
    on their first non-step axis, with the same leading axes; one that acts
    on z_i or z_{i+1} keeps its two parts.  This is the only place that
    knows the Heun stage weights.
    """
    lw = left + (omR @ left.reshape(omR.shape[:-1] + (-1,))).reshape(left.shape)
    return 0.5 * lw, 0.5 * right


def _prefix_products(P: np.ndarray) -> None:
    """P_k <- P_k P_{k-1} ... P_0 along axis -3, in place, by a log-depth
    scan: pass s multiplies every partial product by the one s steps
    before it, ceil(log2 len) batched matrix products in all."""
    s = 1
    while s < P.shape[-3]:
        P[..., s:, :, :] = P[..., s:, :, :] @ P[..., :-s, :, :]
        s *= 2


def linear_flow(T: np.ndarray) -> tuple:
    """The flow table of the step maps ``T`` (..., n_steps, n, n), leading
    axes batching: a fundamental matrix M (..., n_steps + 1, n, n) of
    z_{k+1} = T_k z_k, normalized at the middle grid point r = n_steps // 2
    (M_r = I, M_{k+1} = T_k M_k), and its inverses M^{-1} from one batched
    inverse.  Forward of r, M is the prefix product of the T_k; behind it,
    the prefix product of their inverses T_k^{-1}, read backwards.

    Any fundamental matrix serves the variation-of-constants formula of
    :func:`linear_perturbation_solve`; the middle one keeps its rounding
    close to that of the step-by-step solve.  Normalized at t = 0 instead,
    the sum cancels terms far larger than the result, and the error grows
    like eps sqrt(cond M_N) (measured figures in the solve).  Where every
    T_k = I (constant sigma, no linear drift) both tables are exactly I.
    """
    n_steps, n = T.shape[-3], T.shape[-1]
    r = n_steps // 2
    M = np.empty(T.shape[:-3] + (n_steps + 1, n, n))
    M[..., r, :, :] = np.eye(n)
    M[..., r + 1:, :, :] = T[..., r:, :, :]
    M[..., :r, :, :] = np.linalg.inv(T[..., :r, :, :])
    _prefix_products(M[..., r + 1:, :, :])
    _prefix_products(M[..., :r, :, :][..., ::-1, :, :])
    return M, np.linalg.inv(M)


def linear_perturbation_solve(flow: tuple, b: np.ndarray) -> np.ndarray:
    """Solve z_{i+1} = T_i z_i + b_i, z_0 = 0: the Heun discretization of
    dz = dOmega z + dSource, from the flow table ``flow`` = (M, M^{-1})
    (..., N, n, n) of :func:`linear_flow` and the per-step inhomogeneity
    ``b`` (..., n_steps, n) of :func:`_stage_fold` (leading axes batch).
    Returns z of shape (..., n_steps + 1, n):

        z_k = M_k sum_{i<k} M_{i+1}^{-1} b_i,

    one matrix-vector product, one cumulative sum along the steps and one
    more product.

    The solve is exactly linear in b, so difference identities between
    perturbation solves hold to rounding.  Against the two-stage Heun step
    it reassociates sums, and its rounding follows the conditioning of the
    flow table, whose middle normalization keeps every cond(M_k) at or below
    about sqrt(cond M_N) for the flow M_N over the whole interval.
    Measured under the linear drift [[lam, 1], [0, -lam]] (N = 129 and 513,
    8 paths each), the largest error relative to the largest entry is
    4e-15 at lam = 2 and 4 (cond M_N = 58 and 3.0e3), 6e-15 at lam = 8
    (8.9e6) and 1.0e-14 at lam = 12 (2.6e10).  A table normalized at t = 0
    gives 2.7e-13 and 8.8e-12 at lam = 8 and 12, about eps sqrt(cond M_N).
    Where Omega = 0 (constant sigma, no linear drift) M = M^{-1} = I
    exactly: the products are skipped, z is the cumulative sum of b, and the
    result is bit-identical to the step-by-step solve.
    """
    M, Minv = flow
    acc = np.zeros(np.broadcast_shapes(M.shape[:-3], b.shape[:-2]) + M.shape[-3:-1])
    if _is_identity(flow):
        np.cumsum(np.broadcast_to(b, acc[..., 1:, :].shape), axis=-2, out=acc[..., 1:, :])
        return acc
    np.cumsum(_matvec(Minv[..., 1:, :, :], b), axis=-2, out=acc[..., 1:, :])
    return _matvec(M, acc)


def linear_perturbation_costate(flow: tuple, g: np.ndarray) -> np.ndarray:
    """The co-state lambda (..., n_steps, n) of the covector path ``g``
    (..., N, n) read through :func:`linear_perturbation_solve` with the flow
    table ``flow`` = (M, M^{-1}) (..., N, n, n), leading axes batch:

        sum_j g_j . z_j = sum_i lambda_i . b_i

    for the solution z of every inhomogeneity b, with

        lambda_i = M_{i+1}^{-T} sum_{j>i} M_j^T g_j:

    one matrix-vector product, one reversed cumulative sum and one more
    product, elementwise over the batch, so a batched call gives each item
    the bits of an unbatched one.  The identity reassociates the solve's
    sums, so it holds to rounding.  Where M = M^{-1} = I exactly (constant
    sigma, no linear drift) lambda is the reversed cumulative sum of g, with
    no product.
    """
    M, Minv = flow
    if _is_identity(flow):
        g_rev = g[..., :0:-1, :]  # g_j for j = N - 1 down to 1
        shape = np.broadcast_shapes(M.shape[:-3], g.shape[:-2]) + g_rev.shape[-2:]
        return np.cumsum(np.broadcast_to(g_rev, shape), axis=-2)[..., ::-1, :]
    h = _matvec(np.swapaxes(M[..., 1:, :, :], -1, -2), g[..., 1:, :])  # M_j^T g_j, j >= 1
    tail = np.cumsum(h[..., ::-1, :], axis=-2)[..., ::-1, :]
    return _matvec(np.swapaxes(Minv[..., 1:, :, :], -1, -2), tail)

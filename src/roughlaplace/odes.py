"""ODE solving in the q-variation Young regime.

One Heun (explicit trapezoidal) stepper handles the controlled ODE
dy = sigma(y) dk + beta(eps, y) dt and -- through
:func:`linear_perturbation_solve` -- every inhomogeneous linear equation
sharing the homogeneous part  dz = [grad sigma(phi0)<z, dgamma> +
grad beta0(phi0)<z>] dt + source.  For that linear equation a Heun step is
one affine map z_{i+1} = T_i z_i + b_i: T from the generator increments
(:func:`_step_maps`), and b the source's two stage values folded by the
stage weights (:func:`_stage_fold`, the one place that knows them).  The
solve takes T and b only, so its step loop is one small matrix product and
one addition, and it is exactly linear in b: additivity identities between
perturbation terms hold to rounding, not just to discretization order.  The
flow M, M^{-1} of the homogeneous part is never formed: the solve is its
variation-of-constants formula z = M int M^{-1} dS.

:func:`linear_perturbation_costate` reads that formula backwards: for a
covector path g it sweeps Lambda_j = g_j + T_j^T Lambda_{j+1} once and
returns one co-state lambda with sum_j g_j . z_j = sum_i lambda_i . b_i for
every b, so a consumer that reads solves only through one fixed covector
(grad F(phi0) in the expansion) needs no solve at all (Giles & Glasserman,
"Smoking adjoints", Risk 2006).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .grids import TimeGrid

__all__ = [
    "VectorFieldSpec",
    "DivergenceError",
    "heun_controlled",
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
    one axis per differentiation direction (y-derivatives last); any evaluator
    left as None falls back to centered finite differences with step 1e-5
    (``_NESTED_STEP`` for the outer difference of a mixed or second
    y-derivative) and Richardson refinement.

    Every evaluator broadcasts over leading axes: given y of shape (..., n)
    it returns the shapes above with the same leading axes prepended, e.g.
    sigma(y) -> (..., n, d).  The solvers evaluate whole paths and batches
    of paths in one call and rely on this; the finite-difference fallbacks
    keep it, since they perturb the last axis of y only.

    Evaluator outputs are read-only to callers: an evaluator may return a
    broadcast view of a constant table (``constant_field`` does), so no
    solver or source assembly writes into what an evaluator returned.
    """

    n: int
    d: int
    sigma: Callable
    beta: Callable
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

    def beta_at(self, eps, y):
        return np.asarray(self.beta(eps, y), dtype=float)

    def dsigma_at(self, y):
        if self.dsigma is not None:
            return np.asarray(self.dsigma(y), dtype=float)
        return _fd_jacobian(lambda x: self.sigma(x), y)

    def d2sigma_at(self, y):
        if self.d2sigma is not None:
            return np.asarray(self.d2sigma(y), dtype=float)
        return _fd_jacobian(self.dsigma_at, y, _NESTED_STEP)

    def dbeta_y_at(self, eps, y):
        if self.dbeta_y is not None:
            return np.asarray(self.dbeta_y(eps, y), dtype=float)
        return _fd_jacobian(lambda x: self.beta(eps, x), y)

    def d2beta_y_at(self, eps, y):
        if self.d2beta_y is not None:
            return np.asarray(self.d2beta_y(eps, y), dtype=float)
        return _fd_jacobian(lambda x: self.dbeta_y_at(eps, x), y, _NESTED_STEP)

    def dbeta_eps_at(self, eps, y):
        if self.dbeta_eps is not None:
            return np.asarray(self.dbeta_eps(eps, y), dtype=float)
        h = 1e-5
        d1 = (self.beta_at(eps + h, y) - self.beta_at(eps - h, y)) / (2 * h)
        d2 = (self.beta_at(eps + h / 2, y) - self.beta_at(eps - h / 2, y)) / h
        return (4.0 * d2 - d1) / 3.0

    def d2beta_eps_at(self, eps, y):
        if self.d2beta_eps is not None:
            return np.asarray(self.d2beta_eps(eps, y), dtype=float)
        h = 1e-4
        return (
            self.beta_at(eps + h, y) - 2.0 * self.beta_at(eps, y) + self.beta_at(eps - h, y)
        ) / h**2

    def dbeta_y_eps_at(self, eps, y):
        if self.dbeta_y_eps is not None:
            return np.asarray(self.dbeta_y_eps(eps, y), dtype=float)
        h = _NESTED_STEP
        d1 = (self.dbeta_y_at(eps + h, y) - self.dbeta_y_at(eps - h, y)) / (2 * h)
        d2 = (self.dbeta_y_at(eps + h / 2, y) - self.dbeta_y_at(eps - h / 2, y)) / h
        return (4.0 * d2 - d1) / 3.0

    def check_guard(self, y):
        peak = np.abs(y).max()
        if not peak <= self.guard:  # true for NaN too, which compares False
            what = (f"|y| exceeded {self.guard:.1e}" if np.isfinite(peak)
                    else f"the state is not finite (max |y| = {peak})")
            raise DivergenceError(f"{what}; the C_b model makes this a bug indicator")


def heun_controlled(
    field: VectorFieldSpec,
    grid: TimeGrid,
    driver_increments: np.ndarray,
    y0: np.ndarray,
    eps_beta: float = 0.0,
) -> np.ndarray:
    """Heun steps for dy = sigma(y) dZ + beta(eps, y) dt along given increments.

    ``driver_increments`` has shape (..., n_steps, d), leading axes batch;
    the returned array is (..., N, n).
    """
    inc = np.asarray(driver_increments, dtype=float)
    n_steps = inc.shape[-2]
    if n_steps != grid.n_steps:
        raise ValueError("driver increments do not match the grid")
    dt = grid.dt
    y = np.broadcast_to(np.asarray(y0, dtype=float), inc.shape[:-2] + (field.n,)).copy()
    out = np.empty(inc.shape[:-2] + (len(grid), field.n))
    out[..., 0, :] = y

    def rhs(yv, dz, h):
        sig = field.sigma_at(yv)
        return np.einsum("...ab,...b->...a", sig, dz) + field.beta_at(eps_beta, yv) * h

    for i in range(n_steps):
        dz = inc[..., i, :]
        h = dt[i]
        s1 = rhs(y, dz, h)
        s2 = rhs(y + s1, dz, h)
        y = y + 0.5 * (s1 + s2)
        field.check_guard(y)
        out[..., i + 1, :] = y
    return out


def _matvec(C: np.ndarray, v: np.ndarray, out=None) -> np.ndarray:
    """Per-step products sum_b C[..., i, a, b] v[..., i, b] -> (..., i, a),
    added in place into ``out`` when given.

    The loop runs over the small contracted axis b (n or d) and does whole-
    array work per pass; at desk-scale n, d it is several times faster than
    the equivalent einsum.  With one term the result is the plain product,
    and with more the terms add from b = 0 up.
    """
    for b in range(C.shape[-1]):
        term = C[..., b] * v[..., b, None]
        if out is None:
            out = term
        else:
            out += term
    return out


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


def linear_perturbation_solve(T: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve z_{i+1} = T_i z_i + b_i, z_0 = 0: the Heun discretization of
    dz = dOmega z + dSource with the step maps ``T`` (n_steps, n, n) of
    :func:`_step_maps` and the per-step inhomogeneity ``b`` (..., n_steps, n)
    of :func:`_stage_fold` (leading axes batch).  Returns z of shape
    (..., n_steps + 1, n).

    The solve is exactly linear in b, so difference identities between
    perturbation solves hold to rounding.  Against the two-stage Heun step
    the affine map only reassociates sums; where Omega = 0 (constant sigma,
    no linear drift) T = I and the result is bit-identical to it.
    """
    n_steps, n = T.shape[0], T.shape[-1]
    out = np.empty(b.shape[:-2] + (n_steps + 1, n))
    out[..., 0, :] = 0.0
    out[..., 1:, :] = b
    flat = out.reshape((-1, n_steps + 1, n))
    z = np.zeros((flat.shape[0], n))
    for i in range(1, n_steps + 1):
        z = z @ T[i - 1].T
        z += flat[:, i, :]
        flat[:, i, :] = z
    return out


def linear_perturbation_costate(T: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The co-state lambda (..., n_steps, n) of the covector path ``g``
    (..., N, n) read through :func:`linear_perturbation_solve` with the step
    maps ``T`` (..., n_steps, n, n), leading axes batch:

        sum_j g_j . z_j = sum_i lambda_i . b_i

    for the solution z of every inhomogeneity b.  With z_{i+1} = T_i z_i + b_i
    and z_0 = 0, row i is the value at grid point i + 1 of the sweep

        Lambda_{N-1} = g_{N-1},   Lambda_j = g_j + T_j^T Lambda_{j+1}.

    One backward sweep of one n-vector per batch item, each item's product
    the one an unbatched call makes; the identity reassociates the solve's
    sums, so it holds to rounding.
    """
    n_steps = T.shape[-3]
    lam = np.empty(np.broadcast_shapes(T.shape[:-3], g.shape[:-2]) + (n_steps, g.shape[-1]))
    cur = g[..., -1, :]
    for i in range(n_steps - 1, -1, -1):
        lam[..., i, :] = cur
        cur = g[..., i, :] + (cur[..., None, :] @ T[..., i, :, :])[..., 0, :]
    return lam

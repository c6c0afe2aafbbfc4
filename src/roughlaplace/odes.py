"""ODE solving in the q-variation Young regime.

One Heun (explicit trapezoidal) stepper handles the controlled ODE
dy = sigma(y) dk + beta(eps, y) dt, the linear flows M and M^{-1}, and --
through :func:`linear_perturbation_solve` -- every inhomogeneous linear
equation sharing the homogeneous part  dz = [grad sigma(phi0)<z, dgamma> +
grad beta0(phi0)<z>] dt + source.  The latter routine is exactly linear in
its sources, so additivity identities between perturbation terms hold to
rounding, not just to discretization order.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .grids import SampledPath, TimeGrid

__all__ = [
    "VectorFieldSpec",
    "LinearFlow",
    "DivergenceError",
    "solve_young_ode",
    "heun_controlled",
    "linear_flow",
    "linear_perturbation_solve",
]


class DivergenceError(RuntimeError):
    """State magnitude crossed the runaway guard of a bounded-field model."""


def _fd_jacobian(f, x, h=1e-5):
    """Centered difference with one Richardson sweep, last axis = direction."""
    x = np.asarray(x, dtype=float)
    cols = []
    for b in range(x.size):
        e = np.zeros_like(x)
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
    left as None falls back to centered finite differences with step 1e-5 and
    Richardson refinement.  All evaluators must accept batched y of shape
    (..., n) when ``batched`` is set; the built-in fields do.
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
    batched: bool = False
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
        return _fd_jacobian(lambda x: self.dsigma_at(x), y)

    def dbeta_y_at(self, eps, y):
        if self.dbeta_y is not None:
            return np.asarray(self.dbeta_y(eps, y), dtype=float)
        return _fd_jacobian(lambda x: self.beta(eps, x), y)

    def d2beta_y_at(self, eps, y):
        if self.d2beta_y is not None:
            return np.asarray(self.d2beta_y(eps, y), dtype=float)
        return _fd_jacobian(lambda x: self.dbeta_y_at(eps, x), y)

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
        h = 1e-5
        d1 = (self.dbeta_y_at(eps + h, y) - self.dbeta_y_at(eps - h, y)) / (2 * h)
        d2 = (self.dbeta_y_at(eps + h / 2, y) - self.dbeta_y_at(eps - h / 2, y)) / h
        return (4.0 * d2 - d1) / 3.0

    def check_guard(self, y):
        if np.max(np.abs(y)) > self.guard:
            raise DivergenceError(
                f"|y| exceeded {self.guard:.1e}; the C_b model makes this a bug indicator"
            )


@dataclass
class LinearFlow:
    """Fundamental solution M (dM = dOmega M, M_0 = Id) and its inverse.

    The inverse accumulates exact per-step inverses of the one-step transfer
    matrices, so M_t M^{-1}_t = Id holds to rounding while M^{-1} still
    solves dM^{-1} = -M^{-1} dOmega to the scheme's order.
    """

    grid: TimeGrid
    M: np.ndarray  # (N, n, n)
    Minv: np.ndarray

    def identity_defect(self) -> float:
        n = self.M.shape[-1]
        prod = np.einsum("tab,tbc->tac", self.M, self.Minv)
        return float(np.abs(prod - np.eye(n)).max())


def heun_controlled(
    field: VectorFieldSpec,
    grid: TimeGrid,
    driver_increments: np.ndarray,
    y0: np.ndarray,
    eps_beta: float = 0.0,
    with_drift: bool = True,
) -> np.ndarray:
    """Heun steps for dy = sigma(y) dZ + beta(eps, y) dt along given increments.

    ``driver_increments`` has shape (n_steps, d) or (batch, n_steps, d); the
    returned array matches ((batch,) N, n).
    """
    inc = np.asarray(driver_increments, dtype=float)
    batched = inc.ndim == 3
    n_steps = inc.shape[-2]
    if n_steps != grid.n_steps:
        raise ValueError("driver increments do not match the grid")
    dt = grid.dt
    y = np.broadcast_to(np.asarray(y0, dtype=float), (inc.shape[0], field.n) if batched else (field.n,)).copy()
    out = np.empty(((inc.shape[0],) if batched else ()) + (len(grid), field.n))
    out[..., 0, :] = y

    def rhs(yv, dz, h):
        sig = field.sigma_at(yv)
        val = np.einsum("...ab,...b->...a", sig, dz)
        if with_drift:
            val = val + field.beta_at(eps_beta, yv) * h
        return val

    for i in range(n_steps):
        dz = inc[..., i, :]
        h = dt[i]
        s1 = rhs(y, dz, h)
        s2 = rhs(y + s1, dz, h)
        y = y + 0.5 * (s1 + s2)
        field.check_guard(y)
        out[..., i + 1, :] = y
    return out


def solve_young_ode(
    field: VectorFieldSpec,
    driver: SampledPath,
    y0,
    with_drift: bool = True,
) -> SampledPath:
    """Solve dy = sigma(y) dk (+ beta(0,y) dt) along a q-variation driver.

    Second order in the grid spacing on smooth inputs; ``meta['error_estimate']``
    holds the max deviation from one midpoint-refined solve (driver values
    interpolated linearly, consistent with the piecewise-linear reading).
    """
    y0 = np.broadcast_to(np.asarray(y0, dtype=float), (field.n,))
    inc = driver.increments()
    coarse = heun_controlled(field, driver.grid, inc, y0, 0.0, with_drift)

    t = driver.grid.points
    t_fine = np.sort(np.concatenate([t, 0.5 * (t[:-1] + t[1:])]))
    fine_vals = np.stack(
        [np.interp(t_fine, t, driver.values[:, j]) for j in range(driver.dim)], axis=1
    )
    # refined grid shares endpoints 0 and 1, so it is a valid TimeGrid
    fine_grid = TimeGrid(t_fine)
    fine = heun_controlled(field, fine_grid, np.diff(fine_vals, axis=0), y0, 0.0, with_drift)
    err = float(np.abs(fine[0::2] - coarse).max())
    return SampledPath(driver.grid, coarse, meta={"error_estimate": err})


def _omega_increments(field: VectorFieldSpec, phi0: np.ndarray, dgamma: np.ndarray, dt: np.ndarray,
                      ds: np.ndarray | None = None, db: np.ndarray | None = None):
    """Generator increments dOmega_i over each step, evaluated at both step
    endpoints (same increment, left/right coefficient values).

    ``ds`` and ``db`` are dsigma and d_y beta(0, .) along ``phi0``, shapes
    (N, n, d, n) and (N, n, n); each is evaluated here when not given.
    """
    if ds is None:
        ds = field.dsigma_at(phi0) if field.batched else np.stack([field.dsigma_at(y) for y in phi0])
    if db is None:
        db = (
            field.dbeta_y_at(0.0, phi0)
            if field.batched
            else np.stack([field.dbeta_y_at(0.0, y) for y in phi0])
        )
    omL = np.einsum("iajb,ij->iab", ds[:-1], dgamma) + db[:-1] * dt[:, None, None]
    omR = np.einsum("iajb,ij->iab", ds[1:], dgamma) + db[1:] * dt[:, None, None]
    return omL, omR


def linear_flow(gamma: SampledPath, phi0: SampledPath, field: VectorFieldSpec) -> LinearFlow:
    """M and M^{-1} for dM = dOmega M with
    dOmega = grad sigma(phi0)< . , dgamma> + grad beta0(phi0)< . > dt."""
    if not gamma.same_grid(phi0):
        raise ValueError("gamma and phi0 must share a grid")
    omL, omR = _omega_increments(field, phi0.values, gamma.increments(), gamma.grid.dt)
    n = field.n
    N = len(gamma.grid)
    M = np.empty((N, n, n))
    Minv = np.empty((N, n, n))
    M[0] = np.eye(n)
    Minv[0] = np.eye(n)
    eye = np.eye(n)
    for i in range(N - 1):
        T = eye + 0.5 * (omL[i] + omR[i] + omR[i] @ omL[i])
        M[i + 1] = T @ M[i]
        Minv[i + 1] = Minv[i] @ np.linalg.inv(T)
    return LinearFlow(grid=gamma.grid, M=M, Minv=Minv)


def linear_perturbation_solve(
    omL: np.ndarray,
    omR: np.ndarray,
    srcL: np.ndarray,
    srcR: np.ndarray,
) -> np.ndarray:
    """Heun solve of dz = dOmega z + dSource, z_0 = 0; linear in the sources.

    ``omL/omR``: (n_steps, n, n) generator increments at the step endpoints.
    ``srcL/srcR``: (..., n_steps, n) source increments (leading axes batch).
    Returns z of shape (..., n_steps + 1, n).  Per step,

        s1 = omL z + srcL,   s2 = omR (z + s1) + srcR,
        z <- z + (s1 + s2) / 2,

    which is second-order consistent and exactly additive in (srcL, srcR):
    difference identities between perturbation solves hold to rounding.
    """
    n_steps = omL.shape[0]
    lead = srcL.shape[:-2]
    n = omL.shape[-1]
    z = np.zeros(lead + (n,))
    out = np.empty(lead + (n_steps + 1, n))
    out[..., 0, :] = 0.0
    for i in range(n_steps):
        s1 = np.einsum("ab,...b->...a", omL[i], z) + srcL[..., i, :]
        s2 = np.einsum("ab,...b->...a", omR[i], z + s1) + srcR[..., i, :]
        z = z + 0.5 * (s1 + s2)
        out[..., i + 1, :] = z
    return out

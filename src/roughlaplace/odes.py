"""ODE solving in the q-variation Young regime.

One Heun (explicit trapezoidal) stepper handles the controlled ODE
dy = sigma(y) dk + beta(eps, y) dt and -- through
:func:`linear_perturbation_solve` -- every inhomogeneous linear equation
sharing the homogeneous part  dz = [grad sigma(phi0)<z, dgamma> +
grad beta0(phi0)<z>] dt + source.  The latter routine is exactly linear in
its sources, so additivity identities between perturbation terms hold to
rounding, not just to discretization order.  The flow M, M^{-1} of the
homogeneous part is never formed: the solve is its variation-of-constants
formula.
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
        peak = np.max(np.abs(y))
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

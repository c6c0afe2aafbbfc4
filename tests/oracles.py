"""Path-valued reference forms that only the tests read: the expansion
terms and the Hessian's bilinear forms solved forward as paths, the
homogeneous rough-path norm, the dyadic resamplers, the Volterra kernel
at one point and the lattice witnesses of the kappa ladder.  Each is built
from the package's own primitives, so a check through one of them still
checks the package's code; the kernel's scalar series is checked against
the package's array path in ``test_fbm.py``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from conftest import pvar_backbone_oracle
from roughlaplace.fbm import _connection_coeffs, _volterra_scale
from roughlaplace.grids import SampledPath, TimeGrid
from roughlaplace.hessian import _r1_values, _sigma0_times
from roughlaplace.laplace import KappaLadder
from roughlaplace.odes import VectorFieldSpec, heun_controlled
from roughlaplace.roughpath import RoughPath
from roughlaplace.taylor import (
    ExpansionContext, _chi_values, _eps_sources, _lin_sources, _phi2_sources, _quad_sources,
    _theta1_values,
)
from roughlaplace.variation import restrict_dyadic


def heun_reference(
    field: VectorFieldSpec,
    grid: TimeGrid,
    driver_increments: np.ndarray,
    y0: np.ndarray,
    eps_beta: float = 0.0,
) -> np.ndarray:
    """Reference for :func:`roughlaplace.odes.heun_controlled`: the same Heun
    steps in sample-major memory, reading the increments ``[..., i, :]`` and
    writing the states ``[..., i + 1, :]`` of (..., N, n) arrays, with each
    stage's sum_b sigma[a, b] dZ[b] added from b = 0 up."""
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
        acc = sig[..., 0] * dz[..., None, 0]
        for b in range(1, field.d):
            acc = acc + sig[..., b] * dz[..., None, b]
        return acc + field.beta_at(eps_beta, yv) * h

    for i in range(n_steps):
        dz = inc[..., i, :]
        h = dt[i]
        s1 = rhs(y, dz, h)
        s2 = rhs(y + s1, dz, h)
        y = y + 0.5 * (s1 + s2)
        field.check_guard(y)
        out[..., i + 1, :] = y
    return out


def compute_phi0(field_spec: VectorFieldSpec, gamma: SampledPath) -> SampledPath:
    """Base path: d phi0 = sigma(phi0) dgamma + beta(0, phi0) dt."""
    vals = heun_controlled(field_spec, gamma.grid, np.zeros(field_spec.n), gamma=gamma.values)
    return SampledPath(gamma.grid, vals)


def compute_chi(ctx: ExpansionContext, k) -> SampledPath:
    """First derivative of the Ito map along k:
    chi(k)_t = M_t int_0^t M_s^{-1} sigma(phi0_s) dk_s, via the shared solve."""
    vals = _chi_values(ctx, _as_values(ctx, k))
    return SampledPath(ctx.grid, vals)


def _as_values(ctx: ExpansionContext, k) -> np.ndarray:
    if isinstance(k, SampledPath):
        return k.values
    arr = np.asarray(k, dtype=float)
    if arr.shape[-2] != len(ctx.grid):
        raise ValueError("direction samples do not match the context grid")
    return arr


def _psi_sources(ctx: ExpansionContext, chi_f: np.ndarray, chi_k: np.ndarray,
                 df: np.ndarray, dk: np.ndarray):
    """Polarized second-derivative sources, halved (see compute_psi)."""
    src = _lin_sources(ctx, chi_f, dk)
    src = _lin_sources(ctx, chi_k, df, out=src)
    src = _quad_sources(ctx, chi_f, chi_k, out=src)
    src *= 0.5
    return src


def compute_psi(ctx: ExpansionContext, f, k) -> SampledPath:
    """Second derivative of the Ito map, polarized: psi(f,k) = (V1 + V2)/2,

        V1 = M int M^{-1} { ds<chi(f), dk> + ds<chi(k), df> }
        V2 = M int M^{-1} { d2s<chi(f), chi(k), dgamma> + d2b<chi(f), chi(k)> dt },

    symmetric in (f, k) by construction.
    """
    f_vals = _as_values(ctx, f)
    k_vals = _as_values(ctx, k)
    chi_f = _chi_values(ctx, f_vals)
    chi_k = _chi_values(ctx, k_vals)
    b = _psi_sources(ctx, chi_f, chi_k, np.diff(f_vals, axis=-2), np.diff(k_vals, axis=-2))
    return SampledPath(ctx.grid, ctx.solve(b))


def compute_theta1(ctx: ExpansionContext) -> SampledPath:
    """Driver-independent first-order term: d theta1 = dOmega theta1 +
    grad_eps beta(0, phi0) dt."""
    return SampledPath(ctx.grid, _theta1_values(ctx))


def compute_phi1(ctx: ExpansionContext, driver) -> SampledPath:
    """First Taylor term along the driver: phi1 = chi(driver) + theta1."""
    vals = _chi_values(ctx, _as_values(ctx, driver)) + _theta1_values(ctx)
    return SampledPath(ctx.grid, vals)


def compute_phi2(ctx: ExpansionContext, driver) -> SampledPath:
    """Second Taylor term: the linear equation with sources assembled from phi1."""
    X_vals = _as_values(ctx, driver)
    phi1 = _chi_values(ctx, X_vals) + _theta1_values(ctx)
    b = _phi2_sources(ctx, phi1, np.diff(X_vals, axis=-2))
    return SampledPath(ctx.grid, ctx.solve(b))


def _theta2_sources(ctx: ExpansionContext, theta1: np.ndarray, chi: np.ndarray, dX: np.ndarray):
    """The phi2 sources without the quadratic chaos part Q<chi, chi>/2 and
    ds<chi, dX>: Q<theta1, theta1/2 + chi> + ds<theta1, dX> + P<theta1 + chi> + D/2."""
    src = _quad_sources(ctx, theta1, 0.5 * theta1 + chi)
    src = _lin_sources(ctx, theta1, dX, out=src)
    return _eps_sources(ctx, theta1 + chi, out=src)


def compute_theta2(ctx: ExpansionContext, driver) -> SampledPath:
    """First-order part of the second Taylor term (phi2 minus its quadratic
    chaos part psi(X,X)); grows at most linearly in the driver's norm."""
    X_vals = _as_values(ctx, driver)
    chi = _chi_values(ctx, X_vals)
    theta1 = np.broadcast_to(_theta1_values(ctx), chi.shape)
    b = _theta2_sources(ctx, theta1, chi, np.diff(X_vals, axis=-2))
    return SampledPath(ctx.grid, ctx.solve(b))


@dataclass
class TaylorBundle:
    """All expansion terms for one driver, on one grid."""

    phi0: SampledPath
    chi: SampledPath
    psi: SampledPath
    phi1: SampledPath
    phi2: SampledPath
    theta1: SampledPath
    theta2: SampledPath
    gamma: SampledPath
    driver: SampledPath


def taylor_bundle(ctx: ExpansionContext, driver: SampledPath) -> TaylorBundle:
    X_vals = _as_values(ctx, driver)
    dX = np.diff(X_vals, axis=-2)
    chi = _chi_values(ctx, X_vals)
    theta1 = _theta1_values(ctx)
    phi1 = chi + theta1
    psi = ctx.solve(_psi_sources(ctx, chi, chi, dX, dX))
    theta2 = ctx.solve(_theta2_sources(ctx, np.broadcast_to(theta1, chi.shape), chi, dX))
    phi2 = ctx.solve(_phi2_sources(ctx, phi1, dX))
    g = ctx.grid
    return TaylorBundle(
        phi0=ctx.phi0,
        chi=SampledPath(g, chi),
        psi=SampledPath(g, psi),
        phi1=SampledPath(g, phi1),
        phi2=SampledPath(g, phi2),
        theta1=SampledPath(g, theta1),
        theta2=SampledPath(g, theta2),
        gamma=ctx.gamma,
        driver=driver,
    )


def v_forms(ctx: ExpansionContext, f, k):
    """The split 2 grad^2 Psi<f,k> = V1(f,k) + V2(f,k):

        V1 = M int M^{-1} { ds<chi(f), dk> + ds<chi(k), df> },
        V2 = M int M^{-1} { d2s<chi(f), chi(k), dgamma> + d2b0<chi(f), chi(k)> ds },

    the two halves of the psi sources.
    """
    f_vals = _as_values(ctx, f)
    k_vals = _as_values(ctx, k)
    chi_f = _chi_values(ctx, f_vals)
    chi_k = _chi_values(ctx, k_vals)
    s1 = _lin_sources(ctx, chi_f, np.diff(k_vals, axis=-2))
    s1 = _lin_sources(ctx, chi_k, np.diff(f_vals, axis=-2), out=s1)
    V1 = SampledPath(ctx.grid, ctx.solve(s1))
    V2 = SampledPath(ctx.grid, ctx.solve(_quad_sources(ctx, chi_f, chi_k)))
    return V1, V2


def r_forms(ctx: ExpansionContext, f, k):
    """Integration-by-parts pieces of the V1-type integrand:

        R1<f,k> = M int M^{-1} ds< sigma(phi0) f_s, dk_s >,
        R2<f,k> = M int M^{-1} ds< g(f)_s, dk_s >,
        g(f)_s  = M_s int_0^s d[M^{-1} sigma(phi0)] f  =  sigma(phi0_s) f_s - chi(f)_s,

    so the identity V1<f,k> = R1<f,k> + R1<k,f> - R2<f,k> - R2<k,f> holds at
    the discrete level (the inner integral is eliminated by the same
    integration by parts that defines it).
    """
    f_vals = _as_values(ctx, f)
    dk = np.diff(_as_values(ctx, k), axis=-2)
    sigma_f = _sigma0_times(ctx, f_vals)
    R1 = _r1_values(ctx, sigma_f, dk)
    g = sigma_f - _chi_values(ctx, f_vals)
    R2 = ctx.solve(_lin_sources(ctx, g, dk))
    return SampledPath(ctx.grid, R1), SampledPath(ctx.grid, R2)


@dataclass
class XiValue:
    """Homogeneous rough-path norm: sum over levels of ||X^j||_{p/j-var}^{1/j}."""

    value: float
    per_level: list


def _level_norms(arr: np.ndarray) -> np.ndarray:
    """Frobenius magnitude of each two-parameter tensor entry."""
    flat = arr.reshape(arr.shape[0], arr.shape[1], -1)
    return np.sqrt(np.einsum("ijk,ijk->ij", flat, flat))


def xi_norm(X: RoughPath, p: float) -> XiValue:
    """Homogeneous norm from (def. of xi): sum_j ||X^j||_{p/j-var}^{1/j}.

    Level-j variation uses the grid DP on Frobenius magnitudes of the
    two-parameter increments.
    """
    if not 2 < p < 4:
        raise ValueError("p must lie in (2,4)")
    per = []
    for j, arr in enumerate(X.levels(), start=1):
        w = _level_norms(arr)
        v = pvar_backbone_oracle(w, p / j).value
        per.append(v ** (1.0 / j))
    return XiValue(value=float(sum(per)), per_level=per)


def dyadic_approx(path: SampledPath, m: int) -> SampledPath:
    """m-th dyadic piecewise-linear approximation, resampled on the input grid.

    The output agrees with the (linearly interpolated) input at the dyadic
    points l/2^m and is linear in between.
    """
    if m < 0 or int(m) != m:
        raise ValueError("m must be a nonnegative integer")
    nodes = np.linspace(0.0, 1.0, 2**m + 1)
    t = path.grid.points
    out = np.empty_like(path.values)
    for j in range(path.dim):
        node_vals = np.interp(nodes, t, path.values[:, j])
        out[:, j] = np.interp(t, nodes, node_vals)
    return SampledPath(path.grid, out)


def coarsen_dyadic(path: SampledPath, level: int) -> SampledPath:
    """Restrict a path on a uniform dyadic grid to the coarser dyadic grid
    2**level (:func:`roughlaplace.variation.restrict_dyadic`).

    Unlike :func:`dyadic_approx` this drops the intermediate samples instead
    of resampling, so the result lives on the coarse grid.
    """
    return SampledPath(TimeGrid.dyadic(level), restrict_dyadic(path.values, path.grid, level))


def kernel_hyp2f1_scalar(H: float, x: float):
    """F(H-1/2, 2H; H+1/2; 1-x) at one x in Python floats, with the series
    term count: the branches of :func:`roughlaplace.fbm._kernel_hyp2f1` (the
    raw series in 1-x for x >= 1/2, the connection formula A&S 15.3.6 with
    the package's gamma prefactors below).  A ``scipy.integrate.quad``
    integrand calls the kernel at one point at a time, where the package's
    array path costs about 16 times as much per call."""
    def series(a, b, c, z, rtol=1e-14, max_terms=500_000):
        total = term = 1.0
        for n in range(max_terms):
            term *= (a + n) * (b + n) / ((c + n) * (1.0 + n)) * z
            total += term
            if abs(term) <= rtol * abs(total):
                return total, n + 1
        raise RuntimeError(f"hypergeometric series did not converge at z={z}")

    if x >= 0.5:
        return series(H - 0.5, 2.0 * H, H + 0.5, 1.0 - x)
    A, B = _connection_coeffs(H)
    F2, n_terms = series(1.0, 0.5 - H, 2.0 - 2.0 * H, x)
    return A * (1.0 - x) ** (0.5 - H) + B * x ** (1.0 - 2.0 * H) * F2, n_terms


def volterra_kernel_info(t: float, s: float, H: float):
    """Volterra kernel value and the series term count used.

    K(t,s) = c_H (t-s)^{H-1/2} (t/s)^{1/2-H} F(H-1/2, 2H; H+1/2; 1-s/t), with
    the variance normalization c_H making int_0^{s ^ t} K(t,u) K(s,u) du the
    exact fBm covariance.  The hypergeometric factor comes from
    :func:`kernel_hyp2f1_scalar`: its raw series in 1-s/t for s/t >= 1/2, and
    the 1-z connection formula (Abramowitz & Stegun 15.3.6) around s/t = 0
    below, so every series argument stays in [0, 1/2] and at most 40 terms
    reach full double precision.
    """
    if not 0.25 < H <= 0.5:
        raise ValueError("H must lie in (1/4, 1/2]")
    if s >= t:
        return 0.0, 0
    if s <= 0:
        raise ValueError("the kernel limit s -> 0 is singular; s must be positive")
    if H == 0.5:
        return 1.0, 0
    F, n_terms = kernel_hyp2f1_scalar(H, s / t)
    val = _volterra_scale(H) * (t - s) ** (H - 0.5) * (t / s) ** (0.5 - H) * F
    return val, n_terms


def volterra_kernel(t: float, s: float, H: float) -> float:
    """Volterra kernel K^H(t,s) of the moving-average representation of fBm
    over Brownian motion, for 0 < s < t (0 for s >= t)."""
    return volterra_kernel_info(t, s, H)[0]


def kappa_reconstruct(ladder: KappaLadder, kappa: float, tol: float = 1e-9):
    """Witnesses (n1, n2) with kappa = n1 + n2/H of the ladder's H, or None."""
    for n2 in range(int(kappa * ladder.H) + 2):
        n1 = kappa - n2 / ladder.H
        if abs(n1 - round(n1)) < tol and round(n1) >= -tol:
            return int(round(n1)), n2
    return None

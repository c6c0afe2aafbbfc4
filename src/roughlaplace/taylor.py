"""RDE solving along piecewise-linear representatives and the perturbation
terms of the small-parameter expansion around a Cameron-Martin path.

``solve_rde`` realizes the continuity theorem at desk scale: it solves along
the driver's dyadic coarsenings at three consecutive levels, attaches the
resulting convergence ladder, and returns the Richardson extrapolation.

All perturbation terms (chi, psi, phi1, theta1, phi2, theta2 and the Hessian
forms built on them) are inhomogeneous linear equations with one shared
homogeneous part; they all route through
:func:`roughlaplace.odes.linear_perturbation_solve`, whose exact linearity in
the sources makes identities like theta1 = phi1 - chi hold to rounding.
Their sources are sums of two primitives over the coefficients along phi0:
ds(phi0)<z, dY> against a path's increments (``_lin_sources``) and the
per-step Q<z1, z2> (``_quad_sources``), with Q contracted with dgamma and dt
once per context, plus the drift's eps-derivatives for phi2 and theta2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .grids import SampledPath, TimeGrid
from .odes import (
    VectorFieldSpec,
    _omega_increments,
    heun_controlled,
    linear_perturbation_solve,
)
from .variation import coarsen_dyadic, pvar_exact

__all__ = [
    "ExpansionContext",
    "TaylorBundle",
    "expansion_context",
    "solve_rde",
    "compute_phi0",
    "compute_chi",
    "compute_psi",
    "compute_phi1",
    "compute_theta1",
    "compute_phi2",
    "compute_theta2",
    "taylor_bundle",
    "taylor_remainder_slope",
]


def compute_phi0(field_spec: VectorFieldSpec, gamma: SampledPath) -> SampledPath:
    """Base path: d phi0 = sigma(phi0) dgamma + beta(0, phi0) dt."""
    vals = heun_controlled(
        field_spec, gamma.grid, gamma.increments(), np.zeros(field_spec.n), 0.0, True
    )
    return SampledPath(gamma.grid, vals)


@dataclass
class ExpansionContext:
    """Everything the linear perturbation equations share: the base path
    phi0 = Psi(gamma), the generator increments of dOmega, and the
    coefficients along phi0 that the sources are assembled from.

    ``Q``, ``P`` and ``D`` are (left, right) pairs per step, contracted once
    with the gamma-dependent increments: Q = d2sigma(phi0) dgamma +
    d2beta_y(phi0) dt, P = d_eps d_y beta(phi0) dt, D = d2_eps beta(phi0) dt.
    """

    field: VectorFieldSpec
    gamma: SampledPath
    phi0: SampledPath
    omL: np.ndarray
    omR: np.ndarray
    sigma0: np.ndarray  # sigma(phi0_t), (N, n, d)
    dsigma0: np.ndarray  # (N, n, d, n)
    dbeta_eps0: np.ndarray  # (N, n)
    Q: tuple  # 2 x (n_steps, n, n, n)
    P: tuple  # 2 x (n_steps, n, n)
    D: tuple  # 2 x (n_steps, n)

    @property
    def grid(self) -> TimeGrid:
        return self.gamma.grid

    def solve(self, srcL: np.ndarray, srcR: np.ndarray) -> np.ndarray:
        return linear_perturbation_solve(self.omL, self.omR, srcL, srcR)


def expansion_context(field_spec: VectorFieldSpec, gamma: SampledPath) -> ExpansionContext:
    f = field_spec
    phi0 = compute_phi0(f, gamma)
    y = phi0.values
    dgam = gamma.increments()
    dt = gamma.grid.dt
    omL, omR = _omega_increments(f, y, dgam, dt)

    def along(at):
        return at(y) if f.batched else np.stack([at(v) for v in y])

    d2sigma0 = along(f.d2sigma_at)
    d2beta_y0 = along(lambda v: f.d2beta_y_at(0.0, v))
    dbeta_y_eps0 = along(lambda v: f.dbeta_y_eps_at(0.0, v))

    def per_step(sl):
        Q = np.einsum("iajbc,ij->iabc", d2sigma0[sl], dgam)
        return Q + d2beta_y0[sl] * dt[:, None, None, None], dbeta_y_eps0[sl] * dt[:, None, None]

    (QL, PL), (QR, PR) = per_step(slice(None, -1)), per_step(slice(1, None))
    return ExpansionContext(
        field=f, gamma=gamma, phi0=phi0, omL=omL, omR=omR,
        sigma0=along(f.sigma_at), dsigma0=along(f.dsigma_at),
        dbeta_eps0=along(lambda v: f.dbeta_eps_at(0.0, v)),
        Q=(QL, QR), P=(PL, PR),
        D=_dt_sources(along(lambda v: f.d2beta_eps_at(0.0, v)), dt),
    )


def _endpoint_sources(integrand: np.ndarray, increments: np.ndarray):
    """Source increments from endpoint integrand values against step increments.

    ``integrand``: (..., N, n, d) values, ``increments``: (..., n_steps, d).
    Returns (srcL, srcR) of shape (..., n_steps, n).
    """
    sL = np.einsum("...iab,...ib->...ia", integrand[..., :-1, :, :], increments)
    sR = np.einsum("...iab,...ib->...ia", integrand[..., 1:, :, :], increments)
    return sL, sR


def _dt_sources(values: np.ndarray, dt: np.ndarray):
    """Source increments of a dt-integrand given by grid values (..., N, n)."""
    return values[..., :-1, :] * dt[:, None], values[..., 1:, :] * dt[:, None]


def _bilinear(C: np.ndarray, u: np.ndarray, v: np.ndarray, out=None) -> np.ndarray:
    """Per-step contraction sum_{p,q} C[i, a, p, q] u[..., i, p] v[..., i, q],
    added in place into ``out`` when given.

    ``C``: (n_steps, n, P, Q); ``u``, ``v``: (..., n_steps, P), (..., n_steps, Q).
    The loop runs over the small coefficient axes only; for the n, d of a
    desk-scale run it beats a three-operand einsum about twofold.
    """
    for p in range(C.shape[2]):
        for q in range(C.shape[3]):
            term = C[:, :, p, q] * (u[..., p] * v[..., q])[..., None]
            if out is None:
                out = term
            else:
                out += term
            del term  # free it before the next one is built
    return out


def _lin_sources(ctx: ExpansionContext, z: np.ndarray, dY: np.ndarray, out=(None, None)):
    """Sources dsigma(phi0)<z, dY> of a path z (..., N, n) against step
    increments dY (..., n_steps, d), added into the pair ``out`` when given."""
    return (
        _bilinear(ctx.dsigma0[:-1], dY, z[..., :-1, :], out[0]),
        _bilinear(ctx.dsigma0[1:], dY, z[..., 1:, :], out[1]),
    )


def _quad_sources(ctx: ExpansionContext, z1: np.ndarray, z2: np.ndarray, out=(None, None)):
    """Sources Q<z1, z2> = d2sigma(phi0)<z1, z2, dgamma> + d2beta_y(phi0)<z1, z2> dt,
    added into the pair ``out`` when given."""
    QL, QR = ctx.Q
    return (
        _bilinear(QL, z1[..., :-1, :], z2[..., :-1, :], out[0]),
        _bilinear(QR, z1[..., 1:, :], z2[..., 1:, :], out[1]),
    )


def _eps_sources(ctx: ExpansionContext, z: np.ndarray, out):
    """Adds the sources P<z> + D/2 from the drift's eps-derivatives into ``out``."""
    for o, P, D, zk in zip(out, ctx.P, ctx.D, (z[..., :-1, :], z[..., 1:, :])):
        o += np.einsum("iab,...ib->...ia", P, zk)
        o += 0.5 * D
    return out


def _halve(src):
    """Halves a (srcL, srcR) pair in place (exact: a power-of-two scale)."""
    for side in src:
        side *= 0.5
    return src


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


def _chi_values(ctx: ExpansionContext, k_vals: np.ndarray) -> np.ndarray:
    dk = np.diff(k_vals, axis=-2)
    sL, sR = _endpoint_sources(ctx.sigma0, dk)
    return ctx.solve(sL, sR)


def _psi_sources(ctx: ExpansionContext, chi_f: np.ndarray, chi_k: np.ndarray,
                 df: np.ndarray, dk: np.ndarray):
    """Polarized second-derivative sources, halved (see compute_psi)."""
    src = _lin_sources(ctx, chi_f, dk)
    src = _lin_sources(ctx, chi_k, df, out=src)
    return _halve(_quad_sources(ctx, chi_f, chi_k, out=src))


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
    sL, sR = _psi_sources(
        ctx, chi_f, chi_k, np.diff(f_vals, axis=-2), np.diff(k_vals, axis=-2)
    )
    return SampledPath(ctx.grid, ctx.solve(sL, sR))


def _theta1_values(ctx: ExpansionContext) -> np.ndarray:
    sL, sR = _dt_sources(ctx.dbeta_eps0, ctx.grid.dt)
    return ctx.solve(sL, sR)


def compute_theta1(ctx: ExpansionContext) -> SampledPath:
    """Driver-independent first-order term: d theta1 = dOmega theta1 +
    grad_eps beta(0, phi0) dt."""
    return SampledPath(ctx.grid, _theta1_values(ctx))


def compute_phi1(ctx: ExpansionContext, driver) -> SampledPath:
    """First Taylor term along the driver: phi1 = chi(driver) + theta1."""
    vals = _chi_values(ctx, _as_values(ctx, driver)) + _theta1_values(ctx)
    return SampledPath(ctx.grid, vals)


def _phi2_sources(ctx: ExpansionContext, phi1: np.ndarray, dX: np.ndarray):
    """Sources Q<phi1, phi1>/2 + ds<phi1, dX> + P<phi1> + D/2."""
    src = _halve(_quad_sources(ctx, phi1, phi1))
    src = _lin_sources(ctx, phi1, dX, out=src)
    return _eps_sources(ctx, phi1, out=src)


def compute_phi2(ctx: ExpansionContext, driver) -> SampledPath:
    """Second Taylor term: the linear equation with sources assembled from phi1."""
    X_vals = _as_values(ctx, driver)
    phi1 = _chi_values(ctx, X_vals) + _theta1_values(ctx)
    sL, sR = _phi2_sources(ctx, phi1, np.diff(X_vals, axis=-2))
    return SampledPath(ctx.grid, ctx.solve(sL, sR))


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
    sL, sR = _theta2_sources(ctx, theta1, chi, np.diff(X_vals, axis=-2))
    return SampledPath(ctx.grid, ctx.solve(sL, sR))


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
    sL, sR = _psi_sources(ctx, chi, chi, dX, dX)
    psi = ctx.solve(sL, sR)
    sL, sR = _theta2_sources(ctx, np.broadcast_to(theta1, chi.shape), chi, dX)
    theta2 = ctx.solve(sL, sR)
    sL, sR = _phi2_sources(ctx, phi1, dX)
    phi2 = ctx.solve(sL, sR)
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


# ---------------------------------------------------------------------------
# full RDE solve with the dyadic ladder
# ---------------------------------------------------------------------------


def _dyadic_level_of(grid: TimeGrid) -> int:
    n = grid.n_steps
    level = int(round(math.log2(n)))
    if 2**level != n or not grid.is_uniform():
        raise ValueError("solve_rde expects a uniform dyadic grid")
    return level


def solve_rde(
    field_spec: VectorFieldSpec,
    eps: float,
    driver_path: SampledPath,
    gamma: Optional[SampledPath] = None,
    ladder_depth: int = 2,
) -> SampledPath:
    """First-level RDE solution d Y = sigma(Y)(eps dX + dgamma) + beta(eps, Y) dt.

    Solves along the piecewise-linear representatives of the driver at dyadic
    levels m-ladder_depth..m (coarsenings of the given samples), Richardson-
    extrapolates the two finest levels, and attaches the convergence ladder in
    ``meta['ladder']``.  A ladder ratio above 0.9 marks a non-Cauchy ladder
    (``meta['cauchy'] = False``); the extrapolated result is still returned.
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    top = _dyadic_level_of(driver_path.grid)
    depth = min(ladder_depth, top)
    levels = list(range(top - depth, top + 1))

    solutions = {}
    for lev in levels:
        drv = coarsen_dyadic(driver_path, lev) if lev < top else driver_path
        gam = None
        if gamma is not None:
            gam = coarsen_dyadic(gamma, lev) if lev < top else gamma
        Z = eps * drv.values
        if gam is not None:
            Z = Z + gam.values
        sol = heun_controlled(
            field_spec, drv.grid, np.diff(Z, axis=0), np.zeros(field_spec.n),
            eps_beta=eps, with_drift=True,
        )
        solutions[lev] = SampledPath(drv.grid, sol)

    base = solutions[levels[0]].grid
    on_base = {}
    for lev, sol in solutions.items():
        idx = [sol.grid.index_of(t) for t in base.points]
        on_base[lev] = sol.values[idx]

    diffs = [
        float(np.abs(on_base[b] - on_base[a]).max())
        for a, b in zip(levels[:-1], levels[1:])
    ]
    if len(diffs) < 2:
        ratio = 0.0
    elif diffs[-2] > 0:
        ratio = diffs[-1] / diffs[-2]
    else:
        # a vanishing earlier difference followed by a nonzero one is the
        # worst non-Cauchy signature, not a converged ladder
        ratio = 0.0 if diffs[-1] == 0.0 else math.inf
    cauchy = ratio <= 0.9

    fine = solutions[levels[-1]]
    out_vals = fine.values.copy()
    if len(levels) >= 2:
        prev = solutions[levels[-2]]
        idx = [fine.grid.index_of(t) for t in prev.grid.points]
        correction = (fine.values[idx] - prev.values) / 3.0
        interp = np.stack(
            [
                np.interp(fine.grid.points, prev.grid.points, correction[:, j])
                for j in range(correction.shape[1])
            ],
            axis=1,
        )
        out_vals = out_vals + interp
    meta = {
        "ladder": {"levels": levels, "diffs": diffs, "ratio": ratio},
        "cauchy": cauchy,
    }
    return SampledPath(fine.grid, out_vals, meta=meta)


def taylor_remainder_slope(
    field_spec: VectorFieldSpec,
    gamma: SampledPath,
    drivers: list,
    m: int,
    eps_list=None,
    p: float = 2.75,
) -> dict:
    """Least-squares slope of log remainder-norm against log eps.

    For each driver the remainder phi^(eps) - sum_{k<=m} eps^k phi^k is formed
    per dyadic level (nonlinear and linear solves on the same level, so the
    expansion cancellation is exact at each level) and Richardson-extrapolated
    across the two finest levels; the fit runs on ensemble geometric means of
    the p-variation norms.
    """
    if m not in (1, 2):
        raise ValueError("remainder order m must be 1 or 2")
    if eps_list is None:
        eps_list = [2.0**-j for j in range(3, 10)]
    eps_list = list(eps_list)
    if len(eps_list) < 4:
        raise ValueError("need at least 4 eps values for a slope fit")

    top = _dyadic_level_of(gamma.grid)
    levels = [top - 1, top]
    ctxs = {}
    for lev in levels:
        gam = coarsen_dyadic(gamma, lev) if lev < top else gamma
        ctxs[lev] = expansion_context(field_spec, gam)

    n_drv = len(drivers)
    # remainders per level, batched over the driver ensemble
    rem_by_level = {}
    for lev in levels:
        ctx = ctxs[lev]
        batch = np.stack(
            [
                (coarsen_dyadic(drv, lev) if lev < top else drv).values
                for drv in drivers
            ]
        )  # (n_drv, N, d)
        chi = _chi_values(ctx, batch)
        theta1 = _theta1_values(ctx)
        phi1 = chi + theta1
        terms = [np.broadcast_to(ctx.phi0.values, phi1.shape), phi1]
        if m == 2:
            sL, sR = _phi2_sources(ctx, phi1, np.diff(batch, axis=-2))
            terms.append(ctx.solve(sL, sR))
        rems = np.empty((len(eps_list), n_drv, len(ctx.grid), field_spec.n))
        for ei, eps in enumerate(eps_list):
            Z = eps * batch + ctx.gamma.values
            sol = heun_controlled(
                field_spec, ctx.grid, np.diff(Z, axis=-2), np.zeros(field_spec.n),
                eps_beta=eps, with_drift=True,
            )
            rem = sol.copy()
            for k, term in enumerate(terms):
                rem -= eps**k * term
            rems[ei] = rem
        rem_by_level[lev] = rems

    fine_grid = ctxs[levels[1]].grid
    idx = [fine_grid.index_of(t) for t in ctxs[levels[0]].grid.points]
    extr = rem_by_level[levels[1]][:, :, idx] + (
        rem_by_level[levels[1]][:, :, idx] - rem_by_level[levels[0]]
    ) / 3.0
    log_norms = np.zeros((len(eps_list), n_drv))
    for ei in range(len(eps_list)):
        for di in range(n_drv):
            path = SampledPath(ctxs[levels[0]].grid, extr[ei, di])
            log_norms[ei, di] = math.log(pvar_exact(path, p).value)

    mean_log = log_norms.mean(axis=1)
    x = np.log(np.asarray(eps_list))
    A = np.stack([x, np.ones_like(x)], axis=1)
    coef, res, *_ = np.linalg.lstsq(A, mean_log, rcond=None)
    fitted = A @ coef
    ss_tot = float(((mean_log - mean_log.mean()) ** 2).sum())
    r2 = 1.0 - float(((mean_log - fitted) ** 2).sum()) / ss_tot if ss_tot > 0 else 1.0
    return {
        "order": m,
        "eps_list": eps_list,
        "norms": np.exp(mean_log).tolist(),
        "slope": float(coef[0]),
        "r_squared": r2,
    }

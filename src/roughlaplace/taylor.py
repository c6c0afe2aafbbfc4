"""RDE solving along piecewise-linear representatives and the perturbation
terms of the small-parameter expansion around a Cameron-Martin path.

``solve_rde`` and ``taylor_remainder_slope`` realize the continuity theorem
at desk scale on one dyadic ladder: the driver restricted to coarser levels
(:func:`roughlaplace.variation.restrict_dyadic`), one Heun solve per level
(``_level_solve``) and one Richardson step (``_richardson``, the only place
order 2 is assumed), interpolated onto the fine grid by ``solve_rde`` and
added on the coarse grid by ``taylor_remainder_slope``.

All perturbation terms (chi, theta1, phi1, phi2 and the Hessian's psi and
R1) are inhomogeneous linear equations with one shared homogeneous part;
they all route through :func:`roughlaplace.odes.linear_perturbation_solve`,
whose exact linearity in the inhomogeneity b makes identities like
phi1 = chi + theta1 hold to rounding.  :func:`expansion_context` folds the
Heun stage weights into the coefficient tables along phi0 once, so every
source is one b: chi's is ``B_sigma`` dk, theta1's is ``b_theta1``, and the
others are sums of two primitives over the (left, right) table pairs,
ds(phi0)<z, dY> against a path's increments (``_lin_sources``) and the
per-step Q<z1, z2> (``_quad_sources``), plus the drift's eps-derivatives
for phi2 (``_eps_sources``).

Each context multiplies its Heun step maps out once into the flow table
M, M^{-1} (:func:`roughlaplace.odes.linear_flow`), so a solve is two
matrix-vector products and one cumulative sum along the steps.

Where a term is read only through z -> grad F(phi0)<z> it is not solved.
:func:`costate` reads grad F backwards through the context's flow once and
:class:`CoState` contracts the one co-state lambda with the same tables
(ds, Q, P, b_D), so grad F<theta1> (c), grad F<phi2(X)> (the alpha0
weights) and grad F<2 psi(e_a, e_b)> (the Hessian) are contractions of
their inputs.  The minimizer's gradient grad F<chi(k)> needs only phi0, the
flow and B_sigma (``_linearize``, which :func:`expansion_context` builds on
too), so :func:`chi_gradient` reads it for a whole batch of gammas without
a context.
Only the readers of a term as a path solve forward:
``taylor_remainder_slope`` (phi1, phi2), ``hs_tail`` (R1), and phi1 and the
basis chi(e_a) under grad^2 F.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .grids import SampledPath, TimeGrid
from .odes import (
    VectorFieldSpec,
    _matvec,
    _stage_fold,
    _step_maps,
    heun_controlled,
    linear_flow,
    linear_perturbation_costate,
    linear_perturbation_solve,
)
from .variation import dyadic_level, pvar_values, restrict_dyadic

__all__ = [
    "ExpansionContext",
    "CoState",
    "costate",
    "chi_gradient",
    "expansion_context",
    "solve_rde",
    "taylor_remainder_slope",
]


@dataclass
class ExpansionContext:
    """Everything the linear perturbation equations share: the base path
    phi0 = Psi(gamma), the flow table (M, M^{-1}) of its Heun step maps
    (:func:`roughlaplace.odes.linear_flow`), and the coefficient tables along
    phi0 with the stage weights (:func:`roughlaplace.odes._stage_fold`)
    folded in, so every source is one inhomogeneity b of ``solve``: chi's is
    ``B_sigma`` dk and theta1's is ``b_theta1``; ``ds`` (dsigma(phi0)), ``Q``
    (d2sigma(phi0) dgamma + d2beta_y(phi0) dt) and ``P`` (d_eps d_y beta(phi0)
    dt) are (left, right) pairs acting on z_i and z_{i+1}; ``b_D`` folds
    D = d2_eps beta(phi0) dt.  ``omL``/``omR`` are the endpoint values of
    dOmega = dsigma(phi0) dgamma + d_y beta(phi0) dt that the flow and the
    folds are built from.
    """

    field: VectorFieldSpec
    gamma: SampledPath
    phi0: SampledPath
    omL: np.ndarray
    omR: np.ndarray
    flow: tuple  # (M, M^{-1}), 2 x (N, n, n)
    sigma0: np.ndarray  # sigma(phi0_t), (N, n, d)
    B_sigma: np.ndarray  # (n_steps, n, d)
    ds: tuple  # 2 x (n_steps, n, d, n)
    Q: tuple  # 2 x (n_steps, n, n, n)
    P: tuple  # 2 x (n_steps, n, n)
    b_theta1: np.ndarray  # (n_steps, n)
    b_D: np.ndarray  # (n_steps, n)

    @property
    def grid(self) -> TimeGrid:
        return self.gamma.grid

    def solve(self, b: np.ndarray) -> np.ndarray:
        return linear_perturbation_solve(self.flow, b)

    def linear_in_driver(self) -> bool:
        """True when theta1 and every phi2 table vanish (e.g. constant sigma
        and a drift linear in y): then phi1 = chi(X) is linear in the driver
        and phi2 = 0."""
        return not any(t.any() for t in (*self.ds, *self.Q, *self.P, self.b_theta1, self.b_D))


def _linearize(f: VectorFieldSpec, grid: TimeGrid, gamma: np.ndarray) -> tuple:
    """phi0 = Psi(gamma) from gamma's samples (..., N, d), and the tables of
    its linear equation that a chi solve or a co-state reads, with leading
    axes batching: the endpoint values omL, omR of
    dOmega = dsigma(phi0) dgamma + d_y beta(phi0) dt, the flow table
    (M, M^{-1}) of the step maps (:func:`roughlaplace.odes.linear_flow`),
    sigma0 = sigma(phi0) and chi's inhomogeneity table B_sigma.  Returns
    (phi0, omL, omR, flow, sigma0, B_sigma, dsigma(phi0)); the last feeds the
    ds tables of :func:`expansion_context`.
    """
    y = heun_controlled(f, grid, np.zeros(f.n), gamma=gamma)
    dgam, dt = np.diff(gamma, axis=-2), grid.dt
    sigma0, dsigma0, dbeta_y0 = f.sigma_at(y), f.dsigma_at(y), f.dbeta_y_at(y)

    def om(sl):
        return (np.einsum("...iajb,...ij->...iab", dsigma0[..., sl, :, :, :], dgam)
                + dbeta_y0[..., sl, :, :] * dt[:, None, None])

    omL, omR = om(slice(None, -1)), om(slice(1, None))
    B_sigma = np.add(*_stage_fold(omR, sigma0[..., :-1, :, :], sigma0[..., 1:, :, :]))
    return y, omL, omR, linear_flow(_step_maps(omL, omR)), sigma0, B_sigma, dsigma0


def expansion_context(field_spec: VectorFieldSpec, gamma: SampledPath) -> ExpansionContext:
    f = field_spec
    dgam = gamma.increments()
    dt = gamma.grid.dt
    y, omL, omR, flow, sigma0, B_sigma, dsigma0 = _linearize(f, gamma.grid, gamma.values)
    d2sigma0 = f.d2sigma_at(y)
    d2beta_y0 = f.d2beta_y_at(y)
    dbeta_y_eps0 = f.dbeta_y_eps_at(y)
    dbeta_eps0 = f.dbeta_eps_at(y)
    d2beta_eps0 = f.d2beta_eps_at(y)

    def per_step(sl):
        Q = np.einsum("iajbc,ij->iabc", d2sigma0[sl], dgam) + d2beta_y0[sl] * dt[:, None, None, None]
        return (dsigma0[sl], Q, dbeta_y_eps0[sl] * dt[:, None, None],
                dbeta_eps0[sl] * dt[:, None], d2beta_eps0[sl] * dt[:, None])

    left, right = per_step(slice(None, -1)), per_step(slice(1, None))
    ds, Q, P, th, D = (_stage_fold(omR, l, r) for l, r in zip(left, right))
    return ExpansionContext(
        field=f, gamma=gamma, phi0=SampledPath(gamma.grid, y), omL=omL, omR=omR, flow=flow,
        sigma0=sigma0, B_sigma=B_sigma, ds=ds, Q=Q, P=P,
        b_theta1=np.add(*th), b_D=np.add(*D),
    )


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


def _lin_sources(ctx: ExpansionContext, z: np.ndarray, dY: np.ndarray, out=None):
    """Inhomogeneity of the sources dsigma(phi0)<z, dY> of a path z (..., N, n)
    against step increments dY (..., n_steps, d), added into ``out`` when given."""
    dsL, dsR = ctx.ds
    out = _bilinear(dsL, dY, z[..., :-1, :], out)
    return _bilinear(dsR, dY, z[..., 1:, :], out)


def _quad_sources(ctx: ExpansionContext, z1: np.ndarray, z2: np.ndarray, out=None):
    """Inhomogeneity of the sources Q<z1, z2> = d2sigma(phi0)<z1, z2, dgamma> +
    d2beta_y(phi0)<z1, z2> dt, added into ``out`` when given."""
    QL, QR = ctx.Q
    out = _bilinear(QL, z1[..., :-1, :], z2[..., :-1, :], out)
    return _bilinear(QR, z1[..., 1:, :], z2[..., 1:, :], out)


def _eps_sources(ctx: ExpansionContext, z: np.ndarray, out):
    """Adds the inhomogeneity of P<z> + D/2, the drift's eps-derivatives, into ``out``."""
    PL, PR = ctx.P
    _matvec(PL, z[..., :-1, :], out=out)
    _matvec(PR, z[..., 1:, :], out=out)
    out += 0.5 * ctx.b_D
    return out


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum over the last two axes of a * b; the leading axes broadcast."""
    return np.einsum("...ij,...ij->...", a, b)


def _onto_points(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Per-step tables read at the left (z_i) and right (z_{i+1}) step
    endpoints, summed onto the grid points: (n_steps, ...) -> (N, ...)."""
    out = np.zeros((left.shape[0] + 1,) + left.shape[1:])
    out[:-1] += left
    out[1:] += right
    return out


@dataclass
class CoState:
    """grad F(phi0) read backwards through every solve of one context:

        grad F(phi0)<ctx.solve(b)> = sum_i lam_i . b_i

    (:func:`roughlaplace.odes.linear_perturbation_costate`).  The co-state is
    contracted once with the tables the inhomogeneities are built from, so a
    term read only through grad F costs one contraction of its inputs and
    no solve:

        grad F<solve(ds<z, dY>)>    = sum_i dY_i . lin_covector(z)_i,
        grad F<solve(Q<z1, z2>)>    = sum_j z1_j . quad_apply(z2)_j.
    """

    ctx: ExpansionContext
    lam: np.ndarray  # (n_steps, n)

    def pair(self, b: np.ndarray) -> np.ndarray:
        """grad F(phi0)<ctx.solve(b)>, batched over leading axes."""
        return _dot(b, self.lam)

    def _contract(self, tables: tuple, subscripts: str) -> tuple:
        """lam contracted with the left and right per-step tables."""
        return tuple(np.einsum(subscripts, self.lam, C) for C in tables)

    @cached_property
    def _lin(self) -> tuple:
        return self._contract(self.ctx.ds, "ia,iapq->ipq")

    @cached_property
    def _quad(self) -> np.ndarray:
        return _onto_points(*self._contract(self.ctx.Q, "ia,iapq->ipq"))

    def lin_covector(self, z: np.ndarray) -> np.ndarray:
        """(..., n_steps, d): lam_i . ds(phi0)<z, .> at both step endpoints."""
        linL, linR = self._lin
        return _matvec(linL, z[..., :-1, :]) + _matvec(linR, z[..., 1:, :])

    def quad_apply(self, z: np.ndarray) -> np.ndarray:
        """(..., N, n): lam . Q<., z> summed onto the grid points."""
        return _matvec(self._quad, z)

    def phi2(self, phi1: np.ndarray, dX: np.ndarray) -> np.ndarray:
        """grad F(phi0)<phi2(X)> from phi1 (..., N, n) and dX (..., n_steps, d):
        the co-state pairing of the phi2 sources Q<phi1, phi1>/2 +
        ds<phi1, dX> + P<phi1> + D/2.  A term whose contracted table is
        identically 0 is skipped: for ``constant_field`` every one is, and
        the result is exactly 0."""
        out = np.full(phi1.shape[:-2], 0.5 * float(self.pair(self.ctx.b_D)))
        eps = _onto_points(*self._contract(self.ctx.P, "ia,iab->ib"))
        if self._quad.any() or eps.any():
            out += _dot(phi1, 0.5 * self.quad_apply(phi1) + eps)
        if any(t.any() for t in self._lin):
            out += _dot(dX, self.lin_covector(phi1))
        return out


def _costate_lam(functional, phi0: np.ndarray, flow: tuple, grid: TimeGrid) -> np.ndarray:
    """The co-state of grad F(phi0) through the flow table ``flow``: g from
    one ``functional.grad`` call on the N n unit directions (grad is linear),
    with phi0 (..., N, n) given a broadcast axis against them, then
    :func:`roughlaplace.odes.linear_perturbation_costate`.  Leading axes
    batch."""
    N, n = phi0.shape[-2:]
    units = np.eye(N * n).reshape(N * n, N, n)
    g = np.asarray(functional.grad(phi0[..., None, :, :], units, grid), dtype=float)
    return linear_perturbation_costate(flow, g.reshape(g.shape[:-1] + (N, n)))


def costate(ctx: ExpansionContext, functional) -> CoState:
    """The co-state of grad F(phi0) on the context (:func:`_costate_lam`)."""
    return CoState(ctx, _costate_lam(functional, ctx.phi0.values, ctx.flow, ctx.grid))


def chi_gradient(field_spec: VectorFieldSpec, functional, gamma: np.ndarray, grid: TimeGrid,
                 dk: np.ndarray) -> tuple:
    """phi0 = Psi(gamma) and grad F(phi0)<chi(k_a)> for every direction k_a,
    from gamma's samples (..., N, d) (leading axes batch) and the directions'
    increments ``dk`` (nb, n_steps, d).  One Heun solve, one flow table, one
    co-state and one product of dk with B_sigma^T lambda; no ExpansionContext,
    no chi solve and none of the phi2 tables.  Returns phi0 (..., N, n) and the
    pairings (..., nb).
    """
    phi0, _, _, flow, _, B_sigma, _ = _linearize(field_spec, grid, gamma)
    lam = _costate_lam(functional, phi0, flow, grid)
    covector = np.einsum("...ia,...iap->...ip", lam, B_sigma)  # B_sigma_i^T lam_i
    return phi0, _dot(dk, covector[..., None, :, :])


def _chi_values(ctx: ExpansionContext, k_vals: np.ndarray) -> np.ndarray:
    return ctx.solve(_matvec(ctx.B_sigma, np.diff(k_vals, axis=-2)))


def _theta1_values(ctx: ExpansionContext) -> np.ndarray:
    return ctx.solve(ctx.b_theta1)


def _phi2_sources(ctx: ExpansionContext, phi1: np.ndarray, dX: np.ndarray):
    """Sources Q<phi1, phi1>/2 + ds<phi1, dX> + P<phi1> + D/2."""
    src = _quad_sources(ctx, phi1, phi1)
    src *= 0.5
    src = _lin_sources(ctx, phi1, dX, out=src)
    return _eps_sources(ctx, phi1, out=src)


# ---------------------------------------------------------------------------
# the dyadic ladder: full RDE solves along restricted drivers
# ---------------------------------------------------------------------------


def _level_grid(grid: TimeGrid, level: int) -> TimeGrid:
    """The level-``level`` dyadic grid; the top level keeps ``grid`` itself."""
    return grid if level == dyadic_level(grid) else TimeGrid.dyadic(level)


def _level_solve(field_spec: VectorFieldSpec, eps: float, X: np.ndarray,
                 gamma: Optional[np.ndarray], grid: TimeGrid, level: int) -> np.ndarray:
    """Heun solve of dY = sigma(Y) dZ + beta(eps, Y) dt on ``_level_grid``
    along Z = eps X + gamma restricted to dyadic level ``level``, for samples
    X (..., len(grid), d) (leading axes batch) and gamma (len(grid), d) or
    None on the caller's uniform dyadic ``grid``: Y (..., 2**level + 1, n)."""
    if gamma is not None:
        gamma = restrict_dyadic(gamma, grid, level)
    return heun_controlled(field_spec, _level_grid(grid, level), np.zeros(field_spec.n),
                           eps=eps, X=restrict_dyadic(X, grid, level), gamma=gamma)


def _richardson(fine: np.ndarray, coarse: np.ndarray) -> np.ndarray:
    """The Richardson correction on the coarse grid from solutions on two
    consecutive dyadic levels: the one place the ladder assumes order 2."""
    return (fine[..., ::2, :] - coarse) / 3.0


def solve_rde(
    field_spec: VectorFieldSpec,
    eps: float,
    driver_path: SampledPath,
    gamma: Optional[SampledPath] = None,
    ladder_depth: int = 2,
) -> SampledPath:
    """First-level RDE solution d Y = sigma(Y)(eps dX + dgamma) + beta(eps, Y) dt.

    Solves along the piecewise-linear representatives of the driver at dyadic
    levels m-ladder_depth..m (restrictions of the given samples), Richardson-
    extrapolates the two finest levels, and attaches the convergence ladder in
    ``meta['ladder']``.  A ladder ratio above 0.9 marks a non-Cauchy ladder
    (``meta['cauchy'] = False``); the extrapolated result is still returned.
    ``meta['ladder']['observed_order']`` is log2 of the ratio of the last two
    level differences, or None when it is undefined; the extrapolation does
    not read it yet and assumes order 2.
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    if ladder_depth < 0:
        raise ValueError(f"ladder_depth must be nonnegative, got {ladder_depth}")
    grid = driver_path.grid
    top = dyadic_level(grid)
    levels = list(range(top - min(ladder_depth, top), top + 1))
    gam = None if gamma is None else gamma.values
    sols = [_level_solve(field_spec, eps, driver_path.values, gam, grid, lev) for lev in levels]

    on_base = [restrict_dyadic(sol, TimeGrid.dyadic(lev), levels[0])
               for lev, sol in zip(levels, sols)]
    diffs = [float(np.abs(b - a).max()) for a, b in zip(on_base[:-1], on_base[1:])]
    if len(diffs) < 2:
        ratio = 0.0
    elif diffs[-2] > 0:
        ratio = diffs[-1] / diffs[-2]
    else:
        # a vanishing earlier difference followed by a nonzero one is the
        # worst non-Cauchy signature, not a converged ladder
        ratio = 0.0 if diffs[-1] == 0.0 else math.inf
    cauchy = ratio <= 0.9
    # the convergence order the last two differences show; undefined when
    # there are fewer than two or either vanishes
    observed_order = None
    if len(diffs) >= 2 and diffs[-2] > 0.0 and diffs[-1] > 0.0:
        observed_order = math.log2(diffs[-2] / diffs[-1])

    out_vals = sols[-1]
    if len(levels) >= 2:
        coarse_pts = TimeGrid.dyadic(levels[-2]).points
        correction = _richardson(sols[-1], sols[-2])
        out_vals = out_vals + np.stack(
            [np.interp(grid.points, coarse_pts, c) for c in correction.T], axis=1
        )
    meta = {
        "ladder": {"levels": levels, "diffs": diffs, "ratio": ratio,
                   "observed_order": observed_order},
        "cauchy": cauchy,
    }
    return SampledPath(grid, out_vals, meta=meta)


# The default eps ladder of the slope fit, 2^-3 .. 2^-9.
_SLOPE_EPS = [2.0**-j for j in range(3, 10)]


def taylor_remainder_slope(
    field_spec: VectorFieldSpec,
    gamma: SampledPath,
    drivers: np.ndarray,
    m: int,
    eps_list=None,
    p: float = 2.75,
) -> dict:
    """Least-squares slope of log remainder-norm against log eps.

    For each driver, a row of the (n_drv, N, d) array ``drivers`` on gamma's
    grid, the remainder phi^(eps) - sum_{k<=m} eps^k phi^k is formed per
    dyadic level (nonlinear and linear solves on the same level, so the
    expansion cancellation is exact at each level) and Richardson-extrapolated
    across the two finest levels onto the coarser one; the fit runs on
    ensemble geometric means of the p-variation norms there.
    """
    if m not in (1, 2):
        raise ValueError("remainder order m must be 1 or 2")
    eps_list = list(_SLOPE_EPS if eps_list is None else eps_list)
    if len(eps_list) < 4:
        raise ValueError("need at least 4 eps values for a slope fit")
    if any(eps <= 0 for eps in eps_list):
        raise ValueError(f"eps_list must be positive, got {eps_list}")

    grid = gamma.grid
    top = dyadic_level(grid)
    X = np.asarray(drivers, dtype=float)
    if X.ndim != 3 or X.shape[1] != len(grid):
        raise ValueError(f"drivers must be (n_drv, {len(grid)}, d), got {X.shape}")
    rems = []  # per level: remainders (n_eps, n_drv, N_level, n)
    for lev in (top - 1, top):
        X_lev = restrict_dyadic(X, grid, lev)
        ctx = expansion_context(
            field_spec, SampledPath(_level_grid(grid, lev), restrict_dyadic(gamma.values, grid, lev))
        )
        dX = np.diff(X_lev, axis=-2)
        phi1 = ctx.solve(_matvec(ctx.B_sigma, dX)) + _theta1_values(ctx)  # chi + theta1
        terms = [np.broadcast_to(ctx.phi0.values, phi1.shape), phi1]
        if m == 2:
            terms.append(ctx.solve(_phi2_sources(ctx, phi1, dX)))
        rem = np.empty((len(eps_list),) + phi1.shape)
        for ei, eps in enumerate(eps_list):
            rem[ei] = _level_solve(field_spec, eps, X, gamma.values, grid, lev)
            for k, term in enumerate(terms):
                rem[ei] -= eps**k * term
        rems.append(rem)

    coarse, fine = rems
    extr = fine[..., ::2, :] + _richardson(fine, coarse)
    log_norms = np.array([[math.log(v) for v in pvar_values(per_eps, p)] for per_eps in extr])

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

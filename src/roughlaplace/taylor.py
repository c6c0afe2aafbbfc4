"""RDE solving along piecewise-linear representatives and the perturbation
terms of the small-parameter expansion around a Cameron-Martin path.

``solve_rde`` and ``taylor_remainder_slope`` realize the continuity theorem
at desk scale on one dyadic ladder: the driver restricted to coarser levels
(:func:`roughlaplace.variation.restrict_dyadic`), one Heun solve per level
(``_level_solve``) and one Richardson step (``_richardson``, the only place
order 2 is assumed), interpolated onto the fine grid by ``solve_rde`` and
added on the coarse grid by ``taylor_remainder_slope``.

All perturbation terms (chi, psi, phi1, theta1, phi2, theta2 and the Hessian
forms built on them) are inhomogeneous linear equations with one shared
homogeneous part; they all route through
:func:`roughlaplace.odes.linear_perturbation_solve`, whose exact linearity in
the inhomogeneity b makes identities like theta1 = phi1 - chi hold to
rounding.  :func:`expansion_context` folds the Heun stage weights into the
coefficient tables along phi0 once, so every source is one b: chi's is
``B_sigma`` dk, theta1's is ``b_theta1``, and the others are sums of two
primitives over the (left, right) table pairs, ds(phi0)<z, dY> against a
path's increments (``_lin_sources``) and the per-step Q<z1, z2>
(``_quad_sources``), plus the drift's eps-derivatives for phi2 and theta2.

Where a term is read only through z -> grad F(phi0)<z> it is not solved.
:func:`costate` sweeps the context's step maps backwards once for grad F
and :class:`CoState` contracts the one co-state lambda with the same tables
(B_sigma, ds, Q, P, b_D), so grad F<chi(k)> (the minimizer's gradient),
grad F<theta1> (c), grad F<phi2(X)> (the alpha0 weights) and
grad F<2 psi(e_a, e_b)> (the Hessian) are contractions of their inputs.
Everything that reads a term as a path -- ``compute_*``, ``taylor_bundle``,
``taylor_remainder_slope``, ``v_forms``, ``r_forms``, ``hs_tail``, and
phi1 under grad^2 F -- keeps the forward solve.
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
    linear_perturbation_costate,
    linear_perturbation_solve,
)
from .variation import dyadic_level, pvar_exact, restrict_dyadic

__all__ = [
    "ExpansionContext",
    "CoState",
    "costate",
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
    vals = heun_controlled(field_spec, gamma.grid, gamma.increments(), np.zeros(field_spec.n))
    return SampledPath(gamma.grid, vals)


@dataclass
class ExpansionContext:
    """Everything the linear perturbation equations share: the base path
    phi0 = Psi(gamma), the Heun step maps T, and the coefficient tables along
    phi0 with the stage weights (:func:`roughlaplace.odes._stage_fold`)
    folded in, so every source is one inhomogeneity b of ``solve``: chi's is
    ``B_sigma`` dk and theta1's is ``b_theta1``; ``ds`` (dsigma(phi0)), ``Q``
    (d2sigma(phi0) dgamma + d2beta_y(phi0) dt) and ``P`` (d_eps d_y beta(phi0)
    dt) are (left, right) pairs acting on z_i and z_{i+1}; ``b_D`` folds
    D = d2_eps beta(phi0) dt.  ``omL``/``omR`` are the endpoint values of
    dOmega = dsigma(phi0) dgamma + d_y beta(phi0) dt that T and the folds
    are built from.
    """

    field: VectorFieldSpec
    gamma: SampledPath
    phi0: SampledPath
    omL: np.ndarray
    omR: np.ndarray
    T: np.ndarray  # (n_steps, n, n)
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
        return linear_perturbation_solve(self.T, b)

    def linear_in_driver(self) -> bool:
        """True when theta1 and every phi2 table vanish (e.g. constant sigma
        and a drift linear in y): then phi1 = chi(X) is linear in the driver
        and phi2 = 0."""
        return not any(t.any() for t in (*self.ds, *self.Q, *self.P, self.b_theta1, self.b_D))


def expansion_context(field_spec: VectorFieldSpec, gamma: SampledPath) -> ExpansionContext:
    f = field_spec
    phi0 = compute_phi0(f, gamma)
    y = phi0.values
    dgam = gamma.increments()
    dt = gamma.grid.dt

    sigma0 = f.sigma_at(y)
    dsigma0 = f.dsigma_at(y)
    dbeta_y0 = f.dbeta_y_at(0.0, y)
    d2sigma0 = f.d2sigma_at(y)
    d2beta_y0 = f.d2beta_y_at(0.0, y)
    dbeta_y_eps0 = f.dbeta_y_eps_at(0.0, y)
    dbeta_eps0 = f.dbeta_eps_at(0.0, y)
    d2beta_eps0 = f.d2beta_eps_at(0.0, y)

    def per_step(sl):
        om = np.einsum("iajb,ij->iab", dsigma0[sl], dgam) + dbeta_y0[sl] * dt[:, None, None]
        Q = np.einsum("iajbc,ij->iabc", d2sigma0[sl], dgam) + d2beta_y0[sl] * dt[:, None, None, None]
        return (om, sigma0[sl], dsigma0[sl], Q, dbeta_y_eps0[sl] * dt[:, None, None],
                dbeta_eps0[sl] * dt[:, None], d2beta_eps0[sl] * dt[:, None])

    left, right = per_step(slice(None, -1)), per_step(slice(1, None))
    omL, omR = left[0], right[0]
    sig, ds, Q, P, th, D = (_stage_fold(omR, l, r) for l, r in zip(left[1:], right[1:]))
    return ExpansionContext(
        field=f, gamma=gamma, phi0=phi0, omL=omL, omR=omR, T=_step_maps(omL, omR),
        sigma0=sigma0, B_sigma=np.add(*sig), ds=ds, Q=Q, P=P,
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

        grad F<chi(k)>              = sum_i dk_i . chi_covector_i,
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
    def chi_covector(self) -> np.ndarray:
        """B_sigma_i^T lam_i, (n_steps, d)."""
        return np.einsum("ia,iap->ip", self.lam, self.ctx.B_sigma)

    @cached_property
    def _lin(self) -> tuple:
        return self._contract(self.ctx.ds, "ia,iapq->ipq")

    @cached_property
    def _quad(self) -> np.ndarray:
        return _onto_points(*self._contract(self.ctx.Q, "ia,iapq->ipq"))

    def chi(self, dk: np.ndarray) -> np.ndarray:
        """grad F(phi0)<chi(k)> from the increments dk (..., n_steps, d)."""
        return _dot(dk, self.chi_covector)

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


def costate(ctx: ExpansionContext, functional) -> CoState:
    """The co-state of grad F(phi0) on the context: g from one batched
    ``functional.grad`` call on the N n unit directions (grad is linear),
    then one backward sweep."""
    N, n = ctx.phi0.values.shape
    units = np.eye(N * n).reshape(N * n, N, n)
    g = np.asarray(functional.grad(ctx.phi0.values, units, ctx.grid), dtype=float)
    return CoState(ctx, linear_perturbation_costate(ctx.T, g.reshape(N, n)))


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
    return ctx.solve(_matvec(ctx.B_sigma, np.diff(k_vals, axis=-2)))


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


def _theta1_values(ctx: ExpansionContext) -> np.ndarray:
    return ctx.solve(ctx.b_theta1)


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
    src = _quad_sources(ctx, phi1, phi1)
    src *= 0.5
    src = _lin_sources(ctx, phi1, dX, out=src)
    return _eps_sources(ctx, phi1, out=src)


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
    Z = eps * restrict_dyadic(X, grid, level)
    if gamma is not None:
        Z = Z + restrict_dyadic(gamma, grid, level)
    return heun_controlled(field_spec, _level_grid(grid, level), np.diff(Z, axis=-2),
                           np.zeros(field_spec.n), eps_beta=eps)


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
    across the two finest levels onto the coarser one; the fit runs on
    ensemble geometric means of the p-variation norms there.
    """
    if m not in (1, 2):
        raise ValueError("remainder order m must be 1 or 2")
    if eps_list is None:
        eps_list = [2.0**-j for j in range(3, 10)]
    eps_list = list(eps_list)
    if len(eps_list) < 4:
        raise ValueError("need at least 4 eps values for a slope fit")

    grid = gamma.grid
    top = dyadic_level(grid)
    X = np.stack([drv.values for drv in drivers])  # (n_drv, N, d)
    rems = []  # per level: remainders (n_eps, n_drv, N_level, n)
    for lev in (top - 1, top):
        X_lev = restrict_dyadic(X, grid, lev)
        ctx = expansion_context(
            field_spec, SampledPath(_level_grid(grid, lev), restrict_dyadic(gamma.values, grid, lev))
        )
        phi1 = _chi_values(ctx, X_lev) + _theta1_values(ctx)
        terms = [np.broadcast_to(ctx.phi0.values, phi1.shape), phi1]
        if m == 2:
            terms.append(ctx.solve(_phi2_sources(ctx, phi1, np.diff(X_lev, axis=-2))))
        rem = np.empty((len(eps_list),) + phi1.shape)
        for ei, eps in enumerate(eps_list):
            rem[ei] = _level_solve(field_spec, eps, X, gamma.values, grid, lev)
            for k, term in enumerate(terms):
                rem[ei] -= eps**k * term
        rems.append(rem)

    coarse, fine = rems
    extr = fine[..., ::2, :] + _richardson(fine, coarse)
    coarse_grid = TimeGrid.dyadic(top - 1)
    log_norms = np.array([[math.log(pvar_exact(SampledPath(coarse_grid, path), p).value)
                           for path in per_eps] for per_eps in extr])

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

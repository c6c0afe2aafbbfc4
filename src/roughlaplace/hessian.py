"""Second-order structure of the composed functional: the truncated Hessian
matrix on an explicit basis, Hilbert-Schmidt tail diagnostics of the
integration-by-parts piece R1 of the Hessian's integrand, and the
Carleman-Fredholm determinant.

Two bases appear and are never mixed: the Cameron-Martin images of the L^2
cosine modes (exactly orthonormal by unitarity) carry the Hessian matrix,
which :func:`hessian_matrix` returns as a plain array; the weighted-cosine
interpolation-space basis carries the summability diagnostics, whose
exponents come from the p/q window.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fbm import HurstParams, cm_basis, onb_interp
from .functionals import FunctionalSpec
from .odes import _matvec
from .taylor import ExpansionContext, _chi_values, _lin_sources, costate
from .variation import pvar_values

__all__ = [
    "HSTailReport",
    "hessian_matrix",
    "hs_tail",
    "det2",
    "log_det2",
]


def _sigma0_times(ctx: ExpansionContext, f_vals: np.ndarray) -> np.ndarray:
    """sigma(phi0_s) f_s, batched: (..., N, n)."""
    return _matvec(ctx.sigma0, f_vals)


def _r1_values(ctx: ExpansionContext, sigma_f: np.ndarray, dk: np.ndarray) -> np.ndarray:
    """R1<f,k> = M int M^{-1} ds< sigma(phi0) f_s, dk_s >, batched, from
    sigma_f = sigma(phi0) f (:func:`_sigma0_times`) and k's increments."""
    return ctx.solve(_lin_sources(ctx, sigma_f, dk))


def hessian_matrix(
    functional: FunctionalSpec,
    ctx: ExpansionContext,
    N: int,
    H: float,
) -> np.ndarray:
    """Hessian of F composed with the Ito map at gamma, truncated to the
    Cameron-Martin images of the first N cosine modes: the (N d, N d) array

        A[a,b] = grad F(phi0)< 2 psi(e_a, e_b) > + grad^2 F(phi0)< chi(e_a), chi(e_b) >,

    symmetrized.  The factor 2 converts the expansion-coefficient psi (half
    the second Frechet derivative of the Ito map) into the full derivative,
    so entries agree with second differences of F(Psi(.)) and the quadratic
    form z -> z' A z / 2 in the basis coordinates is the Gaussian exponent
    whose integrability is 1 + min eig > 0.

    The chi(e_a) are one batched forward solve, read as paths by grad^2 F.
    The psi part is never solved: grad F<2 psi(e_a, e_b)> is the co-state
    pairing of the unhalved polarized sources ds<chi_a, dk_b> +
    ds<chi_b, dk_a> + Q<chi_a, chi_b> (:class:`roughlaplace.taylor.CoState`),
    i.e. L + L^T + C K^T with L = dk . lin_covector(chi)^T and
    K = quad_apply(chi), three (nb x N n)(N n x nb) products.  Entries are
    per-pair sums, so the matrix inherits basis nesting exactly.
    """
    d = ctx.field.d
    k_stack = cm_basis(H, ctx.grid, N, d)  # (nb, N, d)
    nb = len(k_stack)
    chi_all = _chi_values(ctx, k_stack)

    hess_part = functional.hess(
        ctx.phi0.values, chi_all[:, None], chi_all[None, :], ctx.grid
    )

    cs = costate(ctx, functional)
    dk = np.diff(k_stack, axis=-2).reshape(nb, -1)
    lin = dk @ cs.lin_covector(chi_all).reshape(nb, -1).T
    chi_flat = chi_all.reshape(nb, -1)
    grad_part = lin + lin.T + chi_flat @ cs.quad_apply(chi_all).reshape(nb, -1).T

    A = np.asarray(grad_part + hess_part, dtype=float)
    return 0.5 * (A + A.T)


@dataclass
class HSTailReport:
    """Partial sums of squared p-variation norms of R1 over the weighted
    cosine basis, and the fitted diagonal decay exponent.

    ``increments`` are the differences of successive partial sums and
    ``increment_ratios`` the ratios of successive increments (None where an
    increment is 0).  ``tail_bound`` is the geometric estimate
    D_last * rho / (1 - rho) of what the truncated sum still misses, with
    rho the last ratio, and None when there is no ratio or rho >= 1.
    """

    N_list: list
    partial_sums: list
    fitted_tail_exponent: float
    reference_exponent: float
    increments: list
    increment_ratios: list
    tail_bound: float | None


def hs_tail(
    ctx: ExpansionContext,
    N_list=(8, 16, 32, 64),
    *,
    hurst: HurstParams,
) -> HSTailReport:
    """Summability diagnostics for R1 over the interpolation-space basis.

    Partial sums of ||R1<f_m, f_m'>||^2_{p-var} over m, m' <= N, with the
    basis in the driver dimension ``ctx.field.d``; the diagonal decay
    ||R1<f_m, f_m>||^2 ~ (1+m)^{-(4/q - 2/p)} is fitted on a log-log grid
    and compared with the window exponent.

    The off-diagonal terms decay only like (1+m')^{-2(1/q - 1/p)} along the
    integrator index, an exponent the window's 1/q - 1/p > 1/2 keeps just
    above 1.  The partial sums therefore converge like N^{-(2(1/q-1/p) - 1)}:
    at the default pair each doubling of N adds nearly as much as the one
    before (ratio 2^{1 - 2(1/q-1/p)}, about 0.97 at H = 0.4), so a large
    last-doubling change is expected, not a sign of divergence.  The report
    carries the increments between successive truncations, their ratios and
    the geometric tail bound, so a reader can see what share of the
    Hilbert-Schmidt sum the last partial sum covers.
    """
    p, q = hurst.p, hurst.q
    N_list = sorted(N_list)
    if not N_list or N_list[-1] < 4:
        raise ValueError(f"N_list must reach mode 4, the first mode of the decay fit; got {N_list}")
    n_max = N_list[-1]
    d = ctx.field.d
    f_stack = onb_interp(1.0 / q, n_max, d, ctx.grid)  # (nb, N, d)
    nb = len(f_stack)

    # R1 pair norms: one batch over the row index per column index
    sigma_f = _sigma0_times(ctx, f_stack)
    norms = np.zeros((nb, nb))
    for j in range(nb):
        dk = np.diff(f_stack[j], axis=0)
        norms[:, j] = pvar_values(_r1_values(ctx, sigma_f, dk), p)

    partial = []
    for N in N_list:
        cut = (N + 1) * d
        partial.append(float((norms[:cut, :cut] ** 2).sum()))

    # diagonal decay on modes m in [4, n_max], coordinate 0
    modes = [m for m in range(4, n_max + 1)]
    diag = [norms[m * d, m * d] ** 2 for m in modes]
    if min(diag) > 0.0:
        x = np.log1p(np.asarray(modes, dtype=float))
        ylog = np.log(np.asarray(diag))
        A = np.stack([x, np.ones_like(x)], axis=1)
        coef, *_ = np.linalg.lstsq(A, ylog, rcond=None)
    else:
        coef = [float("nan")]  # degenerate (e.g. constant sigma): no decay law
    incr = [b - a for a, b in zip(partial[:-1], partial[1:])]
    ratios = [b / a if a > 0.0 else None for a, b in zip(incr[:-1], incr[1:])]
    rho = ratios[-1] if ratios else None
    return HSTailReport(
        N_list=list(N_list),
        partial_sums=partial,
        fitted_tail_exponent=float(coef[0]),
        reference_exponent=-(4.0 / q - 2.0 / p),
        increments=incr,
        increment_ratios=ratios,
        tail_bound=incr[-1] * rho / (1.0 - rho) if rho is not None and rho < 1.0 else None,
    )


def log_det2(eigs, alpha: float) -> float:
    """log of the Carleman-Fredholm determinant prod (1 + alpha l) exp(-alpha l)."""
    lam = np.asarray(eigs, dtype=float)
    arg = alpha * lam
    bad = np.flatnonzero(1.0 + arg <= 0.0)
    if bad.size:
        raise ValueError(
            f"1 + alpha*lambda must be positive; eigenvalue {lam[bad[0]]} violates it"
        )
    return float(np.sum(np.log1p(arg) - arg))


def det2(eigs, alpha: float) -> float:
    """Carleman-Fredholm determinant det2(Id + alpha A) = prod (1+alpha l) e^{-alpha l},
    evaluated in the log domain."""
    return math.exp(log_det2(eigs, alpha))

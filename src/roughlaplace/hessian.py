"""Second-order structure of the composed functional: the bilinear forms
V1, V2 and their integration-by-parts pieces R1, R2, truncated Hessian
matrices on explicit bases, Hilbert-Schmidt tail diagnostics, and the
Carleman-Fredholm determinant.

Two bases appear and are never mixed: the Cameron-Martin images of the L^2
cosine modes (exactly orthonormal by unitarity) carry the Hessian matrix;
the weighted-cosine interpolation-space basis carries the summability
diagnostics, whose exponents come from the p/q window.
"""
from __future__ import annotations

import io
import json
import math
import zlib
from dataclasses import dataclass

import numpy as np

from .fbm import HurstParams, cm_basis, onb_interp
from .functionals import FunctionalSpec
from .grids import SampledPath
from .odes import _matvec
from .taylor import (
    ExpansionContext,
    _as_values,
    _chi_values,
    _lin_sources,
    _quad_sources,
    costate,
)
from .variation import pvar_exact

__all__ = [
    "HessianMatrix",
    "HSTailReport",
    "v_forms",
    "r_forms",
    "hessian_matrix",
    "hs_tail",
    "det2",
    "log_det2",
]


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


def _sigma0_times(ctx: ExpansionContext, f_vals: np.ndarray) -> np.ndarray:
    """sigma(phi0_s) f_s, batched: (..., N, n)."""
    return _matvec(ctx.sigma0, f_vals)


def _r1_values(ctx: ExpansionContext, f_vals: np.ndarray, dk: np.ndarray) -> np.ndarray:
    """R1<f,k> = M int M^{-1} ds< sigma(phi0) f_s, dk_s >, batched."""
    return ctx.solve(_lin_sources(ctx, _sigma0_times(ctx, f_vals), dk))


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
    R1 = _r1_values(ctx, f_vals, dk)
    g = _sigma0_times(ctx, f_vals) - _chi_values(ctx, f_vals)
    R2 = ctx.solve(_lin_sources(ctx, g, dk))
    return SampledPath(ctx.grid, R1), SampledPath(ctx.grid, R2)


@dataclass
class HessianMatrix:
    """Truncated Hessian of the composed functional on an explicit basis."""

    A: np.ndarray
    basis_meta: dict
    N: int

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.A)

    def min_eigenvalue(self) -> float:
        return float(self.eigenvalues().min())

    def nondegenerate(self) -> bool:
        """The lower-bound condition: the form stays strictly above -Id."""
        return bool(1.0 + self.min_eigenvalue() > 0.0)

    def to_csv(self) -> str:
        buf = io.StringIO()
        for row in self.A:
            buf.write(",".join(f"{v:.17g}" for v in row) + "\n")
        return buf.getvalue()

    def meta_json(self) -> str:
        return json.dumps({"N": self.N, **self.basis_meta}, indent=2, sort_keys=True)


def hessian_matrix(
    functional: FunctionalSpec,
    ctx: ExpansionContext,
    N: int,
    H: float,
) -> HessianMatrix:
    """Hessian of F composed with the Ito map at gamma, truncated to the
    Cameron-Martin images of the first N cosine modes:

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
    basis = cm_basis(H, ctx.grid, N, d)
    nb = len(basis)
    k_stack = np.stack([b.induced_path.values for b in basis])  # (nb, N, d)
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
    A = 0.5 * (A + A.T)
    return HessianMatrix(
        A=A,
        basis_meta={
            "basis": "cameron-martin images of L2 cosine modes",
            "H": H,
            "dim": d,
            "gamma_hash": zlib.crc32(ctx.gamma.values.tobytes()),
        },
        N=N,
    )


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
    n_max = N_list[-1]
    d = ctx.field.d
    basis = onb_interp(1.0 / q, n_max, d, ctx.grid)
    nb = len(basis)
    f_stack = np.stack([b.values for b in basis])  # (nb, N, d)

    # R1 pair norms: batch over the row index, loop the column index
    norms = np.zeros((nb, nb))
    for j in range(nb):
        dk = np.diff(f_stack[j], axis=0)
        vals = _r1_values(ctx, f_stack, dk)  # (nb, N, n)
        for i in range(nb):
            norms[i, j] = pvar_exact(SampledPath(ctx.grid, vals[i]), p).value

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

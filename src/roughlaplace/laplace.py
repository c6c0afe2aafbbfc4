"""Minimization of the rate functional, expansion constants, importance-sampled
Monte Carlo of the Laplace integral, expansion fitting, and the fractional
exponent ladder with its short-time transform.

The minimized objective is F(Psi(gamma)) + ||gamma||^2/2 over the truncated
Cameron-Martin cosine basis; the gradient along a basis direction e_a is the
first-order identity <e_a, gamma> + grad F(phi0)<chi(e_a)> evaluated exactly,
so no differentiation through the solver is ever needed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fbm import (
    _STREAM_MC,
    _STREAM_OPT,
    CameronMartinVector,
    FbmSampler,
    HurstParams,
    cm_basis,
    substream,
)
from .functionals import FunctionalSpec, one_functional
from .grids import SampledPath, TimeGrid
from .hessian import hessian_matrix, log_det2
from .odes import VectorFieldSpec, heun_controlled
from .taylor import (
    _chi_values,
    _theta1_values,
    costate,
    expansion_context,
)

__all__ = [
    "OptConfig",
    "LaplaceReport",
    "KappaLadder",
    "ShortTimeMap",
    "minimize_F_Lambda",
    "expansion_constants",
    "mc_laplace",
    "expansion_fit",
    "kappa_ladder",
    "short_time_transform",
]


@dataclass
class OptConfig:
    max_iters: int = 500
    grad_tol: float = 1e-7
    restarts: int = 5
    init_scale: float = 0.5
    step0: float = 1.0
    backtrack: float = 0.5
    armijo: float = 1e-4
    seed: int = 77
    restart_tol: float = 1e-4


@dataclass
class LaplaceReport:
    gamma: CameronMartinVector
    F_Lambda_min: float
    first_order_residual: float
    c_coef: float | None = None
    alpha0: float | None = None
    alpha0_se: float | None = None
    hessian_min_eig: float | None = None
    fit: dict | None = None
    flags: list = field(default_factory=list)
    # per restart (start order): accepted descent steps, rejected line-search
    # candidates and final objective value; and the largest distance of a
    # final value from the minimum
    optimizer: dict | None = None

    def to_dict(self) -> dict:
        return {
            "gamma_coeffs": self.gamma.coeffs.tolist(),
            "H": self.gamma.hurst.H,
            "F_Lambda_min": self.F_Lambda_min,
            "first_order_residual": self.first_order_residual,
            "c_coef": self.c_coef,
            "alpha0": self.alpha0,
            "alpha0_se": self.alpha0_se,
            "hessian_min_eig": self.hessian_min_eig,
            "fit": self.fit,
            "flags": self.flags,
            "optimizer": self.optimizer,
        }


# The block function of a pool worker; set by the initializer in forked
# workers only, never in the calling process.
_block_fn = None


def _init_block_worker(fn):
    """Pool initializer: bind the block function in a forked worker."""
    global _block_fn
    _block_fn = fn


def _run_block(block):
    return _block_fn(block)


def _map_blocks(fn, blocks, workers: int = 1) -> list:
    """``[fn(b) for b in blocks]``, in block order, over up to ``workers``
    processes.

    With one worker, or one block, this is the plain loop and starts no
    process.  Otherwise the blocks go to a pool of forked workers; ``fn``
    reaches them through the pool's initializer, which fork passes on
    without pickling, so ``fn`` may be a closure over unpicklable state
    (vector-field lambdas, samplers).  Only blocks and results are pickled.
    An exception raised by ``fn`` in a worker is re-raised here with its
    type, after the blocks not yet started are cancelled; a worker that
    dies raises ``BrokenProcessPool`` (``multiprocessing.Pool.map`` would
    wait for it forever).  The result is the plain loop's whenever
    ``fn(b)`` depends on b alone, which is why callers fix their blocks
    independently of ``workers``.  A forked child holds only the forking
    thread, so the caller must run no threads of its own (OpenBLAS stops
    and restarts its thread pool around a fork); the fork start method
    needs Linux or macOS.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    blocks = list(blocks)
    n_proc = min(workers, len(blocks))
    if n_proc <= 1:
        return [fn(b) for b in blocks]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(n_proc, mp_context=multiprocessing.get_context("fork"),
                               initializer=_init_block_worker, initargs=(fn,))
    try:
        return list(pool.map(_run_block, blocks))
    finally:
        pool.shutdown(cancel_futures=True)


def _gamma_from_coeffs(coeffs: np.ndarray, k_stack: np.ndarray, grid: TimeGrid) -> SampledPath:
    """The path sum_a c_a k_a from the stacked basis paths ``k_stack`` (nb, N, d)."""
    return SampledPath(grid, np.einsum("a,atd->td", coeffs.reshape(-1), k_stack))


def minimize_F_Lambda(
    functional: FunctionalSpec,
    field_spec: VectorFieldSpec,
    H: float,
    grid: TimeGrid,
    N: int,
    opt: OptConfig | None = None,
    workers: int = 1,
) -> LaplaceReport:
    """Minimize F(Psi(gamma)) + ||gamma||^2/2 over the truncated CM basis.

    Gradient descent with backtracking line search; the gradient component
    along e_a is c_a + grad F(phi0)<chi(e_a)> (orthonormality plus the
    first-order identity), read through the co-state of the evaluation's
    context as one product of the basis increments with B_sigma^T lambda
    (:meth:`roughlaplace.taylor.CoState.chi`), with no chi solve.  Multiple
    restarts probe uniqueness of the minimizer; disagreement beyond
    tolerance is flagged, not fatal, and ``report.optimizer`` records each
    restart's iterations, backtracks and final value with their spread.  Every
    start point is drawn before any descent, and the restarts run over
    ``workers`` processes (:func:`_map_blocks`), so the result does not
    depend on ``workers``.
    """
    opt = opt or OptConfig()
    d = field_spec.d
    basis = cm_basis(H, grid, N, d)
    k_stack = np.stack([b.induced_path.values for b in basis])  # (nb, N, d)
    dk_stack = np.diff(k_stack, axis=-2)
    nb = len(basis)

    def objective_grad(coeffs: np.ndarray):
        gamma = _gamma_from_coeffs(coeffs, k_stack, grid)
        ctx = expansion_context(field_spec, gamma)
        gradient = coeffs + costate(ctx, functional).chi(dk_stack)
        value = float(functional.value(ctx.phi0.values, grid)) + 0.5 * float(
            (coeffs**2).sum()
        )
        return value, gradient

    def descend(c0: np.ndarray):
        c = c0.copy()
        val, grad = objective_grad(c)
        iterations = backtracks = 0
        for _ in range(opt.max_iters):
            gnorm = float(np.abs(grad).max())
            if gnorm < opt.grad_tol:
                break
            step = opt.step0
            while step > 1e-14:
                cand = c - step * grad
                v2, g2 = objective_grad(cand)
                if v2 <= val - opt.armijo * step * float((grad**2).sum()):
                    c, val, grad = cand, v2, g2
                    iterations += 1
                    break
                step *= opt.backtrack
                backtracks += 1
            else:
                break
        return c, val, grad, iterations, backtracks

    flags = []
    rng = substream(opt.seed, _STREAM_OPT, 0)
    starts = [np.zeros(nb)] + [
        opt.init_scale * rng.standard_normal(nb) for _ in range(max(1, opt.restarts) - 1)
    ]
    solutions = _map_blocks(descend, starts, workers)
    c, val, grad, _, _ = min(solutions, key=lambda sol: sol[1])  # first of equal values
    spread = max(abs(sol[1] - val) for sol in solutions)
    if spread > opt.restart_tol * max(1.0, abs(val)):
        flags.append(
            f"restarts disagree by {spread:.3e}: minimizer may not be unique"
        )
    residual = float(np.abs(grad).max())
    if residual > opt.grad_tol * 10:
        flags.append(f"first-order residual {residual:.3e} above tolerance")

    gamma_cm = CameronMartinVector(
        coeffs=c.reshape(nb // d, d),
        induced_path=_gamma_from_coeffs(c, k_stack, grid),
        hurst=HurstParams.default(H),
    )
    report = LaplaceReport(
        gamma=gamma_cm,
        F_Lambda_min=val,
        first_order_residual=residual,
        flags=flags,
        optimizer={
            "iterations": [sol[3] for sol in solutions],
            "backtracks": [sol[4] for sol in solutions],
            "values": [sol[1] for sol in solutions],
            "spread": spread,
        },
    )
    return report


def expansion_constants(
    report: LaplaceReport,
    functional: FunctionalSpec,
    field_spec: VectorFieldSpec,
    mc_samples: int = 10_000,
    seed: int = 5150,
    G: FunctionalSpec | None = None,
    hessian_N: int = 8,
    batch: int = 2048,
    workers: int = 1,
) -> LaplaceReport:
    """Fill in the expansion constants of the Laplace asymptotics.

    a = F(phi0) + ||gamma||^2/2 (already minimized); c = grad F(phi0)<theta1>;
    alpha0 = G(phi0) E[ exp(-grad F(phi0)<phi2(X)> - grad^2 F(phi0)<phi1, phi1>/2) ]
    by Monte Carlo over driver samples, with standard error.  c and every
    grad F(phi0)<phi2(X)> come from the context's co-state
    (:class:`roughlaplace.taylor.CoState`): phi2 is never solved, and each
    sample block runs one forward solve, chi(X), for the path phi1 that
    grad^2 F reads.  When theta1 and every phi2 table of the context vanish
    (:meth:`roughlaplace.taylor.ExpansionContext.linear_in_driver`, e.g.
    constant sigma and no drift) the exponent is a Gaussian quadratic form
    and the Carleman-Fredholm closed form G(phi0) prod (1 + mu)^(-1/2) over
    the truncated Hessian eigenvalues mu applies; only then is that
    cross-check value written to ``fit['det2_closed_form']``.
    The sample blocks [lo, lo + batch) run over ``workers`` processes
    (:func:`_map_blocks`); the blocks, and so the numbers, do not depend on
    ``workers``.
    """
    if mc_samples < 2:
        raise ValueError(f"mc_samples must be at least 2 for a standard error, got {mc_samples}")
    gamma_path = report.gamma.induced_path
    H = report.gamma.hurst.H
    grid = gamma_path.grid
    ctx = expansion_context(field_spec, gamma_path)

    cs = costate(ctx, functional)
    c_coef = float(cs.pair(ctx.b_theta1))
    theta1 = _theta1_values(ctx)

    gen = FbmSampler(grid, H, field_spec.d, seed, kind=_STREAM_MC)

    def block(lo):
        X, _ = gen.batch(lo, min(lo + batch, mc_samples))
        phi1 = _chi_values(ctx, X) + theta1
        gF = cs.phi2(phi1, np.diff(X, axis=-2))
        hF = functional.hess(ctx.phi0.values, phi1, phi1, grid)
        return -(gF + 0.5 * np.asarray(hF))

    log_weights = np.concatenate(_map_blocks(block, range(0, mc_samples, batch), workers))
    w = np.exp(log_weights)
    g0 = 1.0 if G is None else float(G.value(ctx.phi0.values, grid))
    alpha0 = g0 * float(w.mean())
    alpha0_se = abs(g0) * float(w.std(ddof=1) / math.sqrt(mc_samples))

    report.c_coef = c_coef
    report.alpha0 = alpha0
    report.alpha0_se = alpha0_se
    if alpha0_se > 0.2 * abs(alpha0):
        report.flags.append("MC variance explosion: relative SE above 20%")

    eigs = hessian_matrix(functional, ctx, hessian_N, H).eigenvalues()
    report.hessian_min_eig = float(eigs.min())
    extras = {}
    if 1.0 + eigs.min() <= 0:
        report.flags.append(
            f"nondegeneracy violated: 1 + min Hessian eigenvalue = {1.0 + eigs.min():.3e} <= 0"
        )
    if 1.0 + eigs.min() > 0 and ctx.linear_in_driver():
        # E[exp(-Q)] for the Gaussian quadratic part: prod (1+mu)^(-1/2)
        # written through det2: det2(Id + 2B)^(-1/2) e^{-tr B} with B = A/2
        extras["det2_closed_form"] = g0 * math.exp(
            -0.5 * (log_det2(eigs, 1.0) + eigs.sum())
        )
    extras["hessian_eigs"] = eigs.tolist()
    report.fit = {**(report.fit or {}), **extras}
    return report


def mc_laplace(
    functional: FunctionalSpec,
    G: FunctionalSpec | None,
    field_spec: VectorFieldSpec,
    H: float,
    grid: TimeGrid,
    eps_list,
    n_samples: int,
    use_shift: bool = False,
    gamma_cm: CameronMartinVector | None = None,
    seed: int = 31,
    batch: int = 2048,
    workers: int = 1,
):
    """Monte Carlo of E[G(Y^eps) exp(-F(Y^eps)/eps^2)] for each eps.

    Without the shift, Y^eps solves the driven equation along eps-scaled fBm
    samples.  With ``use_shift`` the samples are recentered on gamma and the
    integrand picks up the change-of-measure density
    exp(-eta/eps - ||gamma||^2/(2 eps^2)) with eta the exact first-chaos
    pairing of gamma with the driver; both estimators are unbiased for the
    same quantity.  Each sample batch [lo, lo + batch) is drawn once and
    shared by every eps; the batches run over ``workers`` processes
    (:func:`_map_blocks`) and do not depend on ``workers``, so neither do the
    numbers.  Returns a list of (eps, J_hat, se, n) rows.
    """
    if n_samples < 2:
        raise ValueError(f"n_samples must be at least 2 for a standard error, got {n_samples}")
    G = G or one_functional()
    if use_shift and gamma_cm is None:
        raise ValueError("shifted sampling needs the minimizer gamma")
    gen = FbmSampler(grid, H, field_spec.d, seed, kind=_STREAM_MC,
                     gamma=gamma_cm if use_shift else None)
    norm_sq = gamma_cm.norm_sq() if use_shift else 0.0
    gamma_vals = gamma_cm.induced_path.values if use_shift else 0.0

    eps_list = list(eps_list)

    def block(lo):
        vals, eta = gen.batch(lo, min(lo + batch, n_samples))
        log_t = np.empty((len(eps_list), len(vals)))
        g_t = np.empty((len(eps_list), len(vals)))
        for e, eps in enumerate(eps_list):
            Z = eps * vals + gamma_vals
            sol = heun_controlled(
                field_spec, grid, np.diff(Z, axis=-2), np.zeros(field_spec.n), eps_beta=eps
            )
            Fv = np.asarray(functional.value(sol, grid), dtype=float)
            log_t[e] = -Fv / eps**2
            g_t[e] = np.asarray(G.value(sol, grid), dtype=float)
            if use_shift:
                log_t[e] -= eta / eps + norm_sq / (2.0 * eps**2)
        return log_t, g_t

    parts = _map_blocks(block, range(0, n_samples, batch), workers)
    log_terms = np.concatenate([p[0] for p in parts], axis=1)
    g_terms = np.concatenate([p[1] for p in parts], axis=1)
    rows = []
    for eps, lt, gt in zip(eps_list, log_terms, g_terms):
        # log-domain guard against overflow: factor out the max exponent
        mshift = lt.max()
        w = gt * np.exp(lt - mshift)
        J = math.exp(mshift) * float(w.mean()) if math.isfinite(mshift) else 0.0
        se = math.exp(mshift) * float(w.std(ddof=1) / math.sqrt(n_samples))
        rows.append((float(eps), J, se, n_samples))
    return rows


def expansion_fit(table, a: float, c: float, order: int = 2) -> dict:
    """Weighted least squares of J_hat(eps) exp(a/eps^2 + c/eps) against a
    polynomial in eps of degree ``order``.

    Returns coefficients alpha_0..alpha_order, their standard errors from the
    weighted normal equations, residuals, and the design condition number.
    """
    eps = np.array([r[0] for r in table])
    J = np.array([r[1] for r in table])
    se = np.array([r[2] for r in table])
    if len(eps) < order + 1:
        raise ValueError("not enough eps values for the requested degree")
    scale = np.exp(a / eps**2 + c / eps)
    z = J * scale
    sez = se * scale
    w = np.where(sez > 0, 1.0 / np.maximum(sez, 1e-300), 1.0)
    A = np.stack([eps**j for j in range(order + 1)], axis=1)
    Aw = A * w[:, None]
    zw = z * w
    cond = float(np.linalg.cond(Aw))
    if cond > 1e8:
        raise ValueError(f"ill-conditioned expansion fit (condition {cond:.3e})")
    coef, *_ = np.linalg.lstsq(Aw, zw, rcond=None)
    cov = np.linalg.inv(Aw.T @ Aw)
    residuals = z - A @ coef
    return {
        "order": order,
        "coefficients": coef.tolist(),
        "coefficient_se": np.sqrt(np.diag(cov)).tolist(),
        "residuals": residuals.tolist(),
        "condition": cond,
        "rescaled_values": z.tolist(),
        "rescaled_se": sez.tolist(),
    }


@dataclass
class KappaLadder:
    """Sorted exponents {n1 + n2/H} of the fractional-order expansion."""

    H: float
    indices: list

    def reconstruct(self, kappa: float, tol: float = 1e-9):
        """Return witnesses (n1, n2) with kappa = n1 + n2/H, or None."""
        for n2 in range(int(kappa * self.H) + 2):
            n1 = kappa - n2 / self.H
            if abs(n1 - round(n1)) < tol and round(n1) >= -tol:
                return int(round(n1)), n2
        return None


def kappa_ladder(H: float, count: int) -> KappaLadder:
    """First ``count`` elements of {n1 + n2/H : n1, n2 >= 0 integers}, ascending,
    duplicates merged.  H = 1/3 (where 1/H collides with the integer grid in
    every term) and H outside (1/4, 1/2) are rejected."""
    if not 0.25 < H < 0.5:
        raise ValueError("H must lie in (1/4, 1/3) or (1/3, 1/2)")
    if abs(H - 1.0 / 3.0) < 1e-12:
        raise ValueError("H = 1/3 is excluded")
    if count < 1:
        raise ValueError("count must be positive")
    vals = []
    n1_max = count + 1
    n2_max = int(count * H) + 2
    for n1 in range(n1_max + 1):
        for n2 in range(n2_max + 1):
            vals.append(n1 + n2 / H)
    vals.sort()
    merged = []
    for v in vals:
        if not merged or v - merged[-1] > 1e-9:
            merged.append(v)
    return KappaLadder(H=H, indices=merged[:count])


@dataclass
class ShortTimeMap:
    """Short-time to small-parameter dictionary: t = T gives eps = T^H and
    order kappa reports as t^(kappa H)."""

    T: float
    H: float
    eps: float

    def order_exponent(self, kappa: float) -> float:
        return kappa * self.H


def short_time_transform(T: float, H: float) -> ShortTimeMap:
    if not 0 < T <= 1:
        raise ValueError("T must lie in (0, 1]")
    return ShortTimeMap(T=T, H=H, eps=T**H)

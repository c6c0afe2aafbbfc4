"""Minimization of the rate functional, expansion constants, importance-sampled
Monte Carlo of the Laplace integral, expansion fitting, and the fractional
exponent ladder.

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
from .odes import VectorFieldSpec, _matvec, heun_controlled
from .taylor import (
    _theta1_values,
    chi_gradient,
    costate,
    expansion_context,
)

__all__ = [
    "OptConfig",
    "LaplaceReport",
    "KappaLadder",
    "minimize_F_Lambda",
    "expansion_constants",
    "mc_laplace",
    "expansion_fit",
    "kappa_ladder",
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
    # candidates and final objective value; the largest distance of a final
    # value from the minimum; and the number of batched objective evaluations
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
) -> LaplaceReport:
    """Minimize F(Psi(gamma)) + ||gamma||^2/2 over the truncated CM basis.

    Gradient descent with backtracking line search; the gradient component
    along e_a is c_a + grad F(phi0)<chi(e_a)> (orthonormality plus the
    first-order identity), read through one co-state as one product
    of the basis increments with B_sigma^T lambda
    (:func:`roughlaplace.taylor.chi_gradient`), with no chi solve.  Multiple
    restarts probe uniqueness of the minimizer; disagreement beyond
    tolerance is flagged, not fatal.

    Every start point is drawn before any descent, and the restarts run in
    lockstep: each round evaluates the candidates of all restarts still
    descending as one batch (one Heun solve for their phi0, one flow table
    and one co-state).  Each restart keeps its own point, value, gradient and step: an
    accepted candidate moves it and resets its step to ``step0``, a rejected
    one scales the step by ``backtrack`` and counts a backtrack, and it
    leaves the batch when its max-norm gradient falls below ``grad_tol``,
    after ``max_iters`` accepted steps or once its step is at most 1e-14.
    So every restart follows the trajectory it would follow alone.
    ``report.optimizer`` records each restart's iterations, backtracks and
    final value, their spread, and the number of batched evaluations,
    ``rounds``.
    """
    opt = opt or OptConfig()
    d = field_spec.d
    k_stack = cm_basis(H, grid, N, d)  # (nb, N, d)
    dk_stack = np.diff(k_stack, axis=-2)
    nb = len(k_stack)

    def evaluate(C: np.ndarray):
        """Objective values and gradients at the coefficient rows of C, in one batch."""
        # gamma row by row: the sums of a lone restart, so its trajectory is unchanged
        gammas = np.stack([_gamma_from_coeffs(c, k_stack, grid).values for c in C])
        phi0, pairing = chi_gradient(field_spec, functional, gammas, grid, dk_stack)
        values = [float(functional.value(y, grid)) + 0.5 * float((c**2).sum())
                  for y, c in zip(phi0, C)]
        return values, C + pairing

    def descending(r) -> bool:
        return not float(np.abs(grad[r]).max()) < opt.grad_tol

    rng = substream(opt.seed, _STREAM_OPT, 0)
    starts = [np.zeros(nb)] + [
        opt.init_scale * rng.standard_normal(nb) for _ in range(max(1, opt.restarts) - 1)
    ]
    c = np.stack(starts)
    val, grad = evaluate(c)
    rounds = 1
    R = len(starts)
    step = [opt.step0] * R
    iterations, backtracks = [0] * R, [0] * R
    active = [r for r in range(R) if opt.max_iters > 0 and opt.step0 > 1e-14 and descending(r)]
    while active:
        cand = np.stack([c[r] - step[r] * grad[r] for r in active])
        values, grads = evaluate(cand)
        rounds += 1
        still = []
        for r, x, v2, g2 in zip(active, cand, values, grads):
            if v2 <= val[r] - opt.armijo * step[r] * float((grad[r] ** 2).sum()):
                c[r], val[r], grad[r] = x, v2, g2
                iterations[r] += 1
                step[r] = opt.step0
                if iterations[r] < opt.max_iters and descending(r):
                    still.append(r)
            else:
                step[r] *= opt.backtrack
                backtracks[r] += 1
                if step[r] > 1e-14:
                    still.append(r)
        active = still

    flags = []
    best = min(range(R), key=val.__getitem__)  # first of equal values
    spread = max(abs(v - val[best]) for v in val)
    if spread > opt.restart_tol * max(1.0, abs(val[best])):
        flags.append(
            f"restarts disagree by {spread:.3e}: minimizer may not be unique"
        )
    residual = float(np.abs(grad[best]).max())
    if residual > opt.grad_tol * 10:
        flags.append(f"first-order residual {residual:.3e} above tolerance")

    gamma_cm = CameronMartinVector(
        coeffs=c[best].reshape(nb // d, d),
        induced_path=_gamma_from_coeffs(c[best], k_stack, grid),
        hurst=HurstParams.default(H),
    )
    report = LaplaceReport(
        gamma=gamma_cm,
        F_Lambda_min=val[best],
        first_order_residual=residual,
        flags=flags,
        optimizer={
            "iterations": iterations,
            "backtracks": backtracks,
            "values": val,
            "spread": spread,
            "rounds": rounds,
        },
    )
    return report


# Samples per Monte Carlo block.  The blocks, and so the numbers, depend on
# the sample count alone, never on ``workers``.
_MC_BLOCK = 2048
_LOG_MAX = math.log(np.finfo(float).max)


def _mc_estimate(gen: FbmSampler, n: int, n_name: str, labels, integrand,
                 workers: int) -> list:
    """(mean, se) of G exp(L) over ``n`` samples of ``gen``, one pair per label.

    ``integrand(sample)`` maps one block's draw (X, eta) of
    :meth:`FbmSampler.batch`, the samples and their first-chaos pairings, to
    (L, G), each (len(labels), block); the draw is passed as its only
    reference, so the integrand may free it.
    The blocks [lo, lo + ``_MC_BLOCK``) run over ``workers`` processes
    (:func:`_map_blocks`).  Each row averages G exp(L - m) and scales by
    exp(m), m its largest log term; an m past the float range raises
    ``ValueError`` naming the row's label.
    """
    if n < 2:
        raise ValueError(f"{n_name} must be at least 2 for a standard error, got {n}")
    parts = _map_blocks(lambda lo: integrand(gen.batch(lo, min(lo + _MC_BLOCK, n))),
                        range(0, n, _MC_BLOCK), workers)
    log_terms = np.concatenate([p[0] for p in parts], axis=1)
    g_terms = np.concatenate([p[1] for p in parts], axis=1)
    estimates = []
    for label, lt, gt in zip(labels, log_terms, g_terms):
        mshift = lt.max()
        if mshift == -np.inf:  # every term is 0
            estimates.append((0.0, 0.0))
            continue
        if mshift > _LOG_MAX:
            raise ValueError(
                f"{label} overflows: the log of its scale, the largest "
                f"log-integrand {mshift:.6g}, is past the float range ({_LOG_MAX:.6g})"
            )
        w = gt * np.exp(lt - mshift)
        scale = math.exp(mshift)
        estimates.append((scale * float(w.mean()),
                          scale * float(w.std(ddof=1) / math.sqrt(n))))
    return estimates


def expansion_constants(
    report: LaplaceReport,
    functional: FunctionalSpec,
    field_spec: VectorFieldSpec,
    mc_samples: int = 10_000,
    seed: int = 5150,
    G: FunctionalSpec | None = None,
    hessian_N: int = 8,
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
    The sample blocks run over ``workers`` processes (:func:`_mc_estimate`);
    the numbers do not depend on ``workers``.  An alpha0 past the float
    range raises ``ValueError`` naming alpha0.
    """
    gamma_path = report.gamma.induced_path
    H = report.gamma.hurst.H
    grid = gamma_path.grid
    ctx = expansion_context(field_spec, gamma_path)
    # the Hessian first: a basis or Hessian that fails does so before the
    # Monte Carlo, not after every sample solve
    eigs = np.linalg.eigvalsh(hessian_matrix(functional, ctx, hessian_N, H))

    cs = costate(ctx, functional)
    c_coef = float(cs.pair(ctx.b_theta1))
    theta1 = _theta1_values(ctx)
    g0 = 1.0 if G is None else float(G.value(ctx.phi0.values, grid))

    pairs_dX = any(t.any() for t in cs._lin)  # whether phi2 reads the increments

    def integrand(sample):
        # the increments once, for chi's source and phi2; they (where phi2
        # does not read them) and the source are dropped once spent, so the
        # block holds no more path arrays than with two np.diff calls
        dX = np.diff(sample[0], axis=-2)
        b = _matvec(ctx.B_sigma, dX)
        if not pairs_dX:
            dX = None
        phi1 = ctx.solve(b)  # chi(X)
        del b
        phi1 += theta1
        gF = cs.phi2(phi1, dX)
        hF = functional.hess(ctx.phi0.values, phi1, phi1, grid)
        return -(gF + 0.5 * np.asarray(hF))[None], np.full((1, len(phi1)), g0)

    gen = FbmSampler(grid, H, field_spec.d, seed, kind=_STREAM_MC)
    [(alpha0, alpha0_se)] = _mc_estimate(gen, mc_samples, "mc_samples", ["alpha0"],
                                         integrand, workers)

    report.c_coef = c_coef
    report.alpha0 = alpha0
    report.alpha0_se = alpha0_se
    if alpha0_se > 0.2 * abs(alpha0):
        report.flags.append("MC variance explosion: relative SE above 20%")

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
    workers: int = 1,
):
    """Monte Carlo of E[G(Y^eps) exp(-F(Y^eps)/eps^2)] for each eps.

    Without the shift, Y^eps solves the driven equation along eps-scaled fBm
    samples.  With ``use_shift`` the samples are recentered on gamma and the
    integrand picks up the change-of-measure density
    exp(-eta/eps - ||gamma||^2/(2 eps^2)) with eta the exact first-chaos
    pairing of gamma with the driver; both estimators are unbiased for the
    same quantity.  Each sample block is drawn once and shared by every eps;
    the blocks run over ``workers`` processes (:func:`_mc_estimate`) and the
    numbers do not depend on ``workers``.  Returns a list of
    (eps, J_hat, se, n) rows; an eps whose J overflows the float range
    raises ``ValueError`` naming eps and the log of J's scale.
    """
    eps_list = list(eps_list)
    if any(eps <= 0 for eps in eps_list):
        raise ValueError(f"eps_list must be positive, got {eps_list}")
    G = G or one_functional()
    if use_shift and gamma_cm is None:
        raise ValueError("shifted sampling needs the minimizer gamma")
    gen = FbmSampler(grid, H, field_spec.d, seed, kind=_STREAM_MC,
                     gamma=gamma_cm if use_shift else None)
    norm_sq = gamma_cm.norm_sq() if use_shift else 0.0
    gamma_vals = gamma_cm.induced_path.values if use_shift else None

    def integrand(sample):
        # the samples (batch, N, d) in the stepper's coordinate-major memory,
        # copied once per block: every eps's solve reads them without a
        # copy; the draw is dropped first, so the block is held once
        vals, eta = sample
        del sample
        vals = np.ascontiguousarray(vals.transpose(1, 2, 0)).transpose(2, 0, 1)
        log_t = np.empty((len(eps_list), len(vals)))
        g_t = np.empty((len(eps_list), len(vals)))
        for e, eps in enumerate(eps_list):
            sol = heun_controlled(field_spec, grid, np.zeros(field_spec.n),
                                  eps=eps, X=vals, gamma=gamma_vals)
            Fv = np.asarray(functional.value(sol, grid), dtype=float)
            log_t[e] = -Fv / eps**2
            g_t[e] = np.asarray(G.value(sol, grid), dtype=float)
            if use_shift:
                log_t[e] -= eta / eps + norm_sq / (2.0 * eps**2)
        return log_t, g_t

    estimates = _mc_estimate(gen, n_samples, "n_samples",
                             [f"J at eps = {eps}" for eps in eps_list], integrand, workers)
    return [(float(eps), J, se, n_samples) for eps, (J, se) in zip(eps_list, estimates)]


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

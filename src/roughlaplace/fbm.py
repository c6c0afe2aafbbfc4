"""Fractional Brownian motion, its Volterra kernel, and the Cameron-Martin map.

Simulation is exact at grid scale: dense Cholesky of the true covariance,
with one counter-based RNG stream per sample index, so a sample's draws do
not depend on the batch or the worker process that draws it.  The
Cameron-Martin space is handled through L^2 preimages under the Volterra
operator U, whose unitarity defines the inner product; no reproducing kernel
is ever evaluated.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import roots_jacobi

from .grids import SampledPath, TimeGrid

__all__ = [
    "HurstParams",
    "CameronMartinVector",
    "substream",
    "fbm_cov",
    "FbmSampler",
    "sample_fbm",
    "sample_fbm_ensemble",
    "volterra_kernel",
    "volterra_kernel_info",
    "cm_map",
    "cm_basis",
    "onb_interp",
]

_STREAM_FBM = 1
_STREAM_MC = 11
_STREAM_OPT = 3


def substream(seed: int, kind: int, index: int) -> np.random.Generator:
    """Independent counter-based stream for (seed, kind, index).

    Streams are separated in the Philox counter's high words, [0, 0, index,
    kind], so per-sample draws are identical no matter how samples are split
    into batches or spread over worker processes.  :class:`FbmSampler` draws
    the same streams by resetting one generator; this is their reference.
    """
    counter = (int(index) << 128) + (int(kind) << 192)
    return np.random.Generator(np.random.Philox(key=int(seed), counter=counter))


@dataclass(frozen=True)
class HurstParams:
    """Hurst exponent with the compatible (p, q) variation pair.

    For H < 1/2 the admissible window is

        1/([1/H]+1) < 1/p < H,   3/4 < 1/q < H + 1/2,
        1/p + 1/q > 1,           1/q - 1/p > 1/2,

    and the default instantiation takes 1/p = H - 2e, 1/q = H + 1/2 - e with
    e = min(0.02, (H - 1/4)/4), which keeps every inequality strict.
    """

    H: float
    p: float
    q: float

    def __post_init__(self):
        if not 0.25 < self.H <= 0.5:
            raise ValueError("H must lie in (1/4, 1/2]")
        if self.H < 0.5:
            for name, ok in self.window_checks():
                if not ok:
                    raise ValueError(f"parameter window violated: {name}")

    def window_checks(self):
        H, ip, iq = self.H, 1.0 / self.p, 1.0 / self.q
        level_cap = 1.0 / (math.floor(1.0 / H) + 1.0)
        return [
            (f"1/([1/H]+1) = {level_cap:.4g} < 1/p < H", level_cap < ip < H),
            ("3/4 < 1/q < H + 1/2", 0.75 < iq < H + 0.5),
            ("1/p + 1/q > 1", ip + iq > 1.0),
            ("1/q - 1/p > 1/2", iq - ip > 0.5),
        ]

    @classmethod
    def default(cls, H: float) -> "HurstParams":
        if H == 0.5:
            return cls(H=0.5, p=2.25, q=1.0)
        # the level cap 1/([1/H]+1) < 1/p forces a smaller margin just above 1/3
        level_cap = 1.0 / (math.floor(1.0 / H) + 1.0)
        eps = min(0.02, (H - 0.25) / 4.0, (H - level_cap) / 3.0)
        return cls(H=H, p=1.0 / (H - 2 * eps), q=1.0 / (H + 0.5 - eps))

    @property
    def delta(self) -> float:
        return 1.0 / self.q

    @property
    def level(self) -> int:
        """Tensor levels carried by the lift: [p] = 2 for H > 1/3, else 3."""
        return 2 if self.H > 1.0 / 3.0 else 3


def fbm_cov(s: float, t: float, H: float) -> float:
    """Covariance ``(t^{2H} + s^{2H} - |t-s|^{2H}) / 2`` of one fBm coordinate."""
    s, t = float(s), float(t)
    return 0.5 * (t ** (2 * H) + s ** (2 * H) - abs(t - s) ** (2 * H))


def _cov_matrix(times: np.ndarray, H: float) -> np.ndarray:
    tt = times[:, None]
    ss = times[None, :]
    return 0.5 * (tt ** (2 * H) + ss ** (2 * H) - np.abs(tt - ss) ** (2 * H))


# Relative rounding bound on a pairing's Schur complement ||gamma^i||^2 -
# ||L^{-1} g_i||^2: the triangular solve's forward error m u cond(L) stays
# below 3e-10 on uniform grids up to 1025 points for H in (1/4, 1/2].
_SCHUR_RTOL = 1e-9


class FbmSampler:
    """Exact fBm draws on one grid, batched by sample index.

    One Cholesky factor L of the grid covariance C serves every coordinate
    and batch (C is positive definite, so no jitter is ever added); sample j
    draws its normals from the Philox stream ``substream(seed, kind, j)``, so
    its numbers do not depend on how the indices are split into batches or
    over worker processes.  The streams come from one generator whose state
    is reset to each sample's counter, at about half the cost of a new
    generator per sample; so a sampler must not be shared between threads.

    With a Cameron-Martin vector ``gamma`` attached, each sample also carries
    the first-chaos pairing eta = <gamma, X> = sum_i eta_i.  Per coordinate,
    eta_i is jointly Gaussian with the path: E[eta_i X^i_t] = gamma^i_t and
    Var eta_i = ||gamma^i||^2 (the reproducing property, exact by unitarity
    through the L^2 preimage).  It is drawn conditionally on the path's
    normals z_i,

        eta_i = w_i^T z_i + sqrt(s_i) xi_i,   w_i = L^{-1} g_i,
        s_i = ||gamma^i||^2 - ||w_i||^2,

    with g_i the grid values of gamma^i and xi_i the extra last row of the
    sample's normals.  That is the last row of the augmented Cholesky factor
    of [[C, g_i], [g_i^T, ||gamma^i||^2]], so s_i = 0 (gamma^i = 0) needs no
    special case.  A Schur complement s_i below 0 by less than ``_SCHUR_RTOL``
    ||gamma^i||^2 is rounding and is clamped to 0; a more negative one means
    gamma's grid values and norm disagree, and raises ``ValueError``.
    """

    def __init__(self, grid: TimeGrid, H: float, d: int, seed: int,
                 kind: int = _STREAM_FBM, gamma: CameronMartinVector | None = None):
        times = grid.points[1:]
        self.m, self.d = len(times), d
        self.L = np.linalg.cholesky(_cov_matrix(times, H))
        # stream 0's generator and state; batch() rewrites the state's
        # counter word 2 with each sample index (word 3 holds the kind)
        self._rng = substream(seed, kind, 0)
        self._state = self._rng.bit_generator.state
        self.pairing = None
        if gamma is not None:
            w = np.linalg.solve(self.L, gamma.induced_path.values[1:])
            norm_sq = (gamma.coeffs**2).sum(axis=0)
            s = norm_sq - (w**2).sum(axis=0)
            bad = s < -_SCHUR_RTOL * norm_sq
            if bad.any():
                i = int(np.argmax(bad))
                raise ValueError(
                    f"negative Schur complement {s[i]:.3e} in the pairing of coordinate "
                    f"{i}: gamma's grid values are inconsistent with its norm "
                    f"{norm_sq[i]:.3e} beyond the rounding bound {_SCHUR_RTOL:.0e}"
                )
            # (m+1, d): per coordinate, the augmented factor's last row [w_i, sqrt(s_i)]
            self.pairing = np.vstack([w, np.sqrt(np.maximum(s, 0.0))])

    def batch(self, lo: int, hi: int):
        """Paths of samples [lo, hi) as an (n, m+1, d) array with zero first
        row, and their pairings eta (None without ``gamma``)."""
        k = self.m if self.pairing is None else self.m + 1
        Z = np.empty((hi - lo, k, self.d))
        bits, state = self._rng.bit_generator, self._state
        for j in range(hi - lo):
            state["state"]["counter"][2] = lo + j
            bits.state = state
            self._rng.standard_normal(out=Z[j])
        vals = np.zeros((hi - lo, self.m + 1, self.d))
        vals[:, 1:] = np.matmul(self.L, Z[:, : self.m])
        if self.pairing is None:
            return vals, None
        # per-sample sums in a fixed order, so batch splits cannot change eta
        eta = np.einsum("nkd,kd->n", Z, self.pairing)
        return vals, eta


def sample_fbm(grid: TimeGrid, H: float, d: int, rng_seed: int) -> SampledPath:
    """One exact d-dimensional fBm sample on ``grid`` (coordinates independent)."""
    return sample_fbm_ensemble(grid, H, d, n_samples=1, seed=rng_seed)[0]


def sample_fbm_ensemble(grid: TimeGrid, H: float, d: int, n_samples: int, seed: int) -> list:
    """Ensemble of exact fBm samples, one Philox stream per sample index."""
    vals, _ = FbmSampler(grid, H, d, seed).batch(0, n_samples)
    return [SampledPath(grid, v) for v in vals]


# ---------------------------------------------------------------------------
# Volterra kernel and the Cameron-Martin map U
# ---------------------------------------------------------------------------


def _hyp2f1_series(a: float, b: float, c: float, z, rtol: float = 1e-14, max_terms: int = 500_000):
    """Gauss hypergeometric F(a,b;c;z) by its raw power series.

    Valid for |z| < 1 (here z = 1 - s/t in [0,1)); terms stop once the
    current term falls below ``rtol`` times the partial sum.  Returns the
    value(s) and the number of terms used.
    """
    if np.ndim(z) == 0:
        zf = float(z)
        total = term = 1.0
        for n in range(max_terms):
            term *= (a + n) * (b + n) / ((c + n) * (1.0 + n)) * zf
            total += term
            if abs(term) <= rtol * abs(total):
                return total, n + 1
        raise RuntimeError(f"hypergeometric series did not converge at z={zf}")
    z = np.asarray(z, dtype=float)
    total = np.ones_like(z)
    term = np.ones_like(z)
    n_used = 0
    for n in range(max_terms):
        term = term * ((a + n) * (b + n) / ((c + n) * (1.0 + n))) * z
        total = total + term
        n_used = n + 1
        if np.all(np.abs(term) <= rtol * np.abs(total)):
            break
    else:
        raise RuntimeError("hypergeometric series did not converge")
    return total, n_used


def _volterra_scale(H: float) -> float:
    """Normalization 1/(Gamma(H+1/2) sqrt(V_H)) fixing Var w_1 = 1, where
    V_H = Gamma(2-2H) cos(pi H) / (pi H (1-2H)) and V_{1/2} = 1 by continuity."""
    if H == 0.5:
        return 1.0
    VH = math.gamma(2 - 2 * H) * math.cos(math.pi * H) / (math.pi * H * (1 - 2 * H))
    return 1.0 / (math.gamma(H + 0.5) * math.sqrt(VH))


@functools.lru_cache(maxsize=None)
def _connection_coeffs(H: float) -> tuple:
    """Gamma prefactors (A, B) of A&S 15.3.6 for a = H-1/2, b = 2H, c = H+1/2:
    A = G(c) G(c-a-b) / (G(c-a) G(c-b)) with G(c-a) = G(1) = 1, and
    B = G(c) G(a+b-c) / (G(a) G(b)); finite because c - a - b = 1 - 2H is not
    an integer for H in (1/4, 1/2)."""
    g = math.gamma
    A = g(H + 0.5) * g(1.0 - 2.0 * H) / g(0.5 - H)
    B = g(H + 0.5) * g(2.0 * H - 1.0) / (g(H - 0.5) * g(2.0 * H))
    return A, B


def _kernel_hyp2f1_branch(H: float, x, near: bool):
    """One branch of :func:`_kernel_hyp2f1` on a float or an array of x."""
    if near:
        return _hyp2f1_series(H - 0.5, 2.0 * H, H + 0.5, 1.0 - x)
    A, B = _connection_coeffs(H)
    F2, n_terms = _hyp2f1_series(1.0, 0.5 - H, 2.0 - 2.0 * H, x)
    return A * (1.0 - x) ** (0.5 - H) + B * x ** (1.0 - 2.0 * H) * F2, n_terms


def _kernel_hyp2f1(H: float, x):
    """F(H-1/2, 2H; H+1/2; 1-x) for x in (0, 1) and H in (1/4, 1/2), with the
    series term count used.

    For x >= 1/2 the raw series in 1-x.  Below, the connection formula
    A&S 15.3.6 re-expands around x = 0:

        F = A F(H-1/2, 2H; 2H; x) + B x^{1-2H} F(1, 1/2-H; 2-2H; x),

    whose first factor is (1-x)^{1/2-H} in closed form.  Either way the series
    argument is at most 1/2.  A scalar ``x`` stays in Python floats; an array
    is split at 1/2 and the term count is the larger branch's.
    """
    if np.ndim(x) == 0:
        x = float(x)
        return _kernel_hyp2f1_branch(H, x, x >= 0.5)
    x = np.asarray(x, dtype=float)
    out, n_terms = np.empty_like(x), 0
    near = x >= 0.5
    for part, is_near in ((near, True), (~near, False)):
        if part.any():
            out[part], n = _kernel_hyp2f1_branch(H, x[part], is_near)
            n_terms = max(n_terms, n)
    return out, n_terms


def volterra_kernel_info(t: float, s: float, H: float):
    """Volterra kernel value and the series term count used.

    K(t,s) = c_H (t-s)^{H-1/2} (t/s)^{1/2-H} F(H-1/2, 2H; H+1/2; 1-s/t), with
    the variance normalization c_H making int_0^{s ^ t} K(t,u) K(s,u) du the
    exact fBm covariance.  The hypergeometric factor comes from
    :func:`_kernel_hyp2f1`: its raw series in 1-s/t for s/t >= 1/2, and the
    1-z connection formula (Abramowitz & Stegun 15.3.6) around s/t = 0
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
    F, n_terms = _kernel_hyp2f1(H, s / t)
    val = _volterra_scale(H) * (t - s) ** (H - 0.5) * (t / s) ** (0.5 - H) * F
    return val, n_terms


def volterra_kernel(t: float, s: float, H: float) -> float:
    """Volterra kernel K^H(t,s) of the moving-average representation of fBm
    over Brownian motion, for 0 < s < t (0 for s >= t)."""
    return volterra_kernel_info(t, s, H)[0]


class _KernelQuadrature:
    """Gauss-Jacobi rule absorbing both endpoint singularities of the kernel.

    Substituting s = t x turns int_0^t K(t,s) h(s) ds into
    t^{H+1/2} c_H int_0^1 (1-x)^{H-1/2} x^{H-1/2} F(...; 1-x) h(t x) dx,
    which the Jacobi(H-1/2, H-1/2) weight integrates accurately for smooth h
    times the hypergeometric factor.
    """

    block = 32  # grid points per h_eval call in apply: keeps the node arrays small

    def __init__(self, H: float, n_nodes: int = 96):
        self.H = H
        alpha = H - 0.5
        xs, ws = roots_jacobi(n_nodes, alpha, alpha)
        self.x = (xs + 1.0) / 2.0
        self.w = ws * 2.0 ** (-(2.0 * alpha + 1.0))
        if H == 0.5:
            self.F = np.ones_like(self.x)
        else:
            self.F, _ = _kernel_hyp2f1(H, self.x)
        self.scale = _volterra_scale(H)

    def apply(self, grid: TimeGrid, h_eval) -> np.ndarray:
        """Values of (U h) on the grid; ``h_eval(times)`` -> (len(times), k).

        ``h_eval`` is called on the quadrature nodes of ``block`` grid points
        at a time; the value at t = 0 is 0.
        """
        t = grid.points
        acc = []
        for lo in range(0, len(t), self.block):
            tb = t[lo:lo + self.block]
            hv = np.asarray(h_eval(np.outer(tb, self.x).ravel()), dtype=float)
            hv = hv.reshape(len(tb), len(self.x), -1)
            acc.append(np.einsum("m,m,tmk->tk", self.w, self.F, hv))
        # scalar powers keep libm's rounding (numpy's vectorized power may differ by an ulp)
        pre = np.array([ti ** (self.H + 0.5) * self.scale for ti in t])
        return np.where(t[:, None] > 0.0, pre[:, None] * np.concatenate(acc), 0.0)


_quad_cache: dict = {}


def _kernel_quadrature(H: float) -> _KernelQuadrature:
    if H not in _quad_cache:
        _quad_cache[H] = _KernelQuadrature(H)
    return _quad_cache[H]


def _cosine_design(ts, n_modes: int) -> np.ndarray:
    """Cosine modes at the times ``ts``: columns 1 and sqrt(2) cos(n pi t)."""
    basis = np.outer(np.atleast_1d(ts), np.arange(n_modes) * math.pi)
    np.cos(basis, out=basis)
    basis[:, 1:] *= math.sqrt(2.0)
    return basis


def _cosine_eval(coeffs: np.ndarray):
    """h(t) = c_0 + sum_n c_n sqrt(2) cos(n pi t), per coordinate."""
    return lambda ts: _cosine_design(ts, coeffs.shape[0]) @ coeffs


@dataclass
class CameronMartinVector:
    """k = U h with h recorded by its L^2 cosine coefficients.

    ``coeffs[n, i]`` multiplies the n-th cosine mode (mode 0 is the constant)
    in coordinate i.  The Cameron-Martin inner product is the L^2 inner
    product of preimages, so unitarity of U holds by construction.
    """

    coeffs: np.ndarray
    induced_path: SampledPath
    hurst: HurstParams

    @property
    def dim(self) -> int:
        return self.coeffs.shape[1]

    def norm_sq(self) -> float:
        return float((self.coeffs**2).sum())

    def inner(self, other: "CameronMartinVector") -> float:
        a, b = self.coeffs, other.coeffs
        n = min(a.shape[0], b.shape[0])
        return float((a[:n] * b[:n]).sum())


def cm_map(h, H: float, grid: TimeGrid) -> CameronMartinVector:
    """Cameron-Martin path ``k_t = int_0^t K^H(t,s) h_s ds`` on the grid, for
    ``h`` given by an (n_modes, d) array of cosine coefficients.
    """
    params = HurstParams.default(H)
    coeffs = np.atleast_2d(np.asarray(h, dtype=float))
    if coeffs.ndim != 2:
        raise ValueError("coefficients must be (n_modes, d)")
    vals = _kernel_quadrature(H).apply(grid, _cosine_eval(coeffs))
    return CameronMartinVector(
        coeffs=coeffs, induced_path=SampledPath(grid, vals), hurst=params
    )


def cm_basis(H: float, grid: TimeGrid, n_modes: int, d: int) -> list:
    """U applied to the L^2 cosine orthonormal basis (modes 0..n_modes-1).

    The images are exactly orthonormal in the Cameron-Martin inner product
    by unitarity.  Returned in mode-major order: (mode 0, coord 0), (mode 0,
    coord 1), ..., (mode 1, coord 0), ...
    """
    if n_modes < 1:
        raise ValueError(f"n_modes must be at least 1, got {n_modes}")
    images = _kernel_quadrature(H).apply(grid, lambda ts: _cosine_design(ts, n_modes))
    hurst = HurstParams.default(H)
    out = []
    for n in range(n_modes):
        for i in range(d):
            coeffs = np.zeros((n_modes, d))
            coeffs[n, i] = 1.0
            vals = np.zeros((len(grid), d))
            vals[:, i] = images[:, n]
            out.append(
                CameronMartinVector(
                    coeffs=coeffs, induced_path=SampledPath(grid, vals), hurst=hurst
                )
            )
    return out


def onb_interp(delta: float, n_max: int, d: int, grid: TimeGrid) -> list:
    """Orthonormal basis of the interpolation space L^{delta,2}, sampled.

    Members are 1*e_i and sqrt(2) (1+n^2)^{-delta/2} cos(n pi t) e_i for
    n = 1..n_max, returned as SampledPaths in the same mode-major order as
    :func:`cm_basis`.
    """
    if not 0.5 < delta < 1.0:
        raise ValueError("delta must lie in (1/2, 1)")
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    t = grid.points
    out = []
    for n in range(n_max + 1):
        if n == 0:
            profile = np.ones_like(t)
        else:
            profile = math.sqrt(2.0) * (1.0 + n**2) ** (-delta / 2.0) * np.cos(n * math.pi * t)
        for i in range(d):
            vals = np.zeros((len(t), d))
            vals[:, i] = profile
            out.append(SampledPath(grid, vals))
    return out

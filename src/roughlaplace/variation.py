"""Variation, Hölder and Besov norms on sampled paths, plus dyadic coarsening.

p-variation is taken over sub-partitions of the sample grid.  For paths that
are piecewise monotone between samples (cosines sampled at extrema, dyadic
polygons at their breakpoints) this equals the continuous-time value; in
general it is a lower bound, and refinement diagnostics are the caller's tool
for judging closeness.

For a scalar path in the default norm, :func:`pvar_exact` runs the dynamic
program on the path's turning points only (Butkus & Norvaisa, "Computation of
p-variation", Lith. Math. J. 58, 2018).  This is exact for every p >= 1,
because dropping a monotone interior sample never lowers a sum of p-th powers
of increments.  Vector paths and custom norms use the full grid program.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import SampledPath, TimeGrid

__all__ = [
    "VariationResult",
    "pvar_exact",
    "pvar_backbone",
    "pvar_jogfree",
    "cosine_pvar",
    "holder_norm",
    "besov_norm",
    "dyadic_approx",
]


@dataclass
class VariationResult:
    """Value of a grid p-variation together with a maximising partition."""

    value: float
    optimal_partition: list

    def partition_sum(self, weights: np.ndarray, p: float) -> float:
        """Recompute ``(sum |increment|^p)^(1/p)`` along the stored partition."""
        s = 0.0
        pts = self.optimal_partition
        for a, b in zip(pts[:-1], pts[1:]):
            s = s + weights[a, b] ** p
        return s ** (1.0 / p)


def _increment_norms(values: np.ndarray, norm=None) -> np.ndarray:
    """Pairwise increment magnitudes ``|x_j - x_i|`` as an (N, N) array."""
    diffs = values[None, :, :] - values[:, None, :]
    if norm is None:
        return np.sqrt(np.einsum("ijk,ijk->ij", diffs, diffs))
    return np.asarray(norm(diffs), dtype=float)


def pvar_backbone(weights: np.ndarray, p: float) -> VariationResult:
    """Dynamic program for the grid p-variation of a two-parameter increment.

    ``weights[i, j]`` is the magnitude assigned to the pair ``i < j``.  The
    supremum runs over all index chains ``0 = a_0 < ... < a_m = N-1``; ties
    are broken towards fewer partition points so golden outputs are stable.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    n = weights.shape[0]
    if n < 2:
        raise ValueError("need at least two grid points")
    w = weights**p
    best = np.full(n, -np.inf)
    counts = np.zeros(n, dtype=int)
    prev = np.zeros(n, dtype=int)
    best[0] = 0.0
    counts[0] = 1
    for j in range(1, n):
        cand = best[:j] + w[:j, j]
        m = cand.max()
        ties = np.flatnonzero(cand == m)
        i = ties[np.argmin(counts[ties])]
        best[j] = best[i] + w[i, j]
        counts[j] = counts[i] + 1
        prev[j] = i
    partition = [n - 1]
    while partition[-1] != 0:
        partition.append(int(prev[partition[-1]]))
    partition.reverse()
    return VariationResult(value=best[-1] ** (1.0 / p), optimal_partition=partition)


def _turning_points(x: np.ndarray) -> np.ndarray:
    """Index 0, the last index and the first index of every strict turn of ``x``.

    A run of equal values counts as one sample, at its first index.
    """
    d = np.diff(x)
    moves = np.flatnonzero(d)
    up = d[moves] > 0.0
    turns = moves[:-1][up[1:] != up[:-1]] + 1
    return np.concatenate([[0], turns, [x.size - 1]])


def pvar_exact(path: SampledPath, p: float, norm=None) -> VariationResult:
    """Grid p-variation ``sup_P (sum |x_{t_i} - x_{t_{i-1}}|^p)^(1/p)``.

    Exact over sub-partitions of the sample grid (dynamic program over grid
    indices); a lower bound for the continuous-time supremum otherwise.
    Increments are measured in the Euclidean norm unless ``norm`` is given.

    A scalar path with the default norm is first reduced to its turning
    points (:func:`_turning_points`), and the dynamic program runs on those
    alone.  The supremum is unchanged.  Take a partition point that is not a
    turning point, with partition neighbours valued a and b.  If its value f
    lies between a and b, dropping it never lowers the sum: for p >= 1,
    f -> |f - a|^p + |b - f|^p is convex, so it is largest at an end, where
    it equals |b - a|^p.  Otherwise it is a partition maximum or minimum,
    and moving it to the top or bottom of its monotone stretch, which lies
    between its neighbours in time, shrinks neither increment.  The returned
    partition is mapped back to grid indices.  A flat run enters through its
    first index, which is also where the full dynamic program's tie-breaking
    (fewest points, then earliest index) puts it.

    Two floating-point ties can make the partition differ from the full grid
    program's.  When a monotone sample lies within rounding of a turning
    value, both routes give the same value, and the full program may keep the
    monotone sample, the earlier index.  At p = 1 every monotone sample ties
    in exact arithmetic, so on non-integer data the full program's choice,
    and its value in the last bits, is decided by rounding.
    """
    values = path.values
    if values.shape[1] == 1 and norm is None:
        kept = _turning_points(values[:, 0])
        res = pvar_backbone(_increment_norms(values[kept]), p)
        res.optimal_partition = [int(kept[i]) for i in res.optimal_partition]
        return res
    return pvar_backbone(_increment_norms(values, norm), p)


def pvar_jogfree(extrema_values, p: float) -> float:
    """p-variation of a jog-free path from its values at the extrema.

    The sequence must start at 0, alternate strictly between local maxima and
    minima, and every interior extremum must be a forward extremum (no later
    value exceeds a maximum / undercuts a minimum).  Violations are rejected:
    the closed form ``(sum |x_{s_i} - x_{s_{i-1}}|^p)^(1/p)`` does not apply.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    x = np.asarray(extrema_values, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise ValueError("need a 1-d sequence with at least two values")
    if x[0] != 0.0:
        raise ValueError("jog-free paths start at 0")
    d = np.diff(x)
    if np.any(d == 0.0):
        raise ValueError("not jog-free: repeated value between extrema")
    if np.any(d[:-1] * d[1:] >= 0.0):
        raise ValueError("not jog-free: values do not alternate at extrema")
    for i in range(1, x.size - 1):
        tail = x[i:]
        is_max = x[i] > x[i - 1]
        if is_max and x[i] < tail.max():
            raise ValueError(f"not jog-free: index {i} is not a forward maximum")
        if not is_max and x[i] > tail.min():
            raise ValueError(f"not jog-free: index {i} is not a forward minimum")
    return float((np.abs(d) ** p).sum() ** (1.0 / p))


def cosine_pvar(n: int, p: float) -> float:
    """p-variation of ``cos(n pi t) - 1`` on [0,1]: exactly ``2 n^(1/p)``."""
    if n < 1 or int(n) != n:
        raise ValueError("n must be a positive integer")
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    return 2.0 * float(n) ** (1.0 / p)


def holder_norm(path: SampledPath, alpha: float) -> float:
    """``|k_0| + max_{s<t} |k_t - k_s| / (t - s)^alpha`` over grid pairs."""
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0,1)")
    t = path.grid.points
    gaps = t[None, :] - t[:, None]
    norms = _increment_norms(path.values)
    iu = np.triu_indices(len(t), k=1)
    ratio = norms[iu] / gaps[iu] ** alpha
    return float(np.linalg.norm(path.values[0]) + ratio.max())


def besov_norm(path: SampledPath, delta: float, p: float) -> float:
    """Fractional Sobolev (Besov) norm

        ||k||_{L^p} + ( iint |k_t - k_s|^p / |t-s|^(1 + delta p) ds dt )^(1/p)

    by trapezoidal quadrature on the grid product.  Cells within one step of
    the diagonal are integrated in closed form with the local chord slope
    standing in for the increment ratio (the integrand's diagonal limit),
    which keeps the integrable singularity's bias controlled.
    """
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0,1)")
    if p <= 1:
        raise ValueError("p must be > 1")
    t = path.grid.points
    v = path.values
    n = len(t)
    if n < 3:
        raise ValueError("grid too coarse for the double integral")

    mag = np.sqrt((v * v).sum(axis=1))
    lp = float(np.trapezoid(mag**p, t) ** (1.0 / p))

    a = p - 1.0 - delta * p  # |t-s|^a is the residual weight, a > -1

    def psi(u):
        return np.abs(u) ** (a + 2.0) / ((a + 1.0) * (a + 2.0))

    # corner values of the integrand, diagonal untouched (masked below)
    norms = _increment_norms(v)
    gaps = np.abs(t[None, :] - t[:, None])
    with np.errstate(divide="ignore", invalid="ignore"):
        g = norms**p / gaps ** (1.0 + delta * p)
    np.fill_diagonal(g, 0.0)

    total = 0.0
    band = np.zeros((n - 1, n - 1), dtype=bool)
    idx = np.arange(n - 1)
    for off in (-1, 0, 1):
        sel = (idx + off >= 0) & (idx + off < n - 1)
        band[idx[sel], idx[sel] + off] = True

    # far cells: 2-d trapezoid from the four corners
    cw_s = np.diff(t)
    corner = 0.25 * (g[:-1, :-1] + g[1:, :-1] + g[:-1, 1:] + g[1:, 1:])
    area = cw_s[:, None] * cw_s[None, :]
    total += float((corner * area)[~band].sum())

    # band cells: chord slope times the exact cell integral of |t-s|^a
    for i in range(n - 1):
        for j in (i - 1, i, i + 1):
            if not 0 <= j <= n - 2:
                continue
            lo, hi = min(i, j), max(i, j)
            chord = (v[hi + 1] - v[lo]) / (t[hi + 1] - t[lo])
            speed = np.sqrt((chord * chord).sum())
            x0, x1, y0, y1 = t[i], t[i + 1], t[j], t[j + 1]
            cell = -(psi(y1 - x1) - psi(y0 - x1) - psi(y1 - x0) + psi(y0 - x0))
            total += speed**p * cell

    if not np.isfinite(total):
        raise ValueError("Besov double integral is not finite on this input")
    return lp + float(total ** (1.0 / p))


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
    """Restrict a path on a dyadic grid to the coarser dyadic grid 2**level.

    Unlike :func:`dyadic_approx` this drops the intermediate samples instead
    of resampling, so the result lives on the coarse grid.
    """
    grid = TimeGrid.dyadic(level)
    idx = [path.grid.index_of(t) for t in grid.points]
    return SampledPath(grid, path.values[idx])

"""Grid p-variation of sampled paths, plus dyadic coarsening.

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
    "cosine_pvar",
    "dyadic_approx",
    "dyadic_level",
    "restrict_dyadic",
    "coarsen_dyadic",
]


@dataclass
class VariationResult:
    """Value of a grid p-variation together with a maximising partition."""

    value: float
    optimal_partition: list


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


def cosine_pvar(n: int, p: float) -> float:
    """p-variation of ``cos(n pi t) - 1`` on [0,1]: exactly ``2 n^(1/p)``."""
    if n < 1 or int(n) != n:
        raise ValueError("n must be a positive integer")
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    return 2.0 * float(n) ** (1.0 / p)


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


def dyadic_level(grid: TimeGrid) -> int:
    """The level m of a uniform grid of 2**m steps; ValueError for any other grid."""
    level = grid.n_steps.bit_length() - 1
    if grid.n_steps != 2**level or not grid.is_uniform():
        uneven = "" if grid.is_uniform() else "unequal "
        raise ValueError(f"expected a uniform dyadic grid, got {grid.n_steps} {uneven}steps")
    return level


def restrict_dyadic(values: np.ndarray, grid: TimeGrid, level: int) -> np.ndarray:
    """The samples (..., 2**level + 1, dim) of ``values`` (..., len(grid), dim)
    on dyadic level ``level``: every 2**(m - level)-th sample of the level-m
    uniform dyadic ``grid``, as a strided view.  Leading axes batch."""
    top = dyadic_level(grid)
    if not 0 <= level <= top:
        raise ValueError(f"level must lie in [0, {top}], got {level}")
    return values[..., :: 2 ** (top - level), :]


def coarsen_dyadic(path: SampledPath, level: int) -> SampledPath:
    """Restrict a path on a uniform dyadic grid to the coarser dyadic grid
    2**level (:func:`restrict_dyadic`).

    Unlike :func:`dyadic_approx` this drops the intermediate samples instead
    of resampling, so the result lives on the coarse grid.
    """
    return SampledPath(TimeGrid.dyadic(level), restrict_dyadic(path.values, path.grid, level))

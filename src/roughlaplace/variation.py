"""Grid p-variation of sampled paths, and the dyadic grid levels.

p-variation is taken over sub-partitions of the sample grid.  For paths that
are piecewise monotone between samples (cosines sampled at extrema, dyadic
polygons at their breakpoints) this equals the continuous-time value; in
general it is a lower bound, and refinement diagnostics are the caller's tool
for judging closeness.

One dynamic program (:func:`_chain_dp`) serves every caller and batches over
paths: its Python loop runs once per grid index for a whole stack of them.
:func:`pvar_values` is the batched entry for paths (..., N, dim);
:func:`pvar_exact` runs it on one path and returns a maximising partition.
Increments are measured in the Euclidean norm.

For a scalar path the dynamic program runs on the path's turning points only
(Butkus & Norvaisa, "Computation of p-variation", Lith. Math. J. 58, 2018).
This is exact for every p >= 1, because dropping a monotone interior sample
never lowers a sum of p-th powers of increments.  Vector paths use the full
grid program.

:func:`restrict_dyadic` keeps the samples of one coarser level of a uniform
dyadic grid, for the dyadic ladder of :mod:`roughlaplace.taylor`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import SampledPath, TimeGrid

__all__ = [
    "VariationResult",
    "pvar_exact",
    "pvar_values",
    "cosine_pvar",
    "dyadic_level",
    "restrict_dyadic",
]


@dataclass
class VariationResult:
    """Value of a grid p-variation together with a maximising partition."""

    value: float
    optimal_partition: list


def _chain_dp(column, lead: tuple, n: int, p: float):
    """The p-variation dynamic program: one loop for a batch of paths.

    ``column(j)`` gives, for the B = prod(lead) paths, the p-th powers (B, j)
    of the weights of the pairs (i, j), i < j.  For each path the supremum of
    their sum runs over index chains ``0 = a_0 < ... < a_m = n - 1``.  Ties
    go to the largest sum, then the fewest points, then the earliest index,
    so golden outputs are stable.

    Returns ``(values, prev)``: the p-variations (lead) and the back
    pointers (lead + (n,)), ``prev[..., j]`` being the point before j on the
    best chain ending at j.  The 1/p root is taken path by path in scalar
    arithmetic, because numpy's vectorized power may differ from libm's by
    an ulp.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    rows = np.arange(math.prod(lead))
    best = np.full((rows.size, n), -np.inf)
    counts = np.zeros((rows.size, n), dtype=int)
    prev = np.zeros((rows.size, n), dtype=int)
    best[:, 0] = 0.0
    counts[:, 0] = 1
    for j in range(1, n):
        cand = best[:, :j] + column(j)
        m = cand.max(axis=1)
        i = np.where(cand == m[:, None], counts[:, :j], n + 1).argmin(axis=1)
        best[:, j] = m
        counts[:, j] = counts[rows, i] + 1
        prev[:, j] = i
    values = np.array([s ** (1.0 / p) for s in best[:, -1]])
    if np.isnan(values).any():  # a NaN weight passes through max into every later sum
        raise ValueError("increment magnitudes contain NaN")
    return values.reshape(lead), prev.reshape(lead + (n,))


def _turning_points(x: np.ndarray):
    """Turning points of each row of ``x`` (B, N): index 0, the first index
    of every strict turn, and the last index.

    A run of equal values counts as one sample, at its first index.  Returns
    ``idx`` (B, n), each row's points padded to the longest list by
    repeating the last index.
    """
    B, N = x.shape
    d = np.diff(x, axis=1)
    rows, moves = np.nonzero(d)  # row-major: a row's moves are consecutive
    up = d[rows, moves] > 0.0
    turn = (rows[1:] == rows[:-1]) & (up[1:] != up[:-1])
    rows, turns = rows[:-1][turn], moves[:-1][turn] + 1
    n_turns = np.bincount(rows, minlength=B)
    idx = np.full((B, n_turns.max() + 2), N - 1)
    idx[:, 0] = 0
    first = np.cumsum(n_turns) - n_turns  # each row's first entry in ``turns``
    idx[rows, np.arange(rows.size) - first[rows] + 1] = turns
    return idx


def _path_dp(values: np.ndarray, p: float):
    """:func:`_chain_dp` on paths (..., N, dim), N >= 2, in the Euclidean
    norm.  Returns ``(values, prev, idx)``.

    A scalar batch runs on each path's turning points, padded to the longest
    list by repeating its last sample (:func:`_turning_points`); ``idx``
    (B, n) maps the points to grid indices, B paths in row-major order of
    the leading axes.  Every padded column adds an exact 0 to a chain
    through the path's last point, so the value at the last column equals
    the value at the path's own end, bit for bit.  Otherwise the program
    runs on the full grid and ``idx`` is None.  Each column of weights is
    formed as the loop reaches it, so no (N, N) array is stored.
    """
    lead, N = values.shape[:-2], values.shape[-2]
    if N < 2:
        raise ValueError("need at least two grid points")
    points, idx = values, None
    if values.shape[-1] == 1:
        x = values.reshape(-1, N)
        if np.isnan(x).any():  # the reduction could drop the NaN sample
            raise ValueError("path values contain NaN")
        idx = _turning_points(x)
        points = np.take_along_axis(x, idx, axis=1).reshape(lead + (idx.shape[1], 1))
    flat = points.reshape((-1,) + points.shape[-2:])

    def column(j):
        diffs = flat[:, j, None, :] - flat[:, :j, :]  # x_j - x_i
        return np.sqrt(np.einsum("...k,...k->...", diffs, diffs)) ** p

    return _chain_dp(column, points.shape[:-2], points.shape[-2], p) + (idx,)


def pvar_values(values, p: float) -> np.ndarray:
    """Grid p-variations (...) of the paths ``values`` (..., N, dim), one
    dynamic program for the whole batch.

    Each entry equals ``pvar_exact`` of that path alone, bit for bit
    (:func:`_path_dp`).
    """
    return _path_dp(np.asarray(values, dtype=float), p)[0]


def pvar_exact(path: SampledPath, p: float) -> VariationResult:
    """Grid p-variation ``sup_P (sum |x_{t_i} - x_{t_{i-1}}|^p)^(1/p)``.

    Exact over sub-partitions of the sample grid (dynamic program over grid
    indices); a lower bound for the continuous-time supremum otherwise.
    Increments are measured in the Euclidean norm.

    A scalar path is first reduced to its turning points
    (:func:`_turning_points`), and the dynamic program runs on those alone.
    The supremum is unchanged.  Take a partition point that is not a
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
    value, prev, idx = _path_dp(path.values, p)
    partition = [len(prev) - 1]
    while partition[-1] != 0:
        partition.append(int(prev[partition[-1]]))
    partition.reverse()
    if idx is not None:
        partition = [int(idx[0, i]) for i in partition]
    return VariationResult(value=value[()], optimal_partition=partition)


def cosine_pvar(n: int, p: float) -> float:
    """p-variation of ``cos(n pi t) - 1`` on [0,1]: exactly ``2 n^(1/p)``."""
    if n < 1 or int(n) != n:
        raise ValueError("n must be a positive integer")
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    return 2.0 * float(n) ** (1.0 / p)


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

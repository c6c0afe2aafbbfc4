"""Grid p-variation of sampled paths, and the dyadic grid levels.

p-variation is taken over sub-partitions of the sample grid.  For paths that
are piecewise monotone between samples (cosines sampled at extrema, dyadic
polygons at their breakpoints) this equals the continuous-time value; in
general it is a lower bound, and refinement diagnostics are the caller's tool
for judging closeness.

One dynamic program (:func:`_chain_dp`) serves every caller and batches over
paths: its Python loop runs once per grid index for a whole stack of them.
Increments are measured in the Euclidean norm.  The two entry points:

- :func:`pvar_values` computes values only, for a stack of paths
  (..., N, dim): no tie counts and no back pointers, since the maximum does
  not depend on which maximiser is kept.  The Hilbert-Schmidt diagnostics,
  the Taylor remainder slopes and the CLI's ``pvar`` kind use it.
- :func:`pvar_exact` computes the value of one path together with a
  maximising partition, the one caller that asks the program for back
  pointers and its tie rule.

For a scalar path the dynamic program runs on the path's turning points only
(Butkus & Norvaisa, "Computation of p-variation", Lith. Math. J. 58, 2018).
This is exact for every p >= 1, because dropping a monotone interior sample
never lowers a sum of p-th powers of increments.  Vector paths use the full
grid program.

:func:`restrict_dyadic` keeps the samples of one coarser level of a uniform
dyadic grid, for the dyadic ladder of :mod:`roughlaplace.taylor`.
"""
from __future__ import annotations

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


def _chain_dp(column, B: int, n: int, p: float, pointers: bool = False):
    """The p-variation dynamic program: one loop for a batch of B paths.

    ``column(j)`` gives, for the B paths, the p-th powers (B, j) of the
    weights of the pairs (i, j), i < j, as a fresh array the program adds
    into.  For each path the supremum of their sum runs over index chains
    ``0 = a_0 < ... < a_m = n - 1``; the maximum does not depend on which
    maximiser is kept.

    Returns ``(values, prev)``: the p-variations (B,) and, with
    ``pointers``, the back pointers (B, n), ``prev[:, j]`` being the point
    before j on the best chain ending at j (None otherwise).  Ties among
    chains go to the largest sum, then the fewest points, then the earliest
    index, so golden partitions are stable.  The 1/p root is taken path by
    path in scalar arithmetic, because numpy's vectorized power may differ
    from libm's by an ulp.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    best = np.empty((B, n))
    best[:, 0] = 0.0
    prev = None
    if pointers:
        rows = np.arange(B)
        counts = np.ones((B, n), dtype=int)
        prev = np.zeros((B, n), dtype=int)
    for j in range(1, n):
        cand = column(j)
        cand += best[:, :j]
        m = cand.max(axis=1)
        best[:, j] = m
        if pointers:
            i = np.where(cand == m[:, None], counts[:, :j], n + 1).argmin(axis=1)
            counts[:, j] = counts[rows, i] + 1
            prev[:, j] = i
    values = np.array([s ** (1.0 / p) for s in best[:, -1]])
    if np.isnan(values).any():  # a NaN weight passes through max into every later sum
        raise ValueError("increment magnitudes contain NaN")
    return values, prev


def _weights(pts: np.ndarray, p: float):
    """``column(j)`` for :func:`_chain_dp`: the weights |x_j - x_i|^p, i < j,
    of scalar rows (B, n) or vector paths (B, n, dim), one column at a time,
    so no (n, n) array is stored.  A scalar |d| equals the Euclidean
    sqrt(d * d) bit for bit in binary64 unless d * d underflows or overflows.
    """
    def column(j):
        w = pts[:, j, None] - pts[:, :j]
        if w.ndim == 3:
            w = np.sqrt(np.einsum("...k,...k->...", w, w))
        else:
            np.abs(w, out=w)
        w **= p
        return w

    return column


def _turning_points(x: np.ndarray) -> np.ndarray:
    """Turning points of each row of ``x`` (B, N): index 0, the first index
    of every strict turn, and the last index.

    A run of equal values counts as one sample, at its first index.  Returns
    ``idx`` (B, n), each row's points padded to the longest list by
    repeating the last index.
    """
    B, N = x.shape
    if np.isnan(x).any():  # the reduction could drop the NaN sample
        raise ValueError("path values contain NaN")
    d = np.diff(x, axis=1)
    rows, moves = np.nonzero(d)  # row-major: a row's moves are consecutive
    up = d[rows, moves] > 0.0
    turn = (rows[1:] == rows[:-1]) & (up[1:] != up[:-1])
    rows, turns = rows[:-1][turn], moves[:-1][turn] + 1
    n_turns = np.bincount(rows, minlength=B)
    idx = np.full((B, n_turns.max(initial=0) + 2), N - 1)
    idx[:, 0] = 0
    first = np.cumsum(n_turns) - n_turns  # each row's first entry in ``turns``
    idx[rows, np.arange(rows.size) - first[rows] + 1] = turns
    return idx


def _dp_points(flat: np.ndarray):
    """The grid indices and the points the dynamic program runs on, for a
    stack of paths ``flat`` (B, N, dim).

    A scalar stack runs on each row's turning points (:func:`_turning_points`):
    returns ``idx`` (B, n) and the points (B, n), each row padded to the
    longest by repeating its last sample.  A padded column adds an exact 0 to
    a chain through the row's last point, so the value at the last column
    equals the value at the row's own end, bit for bit.  Vector paths run on
    the full grid: ``arange(N)`` and the paths themselves.
    """
    if flat.shape[-1] != 1:
        return np.arange(flat.shape[1]), flat
    x = flat[..., 0]
    idx = _turning_points(x)
    return idx, np.take_along_axis(x, idx, axis=1)


def pvar_values(values, p: float) -> np.ndarray:
    """Grid p-variations (...) of the paths ``values`` (..., N, dim), values
    only: one dynamic program for the whole stack, and no partition is
    traced (:func:`_dp_points` gives the points it runs on).  Each entry
    equals ``pvar_exact`` of that path alone, bit for bit.
    """
    values = np.asarray(values, dtype=float)
    lead, N = values.shape[:-2], values.shape[-2]
    if N < 2:
        raise ValueError("need at least two grid points")
    flat = values.reshape((-1,) + values.shape[-2:])
    points = _dp_points(flat)[1]
    return _chain_dp(_weights(points, p), len(flat), points.shape[1], p)[0].reshape(lead)


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
    idx, points = _dp_points(path.values[None])
    idx = idx.reshape(-1)
    value, prev = _chain_dp(_weights(points, p), 1, len(idx), p, pointers=True)
    partition = [len(idx) - 1]
    while partition[-1] != 0:
        partition.append(int(prev[0, partition[-1]]))
    partition.reverse()
    return VariationResult(value=value[0], optimal_partition=[int(idx[i]) for i in partition])


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

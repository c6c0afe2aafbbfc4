"""Grid p-variation of sampled paths, and the dyadic grid levels.

p-variation is taken over sub-partitions of the sample grid.  For paths that
are piecewise monotone between samples (cosines sampled at extrema, dyadic
polygons at their breakpoints) this equals the continuous-time value; in
general it is a lower bound, and refinement diagnostics are the caller's tool
for judging closeness.

:func:`pvar_values` is the one entry point: the p-variations of a stack of
paths (..., N, dim), in the Euclidean norm of increments.  One dynamic
program (:func:`_chain_dp`) runs for the whole stack: its Python loop runs
once per grid index for all paths at once.  It computes values only; no
maximising partition is traced, since the maximum does not depend on which
maximiser is kept.  The Hilbert-Schmidt diagnostics, the Taylor remainder
slopes and the CLI's ``pvar`` kind use it.

For a scalar path the dynamic program runs on the path's turning points only
(Butkus & Norvaisa, "Computation of p-variation", Lith. Math. J. 58, 2018).
This is exact for every p >= 1.  Take a partition point that is not a
turning point, with partition neighbours valued a and b.  If its value f
lies between a and b, dropping it never lowers the sum: for p >= 1,
f -> |f - a|^p + |b - f|^p is convex, so it is largest at an end, where it
equals |b - a|^p.  Otherwise it is a partition maximum or minimum, and
moving it to the top or bottom of its monotone stretch, which lies between
its neighbours in time, shrinks neither increment.  Vector paths use the
full grid program.

:func:`restrict_dyadic` keeps the samples of one coarser level of a uniform
dyadic grid, for the dyadic ladder of :mod:`roughlaplace.taylor`.
"""
from __future__ import annotations

import numpy as np

from .grids import TimeGrid

__all__ = [
    "pvar_values",
    "cosine_pvar",
    "dyadic_level",
    "restrict_dyadic",
]


def _chain_dp(column, B: int, n: int, p: float) -> np.ndarray:
    """The p-variation dynamic program: one loop for a batch of B paths.

    ``column(j)`` gives, for the B paths, the p-th powers (B, j) of the
    weights of the pairs (i, j), i < j, as a fresh array the program adds
    into.  For each path the supremum of their sum runs over index chains
    ``0 = a_0 < ... < a_m = n - 1``.  Returns the p-variations (B,).  The
    1/p root is taken path by path in scalar arithmetic, because numpy's
    vectorized power may differ from libm's by an ulp.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    best = np.empty((B, n))
    best[:, 0] = 0.0
    for j in range(1, n):
        cand = column(j)
        cand += best[:, :j]
        best[:, j] = cand.max(axis=1)
    values = np.array([s ** (1.0 / p) for s in best[:, -1]])
    if np.isnan(values).any():  # a NaN weight passes through max into every later sum
        raise ValueError("increment magnitudes contain NaN")
    return values


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


def _dp_points(flat: np.ndarray) -> np.ndarray:
    """The points the dynamic program runs on, for a stack of paths ``flat``
    (B, N, dim).

    A scalar stack runs on each row's turning points (:func:`_turning_points`),
    (B, n), each row padded to the longest by repeating its last sample.  A
    padded column adds an exact 0 to a chain through the row's last point,
    so the value at the last column equals the value at the row's own end,
    bit for bit.  Vector paths run on the full grid: the paths themselves.
    """
    if flat.shape[-1] != 1:
        return flat
    x = flat[..., 0]
    return np.take_along_axis(x, _turning_points(x), axis=1)


def pvar_values(values, p: float) -> np.ndarray:
    """Grid p-variations ``sup_P (sum |x_{t_i} - x_{t_{i-1}}|^p)^(1/p)`` (...)
    of the paths ``values`` (..., N, dim): the increment seminorm, without
    the |x_0| term of a full path norm.  One dynamic program runs for the
    whole stack, on the points :func:`_dp_points` gives.
    """
    values = np.asarray(values, dtype=float)
    lead, N = values.shape[:-2], values.shape[-2]
    if N < 2:
        raise ValueError("need at least two grid points")
    flat = values.reshape((-1,) + values.shape[-2:])
    points = _dp_points(flat)
    return _chain_dp(_weights(points, p), len(flat), points.shape[1], p).reshape(lead)


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

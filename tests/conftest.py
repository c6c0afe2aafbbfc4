from dataclasses import dataclass

import numpy as np
import pytest

from roughlaplace.grids import SampledPath, TimeGrid


@pytest.fixture
def smooth_pair():
    """Two smooth 2-d paths on a common 33-point grid."""
    g = TimeGrid.uniform(33)
    t = g.points
    x = SampledPath(g, np.stack([np.sin(2 * np.pi * t) + 0.3 * t, np.cos(3 * t) - 1], axis=1))
    k = SampledPath(g, np.stack([0.5 * t**2, np.sin(t)], axis=1))
    return x, k


def random_smooth_path(grid: TimeGrid, dim: int, rng, n_modes: int = 4, scale: float = 0.5):
    """Random trigonometric polynomial path started at 0."""
    t = grid.points
    vals = np.zeros((len(t), dim))
    for j in range(dim):
        for m in range(1, n_modes + 1):
            a, b = rng.normal(size=2) * scale / m
            vals[:, j] += a * np.sin(m * np.pi * t) + b * (np.cos(m * np.pi * t) - 1.0)
    return SampledPath(grid, vals)


def pair_norms_oracle(values: np.ndarray) -> np.ndarray:
    """Euclidean pairwise increment magnitudes (N, N) of one path (N, dim)."""
    diffs = values[None, :, :] - values[:, None, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diffs, diffs))


@dataclass
class OracleVariation:
    """An oracle's grid p-variation and a maximising partition."""

    value: float
    optimal_partition: list


def pvar_backbone_oracle(weights: np.ndarray, p: float) -> OracleVariation:
    """The per-path p-variation dynamic program on an (n, n) weight matrix,
    one Python loop per path: ties go to the largest sum, then the fewest
    points, then the earliest index."""
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
    return OracleVariation(value=best[-1] ** (1.0 / p), optimal_partition=partition)


def pvar_oracle(values, p: float) -> OracleVariation:
    """Grid p-variation of one path (N, dim) by :func:`pvar_backbone_oracle`;
    a scalar path runs on its turning points alone."""
    values = np.asarray(values, dtype=float).reshape(len(values), -1)
    if values.shape[1] == 1:
        x = values[:, 0]
        d = np.diff(x)
        moves = np.flatnonzero(d)
        up = d[moves] > 0.0
        kept = np.concatenate([[0], moves[:-1][up[1:] != up[:-1]] + 1, [x.size - 1]])
        res = pvar_backbone_oracle(pair_norms_oracle(values[kept]), p)
        res.optimal_partition = [int(kept[i]) for i in res.optimal_partition]
        return res
    return pvar_backbone_oracle(pair_norms_oracle(values), p)


def pvar_values_oracle(values, p: float) -> np.ndarray:
    """:func:`pvar_oracle` path by path over the leading axes of (..., N, dim)."""
    values = np.asarray(values, dtype=float)
    out = np.empty(values.shape[:-2])
    for ix in np.ndindex(out.shape):
        out[ix] = pvar_oracle(values[ix], p).value
    return out


def linear_flow_oracle(ctx):
    """Oracle M, M^{-1} for dM = dOmega M, M_0 = Id, from the context's
    generator increments ``omL``/``omR``, one grid step at a time: the
    product of the Heun one-step transfer matrices
    T_i = Id + (omL_i + omR_i + omR_i omL_i)/2 and of their exact inverses.
    Returns the two (N, n, n) arrays.
    """
    n = ctx.field.n
    N = len(ctx.grid)
    eye = np.eye(n)
    M = np.empty((N, n, n))
    Minv = np.empty((N, n, n))
    M[0] = eye
    Minv[0] = eye
    for i, (L, R) in enumerate(zip(ctx.omL, ctx.omR)):
        T = eye + 0.5 * (L + R + R @ L)
        M[i + 1] = T @ M[i]
        Minv[i + 1] = Minv[i] @ np.linalg.inv(T)
    return M, Minv


def heun_fold(ctx, srcL, srcR):
    """Oracle for the inhomogeneity b of one Heun step of the context's linear
    equation, from the source's values srcL, srcR (..., n_steps, n) at the
    left and right step endpoints: the two-stage step s1 = omL z + srcL,
    s2 = omR (z + s1) + srcR, z <- z + (s1 + s2)/2 is z <- T z + b with
    b = (srcL + srcR + omR srcL)/2.
    """
    return 0.5 * (srcL + srcR + np.einsum("iab,...ib->...ia", ctx.omR, srcL))


def gaussian_oracle(S, Q, v):
    """Exact Laplace constants of the Gaussian case: constant sigma = S, no
    drift, y_0 = 0 and F(y) = <y_1, Q y_1>/2 + <v, y_1>.  Then y_1 = S X_1
    with X_1 standard normal, so with B = S^T Q S and w = S^T v

        J(eps) = det(I + B)^{-1/2} exp(w^T (I + B)^{-1} w / (2 eps^2))

    exactly: a = -w^T (I + B)^{-1} w / 2, c = 0 and alpha0 = det(I + B)^{-1/2}.
    Returns (a, c, alpha0).
    """
    S, Q, v = (np.asarray(x, dtype=float) for x in (S, Q, v))
    B = S.T @ (0.5 * (Q + Q.T)) @ S
    w = S.T @ v
    IB = np.eye(len(B)) + B
    return -0.5 * float(w @ np.linalg.solve(IB, w)), 0.0, float(np.linalg.det(IB)) ** -0.5

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


def linear_flow(ctx):
    """Oracle M, M^{-1} for dM = dOmega M, M_0 = Id, from the context's
    generator increments ``omL``/``omR``: the product of the Heun one-step
    transfer matrices T_i = Id + (omL_i + omR_i + omR_i omL_i)/2 and of
    their exact inverses, so M_t M^{-1}_t = Id holds to rounding while
    M^{-1} still solves dM^{-1} = -M^{-1} dOmega to the scheme's order.
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

import math

import numpy as np
import pytest
from scipy.linalg import expm

from conftest import linear_flow, random_smooth_path
from roughlaplace.functionals import constant_field, tanh_field
from roughlaplace.grids import SampledPath, TimeGrid
from roughlaplace.odes import DivergenceError, VectorFieldSpec, heun_controlled
from roughlaplace.taylor import expansion_context


def scalar_multiplicative_field():
    """dy = y dk, analytic derivatives."""
    return VectorFieldSpec(
        n=1, d=1,
        sigma=lambda y: np.asarray(y, dtype=float)[..., None],
        beta=lambda e, y: np.zeros(np.shape(y)),
        dsigma=lambda y: np.ones(np.shape(y) + (1, 1)),
        d2sigma=lambda y: np.zeros(np.shape(y) + (1, 1, 1)),
    )


def solve(field, k, y0):
    """dy = sigma(y) dk + beta(0, y) dt along the samples of k, from y0."""
    return heun_controlled(field, k.grid, k.increments(), np.asarray(y0, dtype=float))


class TestHeunControlled:
    def test_pure_integrator(self):
        g = TimeGrid.uniform(129)
        f = constant_field(np.eye(2))
        k = SampledPath(g, np.stack([np.sin(2 * g.points), g.points**2], axis=1))
        y = solve(f, k, np.zeros(2))
        assert np.abs(y - (k.values - k.values[0])).max() == 0.0

    def test_exponential_closed_form(self):
        g = TimeGrid.uniform(1025)
        k = SampledPath(g, np.sin(3 * g.points))
        y = solve(scalar_multiplicative_field(), k, np.ones(1))
        ref = np.exp(np.sin(3 * g.points))
        assert np.abs(y[:, 0] - ref).max() / ref.max() < 1e-6

    def test_convergence_order(self):
        errs = []
        for npts in (65, 129, 257):
            g = TimeGrid.uniform(npts)
            k = SampledPath(g, np.sin(3 * g.points))
            y = solve(scalar_multiplicative_field(), k, np.ones(1))
            errs.append(np.abs(y[:, 0] - np.exp(np.sin(3 * g.points))).max())
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert all(1.8 <= o <= 2.2 for o in orders)

    def test_reversibility(self):
        g = TimeGrid.uniform(513)
        field = tanh_field(2, 1, coef_seed=3, drift_scale=0.0)  # beta = 0 exactly
        k = SampledPath(g, np.sin(2 * np.pi * g.points))
        fwd = solve(field, k, np.array([0.3, -0.2]))
        k_rev = SampledPath(g, k.values[::-1])
        back = solve(field, k_rev, fwd[-1])
        assert np.abs(back[-1] - np.array([0.3, -0.2])).max() < 1e-6

    def test_divergence_guard(self):
        g = TimeGrid.uniform(9)
        explode = VectorFieldSpec(
            n=1, d=1,
            sigma=lambda y: np.zeros(np.shape(y) + (1,)),
            beta=lambda e, y: np.full(np.shape(y), 1e7),
        )
        with pytest.raises(DivergenceError):
            solve(explode, SampledPath(g, g.points), np.zeros(1))

    def test_non_finite_state_raises(self):
        # a NaN state compares False with the guard, yet must raise
        g = TimeGrid.uniform(9)
        inc = np.full((8, 1), 0.1)
        inc[3] = np.nan
        with pytest.raises(DivergenceError, match="not finite"):
            heun_controlled(constant_field([[1.0]]), g, inc, np.zeros(1))


class TestLinearFlow:
    """The flow M, M^{-1} of the shared homogeneous part, through the
    ``linear_flow`` oracle on an expansion context's generator increments."""

    def test_zero_generator(self):
        g = TimeGrid.uniform(33)
        field = constant_field(np.ones((2, 1)))  # grad sigma = 0, beta = 0
        ctx = expansion_context(field, SampledPath(g, np.zeros((33, 1))))
        M, _ = linear_flow(ctx)
        assert np.abs(M - np.eye(2)).max() == 0.0

    def test_constant_generator_expm(self):
        # beta(y) = A y gives Omega = A t and M_1 = expm(A)
        A = np.array([[0.3, -0.5], [0.4, 0.1]])
        g = TimeGrid.uniform(513)
        field = constant_field(np.zeros((2, 1)), beta_matrix=A)
        ctx = expansion_context(field, SampledPath(g, np.zeros((513, 1))))
        M, _ = linear_flow(ctx)
        assert np.abs(M[-1] - expm(A)).max() < 1e-6

    def test_inverse_identity(self):
        g = TimeGrid.uniform(257)
        field = tanh_field(2, 2, coef_seed=5)
        rng = np.random.default_rng(1)
        ctx = expansion_context(field, random_smooth_path(g, 2, rng))
        M, Minv = linear_flow(ctx)
        assert np.abs(np.einsum("tab,tbc->tac", M, Minv) - np.eye(2)).max() < 1e-8

    def test_flow_property(self):
        # M_1 = M_{1<-u} M_u: restart the same generator increments at u
        g = TimeGrid.uniform(129)
        field = tanh_field(2, 2, coef_seed=5)
        rng = np.random.default_rng(2)
        ctx = expansion_context(field, random_smooth_path(g, 2, rng))
        M_all, _ = linear_flow(ctx)
        iu = 64
        M = np.eye(2)
        for i in range(iu, 128):
            s1 = ctx.omL[i] @ M
            s2 = ctx.omR[i] @ (M + s1)
            M = M + 0.5 * (s1 + s2)
        want = M @ M_all[iu]
        assert np.abs(want - M_all[-1]).max() < 1e-7

    def test_minv_solves_its_ode(self):
        # M^{-1} from per-step inverses still satisfies dN = -N dOmega to
        # scheme order: compare with a direct Heun solve of that equation
        g = TimeGrid.uniform(257)
        field = tanh_field(2, 2, coef_seed=7)
        rng = np.random.default_rng(3)
        ctx = expansion_context(field, random_smooth_path(g, 2, rng))
        _, Minv = linear_flow(ctx)
        N = np.eye(2)
        for i in range(256):
            s1 = -N @ ctx.omL[i]
            s2 = -(N + s1) @ ctx.omR[i]
            N = N + 0.5 * (s1 + s2)
        assert np.abs(N - Minv[-1]).max() < 1e-5


def test_fd_fallback_derivatives():
    # finite-difference fallbacks agree with analytic derivatives
    analytic = tanh_field(2, 2, coef_seed=11)
    bare = VectorFieldSpec(n=2, d=2, sigma=analytic.sigma, beta=analytic.beta)
    y = np.array([0.3, -0.7])
    assert np.abs(bare.dsigma_at(y) - analytic.dsigma_at(y)).max() < 1e-9
    assert np.abs(bare.d2sigma_at(y) - analytic.d2sigma_at(y)).max() < 1e-6
    assert np.abs(bare.dbeta_y_at(0.0, y) - analytic.dbeta_y_at(0.0, y)).max() < 1e-9
    assert np.abs(bare.dbeta_eps_at(0.0, y) - analytic.dbeta_eps_at(0.0, y)).max() < 1e-9
    assert np.abs(bare.d2beta_eps_at(0.0, y) - analytic.d2beta_eps_at(0.0, y)).max() < 1e-6
    assert np.abs(bare.dbeta_y_eps_at(0.0, y) - analytic.dbeta_y_eps_at(0.0, y)).max() < 1e-6

    # the fallbacks broadcast: a (3, 2) batch of y, checked row by row
    def evaluators(f):
        return (
            f.dsigma_at,
            f.d2sigma_at,
            lambda v: f.dbeta_y_at(0.0, v),
            lambda v: f.dbeta_eps_at(0.0, v),
            lambda v: f.d2beta_eps_at(0.0, v),
            lambda v: f.dbeta_y_eps_at(0.0, v),
        )

    ys = np.array([[0.3, -0.7], [-1.1, 0.4], [0.05, 0.9]])
    tols = (1e-9, 1e-6, 1e-9, 1e-9, 1e-6, 1e-6)
    for fd, exact, tol in zip(evaluators(bare), evaluators(analytic), tols):
        got = fd(ys)
        assert got.shape[0] == len(ys)
        for row, v in zip(got, ys):
            assert np.abs(row - exact(v)).max() < tol

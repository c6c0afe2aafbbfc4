import math

import numpy as np
import pytest

from conftest import heun_fold, pvar_values_oracle, random_smooth_path
from oracles import (
    compute_chi, compute_phi0, compute_phi1, compute_phi2, compute_psi, compute_theta1,
    compute_theta2, taylor_bundle, xi_norm,
)
from roughlaplace.fbm import HurstParams, cm_map, sample_fbm_ensemble, substream
from roughlaplace.functionals import constant_field, rotation_field, tanh_field
from roughlaplace.grids import SampledPath, TimeGrid
from roughlaplace.odes import _matvec, heun_controlled
from roughlaplace.taylor import expansion_context, solve_rde, taylor_remainder_slope
from roughlaplace.variation import pvar_values


@pytest.fixture(scope="module")
def ctx513():
    g = TimeGrid.uniform(513)
    field = tanh_field(2, 2, coef_seed=5)
    gamma = SampledPath(g, np.stack([0.3 * np.sin(2 * g.points), 0.2 * g.points], axis=1))
    return expansion_context(field, gamma)


@pytest.fixture(scope="module")
def driver513(ctx513):
    rng = np.random.default_rng(3)
    return random_smooth_path(ctx513.grid, 2, rng)


class TestSolveRde:
    def test_additive_equation(self):
        g = TimeGrid.dyadic(7)
        S = np.array([[1.0, 0.5], [0.0, 2.0]])
        field = constant_field(S)
        rng = np.random.default_rng(0)
        x = random_smooth_path(g, 2, rng)
        eps = 0.3
        sol = solve_rde(field, eps, x)
        want = eps * (x.values @ S.T)
        assert np.abs(sol.values - want).max() < 1e-12

    def test_linear_scalar_variation_of_constants(self):
        # dy = eps dx + y dt -> y_t = eps int_0^t e^(t-s) dx_s
        from roughlaplace.odes import VectorFieldSpec

        g = TimeGrid.dyadic(10)
        field = VectorFieldSpec(
            n=1, d=1,
            sigma=lambda y: np.ones(np.shape(y) + (1,)),
            beta=lambda e, y: np.asarray(y, dtype=float),
        )
        x = SampledPath(g, np.sin(2 * np.pi * g.points))
        eps = 0.7
        sol = solve_rde(field, eps, x)
        t = g.points
        integrand = np.exp(-t) * np.gradient(x.values[:, 0], t)
        from scipy.integrate import cumulative_trapezoid

        ref = eps * np.exp(t) * cumulative_trapezoid(integrand, t, initial=0.0)
        assert np.abs(sol.values[:, 0] - ref).max() < 1e-4

    def test_ladder_attached(self, ctx513, driver513):
        sol = solve_rde(ctx513.field, 0.5, SampledPath(TimeGrid.dyadic(9), driver513.values))
        assert "ladder" in sol.meta and len(sol.meta["ladder"]["diffs"]) == 2
        assert sol.meta["cauchy"]

    def test_observed_order(self, ctx513, driver513):
        # log2 of the last two level differences; a smooth driver shows Heun's 2
        sol = solve_rde(ctx513.field, 0.5, SampledPath(TimeGrid.dyadic(9), driver513.values))
        ladder = sol.meta["ladder"]
        d1, d2 = ladder["diffs"]
        assert ladder["observed_order"] == math.log2(d1 / d2)
        assert 1.7 < ladder["observed_order"] < 2.3

    def test_observed_order_undefined(self, ctx513):
        g = TimeGrid.dyadic(7)
        x = random_smooth_path(g, 2, np.random.default_rng(0))
        # a zero driver without drift: every level is exact, both differences vanish
        exact = solve_rde(constant_field(np.eye(2)), 0.3, SampledPath(g, np.zeros((len(g), 2))))
        assert exact.meta["ladder"]["diffs"] == [0.0, 0.0]
        # one difference only
        short = solve_rde(ctx513.field, 0.3, x, ladder_depth=1)
        assert len(short.meta["ladder"]["diffs"]) == 1
        # a vanishing earlier difference: a driftless field along a sawtooth,
        # whose coarsenings below the top level are flat
        vals = np.zeros((len(g), 2))
        vals[1::2, 0] = 1.0
        saw = solve_rde(tanh_field(2, 2, coef_seed=5, drift_scale=0.0), 0.5, SampledPath(g, vals))
        assert saw.meta["ladder"]["diffs"][0] == 0.0
        for sol in (exact, short, saw):
            assert sol.meta["ladder"]["observed_order"] is None

    def test_non_cauchy_flagged(self, ctx513):
        # sawtooth driver: every dyadic coarsening below the top level is
        # flat, so the ladder cannot be Cauchy; result still returned
        g = TimeGrid.dyadic(7)
        vals = np.zeros((len(g), 2))
        vals[1::2, 0] = 1.0
        sol = solve_rde(ctx513.field, 0.5, SampledPath(g, vals))
        assert not sol.meta["cauchy"]
        assert np.all(np.isfinite(sol.values))

    def test_stratonovich_reference_at_half(self):
        # ensemble law at H = 1/2 vs an independent Heun SDE scheme
        H, n, d, eps, n_mc = 0.5, 2, 2, 0.5, 4000
        field = tanh_field(n, d, coef_seed=5)
        g = TimeGrid.dyadic(8)
        drv = sample_fbm_ensemble(g, H, d, n_mc, seed=300)
        sol = heun_controlled(field, g, np.zeros(n), eps=eps, X=drv)
        Y1 = sol[:, -1, :]

        rng = substream(301, 17, 0)
        dt = 1.0 / g.n_steps
        Y = np.zeros((n_mc, n))
        for _ in range(g.n_steps):
            dW = eps * rng.standard_normal((n_mc, d)) * math.sqrt(dt)

            def rhs(y, dw):
                return (
                    np.einsum("...ab,...b->...a", field.sigma_at(y), dw)
                    + field.beta_at(eps, y) * dt
                )

            s1 = rhs(Y, dW)
            s2 = rhs(Y + s1, dW)
            Y = Y + 0.5 * (s1 + s2)
        se_mean = np.sqrt(Y1.var(axis=0) / n_mc + Y.var(axis=0) / n_mc)
        assert np.all(np.abs(Y1.mean(axis=0) - Y.mean(axis=0)) < 3 * se_mean)
        se_var = np.sqrt(2.0 / n_mc) * np.sqrt(Y1.var(axis=0) ** 2 + Y.var(axis=0) ** 2)
        assert np.all(np.abs(Y1.var(axis=0) - Y.var(axis=0)) < 3 * se_var)


class TestDyadicLadder:
    """solve_rde against direct Heun solves along the stride-restricted
    driver Z = eps X + gamma, bit for bit."""

    def _direct(self, field, eps, X, gamma, level, top):
        stride = 2 ** (top - level)
        Z = eps * X.values[::stride] + gamma.values[::stride]
        return heun_controlled(field, TimeGrid.dyadic(level), np.zeros(field.n),
                               eps=eps, gamma=Z)

    def test_coarse_points_and_ladder(self, ctx513):
        top, eps = 7, 0.4
        g = TimeGrid.dyadic(top)
        X = random_smooth_path(g, 2, np.random.default_rng(8))
        gamma = SampledPath(g, ctx513.gamma.values[::4])
        sol = solve_rde(ctx513.field, eps, X, gamma=gamma)
        Y0, Y1, Y2 = (self._direct(ctx513.field, eps, X, gamma, lev, top)
                      for lev in (top - 2, top - 1, top))
        # Richardson on the coarse grid, where the interpolation is exact
        want = Y2[::2] + (Y2[::2] - Y1) / 3.0
        assert np.array_equal(sol.values[::2], want)
        ladder = sol.meta["ladder"]
        assert ladder["levels"] == [top - 2, top - 1, top]
        assert ladder["diffs"] == [float(np.abs(Y1[::2] - Y0).max()),
                                   float(np.abs(Y2[::4] - Y1[::2]).max())]

    def test_rejects_bad_inputs(self, ctx513):
        g = TimeGrid.uniform(100)
        with pytest.raises(ValueError, match="uniform dyadic"):
            solve_rde(ctx513.field, 0.5, SampledPath(g, np.zeros((100, 2))))
        g = TimeGrid.dyadic(4)
        with pytest.raises(ValueError, match="ladder_depth"):
            solve_rde(ctx513.field, 0.5, SampledPath(g, np.zeros((17, 2))), ladder_depth=-1)


class TestPhi0:
    def test_zero_inputs(self):
        g = TimeGrid.uniform(65)
        field = constant_field(np.eye(2))
        phi0 = compute_phi0(field, SampledPath(g, np.zeros((65, 2))))
        assert np.abs(phi0.values).max() == 0.0

    def test_identity_sigma(self):
        g = TimeGrid.uniform(65)
        field = constant_field(np.eye(2))
        gamma = SampledPath(g, np.stack([np.sin(g.points), g.points**2], axis=1))
        phi0 = compute_phi0(field, gamma)
        assert np.abs(phi0.values - (gamma.values - gamma.values[0])).max() < 1e-14

    def test_matches_solve_rde_at_zero(self, ctx513, driver513):
        sol = solve_rde(
            ctx513.field, 0.0,
            SampledPath(TimeGrid.dyadic(9), driver513.values),
            gamma=ctx513.gamma,
            ladder_depth=0,
        )
        assert np.abs(sol.values - ctx513.phi0.values).max() < 1e-14


class TestChi:
    def test_zero(self, ctx513):
        z = compute_chi(ctx513, SampledPath(ctx513.grid, np.zeros((513, 2))))
        assert np.abs(z.values).max() == 0.0

    def test_linearity(self, ctx513, driver513):
        a = compute_chi(ctx513, driver513)
        b = compute_chi(ctx513, 2.5 * driver513)
        assert np.abs(2.5 * a.values - b.values).max() < 1e-10

    def test_ode_form_oracle(self, ctx513):
        # independent Heun solve of the first-derivative equation
        g = ctx513.grid
        k = SampledPath(g, np.stack([0.3 * g.points**2, np.sin(2 * g.points) * 0.4], axis=1))
        field, gamma = ctx513.field, ctx513.gamma
        dgam, dt, dk = gamma.increments(), g.dt, k.increments()
        z = np.zeros(2)
        out = [z]
        for i in range(len(g) - 1):
            def rhs(zv, at):
                y0 = ctx513.phi0.values[at]
                return (
                    np.einsum("ajb,b,j->a", field.dsigma_at(y0), zv, dgam[i])
                    + field.dbeta_y_at(y0) @ zv * dt[i]
                    + field.sigma_at(y0) @ dk[i]
                )
            s1 = rhs(z, i)
            s2 = rhs(z + s1, i + 1)
            z = z + 0.5 * (s1 + s2)
            out.append(z)
        assert np.abs(np.array(out) - compute_chi(ctx513, k).values).max() < 1e-6


class TestPsi:
    def test_zero(self, ctx513):
        z = SampledPath(ctx513.grid, np.zeros((513, 2)))
        assert np.abs(compute_psi(ctx513, z, z).values).max() == 0.0

    def test_symmetry(self, ctx513, driver513):
        g = ctx513.grid
        f = SampledPath(g, np.stack([np.sin(g.points), np.cos(2 * g.points) - 1], axis=1))
        a = compute_psi(ctx513, f, driver513)
        b = compute_psi(ctx513, driver513, f)
        assert np.abs(a.values - b.values).max() < 1e-10

    def test_second_difference_oracle(self, ctx513):
        g = ctx513.grid
        field, gamma = ctx513.field, ctx513.gamma
        f = SampledPath(g, np.stack([np.sin(g.points), 0.5 * np.cos(2 * g.points) - 0.5], axis=1))
        k = SampledPath(g, np.stack([0.3 * g.points**2, 0.4 * np.sin(2 * g.points)], axis=1))

        def itomap(path):
            return heun_controlled(field, g, np.zeros(2), gamma=path.values)

        h = 1e-3
        num = (
            itomap(gamma + h * f + h * k)
            - itomap(gamma + h * f)
            - itomap(gamma + h * k)
            + itomap(gamma)
        ) / h**2
        # the mixed second difference approaches psi(f,k) + psi(k,f)
        want = 2.0 * compute_psi(ctx513, f, k).values
        assert np.abs(num - want).max() / np.abs(want).max() < 1e-3


class TestFirstOrder:
    def test_zero_eps_drift_means_theta1_zero(self, driver513):
        g = TimeGrid.uniform(513)
        field = constant_field(np.eye(2))  # beta = 0: no eps sensitivity
        gamma = SampledPath(g, np.zeros((513, 2)))
        ctx = expansion_context(field, gamma)
        assert np.abs(compute_theta1(ctx).values).max() == 0.0
        phi1 = compute_phi1(ctx, driver513)
        chi = compute_chi(ctx, driver513)
        assert np.abs(phi1.values - chi.values).max() == 0.0

    def test_theta1_driver_independent(self, ctx513):
        rng = np.random.default_rng(8)
        g = ctx513.grid
        b1 = taylor_bundle(ctx513, random_smooth_path(g, 2, rng))
        b2 = taylor_bundle(ctx513, random_smooth_path(g, 2, rng))
        assert np.abs(b1.theta1.values - b2.theta1.values).max() < 1e-8

    def test_phi1_identity(self, ctx513, driver513):
        b = taylor_bundle(ctx513, driver513)
        assert np.abs(b.phi1.values - b.chi.values - b.theta1.values).max() < 1e-8

    def test_phi1_eps_difference_oracle(self, ctx513, driver513):
        g, field, gamma = ctx513.grid, ctx513.field, ctx513.gamma

        def phi_eps(eps):
            return heun_controlled(field, g, np.zeros(2), eps=eps, X=driver513.values,
                                   gamma=gamma.values)

        h = 1e-4
        num = (phi_eps(h) - phi_eps(0.0)) / h
        p1 = compute_phi1(ctx513, driver513).values
        assert np.abs(num - p1).max() / np.abs(p1).max() < 1e-3


class TestSecondOrder:
    def test_vanishing_sources(self):
        g = TimeGrid.uniform(129)
        field = constant_field(np.eye(2))
        gamma = SampledPath(g, np.zeros((129, 2)))
        ctx = expansion_context(field, gamma)
        rng = np.random.default_rng(1)
        x = random_smooth_path(g, 2, rng)
        assert np.abs(compute_phi2(ctx, x).values).max() == 0.0

    def test_theta2_identity(self, ctx513, driver513):
        b = taylor_bundle(ctx513, driver513)
        assert np.abs(b.phi2.values - b.psi.values - b.theta2.values).max() < 1e-8

    def test_theta2_first_order_bound(self, ctx513):
        # ratio ||theta2|| / (1 + xi) bounded over an ensemble
        from roughlaplace.roughpath import lift

        H = 0.4
        hp = HurstParams.default(H)
        g9 = TimeGrid.dyadic(7)
        field = ctx513.field
        gamma = SampledPath(
            g9, np.stack([0.3 * np.sin(2 * g9.points), 0.2 * g9.points], axis=1)
        )
        ctx = expansion_context(field, gamma)
        drivers = sample_fbm_ensemble(g9, H, 2, 100, seed=17)
        ratios = []
        for drv in drivers:
            th2 = compute_theta2(ctx, drv)
            xi = xi_norm(lift(SampledPath(g9, drv), 2), hp.p).value
            ratios.append(float(pvar_values(th2.values, hp.p)) / (1.0 + xi))
        assert max(ratios) < 10 * np.median(ratios)

    def test_phi2_eps_difference_oracle(self, ctx513, driver513):
        g, field, gamma = ctx513.grid, ctx513.field, ctx513.gamma

        def phi_eps(eps):
            return heun_controlled(field, g, np.zeros(2), eps=eps, X=driver513.values,
                                   gamma=gamma.values)

        p1 = compute_phi1(ctx513, driver513).values
        p2 = compute_phi2(ctx513, driver513).values
        h = 1e-3
        num = (phi_eps(h) - phi_eps(0.0) - h * p1) / h**2
        assert np.abs(num - p2).max() / np.abs(p2).max() < 5e-3

    def test_phi_k_growth_bound(self, ctx513):
        # ||phi^k|| <= C (1 + xi)^k, k = 1, 2: ratio bounded over an ensemble
        from roughlaplace.roughpath import lift

        H, hp = 0.4, HurstParams.default(0.4)
        g7 = TimeGrid.dyadic(7)
        gamma = SampledPath(
            g7, np.stack([0.3 * np.sin(2 * g7.points), 0.2 * g7.points], axis=1)
        )
        ctx = expansion_context(ctx513.field, gamma)
        drivers = sample_fbm_ensemble(g7, H, 2, 60, seed=23)
        r1, r2 = [], []
        for drv in drivers:
            xi = xi_norm(lift(SampledPath(g7, drv), 2), hp.p).value
            r1.append(float(pvar_values(compute_phi1(ctx, drv).values, hp.p)) / (1 + xi))
            r2.append(float(pvar_values(compute_phi2(ctx, drv).values, hp.p)) / (1 + xi) ** 2)
        assert max(r1) < 10 * np.median(r1)
        assert max(r2) < 10 * np.median(r2)


class TestRemainderSlopes:
    def test_slopes_small_ensemble(self):
        H = 0.4
        hp = HurstParams.default(H)
        g = TimeGrid.dyadic(9)
        field = tanh_field(2, 2, coef_seed=5)
        gamma = cm_map(np.array([[0.2, 0.1], [0.3, -0.2]]), H, g).induced_path
        drivers = sample_fbm_ensemble(g, H, 2, 8, seed=21)
        rep1 = taylor_remainder_slope(field, gamma, drivers, 1, p=hp.p)
        assert 1.8 <= rep1["slope"] <= 2.2
        rep2 = taylor_remainder_slope(field, gamma, drivers, 2, p=hp.p)
        assert 2.7 <= rep2["slope"] <= 3.3

    def test_matches_per_path_oracle(self, monkeypatch):
        # one batched DP per eps over the drivers gives the per-path slopes
        # bit for bit
        import roughlaplace.taylor as taylor_mod

        H = 0.4
        g = TimeGrid.dyadic(6)
        field = tanh_field(2, 2, coef_seed=5)
        gamma = cm_map(np.array([[0.2, 0.1], [0.3, -0.2]]), H, g).induced_path
        drivers = sample_fbm_ensemble(g, H, 2, 3, seed=21)
        eps = [0.5, 0.25, 0.125, 0.0625]
        rep = taylor_remainder_slope(field, gamma, drivers, 2, eps_list=eps)
        monkeypatch.setattr(taylor_mod, "pvar_values", pvar_values_oracle)
        assert taylor_remainder_slope(field, gamma, drivers, 2, eps_list=eps) == rep

    def test_exact_for_additive_case(self):
        # sigma constant, beta = 0: phi^(eps) = phi0 + eps chi exactly,
        # so the order-1 remainder sits at the noise floor
        g = TimeGrid.dyadic(7)
        field = constant_field(np.array([[1.0, 0.2], [0.1, 0.7]]))
        rng = np.random.default_rng(2)
        gamma = random_smooth_path(g, 2, rng)
        drivers = np.stack([random_smooth_path(g, 2, rng).values for _ in range(3)])
        rep = taylor_remainder_slope(field, gamma, drivers, 1, eps_list=[0.5, 0.25, 0.125, 0.0625])
        assert max(rep["norms"]) < 1e-12

    def test_too_few_eps(self, ctx513, driver513):
        with pytest.raises(ValueError):
            taylor_remainder_slope(
                ctx513.field, ctx513.gamma, driver513.values[None], 1, eps_list=[0.5, 0.25]
            )

    @pytest.mark.parametrize("last", [0.0, -0.1])
    def test_nonpositive_eps(self, ctx513, driver513, last):
        with pytest.raises(ValueError, match="eps_list must be positive"):
            taylor_remainder_slope(ctx513.field, ctx513.gamma, driver513.values[None], 1,
                                   eps_list=[0.5, 0.25, 0.125, last])

    def test_drivers_must_be_a_stack_on_the_grid(self, ctx513, driver513):
        eps = [0.5, 0.25, 0.125, 0.0625]
        for bad in (driver513.values, driver513.values[None, ::2]):
            with pytest.raises(ValueError, match="drivers must be"):
                taylor_remainder_slope(ctx513.field, ctx513.gamma, bad, 1, eps_list=eps)

    def test_continuity_in_driver(self, ctx513, driver513):
        # perturbing the driver by delta changes the solution by O(delta)
        g, field, gamma = ctx513.grid, ctx513.field, ctx513.gamma
        rng = np.random.default_rng(9)
        bump = random_smooth_path(g, 2, rng)
        base = heun_controlled(field, g, np.zeros(2), eps=0.5, X=driver513.values,
                               gamma=gamma.values)
        ratios = []
        for delta in (1e-2, 1e-3, 1e-4):
            pert = heun_controlled(field, g, np.zeros(2), eps=0.5,
                                   X=driver513.values + delta * bump.values, gamma=gamma.values)
            ratios.append(np.abs(pert - base).max() / delta)
        assert max(ratios) / min(ratios) < 2.0


def _field(nd, coef_seed):
    """``rotation_field`` (finite-difference derivatives) for nd = "rotation",
    else ``tanh_field`` (analytic derivatives) with (n, d) = nd."""
    return rotation_field(2) if nd == "rotation" else tanh_field(*nd, coef_seed=coef_seed)


def _explicit_sources(ctx):
    """The source formulas written out term by term over the raw coefficient
    tensors along phi0, as (left, right) endpoint pairs folded into one
    inhomogeneity by the test's Heun step: the oracle for the shared source
    assembly."""
    f, y = ctx.field, ctx.phi0.values
    ds, d2s = f.dsigma_at(y), f.d2sigma_at(y)
    d2b, dbye, d2be = f.d2beta_y_at(y), f.dbeta_y_eps_at(y), f.d2beta_eps_at(y)
    dgam, dt = ctx.gamma.increments(), ctx.grid.dt
    ends = (slice(None, -1), slice(1, None))  # left and right endpoint of each step

    def pair(at, *zs):
        return heun_fold(ctx, *(at(sl, *(z[..., sl, :] for z in zs)) for sl in ends))

    def lin(sl, z, dY):
        return np.einsum("iajb,...ib,...ij->...ia", ds[sl], z, dY)

    def quad(sl, z1, z2):
        s = np.einsum("iajbc,...ib,...ic,ij->...ia", d2s[sl], z1, z2, dgam)
        return s + np.einsum("iabc,...ib,...ic,i->...ia", d2b[sl], z1, z2, dt)

    def eps(sl, z):
        return np.einsum("iab,...ib,i->...ia", dbye[sl], z, dt) + 0.5 * d2be[sl] * dt[:, None]

    def psi(chi_f, chi_k, df, dk):
        return pair(lambda sl, cf, ck: 0.5 * (
            lin(sl, cf, dk) + lin(sl, ck, df) + quad(sl, cf, ck)), chi_f, chi_k)

    def phi2(phi1, dX):
        return pair(lambda sl, p1: lin(sl, p1, dX) + 0.5 * quad(sl, p1, p1) + eps(sl, p1), phi1)

    def theta2(theta1, chi, dX):
        return pair(lambda sl, th, ch: (
            lin(sl, th, dX) + 0.5 * quad(sl, th, th) + quad(sl, th, ch) + eps(sl, th + ch)
        ), theta1, chi)

    def v_forms(chi_f, chi_k, df, dk):
        v1 = pair(lambda sl, cf, ck: lin(sl, cf, dk) + lin(sl, ck, df), chi_f, chi_k)
        return v1, pair(quad, chi_f, chi_k)

    def r_forms(f_vals, chi_f, dk):
        g1 = np.einsum("iab,...ib->...ia", ctx.sigma0, f_vals)
        return pair(lambda sl, g: lin(sl, g, dk), g1), pair(lambda sl, g: lin(sl, g, dk), g1 - chi_f)

    return psi, phi2, theta2, v_forms, r_forms


class TestSourceAssembly:
    """Every source built from the two shared primitives equals the explicit
    einsum formula over the raw coefficient tensors."""

    @staticmethod
    def _close(got, want):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-13 * max(np.abs(want).max(), 1e-300)

    @pytest.mark.parametrize("nd", [(2, 2), (1, 1), "rotation"])
    @pytest.mark.parametrize("batch", [None, 3])
    def test_matches_explicit_formulas(self, nd, batch):
        from oracles import _psi_sources, _theta2_sources, r_forms, v_forms
        from roughlaplace.taylor import _chi_values, _phi2_sources, _theta1_values

        field = _field(nd, coef_seed=4)
        d = field.d
        g = TimeGrid.uniform(129)
        rng = np.random.default_rng(17)
        ctx = expansion_context(field, random_smooth_path(g, d, rng, scale=0.4))

        def direction():
            if batch is None:
                return random_smooth_path(g, d, rng).values
            return np.stack([random_smooth_path(g, d, rng).values for _ in range(batch)])

        f_vals, k_vals = direction(), direction()
        df, dk = np.diff(f_vals, axis=-2), np.diff(k_vals, axis=-2)
        chi_f, chi_k = _chi_values(ctx, f_vals), _chi_values(ctx, k_vals)
        theta1 = _theta1_values(ctx)
        psi, phi2, theta2, v_ref, r_ref = _explicit_sources(ctx)

        self._close(_psi_sources(ctx, chi_f, chi_k, df, dk), psi(chi_f, chi_k, df, dk))
        self._close(_phi2_sources(ctx, chi_f + theta1, df), phi2(chi_f + theta1, df))
        th = np.broadcast_to(theta1, chi_f.shape)
        self._close(_theta2_sources(ctx, th, chi_f, df), theta2(th, chi_f, df))

        # v_forms and r_forms take one direction pair: compare member by member.
        # R2's g = sigma(phi0) f - chi(f) cancels to about 1e-3 of its terms,
        # so its oracle reads the member's own chi solve: a batched solve
        # differs from it by rounding (6e-16), which the cancellation lifts
        # above the tolerance
        s1, s2 = v_ref(chi_f, chi_k, df, dk)
        members = [Ellipsis] if batch is None else range(batch)
        for b in members:
            V1, V2 = v_forms(ctx, f_vals[b], k_vals[b])
            R1, R2 = r_forms(ctx, f_vals[b], k_vals[b])
            r1, r2 = r_ref(f_vals[b], _chi_values(ctx, f_vals[b]), dk[b])
            for got, want in ((V1, s1[b]), (V2, s2[b]), (R1, r1), (R2, r2)):
                self._close(got.values, ctx.solve(want))

    @pytest.mark.parametrize("nd", [(2, 2), (1, 1), (2, 3)])
    @pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
    def test_small_axis_contractions(self, nd, lead):
        # the chi, sigma0-times and eps sources against their einsum forms
        from roughlaplace.hessian import _sigma0_times
        from roughlaplace.taylor import _eps_sources

        n, d = nd
        g = TimeGrid.uniform(65)
        rng = np.random.default_rng(23)
        ctx = expansion_context(tanh_field(n, d, coef_seed=4),
                                random_smooth_path(g, d, rng, scale=0.4))
        f_vals = rng.normal(size=lead + (len(g), d))
        dk = np.diff(f_vals, axis=-2)
        ends = (slice(None, -1), slice(1, None))
        self._close(
            _matvec(ctx.B_sigma, dk),
            heun_fold(ctx, *(np.einsum("...iab,...ib->...ia", ctx.sigma0[sl], dk) for sl in ends)),
        )
        self._close(_sigma0_times(ctx, f_vals), np.einsum("iab,...ib->...ia", ctx.sigma0, f_vals))
        z = rng.normal(size=lead + (len(g), n))
        base = rng.normal(size=lead + (g.n_steps, n))
        want = base + 0.5 * ctx.b_D + sum(
            np.einsum("iab,...ib->...ia", P, z[..., sl, :]) for P, sl in zip(ctx.P, ends)
        )
        self._close(_eps_sources(ctx, z, out=base.copy()), want)


class TestCostate:
    """Every grad F(phi0)<.> the co-state answers equals the forward solve
    followed by ``functional.grad``, to rounding (the sums are reassociated)."""

    REL = 1e-13
    CASES = [(nd, fname) for nd in [(2, 2), (1, 1)] for fname in ["endpoint", "integral"]]
    CASES.append(("rotation", "integral"))

    @staticmethod
    def _setup(nd, fname):
        from roughlaplace.functionals import endpoint_quadratic, integral_quadratic
        from roughlaplace.taylor import costate

        field = _field(nd, coef_seed=5)
        n, d = field.n, field.d
        g = TimeGrid.uniform(129)
        rng = np.random.default_rng(31)
        ctx = expansion_context(field, random_smooth_path(g, d, rng, scale=0.4))
        Q = np.full((n, n), 0.1) + 0.3 * np.eye(n)
        v = np.linspace(0.4, -0.3, n)
        F = (endpoint_quadratic if fname == "endpoint" else integral_quadratic)(Q, v)
        X = np.stack([random_smooth_path(g, d, rng).values for _ in range(3)])
        return ctx, F, costate(ctx, F), X

    def _close(self, got, want):
        got, want = np.asarray(got), np.asarray(want)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= self.REL * np.abs(want).max()

    @pytest.mark.parametrize("nd,fname", CASES)
    def test_phi2_weights(self, nd, fname):
        from roughlaplace.taylor import _chi_values, _phi2_sources, _theta1_values

        ctx, F, cs, X = self._setup(nd, fname)
        dX = np.diff(X, axis=-2)
        phi1 = _chi_values(ctx, X) + _theta1_values(ctx)
        want = F.grad(ctx.phi0.values, ctx.solve(_phi2_sources(ctx, phi1, dX)), ctx.grid)
        self._close(cs.phi2(phi1, dX), want)

    @pytest.mark.parametrize("nd,fname", CASES)
    def test_c(self, nd, fname):
        from roughlaplace.taylor import _theta1_values

        ctx, F, cs, _ = self._setup(nd, fname)
        want = F.grad(ctx.phi0.values, _theta1_values(ctx), ctx.grid)
        self._close(cs.pair(ctx.b_theta1), want)

    @pytest.mark.parametrize("nd,fname", CASES)
    def test_minimizer_gradient(self, nd, fname):
        # chi_gradient over a batch of two gammas, each item against its own
        # context's chi solves
        from roughlaplace.fbm import cm_basis
        from roughlaplace.taylor import _chi_values, chi_gradient

        ctx, F, _, _ = self._setup(nd, fname)
        k = cm_basis(0.4, ctx.grid, 6, ctx.field.d)
        gammas = np.stack([ctx.gamma.values, -0.5 * ctx.gamma.values])
        phi0, got = chi_gradient(ctx.field, F, gammas, ctx.grid, np.diff(k, axis=-2))
        for gam, y, pairing in zip(gammas, phi0, got):
            one = expansion_context(ctx.field, SampledPath(ctx.grid, gam))
            assert np.array_equal(y, one.phi0.values)
            self._close(pairing, F.grad(one.phi0.values, _chi_values(one, k), ctx.grid))

    @pytest.mark.parametrize("nd,fname", CASES)
    def test_hessian_psi_part(self, nd, fname):
        from roughlaplace.fbm import cm_basis
        from roughlaplace.hessian import hessian_matrix
        from oracles import _psi_sources
        from roughlaplace.taylor import _chi_values

        ctx, F, _, _ = self._setup(nd, fname)
        N = 4
        k = cm_basis(0.4, ctx.grid, N, ctx.field.d)
        chi, dk = _chi_values(ctx, k), np.diff(k, axis=-2)
        nb = len(k)
        pairs = [np.broadcast_to(z[:, None], (nb,) + z.shape) for z in (chi, dk)]
        swapped = [np.swapaxes(z, 0, 1) for z in pairs]
        psi = ctx.solve(_psi_sources(ctx, pairs[0], swapped[0], pairs[1], swapped[1]))
        want = F.grad(ctx.phi0.values, 2.0 * psi, ctx.grid)
        hess = F.hess(ctx.phi0.values, chi[:, None], chi[None, :], ctx.grid)
        got = hessian_matrix(F, ctx, N, H=0.4) - 0.5 * (hess + hess.T)
        self._close(got, 0.5 * (want + want.T))

    def test_mc_block_solves_once(self, monkeypatch):
        # each Monte Carlo block solves chi(X) only; besides the blocks the
        # call solves theta1 once and the Hessian's chi(e_a) once
        import roughlaplace.taylor as taylor
        from roughlaplace.functionals import endpoint_quadratic
        from roughlaplace.laplace import OptConfig, expansion_constants, minimize_F_Lambda

        g = TimeGrid.uniform(65)
        field = tanh_field(2, 2, coef_seed=5)
        F = endpoint_quadratic(0.3 * np.eye(2), v=[0.4, -0.3])
        rep = minimize_F_Lambda(F, field, 0.4, g, 3, OptConfig(restarts=1))
        calls = []
        solve = taylor.linear_perturbation_solve

        def counted(*args):
            calls.append(args[1].shape)
            return solve(*args)

        monkeypatch.setattr(taylor, "linear_perturbation_solve", counted)
        monkeypatch.setattr("roughlaplace.laplace._MC_BLOCK", 100)
        expansion_constants(rep, F, field, mc_samples=300, seed=3, hessian_N=3)
        assert len(calls) == 3 + 2
        assert sum(s[:-2] == (100,) for s in calls) == 3

    def test_hessian_memory(self):
        import tracemalloc

        from roughlaplace.functionals import endpoint_quadratic
        from roughlaplace.hessian import hessian_matrix

        g = TimeGrid.uniform(257)
        ctx = expansion_context(tanh_field(2, 2, coef_seed=5), random_smooth_path(
            g, 2, np.random.default_rng(4), scale=0.4))
        F = endpoint_quadratic(0.3 * np.eye(2), v=[0.4, -0.3])
        tracemalloc.start()
        try:
            A = hessian_matrix(F, ctx, 64, H=0.4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert A.shape == (128, 128)
        assert peak < 16e6

import copy
import dataclasses
import math
import multiprocessing
import os
import weakref
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import gaussian_oracle
from oracles import kappa_reconstruct
from roughlaplace import laplace
from roughlaplace.fbm import _STREAM_OPT, FbmSampler, cm_basis, cm_map, substream
from roughlaplace.functionals import (
    constant_field,
    endpoint_linear,
    endpoint_quadratic,
    one_functional,
    tanh_field,
    zero_functional,
)
from roughlaplace.grids import SampledPath, TimeGrid
from roughlaplace.laplace import (
    OptConfig,
    _map_blocks,
    expansion_constants,
    expansion_fit,
    kappa_ladder,
    mc_laplace,
    minimize_F_Lambda,
)
from roughlaplace.odes import DivergenceError, linear_perturbation_costate
from roughlaplace.taylor import expansion_context

H_TEST = 0.4
GRID = TimeGrid.uniform(129)
S_TEST = np.array([[1.0, 0.3], [-0.2, 0.8]])
V_TEST = np.array([0.7, -0.5])


@pytest.fixture(scope="module")
def gaussian_linear_report():
    field = constant_field(S_TEST)
    F = endpoint_linear(V_TEST)
    return minimize_F_Lambda(F, field, H_TEST, GRID, 8, OptConfig(restarts=3))


class TestMinimize:
    def test_zero_functional(self):
        field = constant_field(S_TEST)
        rep = minimize_F_Lambda(zero_functional(), field, H_TEST, GRID, 4, OptConfig(restarts=2))
        assert rep.F_Lambda_min == pytest.approx(0.0, abs=1e-12)
        assert np.abs(rep.gamma.coeffs).max() < 1e-8

    def test_gaussian_linear_closed_form(self, gaussian_linear_report):
        rep = gaussian_linear_report
        basis = cm_basis(H_TEST, GRID, 8, 2)
        c_star = np.array(
            [-(S_TEST.T @ V_TEST) @ k[-1] for k in basis]
        )
        assert np.abs(rep.gamma.coeffs.reshape(-1) - c_star).max() < 1e-6
        assert rep.F_Lambda_min == pytest.approx(-0.5 * (c_star**2).sum(), abs=1e-10)

    def test_residual_below_tolerance(self, gaussian_linear_report):
        assert gaussian_linear_report.first_order_residual < 1e-6

    def test_local_minimum_probe(self, gaussian_linear_report):
        # F_Lambda(gamma) <= F_Lambda(gamma + h e_a) for basis directions
        rep = gaussian_linear_report
        field = constant_field(S_TEST)
        F = endpoint_linear(V_TEST)
        basis = cm_basis(H_TEST, GRID, 8, 2)
        from oracles import compute_phi0
        from roughlaplace.grids import SampledPath

        def F_Lambda(coeffs):
            gamma_vals = np.einsum("a,atd->td", coeffs, basis)
            phi0 = compute_phi0(field, SampledPath(GRID, gamma_vals))
            return float(F.value(phi0.values, GRID)) + 0.5 * float((coeffs**2).sum())

        # probe +-1e-3 along every basis direction
        c0 = rep.gamma.coeffs.reshape(-1)
        base = F_Lambda(c0)
        for a in range(len(basis)):
            for h in (1e-3, -1e-3):
                cp = c0.copy()
                cp[a] += h
                assert F_Lambda(cp) >= base - 1e-12

    def test_optimizer_counts(self):
        # F = 0: the start at 0 is already stationary; from a random start
        # the unit step lands on the minimizer 0 at once, no backtrack
        field = constant_field(S_TEST)
        rep = minimize_F_Lambda(zero_functional(), field, H_TEST, GRID, 4, OptConfig(restarts=3))
        opt = rep.optimizer
        assert opt["iterations"] == [0, 1, 1]
        assert opt["backtracks"] == [0, 0, 0]
        assert opt["values"] == [0.0, 0.0, 0.0] and opt["spread"] == 0.0

    def test_optimizer_record(self, gaussian_linear_report):
        opt = gaussian_linear_report.optimizer
        assert len(opt["iterations"]) == len(opt["backtracks"]) == len(opt["values"]) == 3
        assert min(opt["iterations"]) >= 1 and min(opt["backtracks"]) >= 0
        assert min(opt["values"]) == gaussian_linear_report.F_Lambda_min
        assert opt["spread"] == max(v - min(opt["values"]) for v in opt["values"])

    def test_truncation_refinement_stable(self):
        field = constant_field(S_TEST)
        F = endpoint_linear(V_TEST)
        r8 = minimize_F_Lambda(F, field, H_TEST, GRID, 8, OptConfig(restarts=1))
        r16 = minimize_F_Lambda(F, field, H_TEST, GRID, 16, OptConfig(restarts=1))
        assert abs(r16.F_Lambda_min - r8.F_Lambda_min) < 5e-3 * abs(r8.F_Lambda_min)


class TestExpansionConstants:
    def test_trivial_functional(self):
        field = constant_field(S_TEST)
        rep = minimize_F_Lambda(zero_functional(), field, H_TEST, GRID, 4, OptConfig(restarts=1))
        rep = expansion_constants(rep, zero_functional(), field, mc_samples=200, seed=3)
        assert rep.F_Lambda_min == pytest.approx(0.0, abs=1e-12)
        assert rep.c_coef == pytest.approx(0.0, abs=1e-14)
        assert rep.alpha0 == pytest.approx(1.0, abs=1e-12)

    def test_gaussian_quadratic_det2_cross_check(self):
        # sigma constant, F quadratic in the endpoint: alpha0 from MC matches
        # the Carleman-Fredholm closed form within 3 standard errors
        field = constant_field(S_TEST)
        Q = np.array([[0.5, 0.1], [0.1, 0.3]])
        F = endpoint_quadratic(Q)
        rep = minimize_F_Lambda(F, field, H_TEST, GRID, 8, OptConfig(restarts=2))
        rep = expansion_constants(rep, F, field, mc_samples=20_000, seed=7, hessian_N=16)
        closed = rep.fit["det2_closed_form"]
        assert rep.alpha0 > 0
        assert abs(rep.alpha0 - closed) < 3 * rep.alpha0_se + 5e-3 * closed

    def test_alpha0_positive_nonlinear(self):
        from roughlaplace.functionals import tanh_field

        field = tanh_field(2, 2, coef_seed=5)
        F = endpoint_quadratic(0.3 * np.eye(2))
        rep = minimize_F_Lambda(F, field, H_TEST, GRID, 6, OptConfig(restarts=2))
        rep = expansion_constants(rep, F, field, mc_samples=2000, seed=11, hessian_N=6)
        assert rep.alpha0 > 0
        # theta1 and the phi2 tables do not vanish: no closed form is written
        assert "det2_closed_form" not in rep.fit

    def test_det2_closed_form_carries_G(self):
        # the closed form is G(phi0) prod (1 + mu)^(-1/2), weighted as alpha0 is
        field = constant_field(S_TEST)
        F = endpoint_quadratic(np.array([[0.5, 0.1], [0.1, 0.3]]))
        rep = minimize_F_Lambda(F, field, H_TEST, GRID, 4, OptConfig(restarts=1))
        G = dataclasses.replace(one_functional(), value=lambda v, g: np.full(v.shape[:-2], 2.0))
        plain, weighted = (
            expansion_constants(copy.deepcopy(rep), F, field, mc_samples=200, seed=3,
                                hessian_N=4, G=g)
            for g in (None, G)
        )
        assert weighted.fit["det2_closed_form"] == 2.0 * plain.fit["det2_closed_form"]
        assert weighted.alpha0 == 2.0 * plain.alpha0

    def test_alpha0_overflow_named(self):
        # F = -2000 |y_T|^2 puts the log weights near 7.7e3, past the float
        # range: a named ValueError, not alpha0 = inf with a NaN se
        field, grid = constant_field(S_TEST), TimeGrid.uniform(33)
        rep = minimize_F_Lambda(zero_functional(), field, H_TEST, grid, 4, OptConfig(restarts=1))
        F = endpoint_quadratic(-2000.0 * np.eye(2))
        with pytest.raises(ValueError, match=r"alpha0 overflows: .* largest log-integrand "
                                             r"77\d\d\.\d+"):
            expansion_constants(rep, F, field, mc_samples=64, seed=3, hessian_N=4)


class TestGaussianOracle:
    """Criterion 13's case against its exact constants (conftest.gaussian_oracle):
    a = -0.0839897, c = 0, alpha0 = 0.733128, and J(eps) itself."""

    S = np.array([[1.0, 0.3], [-0.2, 0.8]])
    Q = np.array([[0.5, 0.1], [0.1, 0.3]])
    v = np.array([0.4, -0.3])

    @pytest.fixture(scope="class")
    def report(self):
        F, field = endpoint_quadratic(self.Q, v=self.v), constant_field(self.S)
        rep = minimize_F_Lambda(F, field, H_TEST, TimeGrid.uniform(257), 16, OptConfig(restarts=1))
        return expansion_constants(rep, F, field, mc_samples=8192, seed=1013, hessian_N=16)

    def test_oracle_values(self):
        a, c, alpha0 = gaussian_oracle(self.S, self.Q, self.v)
        assert a == pytest.approx(-0.0839897, abs=5e-8)
        assert alpha0 == pytest.approx(0.733128, abs=5e-7)

    def test_a_within_truncation_floor(self, report):
        # the truncated minimum lies above the exact one by the N = 16 floor
        # of the cosine basis, measured at 5.57e-5 (257 points, H = 0.4)
        a, _, _ = gaussian_oracle(self.S, self.Q, self.v)
        assert 0.0 < report.F_Lambda_min - a < 6e-5

    def test_c_is_zero(self, report):
        assert report.c_coef == 0.0

    def test_alpha0_within_3_se(self, report):
        _, _, alpha0 = gaussian_oracle(self.S, self.Q, self.v)
        assert abs(report.alpha0 - alpha0) < 3 * report.alpha0_se

    def test_J_within_3_se(self, report):
        # shifted sampling around the truncated minimizer is unbiased for the
        # exact J(eps) = alpha0 exp(-a/eps^2); eps = 0.01 puts -a/eps^2 near
        # 840, past math.exp's range (ROADMAP item 2)
        a, _, alpha0 = gaussian_oracle(self.S, self.Q, self.v)
        F, field = endpoint_quadratic(self.Q, v=self.v), constant_field(self.S)
        grid = report.gamma.induced_path.grid
        table = mc_laplace(F, None, field, H_TEST, grid, [0.1, 0.05, 0.02], 4096,
                           use_shift=True, gamma_cm=report.gamma, seed=31)
        for eps, J, se, _ in table:
            scale = math.exp(a / eps**2)
            assert abs(J * scale - alpha0) < 3 * se * scale

    def test_J_overflow_named(self, report):
        # eps = 0.01 puts the log of J's scale near -a/eps^2 = 840, past the
        # float range: a named ValueError, not a bare OverflowError
        F, field = endpoint_quadratic(self.Q, v=self.v), constant_field(self.S)
        grid = report.gamma.induced_path.grid
        with pytest.raises(ValueError, match=r"J at eps = 0\.01 overflows: .* largest "
                                             r"log-integrand 8\d\d\.\d+"):
            mc_laplace(F, None, field, H_TEST, grid, [0.01], 64,
                       use_shift=True, gamma_cm=report.gamma, seed=31)


class TestDegenerateInputs:
    """Fewer than two samples or an empty basis fail with a named reason,
    not a NaN standard error or an empty-stack error."""

    def test_mc_one_sample(self):
        with pytest.raises(ValueError, match="n_samples"):
            mc_laplace(zero_functional(), None, constant_field(S_TEST), H_TEST, GRID, [0.5], 1)

    @pytest.mark.parametrize("eps_list", [[0.5, 0.0], [-0.1]])
    def test_mc_nonpositive_eps(self, eps_list):
        with pytest.raises(ValueError, match="eps_list must be positive"):
            mc_laplace(zero_functional(), None, constant_field(S_TEST), H_TEST, GRID, eps_list, 8)

    def test_alpha0_one_sample(self, gaussian_linear_report):
        with pytest.raises(ValueError, match="mc_samples"):
            expansion_constants(copy.deepcopy(gaussian_linear_report), endpoint_linear(V_TEST),
                                constant_field(S_TEST), mc_samples=1)

    def test_zero_truncation(self):
        with pytest.raises(ValueError, match="n_modes"):
            minimize_F_Lambda(endpoint_linear(V_TEST), constant_field(S_TEST), H_TEST, GRID, 0)

    def test_zero_hessian_modes(self, gaussian_linear_report):
        with pytest.raises(ValueError, match="n_modes"):
            expansion_constants(copy.deepcopy(gaussian_linear_report), endpoint_linear(V_TEST),
                                constant_field(S_TEST), mc_samples=2, hessian_N=0)

    def test_hessian_before_monte_carlo(self, gaussian_linear_report, monkeypatch):
        # the rejected Hessian basis is reported before any sample is drawn
        def refuse(*args, **kwargs):
            raise AssertionError("the Monte Carlo ran before the Hessian")

        monkeypatch.setattr(FbmSampler, "batch", refuse)
        with pytest.raises(ValueError, match="n_modes"):
            expansion_constants(copy.deepcopy(gaussian_linear_report), endpoint_linear(V_TEST),
                                constant_field(S_TEST), mc_samples=20_000, hessian_N=0)


class TestMcLaplace:
    def test_trivial_is_one(self):
        field = constant_field(S_TEST)
        table = mc_laplace(
            zero_functional(), one_functional(), field, H_TEST, GRID,
            [0.5, 0.25], 50, use_shift=False, seed=5,
        )
        for eps, J, se, n in table:
            assert J == pytest.approx(1.0, abs=1e-12)
            assert se == pytest.approx(0.0, abs=1e-12)
            assert n == 50

    def test_shifted_unbiased_vs_unshifted(self, gaussian_linear_report):
        field = constant_field(S_TEST)
        F = endpoint_linear(V_TEST)
        shifted = mc_laplace(
            F, None, field, H_TEST, GRID, [0.5], 4000,
            use_shift=True, gamma_cm=gaussian_linear_report.gamma, seed=55,
        )
        plain = mc_laplace(F, None, field, H_TEST, GRID, [0.5], 4000, use_shift=False, seed=56)
        z = abs(shifted[0][1] - plain[0][1]) / math.hypot(shifted[0][2], plain[0][2])
        assert z < 3.0

    def test_ldp_slope(self, gaussian_linear_report):
        field = constant_field(S_TEST)
        F = endpoint_linear(V_TEST)
        a = gaussian_linear_report.F_Lambda_min
        table = mc_laplace(
            F, None, field, H_TEST, GRID, [0.35, 0.25], 4000,
            use_shift=True, gamma_cm=gaussian_linear_report.gamma, seed=60,
        )
        for eps, J, se, n in table:
            assert -(eps**2) * math.log(J) == pytest.approx(a, rel=0.05)

    @pytest.mark.parametrize("estimate", ["alpha0", "J"])
    def test_determinism(self, gaussian_linear_report, monkeypatch, estimate):
        # the block split cannot change the numbers of either estimator
        field = constant_field(S_TEST)
        F = endpoint_linear(V_TEST)

        def run(block):
            monkeypatch.setattr(laplace, "_MC_BLOCK", block)
            if estimate == "alpha0":
                rep = expansion_constants(copy.deepcopy(gaussian_linear_report), F, field,
                                          mc_samples=500, seed=7, hessian_N=4)
                return rep.alpha0, rep.alpha0_se
            [(_, J, se, _)] = mc_laplace(F, None, field, H_TEST, GRID, [0.5], 500, use_shift=True,
                                         gamma_cm=gaussian_linear_report.gamma, seed=7)
            return J, se

        assert run(100) == run(77)

    def test_draw_freed_before_solves(self, monkeypatch):
        # the block is held once: its sample-major draw is freed as soon as
        # the step-major copy exists, before any eps is solved
        drawn, alive = [], []
        batch, heun = FbmSampler.batch, laplace.heun_controlled

        def recording_batch(self, lo, hi):
            X, eta = batch(self, lo, hi)
            drawn.append(weakref.ref(X))
            return X, eta

        def checking_heun(*args, **kwargs):
            alive.append(drawn[-1]() is not None)
            return heun(*args, **kwargs)

        monkeypatch.setattr(FbmSampler, "batch", recording_batch)
        monkeypatch.setattr(laplace, "heun_controlled", checking_heun)
        mc_laplace(zero_functional(), None, constant_field(S_TEST), H_TEST, GRID, [0.5, 0.25], 50)
        assert alive == [False, False]

    def test_block_footprint_two_paths(self):
        # one shifted block at 257 points holds at most about two path-sized
        # arrays at a time (draw and paths, the coordinate-major copy, the
        # samples and the solution): the stepper builds no eps X + gamma and
        # no increments array, which made the peak 3.09 path arrays
        import tracemalloc

        grid = TimeGrid.uniform(257)
        gamma = cm_map([[0.3, -0.2], [0.1, 0.05]], H_TEST, grid)
        F = endpoint_quadratic([[0.5, 0.1], [0.1, 0.3]], v=[0.4, -0.3])
        tracemalloc.start()
        try:
            mc_laplace(F, None, constant_field(S_TEST), H_TEST, grid, [0.5], laplace._MC_BLOCK,
                       use_shift=True, gamma_cm=gamma)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * laplace._MC_BLOCK * len(grid) * 2 * 8


class TestWorkers:
    """workers = 2 runs the blocks in forked processes; every number must be
    the one workers = 1 gives.  A small grid and blocks of 128 samples give
    several blocks per call."""

    grid = TimeGrid.uniform(33)
    field = constant_field(S_TEST)
    F = endpoint_quadratic([[0.5, 0.1], [0.1, 0.3]], v=[0.4, -0.3])

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(laplace, "_MC_BLOCK", 128)

    @pytest.fixture(scope="class")
    def report(self):
        return minimize_F_Lambda(self.F, self.field, H_TEST, self.grid, 4, OptConfig(restarts=3))

    def test_minimize_starts_no_pool(self, monkeypatch):
        # the restarts run in lockstep in the calling process
        def refuse(*args, **kwargs):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(multiprocessing, "get_context", refuse)
        rep = minimize_F_Lambda(self.F, self.field, H_TEST, self.grid, 4, OptConfig(restarts=3))
        assert len(rep.optimizer["iterations"]) == 3

    def test_expansion_constants(self, report):
        one, two = (
            expansion_constants(copy.deepcopy(report), self.F, self.field, mc_samples=600,
                                seed=3, hessian_N=4, workers=w)
            for w in (1, 2)
        )
        assert (two.c_coef, two.alpha0, two.alpha0_se) == (one.c_coef, one.alpha0, one.alpha0_se)
        assert two.fit == one.fit

    def test_mc_laplace(self, report):
        one, two = (
            mc_laplace(self.F, None, self.field, H_TEST, self.grid, [0.5, 0.3], 600,
                       use_shift=True, gamma_cm=report.gamma, seed=8, workers=w)
            for w in (1, 2)
        )
        assert two == one

    def test_worker_error_reaches_caller(self, report):
        tight = dataclasses.replace(self.field, guard=0.5)
        with pytest.raises(DivergenceError, match="exceeded"):
            mc_laplace(self.F, None, tight, H_TEST, self.grid, [0.5], 600, use_shift=True,
                       gamma_cm=report.gamma, seed=8, workers=2)

    def test_dead_worker_raises(self):
        def die_on_two(b):
            if b == 2:
                os._exit(1)
            return b

        with pytest.raises(BrokenProcessPool):
            _map_blocks(die_on_two, range(4), 2)

    def test_one_worker_starts_no_process(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(multiprocessing, "get_context", refuse)
        assert _map_blocks(lambda b: b * b, range(4), 1) == [0, 1, 4, 9]
        table = mc_laplace(self.F, None, self.field, H_TEST, self.grid, [0.5], 300)
        assert len(table) == 1
        # one block needs no pool either
        assert _map_blocks(lambda b: -b, [3], 2) == [-3]

    def test_workers_below_one_rejected(self):
        with pytest.raises(ValueError, match="workers must be at least 1"):
            _map_blocks(abs, [1, 2], 0)


def sequential_minimize(functional, field, H, grid, N, opt):
    """Reference for the lockstep minimizer: each restart descends alone,
    one expansion context and one co-state per objective evaluation.
    Returns per restart (coefficients, value, iterations, backtracks)."""
    k_stack = cm_basis(H, grid, N, field.d)
    dk_stack = np.diff(k_stack, axis=-2)
    nb = len(k_stack)

    def objective_grad(coeffs):
        ctx = expansion_context(field, SampledPath(grid, np.einsum("a,atd->td", coeffs, k_stack)))
        Np, n = ctx.phi0.values.shape
        units = np.eye(Np * n).reshape(Np * n, Np, n)
        g = np.asarray(functional.grad(ctx.phi0.values, units, grid), dtype=float)
        lam = linear_perturbation_costate(ctx.flow, g.reshape(Np, n))
        covector = np.einsum("ia,iap->ip", lam, ctx.B_sigma)
        gradient = coeffs + np.einsum("...ij,...ij->...", dk_stack, covector)
        value = float(functional.value(ctx.phi0.values, grid)) + 0.5 * float((coeffs**2).sum())
        return value, gradient

    def descend(c):
        val, grad = objective_grad(c)
        iterations = backtracks = 0
        for _ in range(opt.max_iters):
            if float(np.abs(grad).max()) < opt.grad_tol:
                break
            step = opt.step0
            while step > 1e-14:
                cand = c - step * grad
                v2, g2 = objective_grad(cand)
                if v2 <= val - opt.armijo * step * float((grad**2).sum()):
                    c, val, grad = cand, v2, g2
                    iterations += 1
                    break
                step *= opt.backtrack
                backtracks += 1
            else:
                break
        return c, val, iterations, backtracks

    rng = substream(opt.seed, _STREAM_OPT, 0)
    starts = [np.zeros(nb)] + [
        opt.init_scale * rng.standard_normal(nb) for _ in range(max(1, opt.restarts) - 1)
    ]
    return [descend(c0) for c0 in starts]


class TestLockstep:
    """The lockstep minimizer against restarts that descend one at a time:
    bit for bit on a constant field, to rounding on a tanh field, with the
    same iteration and backtrack counts."""

    grid = TimeGrid.uniform(33)
    F = endpoint_quadratic([[0.5, 0.1], [0.1, 0.3]], v=[0.4, -0.3])
    FIELDS = {"constant": constant_field(S_TEST), "tanh": tanh_field(2, 2, coef_seed=5)}
    OPTS = {"default": OptConfig(), "backtracking": OptConfig(restarts=4, step0=4.0, max_iters=12)}

    @pytest.mark.parametrize("opt_name", sorted(OPTS))
    @pytest.mark.parametrize("field_name", sorted(FIELDS))
    def test_matches_sequential(self, field_name, opt_name):
        field, opt = self.FIELDS[field_name], self.OPTS[opt_name]
        rep = minimize_F_Lambda(self.F, field, H_TEST, self.grid, 4, opt)
        ref = sequential_minimize(self.F, field, H_TEST, self.grid, 4, opt)
        record = rep.optimizer
        assert record["iterations"] == [r[2] for r in ref]
        assert record["backtracks"] == [r[3] for r in ref]
        # each round evaluates every restart still descending
        assert record["rounds"] == 1 + max(i + b for _, _, i, b in ref)
        best = min(range(len(ref)), key=lambda r: ref[r][1])
        got = np.array(record["values"] + rep.gamma.coeffs.reshape(-1).tolist())
        want = np.array([r[1] for r in ref] + ref[best][0].tolist())
        if field_name == "constant":
            assert np.array_equal(got, want)
        else:
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_backtracking_case_stops_in_different_rounds(self):
        ref = sequential_minimize(self.F, self.FIELDS["tanh"], H_TEST, self.grid, 4,
                                  self.OPTS["backtracking"])
        assert min(b for *_, b in ref) > 0
        assert len({i + b for *_, i, b in ref}) > 1

    def test_divergence_raises(self):
        # the random starts carry |phi0| past 0.5 on the constant field
        tight = dataclasses.replace(self.FIELDS["constant"], guard=0.5)
        with pytest.raises(DivergenceError, match="exceeded"):
            minimize_F_Lambda(self.F, tight, H_TEST, self.grid, 4, OptConfig(restarts=3))


class TestExpansionFit:
    def test_synthetic_roundtrip(self):
        rng = np.random.default_rng(0)
        a, c = 0.8, -0.3
        alpha = [1.2, -0.4, 0.25]
        eps = np.array([0.5, 0.4, 0.3, 0.2, 0.15, 0.1])
        z = alpha[0] + alpha[1] * eps + alpha[2] * eps**2
        se_z = np.full_like(eps, 1e-4)
        J = z * np.exp(-a / eps**2 - c / eps)
        se = se_z * np.exp(-a / eps**2 - c / eps)
        noisy = J + rng.standard_normal(len(eps)) * se
        table = [(float(e), float(j), float(s), 1000) for e, j, s in zip(eps, noisy, se)]
        fit = expansion_fit(table, a=a, c=c, order=2)
        for got, want, se_c in zip(fit["coefficients"], alpha, fit["coefficient_se"]):
            assert abs(got - want) < 4 * se_c

    def test_trivial_functional_fit(self):
        eps = [0.5, 0.4, 0.3, 0.2]
        table = [(e, 1.0, 0.0, 10) for e in eps]
        fit = expansion_fit(table, a=0.0, c=0.0, order=2)
        assert fit["coefficients"][0] == pytest.approx(1.0, abs=1e-10)
        assert fit["coefficients"][1] == pytest.approx(0.0, abs=1e-9)
        assert fit["coefficients"][2] == pytest.approx(0.0, abs=1e-9)

    def test_condition_guard(self):
        # duplicated eps values with degree 2 make the design singular
        table = [(0.5, 1.0, 0.01, 10)] * 4
        with pytest.raises(ValueError, match="condition|enough"):
            expansion_fit(table, a=0.0, c=0.0, order=2)


class TestKappaLadder:
    def test_h04(self):
        lad = kappa_ladder(0.4, 9)
        assert np.allclose(lad.indices, [0, 1, 2, 2.5, 3, 3.5, 4, 4.5, 5], atol=1e-12)

    def test_h03(self):
        lad = kappa_ladder(0.3, 8)
        want = [0, 1, 2, 3, 10 / 3, 4, 13 / 3, 5]
        assert np.allclose(lad.indices, want, atol=1e-12)

    def test_kappa0_zero(self):
        for H in (0.28, 0.37, 0.49):
            assert kappa_ladder(H, 3).indices[0] == 0.0

    def test_rejections(self):
        with pytest.raises(ValueError):
            kappa_ladder(1 / 3, 5)
        with pytest.raises(ValueError):
            kappa_ladder(0.6, 5)

    @given(st.floats(0.26, 0.49), st.integers(2, 12))
    @settings(max_examples=40, deadline=None)
    def test_reconstruction(self, H, count):
        if abs(H - 1 / 3) < 1e-3:
            return
        lad = kappa_ladder(H, count)
        assert all(v2 > v1 for v1, v2 in zip(lad.indices[:-1], lad.indices[1:]))
        for kappa in lad.indices:
            witness = kappa_reconstruct(lad, kappa)
            assert witness is not None
            n1, n2 = witness
            assert n1 >= 0 and n2 >= 0
            assert abs(n1 + n2 / H - kappa) < 1e-9

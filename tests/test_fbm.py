import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import hyp2f1, roots_jacobi
from scipy.stats import ks_2samp

from roughlaplace.fbm import (
    _SCHUR_RTOL,
    _STREAM_FBM,
    _STREAM_MC,
    CameronMartinVector,
    FbmSampler,
    HurstParams,
    _cov_matrix,
    _hyp2f1_series,
    _kernel_hyp2f1,
    _volterra_scale,
    cm_basis,
    cm_map,
    fbm_cov,
    onb_interp,
    sample_fbm,
    sample_fbm_ensemble,
    substream,
    volterra_kernel,
    volterra_kernel_info,
)
from roughlaplace.functionals import constant_field, endpoint_quadratic
from roughlaplace.grids import SampledPath, TimeGrid
from roughlaplace.laplace import OptConfig, minimize_F_Lambda
from roughlaplace.variation import pvar_exact


class TestHurstParams:
    def test_default_window(self):
        for H in (0.3, 0.35, 0.4, 0.45):
            hp = HurstParams.default(H)
            assert all(ok for _, ok in hp.window_checks())

    def test_window_rejection(self):
        with pytest.raises(ValueError, match="1/q"):
            HurstParams(H=0.4, p=2.8, q=1.6)  # 1/q = 0.625 < 3/4

    def test_levels(self):
        assert HurstParams.default(0.4).level == 2
        assert HurstParams.default(0.3).level == 3

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            HurstParams.default(0.2)


class TestCovariance:
    def test_brownian_reduction(self):
        assert fbm_cov(0.3, 0.7, 0.5) == pytest.approx(0.3, abs=1e-15)
        assert fbm_cov(0.9, 0.2, 0.5) == pytest.approx(0.2, abs=1e-15)

    def test_variance_on_diagonal(self):
        for H in (0.3, 0.45):
            assert fbm_cov(0.6, 0.6, H) == pytest.approx(0.6 ** (2 * H), rel=1e-14)

    def test_gram_psd(self):
        t = np.linspace(0, 1, 65)[1:]
        for H in (0.3, 0.4):
            C = np.array([[fbm_cov(s, u, H) for s in t] for u in t])
            assert np.linalg.eigvalsh(C).min() >= -1e-10


class TestSampling:
    def test_increment_variance(self):
        g = TimeGrid.uniform(65)
        H = 0.4
        arr = np.stack([p.values for p in sample_fbm_ensemble(g, H, 1, 10_000, seed=9)])
        i, j = g.index_of(0.25), g.index_of(0.75)
        var = float(np.var(arr[:, j, 0] - arr[:, i, 0]))
        assert abs(var - 0.5 ** (2 * H)) / 0.5 ** (2 * H) < 0.05

    def test_endpoint_moments(self):
        g = TimeGrid.uniform(33)
        arr = np.stack([p.values for p in sample_fbm_ensemble(g, 0.35, 1, 10_000, seed=4)])
        w1 = arr[:, -1, 0]
        assert abs(w1.mean()) < 4.0 / math.sqrt(10_000)  # 4 sigma band around 0
        assert abs(np.mean(w1**2) - 1.0) < 0.05

    def test_self_similarity_ks(self):
        g = TimeGrid.uniform(65)
        H, c = 0.4, 0.5
        a1 = np.stack([p.values for p in sample_fbm_ensemble(g, H, 1, 10_000, seed=1)])
        a2 = np.stack([p.values for p in sample_fbm_ensemble(g, H, 1, 10_000, seed=2)])
        res = ks_2samp(c ** (-H) * a1[:, g.index_of(c), 0], a2[:, -1, 0])
        assert res.pvalue > 0.01

    def test_determinism_and_stream_independence(self):
        g = TimeGrid.uniform(33)
        a = sample_fbm(g, 0.4, 2, rng_seed=123)
        b = sample_fbm_ensemble(g, 0.4, 2, 3, seed=123)
        assert np.array_equal(a.values, b[0].values)
        again = sample_fbm_ensemble(g, 0.4, 2, 3, seed=123)
        for p, q in zip(b, again):
            assert np.array_equal(p.values, q.values)

    def test_substream_disjoint(self):
        a = substream(7, 1, 0).standard_normal(4)
        b = substream(7, 1, 1).standard_normal(4)
        c = substream(7, 2, 0).standard_normal(4)
        assert not np.allclose(a, b)
        assert not np.allclose(a, c)
        assert np.array_equal(a, substream(7, 1, 0).standard_normal(4))


class TestVolterraKernel:
    def test_degenerate_at_half(self):
        for (t, s) in [(0.8, 0.3), (1.0, 0.999), (0.5, 0.0001)]:
            assert volterra_kernel(t, s, 0.5) == 1.0

    def test_indicator(self):
        assert volterra_kernel(0.3, 0.5, 0.4) == 0.0
        assert volterra_kernel(0.3, 0.3, 0.4) == 0.0

    def test_singular_origin_rejected(self):
        with pytest.raises(ValueError):
            volterra_kernel(0.5, 0.0, 0.4)

    def test_series_matches_scipy(self):
        for H in (0.3, 0.35, 0.45):
            for (t, s) in [(0.9, 0.5), (0.7, 0.1), (1.0, 0.97)]:
                ours = volterra_kernel(t, s, H)
                ref = (
                    _volterra_scale(H)
                    * (t - s) ** (H - 0.5)
                    * (t / s) ** (0.5 - H)
                    * hyp2f1(H - 0.5, 2 * H, H + 0.5, 1 - s / t)
                )
                assert ours == pytest.approx(ref, rel=1e-12)

    def test_series_termination(self):
        # measured ceiling for the series over s/t >= 0.05 at H = 0.3 (the
        # worst case in this range is ~431 terms at the smallest ratio)
        worst = max(
            volterra_kernel_info(1.0, st_, 0.3)[1] for st_ in np.linspace(0.05, 0.95, 19)
        )
        assert worst <= 450

    def test_covariance_identity_spot(self):
        # int_0^{s^t} K(t,u) K(s,u) du = cov, via the singularity-absorbing
        # substitution u = w^(1/2H); oracle quadrature, library kernel body
        H, s, t = 0.4, 0.5, 0.9
        p = 2 * H

        def reg(tt, u):
            return volterra_kernel(tt, u, H) * u ** (0.5 - H)

        u_min = 1e-3 * s

        def G_scipy(w):
            u = w ** (1 / p)
            f = lambda tt: _volterra_scale(H) * (tt - u) ** (H - 0.5) * tt ** (0.5 - H) * hyp2f1(
                H - 0.5, 2 * H, H + 0.5, 1 - u / tt
            )
            return f(t) * f(s)

        head, _ = quad(G_scipy, 0, u_min**p, limit=200)
        body, _ = quad(
            lambda w: reg(t, w ** (1 / p)) * reg(s, w ** (1 / p)),
            u_min**p, s**p, points=[(s * (1 - 1e-4)) ** p], limit=300,
        )
        val = (head + body) / p
        assert val == pytest.approx(fbm_cov(s, t, H), rel=1e-4)

    @pytest.mark.parametrize("H", [0.26, 0.3, 1 / 3, 0.4, 0.45, 0.49])
    def test_connection_formula_matches_scipy(self, H):
        # the 96 Jacobi nodes of the Cameron-Martin quadrature, plus points
        # on both sides of the x = 1/2 split between the two series
        xs = (roots_jacobi(96, H - 0.5, H - 0.5)[0] + 1.0) / 2.0
        xs = np.concatenate([xs, [1e-9, 0.01, 0.5 - 1e-12, 0.5, 0.5 + 1e-12, 0.99, 1 - 1e-9]])
        # round-trip so that x and 1 - x are both exact: near x = 0 the
        # factor x^{1-2H} turns the rounding of 1 - x into a 5e-13 change
        xs = 1.0 - (1.0 - xs)
        ours, n_terms = _kernel_hyp2f1(H, xs)
        ref = hyp2f1(H - 0.5, 2 * H, H + 0.5, 1.0 - xs)
        np.testing.assert_allclose(ours, ref, rtol=1e-13, atol=0.0)
        assert n_terms <= 40

    @pytest.mark.parametrize("H", [0.26, 0.4, 0.49])
    def test_scalar_and_node_paths_agree(self, H):
        xs = (roots_jacobi(96, H - 0.5, H - 0.5)[0] + 1.0) / 2.0
        nodes, _ = _kernel_hyp2f1(H, xs)
        for x, F in zip(xs, nodes):
            scalar, _ = _kernel_hyp2f1(H, float(x))
            assert isinstance(scalar, float)
            assert scalar == pytest.approx(F, rel=1e-14)
        # volterra_kernel is the node value times its prefactor
        t, s = 0.8, 0.8 * float(xs[10])
        pre = _volterra_scale(H) * (t - s) ** (H - 0.5) * (t / s) ** (0.5 - H)
        assert volterra_kernel(t, s, H) == pytest.approx(pre * nodes[10], rel=1e-14)


class TestCmMap:
    def test_brownian_case(self):
        g = TimeGrid.uniform(33)
        cm = cm_map(np.array([[1.0]]), 0.5, g)
        assert np.abs(cm.induced_path.values[:, 0] - g.points).max() < 1e-14

    def test_unitarity_by_construction(self):
        g = TimeGrid.uniform(33)
        cm = cm_map(np.array([[0.3], [1.2], [0.0], [-0.7]]), 0.4, g)
        assert cm.norm_sq() == pytest.approx(0.09 + 1.44 + 0.49, rel=1e-12)
        cm2 = cm_map(np.array([[1.0], [0.5]]), 0.4, g)
        assert cm.inner(cm2) == pytest.approx(0.3 * 1.0 + 1.2 * 0.5, rel=1e-12)

    @given(st.floats(-2, 2), st.floats(-2, 2))
    @settings(max_examples=10, deadline=None)
    def test_linearity(self, a, b):
        g = TimeGrid.uniform(17)
        h1 = np.array([[0.5], [1.0]])
        h2 = np.array([[0.2], [-0.3]])
        k1 = cm_map(h1, 0.4, g).induced_path.values
        k2 = cm_map(h2, 0.4, g).induced_path.values
        k12 = cm_map(a * h1 + b * h2, 0.4, g).induced_path.values
        assert np.abs(a * k1 + b * k2 - k12).max() < 1e-10

    def test_quadrature_against_scipy(self):
        # oracle: adaptive quadrature of the scipy-built kernel, with the
        # substitution u = w^(1/(H+1/2)) absorbing the u -> 0 singularity
        g = TimeGrid.uniform(65)
        H = 0.4
        k = cm_map(np.array([[0.0], [1.0]]), H, g).induced_path
        h = lambda s: math.sqrt(2) * np.cos(np.pi * s)
        r = H + 0.5

        def k_oracle(t):
            def integrand(w):
                u = w ** (1 / r)
                k_reg = (
                    _volterra_scale(H)
                    * (t - u) ** (H - 0.5)
                    * t ** (0.5 - H)
                    * hyp2f1(H - 0.5, 2 * H, H + 0.5, 1 - u / t)
                )
                return k_reg * h(u)

            val, _ = quad(integrand, 0.0, t**r, points=[(t * (1 - 1e-5)) ** r], limit=300)
            return val / r

        for idx in (16, 45, 64):  # evaluate at grid points (no interpolation)
            t = g.points[idx]
            assert k.values[idx, 0] == pytest.approx(k_oracle(t), abs=2e-5)

    def test_qvar_stable_under_refinement(self):
        vals = []
        for npts in (129, 257):
            g = TimeGrid.uniform(npts)
            k = cm_map(np.array([[0.0], [1.0]]), 0.4, g).induced_path
            vals.append(pvar_exact(k, 1.2).value)
        assert vals[1] == pytest.approx(vals[0], rel=1e-3)

    def test_sampled_h_input(self):
        g = TimeGrid.uniform(65)
        hp = SampledPath(g, np.ones((65, 1)))
        cm = cm_map(hp, 0.5)
        assert np.abs(cm.induced_path.values[:, 0] - g.points).max() < 1e-6


class TestOnbInterp:
    def test_constant_member(self):
        g = TimeGrid.uniform(33)
        mem = onb_interp(0.8, 2, 2, g)
        assert np.allclose(mem[0].values[:, 0], 1.0)
        assert np.allclose(mem[1].values[:, 1], 1.0)

    def test_sequence_model_norm(self):
        # (1+n^2)^delta |c_n|^2 = 1 for the n-th member
        delta = 0.85
        for n in (1, 4, 9):
            c_n = math.sqrt(2) * (1 + n**2) ** (-delta / 2) / math.sqrt(2)
            assert (1 + n**2) ** delta * c_n**2 == pytest.approx(1.0)

    def test_discrete_orthonormality(self):
        g = TimeGrid.uniform(1025)
        delta = 0.88
        mem = onb_interp(delta, 8, 1, g)
        w = np.ones(1025)
        w[0] = w[-1] = 0.5
        w /= 1024
        for i in range(9):
            for j in range(i, 9):
                fi = mem[i].values[:, 0] * (1 + i**2) ** (delta / 2)
                fj = mem[j].values[:, 0] * (1 + j**2) ** (delta / 2)
                ip = float((fi * fj * w).sum())
                assert ip == pytest.approx(1.0 if i == j else 0.0, abs=1e-6)

    def test_pvar_decay_slope(self):
        H = 0.4
        hp = HurstParams.default(H)
        delta = hp.delta
        g = TimeGrid.uniform(1025)
        ns = [4, 8, 16, 32, 64]
        mem = onb_interp(delta, 64, 1, g)
        norms = [pvar_exact(mem[n], hp.p).value for n in ns]
        slope = np.polyfit(np.log(ns), np.log(norms), 1)[0]
        assert abs(slope - (-(1 / hp.q - 1 / hp.p))) < 0.1

    def test_validation(self):
        g = TimeGrid.uniform(9)
        with pytest.raises(ValueError):
            onb_interp(0.4, 2, 1, g)


def test_cm_basis_order_and_orthonormality():
    g = TimeGrid.uniform(33)
    basis = cm_basis(0.4, g, 3, 2)
    assert len(basis) == 6
    # mode-major order: member 2 is mode 1 coordinate 0
    assert basis[2].coeffs[1, 0] == 1.0
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            assert a.inner(b) == pytest.approx(1.0 if i == j else 0.0, abs=1e-15)


def test_hyp2f1_series_consistency():
    for (a, b, c) in [(-0.1, 0.8, 0.9), (-0.2, 0.6, 0.8)]:
        for z in (0.0, 0.3, 0.9):
            ours, _ = _hyp2f1_series(a, b, c, z)
            assert ours == pytest.approx(float(hyp2f1(a, b, c, z)), rel=1e-12)


class _AugmentedCholeskyOracle:
    """The former batched sampler: per coordinate, the Cholesky factor of the
    augmented covariance [[C, g_i], [g_i^T, ||gamma^i||^2]] applied to the
    sample's m+1 normals; eta sums the last rows."""

    def __init__(self, grid, H, d, seed, gamma):
        self.d, self.seed = d, seed
        self.m = len(grid.points) - 1
        C = _cov_matrix(grid.points[1:], H)
        g = gamma.induced_path.values
        self.L = []
        for i in range(d):
            Cx = np.zeros((self.m + 1, self.m + 1))
            Cx[: self.m, : self.m] = C
            Cx[: self.m, self.m] = Cx[self.m, : self.m] = g[1:, i]
            Cx[self.m, self.m] = float((gamma.coeffs[:, i] ** 2).sum())
            self.L.append(np.linalg.cholesky(Cx))

    def batch(self, lo, hi):
        n, k = hi - lo, self.m + 1
        Z = np.stack([substream(self.seed, _STREAM_MC, lo + j).standard_normal((k, self.d))
                      for j in range(n)])
        vals = np.zeros((n, self.m + 1, self.d))
        eta = np.zeros(n)
        for i in range(self.d):
            raw = Z[:, :, i] @ self.L[i].T
            vals[:, 1:, i] = raw[:, : self.m]
            eta += raw[:, self.m]
        return vals, eta


class TestFbmSampler:
    H = 0.4
    grid = TimeGrid.uniform(65)

    @pytest.fixture(scope="class")
    def gamma(self):
        # minimizer of the Gaussian case with linear term v = [0.4, -0.3]
        F = endpoint_quadratic([[0.5, 0.1], [0.1, 0.3]], v=[0.4, -0.3])
        field = constant_field([[1.0, 0.3], [-0.2, 0.8]])
        return minimize_F_Lambda(F, field, self.H, self.grid, 4, OptConfig(restarts=1)).gamma

    def test_pairing_matches_augmented_cholesky(self, gamma):
        assert gamma.norm_sq() > 0.01
        vals, eta = FbmSampler(self.grid, self.H, 2, 17, kind=_STREAM_MC, gamma=gamma).batch(3, 203)
        ref_vals, ref_eta = _AugmentedCholeskyOracle(self.grid, self.H, 2, 17, gamma).batch(3, 203)
        assert np.abs(vals - ref_vals).max() < 1e-12
        assert np.abs(eta - ref_eta).max() < 1e-12

    def test_zero_gamma_is_exact(self, caplog):
        zero = CameronMartinVector(
            coeffs=np.zeros((4, 2)), induced_path=SampledPath(self.grid, np.zeros((65, 2))),
            hurst=HurstParams.default(self.H),
        )
        with caplog.at_level(logging.DEBUG, logger="roughlaplace.fbm"):
            paired = FbmSampler(self.grid, self.H, 2, 9, kind=_STREAM_MC, gamma=zero)
            vals, eta = paired.batch(0, 100)
            plain, none = FbmSampler(self.grid, self.H, 2, 9, kind=_STREAM_MC).batch(0, 100)
        assert none is None
        assert np.array_equal(eta, np.zeros(100))
        assert np.array_equal(vals, plain)
        assert not any("jitter" in r.getMessage() for r in caplog.records)

    def test_negative_schur_complement_rejected(self, gamma):
        # grid values of gamma with a norm too small for them: s < 0 far
        # beyond rounding
        shrunk = CameronMartinVector(
            coeffs=0.5 * gamma.coeffs, induced_path=gamma.induced_path, hurst=gamma.hurst,
        )
        with pytest.raises(ValueError, match="negative Schur complement"):
            FbmSampler(self.grid, self.H, 2, 1, gamma=shrunk)
        # within the rounding bound the complement is clamped to 0
        g = gamma.induced_path.values[1:]
        w = np.linalg.solve(np.linalg.cholesky(_cov_matrix(self.grid.points[1:], self.H)), g)
        w_sq = (w**2).sum(axis=0)
        coeffs = np.sqrt(w_sq * (1.0 - 0.5 * _SCHUR_RTOL))[None, :]
        tight = CameronMartinVector(coeffs=coeffs, induced_path=gamma.induced_path, hurst=gamma.hurst)
        assert np.array_equal(FbmSampler(self.grid, self.H, 2, 1, gamma=tight).pairing[-1], np.zeros(2))

    @pytest.mark.parametrize("kind", [_STREAM_FBM, _STREAM_MC])
    @pytest.mark.parametrize("paired", [False, True])
    def test_batch_draws_substreams(self, gamma, kind, paired):
        # the reset generator draws exactly the per-index substream normals,
        # also after other indices have been drawn
        sampler = FbmSampler(self.grid, self.H, 2, 23, kind=kind, gamma=gamma if paired else None)
        sampler.batch(100, 103)
        vals, eta = sampler.batch(5, 45)
        k = 65 if paired else 64
        Z = np.stack([substream(23, kind, j).standard_normal((k, 2)) for j in range(5, 45)])
        assert np.array_equal(vals[:, 0], np.zeros((40, 2)))
        assert np.array_equal(vals[:, 1:], np.matmul(sampler.L, Z[:, :64]))
        if paired:
            assert np.array_equal(eta, np.einsum("nkd,kd->n", Z, sampler.pairing))
        else:
            assert eta is None

    def test_ensemble_is_per_sample_product(self):
        n, d = 40, 3
        ens = np.stack([p.values for p in sample_fbm_ensemble(self.grid, self.H, d, n, seed=5)])
        L = np.linalg.cholesky(_cov_matrix(self.grid.points[1:], self.H))
        for j in range(n):
            z = substream(5, _STREAM_FBM, j).standard_normal((64, d))
            ref = L @ z
            assert np.abs(ens[j, 1:] - ref).max() <= 1e-14 * np.abs(ref).max()
            assert np.array_equal(ens[j, 0], np.zeros(d))

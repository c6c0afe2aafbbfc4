import json
import math
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_smooth_path
from roughlaplace.fbm import HurstParams, cm_basis, cm_map, substream
from roughlaplace.functionals import constant_field, endpoint_quadratic, tanh_field, zero_functional
from roughlaplace.grids import SampledPath, TimeGrid
from roughlaplace.hessian import det2, hessian_matrix, hs_tail, log_det2, r_forms, v_forms
from roughlaplace.odes import linear_flow
from roughlaplace.taylor import compute_chi, compute_psi, expansion_context
from roughlaplace.variation import pvar_exact


@pytest.fixture(scope="module")
def ctx257():
    g = TimeGrid.uniform(257)
    field = tanh_field(2, 2, coef_seed=5)
    gamma = SampledPath(g, np.stack([0.3 * np.sin(2 * g.points), 0.2 * g.points], axis=1))
    return expansion_context(field, gamma)


@pytest.fixture(scope="module")
def fk257(ctx257):
    g = ctx257.grid
    f = SampledPath(g, np.stack([np.sin(g.points), 0.5 * np.cos(2 * g.points) - 0.5], axis=1))
    k = SampledPath(g, np.stack([0.3 * g.points**2, 0.4 * np.sin(2 * g.points)], axis=1))
    return f, k


class TestVForms:
    def test_zero_inputs(self, ctx257):
        z = SampledPath(ctx257.grid, np.zeros((257, 2)))
        V1, V2 = v_forms(ctx257, z, z)
        assert np.abs(V1.values).max() == 0.0
        assert np.abs(V2.values).max() == 0.0

    def test_split_sums_to_twice_psi(self, ctx257, fk257):
        f, k = fk257
        V1, V2 = v_forms(ctx257, f, k)
        psi = compute_psi(ctx257, f, k)
        assert np.abs(V1.values + V2.values - 2 * psi.values).max() < 1e-8

    def test_constant_sigma_vanishes(self, fk257):
        f, k = fk257
        g = f.grid
        field = constant_field(np.eye(2))
        ctx = expansion_context(field, SampledPath(g, np.zeros((257, 2))))
        V1, V2 = v_forms(ctx, f, k)
        assert np.abs(V1.values).max() == 0.0
        assert np.abs(V2.values).max() == 0.0


class TestRForms:
    def test_zero_f(self, ctx257, fk257):
        _, k = fk257
        z = SampledPath(ctx257.grid, np.zeros((257, 2)))
        R1, R2 = r_forms(ctx257, z, k)
        assert np.abs(R1.values).max() == 0.0
        assert np.abs(R2.values).max() == 0.0

    def test_decomposition_identity(self, ctx257, fk257):
        f, k = fk257
        V1, _ = v_forms(ctx257, f, k)
        R1fk, R2fk = r_forms(ctx257, f, k)
        R1kf, R2kf = r_forms(ctx257, k, f)
        lhs = V1.values
        rhs = R1fk.values + R1kf.values - R2fk.values - R2kf.values
        assert np.abs(lhs - rhs).max() < 1e-8

    def test_inner_integral_vs_left_young(self, ctx257, fk257):
        # the exact integration-by-parts inner path agrees with the direct
        # left-point Young evaluation of int d[M^{-1} sigma] f at grid tolerance
        f, _ = fk257
        flow = linear_flow(ctx257.gamma, ctx257.phi0, ctx257.field)
        Minv_sig = np.einsum("tab,tbd->tad", flow.Minv, ctx257.sigma0)
        dG = np.diff(Minv_sig, axis=0)
        inner = np.vstack(
            [np.zeros((1, 2)), np.cumsum(np.einsum("iad,id->ia", dG, f.values[:-1]), axis=0)]
        )
        g_direct = np.einsum("tab,tb->ta", flow.M, inner)
        g_ibp = (
            np.einsum("iab,ib->ia", ctx257.sigma0, f.values)
            - compute_chi(ctx257, f).values
        )
        assert np.abs(g_direct - g_ibp).max() < 1e-3

    def test_r2_bilinear_bound(self, ctx257):
        # ||R2<f,k>|| <= c ||f|| ||k||: empirical constant bounded over basis pairs
        hp = HurstParams.default(0.4)
        from roughlaplace.fbm import onb_interp

        basis = onb_interp(hp.delta, 6, 1, ctx257.grid)

        def path_norm(p):
            # the path p-variation norm includes the starting value
            return float(np.linalg.norm(p.values[0])) + pvar_exact(p, hp.p).value

        consts = []
        for i in (0, 2, 4, 6):
            for j in (1, 3, 5):
                fi = SampledPath(ctx257.grid, np.repeat(basis[i].values, 2, axis=1))
                kj = SampledPath(ctx257.grid, np.repeat(basis[j].values, 2, axis=1))
                _, R2 = r_forms(ctx257, fi, kj)
                consts.append(pvar_exact(R2, hp.p).value / (path_norm(fi) * path_norm(kj)))
        assert max(consts) < 10 * np.median(consts) + 1.0


class TestHessianMatrix:
    def test_constant_functional(self, ctx257):
        hm = hessian_matrix(zero_functional(), ctx257, 4, H=0.4)
        assert np.abs(hm.A).max() == 0.0

    def test_gamma_hash_is_crc32(self):
        # the hash must not depend on the process (Python's str/bytes hash()
        # is salted per process), so it is the CRC-32 of the gamma samples
        g = TimeGrid.uniform(129)
        gamma = SampledPath(g, g.points[:, None] * np.array([0.5, -0.25]))
        ctx = expansion_context(constant_field(np.eye(2)), gamma)
        meta = json.loads(hessian_matrix(zero_functional(), ctx, 2, H=0.4).meta_json())
        assert meta["gamma_hash"] == zlib.crc32(gamma.values.tobytes())
        if np.little_endian:
            assert meta["gamma_hash"] == 400310380

    def test_gaussian_linear_closed_form(self):
        # sigma constant, F quadratic in the endpoint: entries reduce to
        # grad2F<S e_a(1), S e_b(1)> with e_a the CM basis paths
        g = TimeGrid.uniform(129)
        S = np.array([[1.0, 0.3], [-0.2, 0.8]])
        Q = np.array([[0.5, 0.1], [0.1, 0.3]])
        field = constant_field(S)
        F = endpoint_quadratic(Q)
        ctx = expansion_context(field, SampledPath(g, np.zeros((129, 2))))
        N = 4
        hm = hessian_matrix(F, ctx, N, H=0.4)
        basis = cm_basis(0.4, g, N, 2)
        ends = np.stack([S @ b.induced_path.values[-1] for b in basis])
        want = np.einsum("ia,ab,jb->ij", ends, Q, ends)
        assert np.abs(hm.A - want).max() < 1e-10

    def test_symmetry_and_fd_oracle(self, ctx257):
        Q = np.array([[0.4, 0.0], [0.0, 0.2]])
        F = endpoint_quadratic(Q)
        N = 3
        hm = hessian_matrix(F, ctx257, N, H=0.4)
        assert np.abs(hm.A - hm.A.T).max() < 1e-10
        # h^2 second difference of F(Psi(gamma + h e)) along basis directions
        from roughlaplace.odes import heun_controlled

        basis = cm_basis(0.4, ctx257.grid, N, 2)
        field, gamma, g = ctx257.field, ctx257.gamma, ctx257.grid

        def FPsi(path_vals):
            sol = heun_controlled(field, g, np.diff(path_vals, axis=0), np.zeros(2), 0.0, True)
            return float(F.value(sol, g))

        h = 1e-3  # symmetric mixed difference: O(h^2) truncation
        for (a, b) in [(0, 0), (1, 3), (2, 5)]:
            ka = basis[a].induced_path.values
            kb = basis[b].induced_path.values
            num = (
                FPsi(gamma.values + h * (ka + kb))
                - FPsi(gamma.values + h * (ka - kb))
                - FPsi(gamma.values - h * (ka - kb))
                + FPsi(gamma.values - h * (ka + kb))
            ) / (4 * h**2)
            assert num == pytest.approx(hm.A[a, b], rel=1e-3, abs=1e-6)

    def test_nesting(self, ctx257):
        F = endpoint_quadratic(np.eye(2) * 0.3)
        small = hessian_matrix(F, ctx257, 3, H=0.4)
        big = hessian_matrix(F, ctx257, 5, H=0.4)
        assert np.abs(big.A[:6, :6] - small.A).max() < 1e-10

    def test_frobenius_converges(self, ctx257):
        F = endpoint_quadratic(np.eye(2) * 0.3)
        norms = [
            np.linalg.norm(hessian_matrix(F, ctx257, N, H=0.4).A) for N in (4, 8, 16)
        ]
        assert abs(norms[2] - norms[1]) / norms[2] < 0.05

    def test_h4_probe(self, ctx257):
        F = endpoint_quadratic(np.eye(2) * 0.3)
        hm = hessian_matrix(F, ctx257, 4, H=0.4)
        assert hm.nondegenerate()
        assert 1.0 + hm.min_eigenvalue() > 0.0

    def test_trace_part_absolutely_summable(self, ctx257):
        # V2-type diagonal (A - A1 piece) has Cauchy absolute partial sums:
        # diag of grad F <V2(e_a, e_a)> + grad2 F <chi, chi>
        from roughlaplace.functionals import endpoint_linear

        F = endpoint_linear(np.array([0.5, -0.3]))
        basis = cm_basis(0.4, ctx257.grid, 16, 2)
        diag = []
        for b in basis:
            _, V2 = v_forms(ctx257, b.induced_path, b.induced_path)
            chi = compute_chi(ctx257, b.induced_path)
            val = F.grad_at(SampledPath(ctx257.grid, ctx257.phi0.values), 0.5 * V2.values)
            val = float(val) + float(
                0.5 * F.hess(ctx257.phi0.values, chi.values, chi.values, ctx257.grid)
            )
            diag.append(abs(val))
        total = np.cumsum(diag)
        assert (total[-1] - total[15]) / total[-1] < 0.1 or total[-1] < 1e-12


class TestHsTail:
    def test_constant_sigma_all_zero(self):
        g = TimeGrid.uniform(129)
        field = constant_field(np.ones((1, 1)))
        ctx = expansion_context(field, SampledPath(g, np.zeros((129, 1))))
        rep = hs_tail(ctx, N_list=(2, 4), d=1, hurst=HurstParams.default(0.4))
        assert max(rep.partial_sums) == 0.0
        assert rep.increments == [0.0]
        assert rep.increment_ratios == [] and rep.tail_bound is None

    def test_partial_sums_nondecreasing(self):
        H = 0.4
        hp = HurstParams.default(H)
        g = TimeGrid.uniform(257)
        field = tanh_field(1, 1, coef_seed=9, scale=0.5, drift_scale=0.4)
        gamma = cm_map(np.array([[0.2], [0.3]]), H, g).induced_path
        ctx = expansion_context(field, gamma)
        rep = hs_tail(ctx, N_list=(4, 8, 16), d=1, hurst=hp)
        assert rep.partial_sums[0] <= rep.partial_sums[1] <= rep.partial_sums[2]
        assert rep.reference_exponent == pytest.approx(-(4 / hp.q - 2 / hp.p))

        # tail estimate: increments, their ratio and D_last * rho / (1 - rho)
        s = rep.partial_sums
        assert rep.increments == [s[1] - s[0], s[2] - s[1]]
        rho = rep.increments[1] / rep.increments[0]
        assert rep.increment_ratios == [rho]
        if rho < 1.0:
            assert rep.tail_bound == rep.increments[1] * rho / (1.0 - rho)
        else:
            assert rep.tail_bound is None

    def test_tail_bound_needs_shrinking_increments(self):
        H = 0.4
        hp = HurstParams.default(H)
        g = TimeGrid.uniform(129)
        field = tanh_field(1, 1, coef_seed=9, scale=0.5, drift_scale=0.4)
        gamma = cm_map(np.array([[0.2], [0.3]]), H, g).induced_path
        ctx = expansion_context(field, gamma)
        # uneven steps: the increment over 2 -> 10 exceeds the one over 1 -> 2
        rep = hs_tail(ctx, N_list=(1, 2, 10), d=1, hurst=hp)
        assert rep.increment_ratios[0] > 1.0
        assert rep.tail_bound is None


class TestDet2:
    def test_zero_matrix(self):
        assert det2([0.0, 0.0, 0.0], 1.0) == 1.0

    def test_rank_one(self):
        lam, alpha = 0.37, 1.3
        assert det2([lam], alpha) == pytest.approx((1 + alpha * lam) * math.exp(-alpha * lam), rel=1e-14)

    def test_log_domain_identity(self):
        lam = np.array([0.5, -0.2, 0.1, 0.9])
        want = np.exp(np.sum(np.log(1 + lam) - lam))
        assert det2(lam, 1.0) == pytest.approx(want, rel=1e-12)

    def test_positivity_rejection(self):
        with pytest.raises(ValueError, match="-0.6"):
            det2([0.5, -0.6], 2.0)

    @given(st.lists(st.floats(-0.3, 1.0), min_size=1, max_size=6), st.floats(0.1, 2.0))
    @settings(max_examples=30, deadline=None)
    def test_continuity_under_perturbation(self, lams, alpha):
        lams = np.asarray(lams)
        if np.any(1 + alpha * (lams + 1e-9) <= 0) or np.any(1 + alpha * lams <= 0):
            return
        a = det2(lams, alpha)
        b = det2(lams + 1e-9, alpha)
        assert abs(a - b) < 1e-6 * max(1.0, a)

    def test_gaussian_mc_identity(self):
        # E[exp(-Theta_A)] = det2(Id + 2A)^{-1/2} for Theta_A = sum l (g^2 - 1)
        lam = np.array([0.5, -0.2, 0.1])
        rng = substream(99, 13, 5)
        gsq = rng.standard_normal((10**6, 3)) ** 2
        w = np.exp(-(lam * (gsq - 1)).sum(axis=1))
        closed = det2(lam, 2.0) ** (-0.5)
        assert w.mean() == pytest.approx(closed, rel=0.01)

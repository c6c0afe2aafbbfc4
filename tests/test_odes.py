import dataclasses
import math

import numpy as np
import pytest
from scipy.linalg import expm

from conftest import heun_fold, linear_flow_oracle, random_smooth_path
from oracles import heun_reference
from roughlaplace.functionals import (
    constant_field, endpoint_quadratic, fractional_drift_field, rotation_field, tanh_field,
)
from roughlaplace.grids import SampledPath, TimeGrid
from roughlaplace.hessian import hessian_matrix
from roughlaplace import odes
from roughlaplace.odes import (
    DivergenceError,
    VectorFieldSpec,
    _matvec,
    _stage_fold,
    heun_controlled,
    linear_perturbation_costate,
    linear_perturbation_solve,
)
from roughlaplace.taylor import _linearize, expansion_context


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
    return heun_controlled(field, k.grid, np.asarray(y0, dtype=float), gamma=k.values)


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
        k = 0.1 * np.arange(9.0)[:, None]
        k[4] = np.nan
        with pytest.raises(DivergenceError, match="not finite"):
            heun_controlled(constant_field([[1.0]]), g, np.zeros(1), gamma=k)


HEUN_FIELDS = {
    "constant": constant_field([[1.0, 0.3], [-0.2, 0.8]], beta_matrix=[[0.1, 0.0], [0.0, -0.2]]),
    "tanh": tanh_field(2, 3, coef_seed=6),
    "rotation": rotation_field(2),
    "fractional": fractional_drift_field(tanh_field(2, 2, coef_seed=3), 2.5),
}


def driver_paths(rng, lead, N, d):
    """A batch of paths X (*lead, N, d) and one shared path gamma (N, d)."""
    X = np.cumsum(0.3 * rng.standard_normal(lead + (N, d)), axis=-2)
    return X, np.cumsum(0.2 * rng.standard_normal((N, d)), axis=0)


class TestHeunStepMajor:
    """The coordinate-major stepper gives the bits of the sample-major loop
    that adds each stage's sigma dZ terms from b = 0 up, along the
    increments np.diff(eps X + gamma) it never builds."""

    @pytest.mark.parametrize("lead", [(), (5,), (2, 3)], ids=str)
    @pytest.mark.parametrize("eps", [0.0, 0.3])
    @pytest.mark.parametrize("name", sorted(HEUN_FIELDS))
    def test_bit_identical(self, name, eps, lead):
        field = HEUN_FIELDS[name]
        g = TimeGrid.uniform(33)
        rng = np.random.default_rng(11)
        X, gamma = driver_paths(rng, lead, len(g), field.d)
        y0 = rng.uniform(-0.5, 0.5, field.n)
        want = heun_reference(field, g, np.diff(eps * X + gamma, axis=-2), y0, eps)
        # the same samples as a coordinate-major view, which the stepper does not copy
        coord_major = np.moveaxis(
            np.ascontiguousarray(np.moveaxis(X, (-2, -1), (0, 1))), (0, 1), (-2, -1))
        for given in (X, coord_major):
            got = heun_controlled(field, g, y0, eps=eps, X=given, gamma=gamma)
            assert got.shape == want.shape
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("name", sorted(HEUN_FIELDS))
    def test_driver_parts(self, name):
        # X alone, gamma alone and a batch of gammas: each the bits of the
        # reference along np.diff of its own driver
        field = HEUN_FIELDS[name]
        g = TimeGrid.uniform(33)
        rng = np.random.default_rng(14)
        X, gamma = driver_paths(rng, (4,), len(g), field.d)
        y0 = rng.uniform(-0.5, 0.5, field.n)
        for kwargs, Z in (({"X": X}, 0.3 * X), ({"gamma": gamma}, gamma), ({"gamma": X}, X)):
            want = heun_reference(field, g, np.diff(Z, axis=-2), y0, 0.3)
            assert np.array_equal(heun_controlled(field, g, y0, eps=0.3, **kwargs), want)

    def test_driver_checked(self):
        field, g = HEUN_FIELDS["tanh"], TimeGrid.uniform(33)
        with pytest.raises(ValueError, match="needs a path"):
            heun_controlled(field, g, np.zeros(2), eps=0.3)
        for bad in (np.zeros((32, field.d)), np.zeros((4, 33, field.d + 1))):
            with pytest.raises(ValueError, match="driver paths must be"):
                heun_controlled(field, g, np.zeros(2), X=bad)

    @pytest.mark.parametrize("name", sorted(HEUN_FIELDS))
    def test_batch_rows_match_single_solves(self, name):
        # the stage sums add in one order at every batch size, B = 1 included
        field = HEUN_FIELDS[name]
        g = TimeGrid.uniform(33)
        rng = np.random.default_rng(12)
        X, gamma = driver_paths(rng, (5,), len(g), field.d)
        y0 = rng.uniform(-0.5, 0.5, field.n)
        batched = heun_controlled(field, g, y0, eps=0.3, X=X, gamma=gamma)
        for row, row_X in zip(batched, X):
            assert np.array_equal(row, heun_controlled(field, g, y0, eps=0.3, X=row_X, gamma=gamma))

    def test_drift_free_field_has_no_drift_pass(self, monkeypatch):
        S = [[1.0, 0.3], [-0.2, 0.8]]
        free, zero = constant_field(S), constant_field(S, beta_matrix=np.zeros((2, 2)))
        g = TimeGrid.uniform(33)
        rng = np.random.default_rng(13)
        X, gamma = driver_paths(rng, (4,), len(g), 2)
        y0 = rng.uniform(-0.5, 0.5, 2)
        want = heun_controlled(zero, g, y0, eps=0.3, X=X, gamma=gamma)
        calls = []
        beta_at = VectorFieldSpec.beta_at
        monkeypatch.setattr(VectorFieldSpec, "beta_at",
                            lambda self, *args: calls.append(1) or beta_at(self, *args))
        got = heun_controlled(free, g, y0, eps=0.3, X=X, gamma=gamma)
        assert free.beta is None and calls == []
        assert np.array_equal(got, want)

    def test_divergence_same_step(self):
        # dy = y dZ along increments 0.5, and 1.0 on path 1, which crosses the guard first
        g = TimeGrid.uniform(17)
        gamma = np.zeros((3, len(g), 1))
        gamma[:, 1:] = 0.5 * np.arange(1, len(g))[:, None]
        gamma[1] *= 2.0

        def failure(solver):
            calls = []
            field = VectorFieldSpec(n=1, d=1, sigma=lambda y: np.asarray(y)[..., None],
                                    beta=lambda e, y: calls.append(1) or np.zeros(np.shape(y)),
                                    guard=50.0)
            with pytest.raises(DivergenceError) as err:
                solver(field)
            return str(err.value), len(calls)  # two beta calls per step

        got = failure(lambda f: heun_controlled(f, g, np.ones(1), gamma=gamma))
        want = failure(lambda f: heun_reference(f, g, np.diff(gamma, axis=-2), np.ones(1)))
        assert got == want and want[1] < 2 * g.n_steps


def two_stage_solve(omL, omR, srcL, srcR):
    """Oracle: the linear solve's Heun step in its two-stage form,
    s1 = omL z + srcL, s2 = omR (z + s1) + srcR, z <- z + (s1 + s2)/2."""
    n_steps, n = omL.shape[0], omL.shape[-1]
    lead = srcL.shape[:-2]
    z = np.zeros(lead + (n,))
    out = np.empty(lead + (n_steps + 1, n))
    out[..., 0, :] = 0.0
    for i in range(n_steps):
        s1 = np.einsum("ab,...b->...a", omL[i], z) + srcL[..., i, :]
        s2 = np.einsum("ab,...b->...a", omR[i], z + s1) + srcR[..., i, :]
        z = z + 0.5 * (s1 + s2)
        out[..., i + 1, :] = z
    return out


class TestLinearPerturbationSolve:
    """The flow-table solve of z <- T z + b against the two-stage Heun step."""

    @staticmethod
    def _ctx(field, n_points=129, seed=8):
        g = TimeGrid.uniform(n_points)
        rng = np.random.default_rng(seed)
        return expansion_context(field, random_smooth_path(g, field.d, rng))

    @staticmethod
    def _sources(ctx, lead, seed):
        rng = np.random.default_rng(seed)
        shape = lead + (ctx.grid.n_steps, ctx.field.n)
        return rng.normal(size=shape) * 0.1, rng.normal(size=shape) * 0.1

    @pytest.mark.parametrize("nd", [(2, 2), (1, 1)])
    @pytest.mark.parametrize("lead", [(), (5,), (3, 4)])
    def test_matches_two_stage_step(self, nd, lead):
        ctx = self._ctx(tanh_field(*nd, coef_seed=4))
        assert np.abs(ctx.omL).max() > 0.0  # a nonzero generator
        sL, sR = self._sources(ctx, lead, seed=1)
        got = linear_perturbation_solve(ctx.flow, heun_fold(ctx, sL, sR))
        want = two_stage_solve(ctx.omL, ctx.omR, sL, sR)
        assert got.shape == want.shape == lead + (len(ctx.grid), nd[0])
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("lead", [(), (5,), (3, 4)])
    def test_zero_generator_bit_identical(self, lead):
        ctx = self._ctx(constant_field([[1.0, 0.3], [-0.2, 0.8]]))
        assert np.abs(ctx.omL).max() == 0.0 and np.abs(ctx.omR).max() == 0.0
        sL, sR = self._sources(ctx, lead, seed=2)
        got = linear_perturbation_solve(ctx.flow, heun_fold(ctx, sL, sR))
        assert np.array_equal(got, two_stage_solve(ctx.omL, ctx.omR, sL, sR))

    @pytest.mark.parametrize("batched_flow", [False, True])
    @pytest.mark.parametrize("lead", [(), (5,)], ids=str)
    def test_identity_flow_skips_products(self, monkeypatch, lead, batched_flow):
        # M = M^{-1} = I exactly: the solve and the co-state are cumulative
        # sums with the bits of the products they skip
        ctx = self._ctx(constant_field([[1.0, 0.3], [-0.2, 0.8]]))
        flow = tuple(np.broadcast_to(t, (5,) + t.shape) if batched_flow else t for t in ctx.flow)
        M, Minv = flow
        rng = np.random.default_rng(9)
        b = heun_fold(ctx, *self._sources(ctx, lead, seed=7))
        g = rng.normal(size=lead + (len(ctx.grid), 2))
        acc = np.zeros(np.broadcast_shapes(M.shape[:-3], lead) + (len(ctx.grid), 2))
        acc[..., 1:, :] = np.cumsum(_matvec(Minv[..., 1:, :, :], b), axis=-2)
        want_z = _matvec(M, acc)
        h = _matvec(np.swapaxes(M[..., 1:, :, :], -1, -2), g[..., 1:, :])
        tail = np.cumsum(h[..., ::-1, :], axis=-2)[..., ::-1, :]
        want_lam = _matvec(np.swapaxes(Minv[..., 1:, :, :], -1, -2), tail)

        def no_product(*args, **kwargs):
            raise AssertionError("an identity flow multiplied out")

        monkeypatch.setattr(odes, "_matvec", no_product)
        z, lam = linear_perturbation_solve(flow, b), linear_perturbation_costate(flow, g)
        assert z.shape == want_z.shape and np.array_equal(z, want_z)
        assert lam.shape == want_lam.shape and np.array_equal(lam, want_lam)

    def test_linear_in_sources(self):
        ctx = self._ctx(tanh_field(2, 2, coef_seed=4))
        a, b = self._sources(ctx, (3,), seed=3), self._sources(ctx, (3,), seed=4)

        def solve(src):
            return linear_perturbation_solve(ctx.flow, heun_fold(ctx, *src))

        combo = tuple(2.5 * x - 0.75 * y for x, y in zip(a, b))
        want = 2.5 * solve(a) - 0.75 * solve(b)
        assert np.abs(solve(combo) - want).max() <= 1e-13 * np.abs(want).max()


    @pytest.mark.parametrize("lam", [2.0, 4.0, 8.0])
    def test_conditioned_flow(self, lam):
        # a stiff linear drift: one flow direction grows like e^{lam t} and
        # one decays like e^{-lam t}, so cond(M_1) is about e^{2 lam}
        S = [[1.0, 0.3], [-0.2, 0.8]]
        ctx = self._ctx(constant_field(S, beta_matrix=[[lam, 1.0], [0.0, -lam]]))
        sL, sR = self._sources(ctx, (5,), seed=5)
        b = heun_fold(ctx, sL, sR)
        z = linear_perturbation_solve(ctx.flow, b)
        want = two_stage_solve(ctx.omL, ctx.omR, sL, sR)
        assert np.abs(z - want).max() <= 1e-13 * np.abs(want).max()

        g = np.random.default_rng(6).normal(size=(5, len(ctx.grid), 2))
        lhs = np.einsum("kja,kja->k", g, want)
        rhs = np.einsum("kia,kia->k", linear_perturbation_costate(ctx.flow, g), b)
        assert np.abs(lhs - rhs).max() <= 1e-13 * np.abs(lhs).max()


class TestBroadcast:
    """Leading batch axes change no number: a batched call equals the
    per-item calls stacked, bit for bit, on the tables of tanh contexts."""

    @staticmethod
    def _contexts(count=3, n_points=65):
        g = TimeGrid.uniform(n_points)
        rng = np.random.default_rng(12)
        field = tanh_field(2, 2, coef_seed=4)
        return [expansion_context(field, random_smooth_path(g, 2, rng)) for _ in range(count)]

    def test_costate(self):
        ctxs = self._contexts()
        g = np.random.default_rng(3).normal(size=(len(ctxs), len(ctxs[0].grid), 2))
        flow = tuple(np.stack(t) for t in zip(*(c.flow for c in ctxs)))
        got = linear_perturbation_costate(flow, g)
        want = np.stack([linear_perturbation_costate(c.flow, gi) for c, gi in zip(ctxs, g)])
        assert np.array_equal(got, want)

    def test_stage_fold(self):
        ctxs = self._contexts()
        omR = np.stack([c.omR for c in ctxs])
        # a table on the grid points (sigma0) and a (left, right) pair (ds)
        for items in ([(c.sigma0[:-1], c.sigma0[1:]) for c in ctxs], [c.ds for c in ctxs]):
            left, right = (np.stack(side) for side in zip(*items))
            got = _stage_fold(omR, left, right)
            want = [_stage_fold(c.omR, lt, rt) for c, (lt, rt) in zip(ctxs, items)]
            for j in (0, 1):
                assert np.array_equal(got[j], np.stack([w[j] for w in want]))

    def test_linearize(self):
        ctxs = self._contexts()
        f, grid = ctxs[0].field, ctxs[0].grid
        phi0, omL, omR, (M, Minv), sigma0, B_sigma, _ = _linearize(
            f, grid, np.stack([c.gamma.values for c in ctxs]))
        for got, name in zip((omL, omR, sigma0, B_sigma), ("omL", "omR", "sigma0", "B_sigma")):
            assert np.array_equal(got, np.stack([getattr(c, name) for c in ctxs]))
        assert np.array_equal(M, np.stack([c.flow[0] for c in ctxs]))
        assert np.array_equal(Minv, np.stack([c.flow[1] for c in ctxs]))
        assert np.array_equal(phi0, np.stack([c.phi0.values for c in ctxs]))


def read_only_outputs(field):
    """The same field with every evaluator it has returning a read-only array."""

    def frozen(fn):
        def wrapped(*args):
            out = np.array(fn(*args), dtype=float)
            out.setflags(write=False)
            return out
        return wrapped

    names = ("sigma", "beta", "dsigma", "d2sigma", "dbeta_y", "d2beta_y",
             "dbeta_eps", "d2beta_eps", "dbeta_y_eps")
    return dataclasses.replace(field, **{k: frozen(getattr(field, k)) for k in names
                                         if getattr(field, k) is not None})


@pytest.mark.parametrize("field", [tanh_field(2, 2, coef_seed=6),
                                   constant_field([[1.0, 0.3], [-0.2, 0.8]])],
                         ids=["tanh", "constant"])
def test_read_only_evaluator_outputs(field):
    # evaluator outputs are read-only to callers: no solver writes into them
    g = TimeGrid.uniform(65)
    rng = np.random.default_rng(4)
    gamma = random_smooth_path(g, 2, rng)
    frozen = read_only_outputs(field)
    assert not frozen.sigma_at(np.zeros(2)).flags.writeable
    X = random_smooth_path(g, 2, rng).values

    def outputs(f):
        y = heun_controlled(f, g, np.zeros(2), eps=0.3, X=X)
        ctx = expansion_context(f, gamma)
        A = hessian_matrix(endpoint_quadratic([[0.5, 0.1], [0.1, 0.3]]), ctx, 3, 0.4)
        return y, ctx.phi0.values, A

    for got, want in zip(outputs(frozen), outputs(field)):
        assert np.array_equal(got, want)


def test_drift_free_evaluators_return_zeros():
    # beta = None: every beta evaluator gives zeros, whatever its own entry
    f = dataclasses.replace(constant_field([[1.0, 0.3], [-0.2, 0.8]], beta_matrix=np.eye(2)),
                            beta=None)
    ys = np.ones((7, 2))
    for got, shape in ((f.beta_at(0.3, ys), (7, 2)), (f.dbeta_y_at(ys), (7, 2, 2)),
                       (f.d2beta_y_at(ys), (7, 2, 2, 2)), (f.dbeta_eps_at(ys), (7, 2)),
                       (f.d2beta_eps_at(ys), (7, 2)), (f.dbeta_y_eps_at(ys), (7, 2, 2))):
        assert got.shape == shape and not got.any()


def test_constant_field_returns_views():
    f = constant_field([[1.0, 0.3], [-0.2, 0.8]], beta_matrix=[[0.1, 0.0], [0.0, -0.2]])
    ys = np.zeros((7, 2))
    for out in (f.sigma(ys), f.dbeta_y(ys)):
        assert not out.flags.writeable and out.shape[0] == 7
    # sigma keeps one view per leading shape: a repeated call returns it again
    again = f.sigma(np.ones((7, 2)))
    assert again is f.sigma(ys) and not again.flags.writeable
    assert np.array_equal(again, np.broadcast_to(f.sigma(np.zeros(2)), (7, 2, 2)))
    assert f.sigma(np.zeros((3, 7, 2))).shape == (3, 7, 2, 2)


class TestLinearFlow:
    """The flow M, M^{-1} of the shared homogeneous part from t = 0, through
    the ``linear_flow_oracle`` on an expansion context's generator
    increments, and the flow table ``linear_flow`` the context carries."""

    def test_zero_generator(self):
        g = TimeGrid.uniform(33)
        field = constant_field(np.ones((2, 1)))  # grad sigma = 0, beta = 0
        ctx = expansion_context(field, SampledPath(g, np.zeros((33, 1))))
        M, _ = linear_flow_oracle(ctx)
        assert np.abs(M - np.eye(2)).max() == 0.0

    @pytest.mark.parametrize("field", [tanh_field(2, 2, coef_seed=5), tanh_field(1, 1, coef_seed=5),
                                       constant_field(np.ones((2, 1)),
                                                      beta_matrix=[[8.0, 1.0], [0.0, -8.0]])],
                             ids=["tanh2", "tanh1", "stiff"])
    def test_flow_table(self, field):
        # the prefix scans give the fundamental matrix normalized at the
        # middle grid point r: M_k = M0_k M0_r^{-1} for the t = 0 flow M0
        # that the oracle forms one step at a time
        g = TimeGrid.uniform(513)
        ctx = expansion_context(field, random_smooth_path(g, field.d, np.random.default_rng(5)))
        M, Minv = ctx.flow
        M0, M0inv = linear_flow_oracle(ctx)
        r = 256
        assert np.array_equal(M[r], np.eye(field.n))
        for got, want in ((M @ M0[r], M0), (M0inv[r] @ Minv, M0inv)):
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        assert np.abs(M @ Minv - np.eye(field.n)).max() < 1e-13

    def test_constant_generator_expm(self):
        # beta(y) = A y gives Omega = A t and M_1 = expm(A)
        A = np.array([[0.3, -0.5], [0.4, 0.1]])
        g = TimeGrid.uniform(513)
        field = constant_field(np.zeros((2, 1)), beta_matrix=A)
        ctx = expansion_context(field, SampledPath(g, np.zeros((513, 1))))
        M, _ = linear_flow_oracle(ctx)
        assert np.abs(M[-1] - expm(A)).max() < 1e-6

    def test_inverse_identity(self):
        g = TimeGrid.uniform(257)
        field = tanh_field(2, 2, coef_seed=5)
        rng = np.random.default_rng(1)
        ctx = expansion_context(field, random_smooth_path(g, 2, rng))
        M, Minv = linear_flow_oracle(ctx)
        assert np.abs(np.einsum("tab,tbc->tac", M, Minv) - np.eye(2)).max() < 1e-8

    def test_flow_property(self):
        # M_1 = M_{1<-u} M_u: restart the same generator increments at u
        g = TimeGrid.uniform(129)
        field = tanh_field(2, 2, coef_seed=5)
        rng = np.random.default_rng(2)
        ctx = expansion_context(field, random_smooth_path(g, 2, rng))
        M_all, _ = linear_flow_oracle(ctx)
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
        _, Minv = linear_flow_oracle(ctx)
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
    assert np.abs(bare.dbeta_y_at(y) - analytic.dbeta_y_at(y)).max() < 1e-9
    assert np.abs(bare.dbeta_eps_at(y) - analytic.dbeta_eps_at(y)).max() < 1e-9
    assert np.abs(bare.d2beta_eps_at(y) - analytic.d2beta_eps_at(y)).max() < 1e-6
    assert np.abs(bare.dbeta_y_eps_at(y) - analytic.dbeta_y_eps_at(y)).max() < 1e-6

    # the fallbacks broadcast: a (3, 2) batch of y, checked row by row
    def evaluators(f):
        return (
            f.dsigma_at,
            f.d2sigma_at,
            f.dbeta_y_at,
            f.dbeta_eps_at,
            f.d2beta_eps_at,
            f.dbeta_y_eps_at,
        )

    ys = np.array([[0.3, -0.7], [-1.1, 0.4], [0.05, 0.9]])
    tols = (1e-9, 1e-6, 1e-9, 1e-9, 1e-6, 1e-6)
    for fd, exact, tol in zip(evaluators(bare), evaluators(analytic), tols):
        got = fd(ys)
        assert got.shape[0] == len(ys)
        for row, v in zip(got, ys):
            assert np.abs(row - exact(v)).max() < tol

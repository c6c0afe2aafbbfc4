import functools
import math
import tracemalloc

import numpy as np
import pytest

from conftest import pvar_backbone_oracle, random_smooth_path
from oracles import dyadic_approx, xi_norm
from roughlaplace.grids import SampledPath, TimeGrid
from roughlaplace.roughpath import (
    RoughPath,
    chen_residual,
    lift,
    pair,
    running_signature,
    scale_rough,
    shift,
)
from roughlaplace.variation import pvar_values


def linear_lift(v, n_pts=9, level=3):
    g = TimeGrid.uniform(n_pts)
    return lift(SampledPath(g, np.outer(g.points, v)), level)


class TestLift:
    def test_linear_path_closed_form(self):
        v = np.array([1.0, -2.0])
        X = linear_lift(v)
        _, X2, X3 = X.increment(0, -1)
        assert np.allclose(X2, 0.5 * np.outer(v, v), atol=1e-14)
        want3 = np.einsum("a,b,c->abc", v, v, v) / 6.0
        assert np.allclose(X3, want3, atol=1e-14)
        # sub-interval scaling (t-s)^j / j!
        assert np.allclose(X.increment(2, 4)[1], 0.25**2 / 2 * np.outer(v, v), atol=1e-15)

    def test_chen_residual_of_lift(self):
        rng = np.random.default_rng(0)
        g = TimeGrid.uniform(33)
        X = lift(random_smooth_path(g, 2, rng), 3)
        assert chen_residual(X) < 1e-12

    def test_chen_detects_corruption(self, monkeypatch):
        # one (s, t) = (0, 4) level-2 increment off by 0.1 wherever it is formed
        increment = RoughPath.increment

        def corrupted(self, s, t):
            out = increment(self, s, t)
            hit = (np.asarray(s) == 0) & (np.asarray(t) == 4)
            out[1][hit, 0, 1] += 0.1
            return out

        X = linear_lift(np.array([0.5, 1.0]), level=2)
        monkeypatch.setattr(RoughPath, "increment", corrupted)
        assert chen_residual(X) >= 0.1 - 1e-9

    def test_circle_area(self):
        g = TimeGrid.uniform(513)
        t = g.points
        circ = SampledPath(g, np.stack([np.cos(2 * np.pi * t) - 1, np.sin(2 * np.pi * t)], axis=1))
        X2 = lift(circ, 2).increment(0, -1)[1]
        anti = 0.5 * (X2 - X2.T)
        # signed enclosed area of the unit circle loop: +-pi off-diagonal
        assert anti[0, 1] == pytest.approx(math.pi, rel=1e-3)

    def test_shuffle_symmetric_part(self):
        rng = np.random.default_rng(1)
        g = TimeGrid.uniform(17)
        X1, X2 = lift(random_smooth_path(g, 2, rng), 2).levels()
        sym = 0.5 * (X2 + np.swapaxes(X2, -1, -2))
        outer = 0.5 * np.einsum("ija,ijb->ijab", X1, X1)
        assert np.abs(sym - outer).max() < 1e-10

    def test_dp_continuity_smoke(self):
        # lifts of dyadic approximations converge level-wise to the lift
        g = TimeGrid.uniform(257)
        path = SampledPath(g, np.stack([np.sin(2 * np.pi * g.points), g.points**2], axis=1))
        X = lift(path, 2).levels()
        errs = []
        for m in (2, 4, 6):
            Xm = lift(dyadic_approx(path, m), 2).levels()
            errs.append(max(np.abs(a - b).max() for a, b in zip(Xm, X)))
        assert errs[0] > errs[1] > errs[2]

    def test_bad_level(self):
        with pytest.raises(ValueError):
            linear_lift(np.array([1.0]), level=4)


class TestRunningSignature:
    @staticmethod
    def offset_path(n_pts, d, seed):
        # random walk started away from the origin: x_0 != 0 exercises every
        # base-point term of Chen's identity
        rng = np.random.default_rng(seed)
        vals = rng.normal(size=(n_pts, d)).cumsum(axis=0) + rng.normal(size=d)
        return SampledPath(TimeGrid.uniform(n_pts), vals)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("level", [2, 3])
    @pytest.mark.parametrize("n_pts", [2, 17])
    def test_equals_first_row_of_lift(self, d, level, n_pts):
        path = self.offset_path(n_pts, d, seed=10 * d + n_pts)
        assert np.all(path.values[0] != 0.0)
        S = running_signature(path.values, level)
        X = lift(path, level)
        assert len(S) == level
        for k, (s, inc) in enumerate(zip(S, X.levels()), start=1):
            assert s.shape == (n_pts,) + (d,) * k
            assert np.array_equal(s, inc[0])

    @staticmethod
    def step_exponential_product(values, level):
        """Running levels as the ordered truncated tensor product of the step
        exponentials exp(dx_u) = 1 + v + v(x)v/2 + v(x)v(x)v/6, multiplied
        left to right from the identity."""
        o = np.multiply.outer
        S = [np.zeros((values.shape[1],) * k) for k in range(1, level + 1)]
        rows = [S]
        for v in np.diff(values, axis=0):
            E = [v, o(v, v) / 2, o(o(v, v), v) / 6][:level]
            S = [S[k - 1] + E[k - 1] + sum(o(S[j - 1], E[k - j - 1]) for j in range(1, k))
                 for k in range(1, level + 1)]
            rows.append(S)
        return [np.stack([r[k] for r in rows]) for k in range(level)]

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("level", [2, 3])
    @pytest.mark.parametrize("n_pts", [2, 17])
    def test_equals_step_exponential_product(self, d, level, n_pts):
        path = self.offset_path(n_pts, d, seed=10 * d + n_pts)
        assert np.all(path.values[0] != 0.0)
        S = running_signature(path.values, level)
        for s, want in zip(S, self.step_exponential_product(path.values, level)):
            assert s.shape == want.shape
            assert np.abs(s - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("lead", [(4,), (2, 3)])
    @pytest.mark.parametrize("n_pts", [2, 9])
    def test_batched_equals_per_path(self, lead, n_pts):
        rng = np.random.default_rng(7)
        vals = rng.normal(size=lead + (n_pts, 2)).cumsum(axis=-2)
        S = running_signature(vals, 3)
        for idx in np.ndindex(*lead):
            for s, one in zip(S, running_signature(vals[idx], 3)):
                assert np.array_equal(s[idx], one)

    def test_bad_level(self):
        with pytest.raises(ValueError):
            running_signature(np.zeros((3, 2)), 4)


class TestXiNorm:
    def test_zero_path(self):
        X = linear_lift(np.zeros(2), level=2)
        assert xi_norm(X, 2.5).value == 0.0

    def test_linear_closed_form(self):
        v = np.array([0.6, -0.8])  # unit vector
        xi = xi_norm(linear_lift(v, level=2), 2.5)
        assert xi.per_level[0] == pytest.approx(1.0, rel=1e-12)
        assert xi.per_level[1] == pytest.approx(math.sqrt(0.5), rel=1e-12)

    def test_dilation_homogeneity(self):
        rng = np.random.default_rng(2)
        g = TimeGrid.uniform(17)
        path = random_smooth_path(g, 2, rng)
        c = 2.7
        a = xi_norm(lift(path, 2), 2.5).value
        b = xi_norm(lift(c * path, 2), 2.5).value
        assert b == pytest.approx(c * a, rel=1e-10)

    def test_matches_per_path_oracle(self):
        # level j's p/j-variation of the Frobenius magnitudes, bit for bit;
        # level 1 is the path's own p-variation, up to the rounding of
        # increments taken through the running levels
        rng = np.random.default_rng(8)
        path = random_smooth_path(TimeGrid.uniform(21), 2, rng)
        X = lift(path, 2)
        xi = xi_norm(X, 2.5)
        assert xi.per_level[0] == pytest.approx(float(pvar_values(path.values, 2.5)), rel=1e-13)
        for j, arr in enumerate(X.levels(), start=1):
            flat = arr.reshape(arr.shape[0], arr.shape[1], -1)
            w = np.sqrt(np.einsum("ijk,ijk->ij", flat, flat))
            assert xi.per_level[j - 1] == pvar_backbone_oracle(w, 2.5 / j).value ** (1.0 / j)


class TestShiftPair:
    def test_shift_zero(self, smooth_pair):
        x, k = smooth_pair
        X = lift(x, 3)
        Z = shift(X, SampledPath(k.grid, np.zeros_like(k.values)))
        for a, b in zip(Z.levels(), X.levels()):
            assert np.abs(a - b).max() < 1e-15

    def test_shift_matches_lift_of_sum(self, smooth_pair):
        x, k = smooth_pair
        Z = shift(lift(x, 3), k)
        O = lift(x + k, 3)
        for lv, (a, b) in enumerate(zip(Z.levels(), O.levels()), 1):
            rel = np.abs(a - b).max() / max(np.abs(b).max(), 1e-300)
            assert rel < 1e-6, f"level {lv}"

    def test_shift_level1_additive(self, smooth_pair):
        x, k = smooth_pair
        Z = shift(lift(x, 2), k)
        want = (x.values[None, :, :] - x.values[:, None, :]) + (
            k.values[None, :, :] - k.values[:, None, :]
        )
        want = np.triu(np.ones((33, 33)))[:, :, None] * want
        assert np.abs(Z.levels()[0] - want).max() < 1e-14

    def test_shift_inverse(self, smooth_pair):
        x, k = smooth_pair
        X = lift(x, 3)
        back = shift(shift(X, k), -1.0 * k)
        for a, b in zip(back.levels(), X.levels()):
            assert np.abs(a - b).max() < 1e-8

    def test_shift_chen(self, smooth_pair):
        x, k = smooth_pair
        assert chen_residual(shift(lift(x, 3), k)) < 1e-8

    def test_pair_with_zero(self, smooth_pair):
        x, k = smooth_pair
        X = lift(x, 3)
        P1, P2, P3 = pair(X, SampledPath(k.grid, np.zeros((33, 1)))).levels()
        X1, X2, X3 = X.levels()
        assert np.abs(P1[..., :2] - X1).max() < 1e-15
        assert np.abs(P2[..., :2, :2] - X2).max() < 1e-15
        assert np.abs(P2[..., 2, :]).max() == 0.0
        assert np.abs(P3[..., :2, :2, :2] - X3).max() < 1e-15

    def test_pair_matches_lift_of_concat(self, smooth_pair):
        x, k = smooth_pair
        P = pair(lift(x, 3), k)
        O = lift(SampledPath(x.grid, np.concatenate([x.values, k.values], axis=1)), 3)
        for lv, (a, b) in enumerate(zip(P.levels(), O.levels()), 1):
            rel = np.abs(a - b).max() / max(np.abs(b).max(), 1e-300)
            assert rel < 1e-6, f"level {lv}"

    def test_pair_chen(self, smooth_pair):
        x, k = smooth_pair
        assert chen_residual(pair(lift(x, 3), k)) < 1e-8

    def test_pair_projection(self, smooth_pair):
        x, k = smooth_pair
        X = lift(x, 3)
        P1, P2, P3 = pair(X, k).levels()
        X1, X2, X3 = X.levels()
        assert np.abs(P1[..., :2] - X1).max() == 0.0
        assert np.abs(P2[..., :2, :2] - X2).max() < 1e-10
        assert np.abs(P3[..., :2, :2, :2] - X3).max() < 1e-10

    def test_grid_mismatch(self, smooth_pair):
        x, _ = smooth_pair
        X = lift(x, 2)
        k_bad = SampledPath(TimeGrid.uniform(17), np.zeros(17))
        with pytest.raises(ValueError):
            shift(X, k_bad)


def step_word_rows(X, k, s):
    """Words of the pair (x, k) from grid index s to every t >= s, summed step
    by step with the within-step formulas (k linear in a step, X's own step
    increments, (k,x,x) by integration by parts); no Chen expansion.
    Returns {word: (N - s, ...) array} for the mixed and pure-k words."""
    o = lambda *a: functools.reduce(np.multiply.outer, a)  # noqa: E731
    kv = k.values
    d, e = X.dim, kv.shape[1]
    dims = {"x": d, "k": e}
    names = ["k", "kk", "xk", "kx"]
    if X.level == 3:
        names += ["kkk", "xxk", "xkx", "xkk", "kxk", "kkx", "kxx", "J"]
    cur = {w: np.zeros(tuple(dims[c] for c in w.replace("J", "kx"))) for w in names}
    rows = [cur]
    X1, X2 = X.levels()[:2]
    for u in range(s, len(X.grid) - 1):
        xi, ki = X1[s, u], kv[u] - kv[s]
        dx, dk = X1[u, u + 1], kv[u + 1] - kv[u]
        X2b, X2s = X2[s, u], X2[u, u + 1]
        nxt = {
            "k": ki + dk,
            "kk": cur["kk"] + o(ki, dk) + o(dk, dk) / 2,
            "xk": cur["xk"] + o(xi, dk) + o(dx, dk) / 2,
            "kx": cur["kx"] + o(ki, dx) + o(dk, dx) / 2,
        }
        if X.level == 3:
            nxt.update(
                kkk=cur["kkk"] + o(cur["kk"], dk) + o(ki, dk, dk) / 2 + o(dk, dk, dk) / 6,
                xxk=cur["xxk"] + o(X2b, dk) + o(xi, dx, dk) / 2 + o(X2s, dk) / 3,
                xkx=cur["xkx"] + o(cur["xk"], dx) + o(xi, dk, dx) / 2 + o(dx, dk, dx) / 6,
                xkk=cur["xkk"] + o(cur["xk"], dk) + o(xi, dk, dk) / 2 + o(dx, dk, dk) / 6,
                kxk=cur["kxk"] + o(cur["kx"], dk) + o(ki, dx, dk) / 2 + o(dk, dx, dk) / 6,
                kkx=cur["kkx"] + o(cur["kk"], dx) + o(ki, dk, dx) / 2 + o(dk, dk, dx) / 6,
                kxx=cur["kxx"] + o(ki, X2s) + o(ki, xi, dx) + o(dk, xi, dx) / 2
                + 2 / 3 * o(dk, X2s) - o(cur["J"], dx) - o(dk, xi, dx) / 2 - o(dk, dx, dx) / 6,
                J=cur["J"] + o(dk, xi) + o(dk, dx) / 2,
            )
        cur = nxt
        rows.append(cur)
    return {w: np.stack([r[w] for r in rows]) for w in names if w != "J"}


class TestNonPolygonal:
    """Shift and pairing of a rough path that satisfies Chen but is not the
    lift of its own polygon: a fine lift restricted to every other point."""

    @staticmethod
    def restricted_lift(level):
        rng = np.random.default_rng(11)
        fine = TimeGrid.uniform(129)
        X = lift(SampledPath(fine, 0.1 * rng.normal(size=(129, 2)).cumsum(axis=0)), level)
        Xc = RoughPath(TimeGrid(fine.points[::2]), level, [S[::2] for S in X.running])
        k = SampledPath(Xc.grid, 0.05 * rng.normal(size=(65, 2)).cumsum(axis=0))
        return Xc, k

    @staticmethod
    def oracle_rows(X, k, s):
        """Row s of the pairing, levels 1..X.level, blocks assembled from the
        pure-x increments and :func:`step_word_rows`."""
        words = step_word_rows(X, k, s)
        words.update(zip(["x", "xx", "xxx"], (a[s, s:] for a in X.levels())))
        span = {"x": slice(0, 2), "k": slice(2, 4)}
        out = []
        for j in range(1, X.level + 1):
            Zj = np.zeros((len(X.grid) - s,) + (4,) * j)
            for w, arr in words.items():
                if len(w) == j:
                    Zj[(slice(None),) + tuple(span[c] for c in w)] = arr
            out.append(Zj)
        return out

    @pytest.mark.parametrize("level", [2, 3])
    def test_not_a_polygon_lift(self, level):
        X, _ = self.restricted_lift(level)
        poly = lift(SampledPath(X.grid, X.running[0]), level)
        assert np.abs(X.levels()[1] - poly.levels()[1]).max() > 1e-2

    @pytest.mark.parametrize("level", [2, 3])
    def test_pair_and_shift_match_step_sums(self, level):
        X, k = self.restricted_lift(level)
        P, S = pair(X, k), shift(X, k)
        for s in (0, 5, 31):
            for j, want in enumerate(self.oracle_rows(X, k, s), start=1):
                scale = np.abs(want).max()
                assert np.abs(P.levels()[j - 1][s, s:] - want).max() < 1e-12 * scale
                folded = want.reshape((len(want),) + (2, 2) * j).sum(axis=tuple(range(1, 2 * j, 2)))
                assert np.abs(S.levels()[j - 1][s, s:] - folded).max() < 1e-12 * np.abs(folded).max()
        assert chen_residual(P) < 1e-12
        assert chen_residual(S) < 1e-12


class TestScale:
    def test_identity_at_c1(self, smooth_pair):
        x, _ = smooth_pair
        X = lift(x, 2)
        S = scale_rough(X, 1, 0.4)
        assert np.abs(S.levels()[1] - X.levels()[1]).max() == 0.0

    def test_linear_path_substitution(self):
        v = np.array([2.0, 1.0])
        X = linear_lift(v, n_pts=33, level=2)
        S = scale_rough(X, 0.5, 0.5)
        # level-1 increment over [0,1] becomes 2^(1/2) * v * (1/2)
        assert np.allclose(S.increment(0, -1)[0], v / math.sqrt(2), atol=1e-14)

    def test_chen_preserved(self, smooth_pair):
        x, _ = smooth_pair
        S = scale_rough(lift(x, 3), 0.5, 0.4)
        assert chen_residual(S) < 1e-12

    def test_incompatible_c(self, smooth_pair):
        x, _ = smooth_pair  # 32 steps
        with pytest.raises(ValueError):
            scale_rough(lift(x, 2), 1 / 3, 0.4)


def test_constructors_store_running_levels_only():
    # no constructor allocates an (N, N, ...) array: at N = 513, level 3 the
    # dense level-3 pairing alone would take 513^2 * 4^3 * 8 B = 135 MB
    rng = np.random.default_rng(12)
    g = TimeGrid.uniform(513)
    x = SampledPath(g, 0.1 * rng.normal(size=(513, 2)).cumsum(axis=0))
    k = SampledPath(g, 0.05 * rng.normal(size=(513, 2)).cumsum(axis=0))
    X = lift(x, 3)
    for build in (lambda: lift(x, 3), lambda: pair(X, k), lambda: shift(X, k),
                  lambda: scale_rough(X, 0.5, 0.4)):
        tracemalloc.start()
        try:
            build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

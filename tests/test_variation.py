import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughlaplace.grids import SampledPath, TimeGrid
from roughlaplace.variation import (
    _increment_norms,
    besov_norm,
    coarsen_dyadic,
    cosine_pvar,
    dyadic_approx,
    holder_norm,
    pvar_backbone,
    pvar_exact,
    pvar_jogfree,
)


def cosine_extrema_path(n: int) -> SampledPath:
    grid = TimeGrid(np.linspace(0.0, 1.0, n + 1))
    return SampledPath(grid, np.cos(n * math.pi * grid.points) - 1.0)


def brute_force_pvar(values: np.ndarray, p: float) -> float:
    """Exhaustive enumeration over interior-point subsets; left-to-right sums."""
    n = len(values)
    best = -1.0
    for r in range(n - 1):
        for combo in combinations(range(1, n - 1), r):
            idx = [0, *combo, n - 1]
            s = 0.0
            for a, b in zip(idx[:-1], idx[1:]):
                s = s + np.linalg.norm(values[b] - values[a]) ** p
            best = max(best, s)
    return best ** (1.0 / p)


class TestPvarExact:
    def test_monotone_path_endpoints_only(self):
        g = TimeGrid(np.array([0.0, 0.5, 1.0]))
        res = pvar_exact(SampledPath(g, np.array([0.0, 0.3, 1.0])), 2.0)
        assert res.value == pytest.approx(1.0, abs=0)
        assert res.optimal_partition == [0, 2]

    def test_cosine_extrema(self):
        # p-variation of cos(4 pi t) - 1 at its extrema: 2 * 4^(1/2)
        res = pvar_exact(cosine_extrema_path(4), 2.0)
        assert res.value == pytest.approx(4.0, abs=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            pts = np.sort(np.concatenate([[0.0, 1.0], rng.uniform(0, 1, 7)]))
            g = TimeGrid(pts)
            vals = rng.standard_normal(9)
            p = rng.uniform(1.0, 3.5)
            res = pvar_exact(SampledPath(g, vals), p)
            assert res.value == brute_force_pvar(vals[:, None], p)

    def test_partition_reproduces_value(self):
        rng = np.random.default_rng(3)
        g = TimeGrid(np.sort(np.concatenate([[0, 1], rng.uniform(0, 1, 10)])))
        path = SampledPath(g, rng.standard_normal((12, 2)))
        res = pvar_exact(path, 2.5)
        s = 0.0
        for a, b in zip(res.optimal_partition[:-1], res.optimal_partition[1:]):
            s += np.linalg.norm(path.values[b] - path.values[a]) ** 2.5
        assert s ** (1 / 2.5) == pytest.approx(res.value, rel=1e-12)

    def test_invalid_p(self):
        g = TimeGrid.uniform(3)
        with pytest.raises(ValueError):
            pvar_exact(SampledPath(g, np.zeros(3)), 0.5)

    @given(st.integers(0, 2**10 - 1), st.floats(1.0, 4.0))
    @settings(max_examples=40, deadline=None)
    def test_refinement_monotone(self, mask, p):
        # adding sample points never decreases the grid p-variation
        rng = np.random.default_rng(mask)
        vals_full = np.concatenate([[0.0], rng.standard_normal(10), [0.5]])
        keep = sorted({0, 11} | {i + 1 for i in range(10) if (mask >> i) & 1})
        full = pvar_exact(SampledPath(TimeGrid.uniform(12), vals_full), p)
        sub = pvar_exact(
            SampledPath(TimeGrid.uniform(len(keep)), vals_full[keep]), p
        )
        assert full.value >= sub.value - 1e-12

    def test_nonincreasing_in_p(self):
        rng = np.random.default_rng(11)
        g = TimeGrid.uniform(10)
        path = SampledPath(g, rng.standard_normal(10))
        vals = [pvar_exact(path, p).value for p in (1.0, 1.5, 2.0, 3.0, 4.0)]
        assert all(a >= b - 1e-12 for a, b in zip(vals[:-1], vals[1:]))


def full_grid_pvar(values, p: float):
    """The dynamic program over every grid index, without any reduction."""
    v = np.asarray(values, dtype=float).reshape(len(values), -1)
    return pvar_backbone(_increment_norms(v), p)


def fast_pvar(values, p: float):
    return pvar_exact(SampledPath(TimeGrid.uniform(len(values)), values), p)


class TestTurningPointReduction:
    """Scalar pvar_exact runs on turning points; it must match the full DP."""

    P_VALUES = (1.0, 1.5, 2.78, 4.0)

    def assert_same(self, values, p):
        fast, full = fast_pvar(values, p), full_grid_pvar(values, p)
        assert fast.value == full.value
        assert fast.optimal_partition == full.optimal_partition

    @pytest.mark.parametrize("p", P_VALUES[1:])
    def test_random_walks(self, p):
        rng = np.random.default_rng(2018)
        for n in (2, 3, 5, 17, 64, 300):
            for _ in range(20):
                self.assert_same(np.cumsum(rng.standard_normal(n)), p)

    @given(st.lists(st.integers(-3, 3), min_size=2, max_size=40), st.sampled_from(P_VALUES))
    @settings(max_examples=200, deadline=None)
    def test_integer_walks_with_flat_runs(self, steps, p):
        # zero steps give flat runs at extrema and inside monotone stretches;
        # integer sums are exact, so even p = 1 ties are decided exactly
        self.assert_same(np.cumsum(steps).astype(float), p)

    @pytest.mark.parametrize("p", P_VALUES)
    @pytest.mark.parametrize(
        "values",
        [
            [0, 1, 1, 0],
            [0, 1, 1, 2],
            [0, 0, 1, 0],
            [1, 1, 0],
            [0, 1, 1],
            [0, 2, 1, 3, 2, 4],
            [0, 1, 0, 1, 0],
            [0.0, -1.7],
            [2.5, 2.5],
            [3, 3, 3, 3, 3],
        ],
    )
    def test_small_cases(self, values, p):
        self.assert_same(np.asarray(values, dtype=float), p)

    @pytest.mark.parametrize("p", P_VALUES)
    def test_flat_run_partition(self, p):
        assert fast_pvar(np.array([0.0, 1.0, 1.0, 0.0]), p).optimal_partition == [0, 1, 3]
        assert fast_pvar(np.array([0.0, 1.0, 1.0, 2.0]), p).optimal_partition == [0, 3]
        assert fast_pvar(np.full(6, -0.5), p).optimal_partition == [0, 5]

    @pytest.mark.parametrize("p", P_VALUES[1:])
    def test_sampled_cosines(self, p):
        for n in (1, 2, 5, 17):
            for m in (3, 9, 65, 257):
                t = np.linspace(0.0, 1.0, m)
                self.assert_same(np.cos(n * math.pi * t) - 1.0, p)
                self.assert_same(np.sin(n * math.pi * t) + 0.3 * t, p)

    @pytest.mark.parametrize("p", P_VALUES[1:])
    def test_near_ties_same_value(self, p):
        # a monotone sample within rounding of a turning value ties it in
        # floating point; the full DP may keep the monotone one (the earlier
        # index), the reduction keeps the turning point: same value
        rng = np.random.default_rng(58)
        for _ in range(200):
            vals = np.cumsum(rng.standard_normal(20))
            vals[5] = vals[4] * (1.0 + 1e-15)
            vals[10] = vals[9] + 1e-14
            fast, full = fast_pvar(vals, p), full_grid_pvar(vals, p)
            assert fast.value == full.value
            swapped = set(fast.optimal_partition) ^ set(full.optimal_partition)
            assert swapped <= {4, 5, 9, 10}

    def test_p1_float_ties_differ_by_rounding_only(self):
        # at p = 1 every monotone sample ties exactly; on non-integer data the
        # full DP's pick among them is decided by rounding in its sums
        rng = np.random.default_rng(9)
        for n in (5, 40, 300):
            for _ in range(20):
                vals = np.cumsum(rng.standard_normal(n))
                want = np.abs(np.diff(vals)).sum()
                assert fast_pvar(vals, 1.0).value == pytest.approx(want, rel=1e-13)
                assert full_grid_pvar(vals, 1.0).value == pytest.approx(want, rel=1e-13)

    def test_vector_and_custom_norm_keep_full_dp(self):
        rng = np.random.default_rng(4)
        vals = rng.standard_normal((30, 2))
        path = SampledPath(TimeGrid.uniform(30), vals)
        res = pvar_exact(path, 2.2)
        want = full_grid_pvar(vals, 2.2)
        assert (res.value, res.optimal_partition) == (want.value, want.optimal_partition)
        l1 = lambda diffs: np.abs(diffs).sum(axis=-1)
        scalar = SampledPath(TimeGrid.uniform(30), vals[:, 0])
        res = pvar_exact(scalar, 2.2, norm=l1)
        want = pvar_backbone(_increment_norms(scalar.values, l1), 2.2)
        assert (res.value, res.optimal_partition) == (want.value, want.optimal_partition)


class TestJogFree:
    def test_cosine_closed_form(self):
        # alternating (0,-2,0,-2,...) with n jumps
        for n in (1, 3, 8):
            vals = np.cos(n * math.pi * np.linspace(0, 1, n + 1)) - 1.0
            assert pvar_jogfree(vals, 3.0) == pytest.approx(2 * n ** (1 / 3), rel=1e-14)

    def test_single_increment(self):
        assert pvar_jogfree([0.0, -1.7], 2.7) == pytest.approx(1.7)

    def test_agrees_with_pvar_exact(self):
        # shrinking alternating envelope: every extremum is a forward extremum
        vals = np.array([0.0, 3.0, -2.0, 2.0, -1.0, 0.5])
        g = TimeGrid.uniform(len(vals))
        assert pvar_jogfree(vals, 2.2) == pytest.approx(
            pvar_exact(SampledPath(g, vals), 2.2).value, rel=1e-12
        )

    def test_rejections(self):
        with pytest.raises(ValueError):
            pvar_jogfree([0.0, 1.0, 2.0], 2.0)  # no alternation
        with pytest.raises(ValueError):
            pvar_jogfree([0.0, 1.0, 0.5, 2.0], 2.0)  # 1.0 not a forward max
        with pytest.raises(ValueError):
            pvar_jogfree([0.1, 1.0, -1.0], 2.0)  # does not start at 0


class TestCosinePvar:
    def test_values(self):
        assert cosine_pvar(1, 2.0) == pytest.approx(2.0)
        assert cosine_pvar(8, 2.0) == pytest.approx(2 * math.sqrt(8))
        assert cosine_pvar(5, 1000.0) == pytest.approx(2 * 5 ** (1 / 1000))

    def test_matches_dp(self):
        for n in (1, 2, 6):
            for p in (1.5, 2.0, 3.5):
                dp = pvar_exact(cosine_extrema_path(n), p).value
                assert dp == pytest.approx(cosine_pvar(n, p), abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            cosine_pvar(0, 2.0)


class TestHolder:
    def test_linear_path(self):
        g = TimeGrid.uniform(33)
        assert holder_norm(SampledPath(g, g.points), 0.5) == pytest.approx(1.0)

    def test_constant_path(self):
        g = TimeGrid.uniform(9)
        assert holder_norm(SampledPath(g, np.full(9, -2.5)), 0.3) == pytest.approx(2.5)

    def test_brute_force(self):
        rng = np.random.default_rng(5)
        g = TimeGrid.uniform(17)
        path = SampledPath(g, rng.standard_normal((17, 2)))
        alpha = 0.4
        best = max(
            np.linalg.norm(path.values[j] - path.values[i])
            / (g.points[j] - g.points[i]) ** alpha
            for i in range(17)
            for j in range(i + 1, 17)
        )
        want = np.linalg.norm(path.values[0]) + best
        assert holder_norm(path, alpha) == pytest.approx(want, rel=1e-14)


class TestBesov:
    def test_constant_path(self):
        g = TimeGrid.uniform(17)
        assert besov_norm(SampledPath(g, np.full(17, 3.0)), 0.4, 2.0) == pytest.approx(3.0, rel=1e-12)

    def test_linear_closed_form(self):
        # k_t = t, delta = 0.4, p = 2: sqrt(1/3) + sqrt(2/(1.2*2.2))
        g = TimeGrid.uniform(257)
        got = besov_norm(SampledPath(g, g.points), 0.4, 2.0)
        want = math.sqrt(1 / 3) + math.sqrt(2.0 / (1.2 * 2.2))
        assert got == pytest.approx(want, rel=1e-4)

    def test_refinement_consistency(self):
        for npts in (129,):
            g1 = TimeGrid.uniform(npts)
            g2 = TimeGrid.uniform(2 * npts - 1)
            f = lambda t: np.sin(2 * np.pi * t) + t**2
            b1 = besov_norm(SampledPath(g1, f(g1.points)), 0.45, 2.0)
            b2 = besov_norm(SampledPath(g2, f(g2.points)), 0.45, 2.0)
            assert abs(b2 - b1) / b1 < 0.01

    @given(st.floats(-3.0, 3.0).filter(lambda c: abs(c) > 1e-3))
    @settings(max_examples=20, deadline=None)
    def test_homogeneity(self, c):
        g = TimeGrid.uniform(33)
        path = SampledPath(g, np.sin(3 * g.points))
        a = besov_norm(path, 0.4, 2.0)
        b = besov_norm(c * path, 0.4, 2.0)
        assert b == pytest.approx(abs(c) * a, rel=1e-10)

    def test_parameter_validation(self):
        g = TimeGrid.uniform(9)
        p = SampledPath(g, g.points)
        with pytest.raises(ValueError):
            besov_norm(p, 1.2, 2.0)
        with pytest.raises(ValueError):
            besov_norm(p, 0.4, 1.0)


class TestDyadicApprox:
    def test_fixed_point(self):
        g = TimeGrid.dyadic(3)
        vals = np.abs(g.points - 0.5)  # piecewise linear with dyadic breakpoints
        out = dyadic_approx(SampledPath(g, vals), 3)
        assert np.allclose(out.values[:, 0], vals, atol=1e-15)

    def test_midpoint_average(self):
        g = TimeGrid.dyadic(4)
        path = SampledPath(g, np.sin(5 * g.points))
        m = 2
        out = dyadic_approx(path, m)
        # value at (2l-1)/2^(m+1) is the mean of the bracketing dyadic values
        for l in (1, 2, 3, 4):
            mid = (2 * l - 1) / 2 ** (m + 1)
            left, right = (l - 1) / 2**m, l / 2**m
            want = 0.5 * (path.at(left) + path.at(right))
            assert out.at(mid)[0] == pytest.approx(want[0], rel=1e-12)

    def test_pvar_distance_decreases(self):
        g = TimeGrid.uniform(257)
        path = SampledPath(g, np.sin(4 * g.points) + g.points**2)
        dists = []
        for m in (1, 3, 5):
            approx = dyadic_approx(path, m)
            dists.append(pvar_exact(path - approx, 1.3).value)
        assert dists[0] > dists[1] > dists[2]

    def test_coarsen(self):
        g = TimeGrid.dyadic(4)
        path = SampledPath(g, g.points**2)
        c = coarsen_dyadic(path, 2)
        assert len(c.grid) == 5
        assert np.allclose(c.values[:, 0], c.grid.points**2)

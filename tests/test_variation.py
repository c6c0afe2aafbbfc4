import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import pair_norms_oracle, pvar_backbone_oracle, pvar_oracle, pvar_values_oracle
from oracles import coarsen_dyadic, dyadic_approx
from roughlaplace.grids import SampledPath, TimeGrid
from roughlaplace.variation import (
    _chain_dp,
    _turning_points,
    cosine_pvar,
    pvar_values,
    restrict_dyadic,
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


def pvar(path: SampledPath, p: float) -> float:
    """The grid p-variation of one path."""
    return float(pvar_values(path.values, p))


class TestPvarExact:
    """The exact grid p-variation of one path."""

    def test_monotone_path_endpoints_only(self):
        g = TimeGrid(np.array([0.0, 0.5, 1.0]))
        assert pvar(SampledPath(g, np.array([0.0, 0.3, 1.0])), 2.0) == pytest.approx(1.0, abs=0)

    def test_cosine_extrema(self):
        # p-variation of cos(4 pi t) - 1 at its extrema: 2 * 4^(1/2)
        assert pvar(cosine_extrema_path(4), 2.0) == pytest.approx(4.0, abs=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            pts = np.sort(np.concatenate([[0.0, 1.0], rng.uniform(0, 1, 7)]))
            g = TimeGrid(pts)
            vals = rng.standard_normal(9)
            p = rng.uniform(1.0, 3.5)
            assert pvar(SampledPath(g, vals), p) == brute_force_pvar(vals[:, None], p)

    def test_partition_reproduces_value(self):
        # the oracle's maximising partition attains the value
        rng = np.random.default_rng(3)
        g = TimeGrid(np.sort(np.concatenate([[0, 1], rng.uniform(0, 1, 10)])))
        path = SampledPath(g, rng.standard_normal((12, 2)))
        partition = pvar_oracle(path.values, 2.5).optimal_partition
        s = 0.0
        for a, b in zip(partition[:-1], partition[1:]):
            s += np.linalg.norm(path.values[b] - path.values[a]) ** 2.5
        assert s ** (1 / 2.5) == pytest.approx(pvar(path, 2.5), rel=1e-12)

    def test_invalid_p(self):
        g = TimeGrid.uniform(3)
        with pytest.raises(ValueError):
            pvar(SampledPath(g, np.zeros(3)), 0.5)

    @given(st.integers(0, 2**10 - 1), st.floats(1.0, 4.0))
    @settings(max_examples=40, deadline=None)
    def test_refinement_monotone(self, mask, p):
        # adding sample points never decreases the grid p-variation
        rng = np.random.default_rng(mask)
        vals_full = np.concatenate([[0.0], rng.standard_normal(10), [0.5]])
        keep = sorted({0, 11} | {i + 1 for i in range(10) if (mask >> i) & 1})
        full = pvar(SampledPath(TimeGrid.uniform(12), vals_full), p)
        sub = pvar(SampledPath(TimeGrid.uniform(len(keep)), vals_full[keep]), p)
        assert full >= sub - 1e-12

    def test_nonincreasing_in_p(self):
        rng = np.random.default_rng(11)
        g = TimeGrid.uniform(10)
        path = SampledPath(g, rng.standard_normal(10))
        vals = [pvar(path, p) for p in (1.0, 1.5, 2.0, 3.0, 4.0)]
        assert all(a >= b - 1e-12 for a, b in zip(vals[:-1], vals[1:]))


def full_grid_pvar(values, p: float) -> float:
    """The dynamic program over every grid index, without any reduction."""
    v = np.asarray(values, dtype=float).reshape(len(values), -1)
    return pvar_backbone_oracle(pair_norms_oracle(v), p).value


def fast_pvar(values, p: float) -> float:
    return pvar(SampledPath(TimeGrid.uniform(len(values)), values), p)


class TestTurningPointReduction:
    """Scalar paths run on their turning points; the value must equal the
    full grid program's, bit for bit."""

    P_VALUES = (1.0, 1.5, 2.78, 4.0)

    def assert_same(self, values, p):
        assert fast_pvar(values, p) == full_grid_pvar(values, p)

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
        # a flat run counts once: the values are the sums over the
        # partitions [0, 1, 3], [0, 3] and [0, 5]
        two = pytest.approx(2.0 ** (1.0 / p), rel=1e-15)
        assert fast_pvar(np.array([0.0, 1.0, 1.0, 0.0]), p) == two
        assert fast_pvar(np.array([0.0, 1.0, 1.0, 2.0]), p) == pytest.approx(2.0, rel=1e-15)
        assert fast_pvar(np.full(6, -0.5), p) == 0.0

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
        # floating point; the full DP may keep the monotone one, the
        # reduction keeps the turning point: same value
        rng = np.random.default_rng(58)
        for _ in range(200):
            vals = np.cumsum(rng.standard_normal(20))
            vals[5] = vals[4] * (1.0 + 1e-15)
            vals[10] = vals[9] + 1e-14
            assert fast_pvar(vals, p) == full_grid_pvar(vals, p)

    def test_p1_float_ties_differ_by_rounding_only(self):
        # at p = 1 every monotone sample ties exactly; on non-integer data the
        # full DP's pick among them is decided by rounding in its sums
        rng = np.random.default_rng(9)
        for n in (5, 40, 300):
            for _ in range(20):
                vals = np.cumsum(rng.standard_normal(n))
                want = np.abs(np.diff(vals)).sum()
                assert fast_pvar(vals, 1.0) == pytest.approx(want, rel=1e-13)
                assert full_grid_pvar(vals, 1.0) == pytest.approx(want, rel=1e-13)

    def test_vector_paths_keep_full_dp(self):
        rng = np.random.default_rng(4)
        vals = rng.standard_normal((30, 2))
        assert pvar(SampledPath(TimeGrid.uniform(30), vals), 2.2) == full_grid_pvar(vals, 2.2)


def integer_walk_batches():
    """Batches of 1 to 5 integer walks of one length: zero steps make flat
    runs, and integer sums decide even p = 1 ties exactly."""
    steps = st.lists(st.integers(-3, 3), min_size=1, max_size=30)
    return steps.flatmap(lambda row: st.lists(
        st.lists(st.integers(-3, 3), min_size=len(row), max_size=len(row)), max_size=4
    ).map(lambda rest: [row] + rest))


class TestBatchedDP:
    """pvar_values and its program _chain_dp against the per-path oracle
    (conftest), bit for bit."""

    P_VALUES = (1.0, 1.5, 2.78, 4.0)

    def assert_matches(self, values, p):
        values = np.asarray(values, dtype=float)
        lead = values.shape[:-2]
        got = pvar_values(values, p)
        assert got.shape == lead
        for ix in np.ndindex(lead):
            want = pvar_oracle(values[ix], p).value
            assert got[ix] == want
            assert pvar_values(values[ix], p) == want  # alone as in the batch

    @given(st.integers(0, 2**32 - 1), st.integers(2, 40), st.integers(1, 6),
           st.sampled_from(P_VALUES))
    @settings(max_examples=100, deadline=None)
    def test_random_batches(self, seed, n, batch, p):
        # each path drops its own share of steps, so the paths' turning-point
        # counts differ and flat runs appear inside and at the ends
        rng = np.random.default_rng(seed)
        keep = rng.random((batch, n - 1)) < rng.random((batch, 1))
        steps = rng.standard_normal((batch, n - 1)) * keep
        walks = np.concatenate([np.zeros((batch, 1)), np.cumsum(steps, axis=1)], axis=1)
        self.assert_matches(walks[..., None], p)

    @given(integer_walk_batches(), st.sampled_from(P_VALUES))
    @settings(max_examples=150, deadline=None)
    def test_integer_walks_with_flat_runs_and_p1_ties(self, steps, p):
        walks = np.cumsum(np.pad(np.asarray(steps), ((0, 0), (1, 0))), axis=1)
        self.assert_matches(walks[..., None], p)

    @pytest.mark.parametrize("p", P_VALUES)
    def test_small_cases_in_one_batch(self, p):
        rows = [[0, 1, 1, 0], [0, 1, 1, 2], [0, 0, 1, 0], [0, 1, 0, 1], [3, 3, 3, 3],
                [1, 1, 0, 0], [0, 2, 1, 3]]
        self.assert_matches(np.asarray(rows, dtype=float)[..., None], p)

    @pytest.mark.parametrize("p", P_VALUES)
    def test_two_point_paths(self, p):
        self.assert_matches(np.array([[0.0, -1.7], [2.5, 2.5], [1.0, 2.0]])[..., None], p)

    @pytest.mark.parametrize("p", P_VALUES)
    def test_vector_paths(self, p):
        rng = np.random.default_rng(4)
        vals = np.cumsum(rng.standard_normal((5, 30, 2)), axis=1)
        self.assert_matches(vals, p)

    def test_extra_leading_axes(self):
        rng = np.random.default_rng(6)
        self.assert_matches(np.cumsum(rng.standard_normal((2, 3, 25, 1)), axis=-2), 2.2)
        self.assert_matches(np.cumsum(rng.standard_normal((3, 2, 12, 2)), axis=-2), 2.2)
        one = np.cumsum(rng.standard_normal((25, 1)), axis=0)
        assert pvar_values(one, 2.2).shape == ()
        self.assert_matches(one, 2.2)

    @pytest.mark.parametrize("p", P_VALUES)
    def test_backbone_batches_weight_matrices(self, p):
        # small integer weights tie often
        rng = np.random.default_rng(12)
        weights = rng.integers(0, 4, (2, 3, 9, 9)).astype(float)
        flat = (weights**p).reshape(-1, 9, 9)
        values = _chain_dp(lambda j: flat[:, :j, j].copy(), 6, 9, p)
        assert values.shape == (6,)
        for b, w in enumerate(weights.reshape(-1, 9, 9)):
            assert values[b] == pvar_backbone_oracle(w, p).value

    @pytest.mark.parametrize("p", (1.0, 2.78))
    def test_large_stack_padded_rows(self, p):
        # 330 shuffled rows whose turning-point counts run from 2 to 200,
        # with flat runs inside monotone stretches and at extrema, in one
        # program padded to the longest row; every entry must equal its own
        # row's value, bit for bit
        rng = np.random.default_rng(21)
        n, rows = 400, []
        for k in range(330):
            # n_points - 1 monotone stretches of random lengths, alternating
            n_points = 2 + k * 198 // 329
            cuts = np.sort(rng.choice(np.arange(1, n - 1), n_points - 2, replace=False))
            stretch = np.searchsorted(cuts, np.arange(n - 1), side="right")
            steps = (0.5 + rng.random(n - 1)) * (-1.0) ** stretch
            inner = np.diff(stretch, prepend=-1) == 0  # not a stretch's first step
            steps[inner & (rng.random(n - 1) < 0.3)] = 0.0
            rows.append(np.concatenate([[0.0], np.cumsum(steps)]))
        rows[7][:] = 1.5  # one constant row
        rows = np.asarray(rows)[rng.permutation(len(rows))]
        n_points = (np.diff(_turning_points(rows), axis=1) != 0).sum(axis=1) + 1
        assert len(rows) > 300 and n_points.min() == 2 and n_points.max() == 200
        got = pvar_values(rows[:, :, None], p)
        assert np.array_equal(got, pvar_values_oracle(rows[:, :, None], p))

    def test_rejects(self):
        with pytest.raises(ValueError, match="path values contain NaN"):
            pvar_values(np.array([[0.0], [np.nan], [1.0]]), 2.0)
        with pytest.raises(ValueError, match="magnitudes contain NaN"):
            pvar_values(np.array([[0.0, 0.0], [np.nan, 1.0], [1.0, 0.0]]), 2.0)
        with pytest.raises(ValueError, match="p must be"):
            pvar_values(np.zeros((2, 3, 1)), 0.5)
        # one sample is no path, scalar or vector: neither reaches the
        # turning-point reduction
        for dim in (1, 2):
            with pytest.raises(ValueError, match="two grid points"):
                pvar_values(np.zeros((3, 1, dim)), 2.0)


class TestCosinePvar:
    def test_values(self):
        assert cosine_pvar(1, 2.0) == pytest.approx(2.0)
        assert cosine_pvar(8, 2.0) == pytest.approx(2 * math.sqrt(8))
        assert cosine_pvar(5, 1000.0) == pytest.approx(2 * 5 ** (1 / 1000))

    def test_matches_dp(self):
        for n in (1, 2, 6):
            for p in (1.5, 2.0, 3.5):
                dp = pvar(cosine_extrema_path(n), p)
                assert dp == pytest.approx(cosine_pvar(n, p), abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            cosine_pvar(0, 2.0)


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
            dists.append(pvar(path - approx, 1.3))
        assert dists[0] > dists[1] > dists[2]

    def test_coarsen(self):
        g = TimeGrid.dyadic(4)
        path = SampledPath(g, g.points**2)
        c = coarsen_dyadic(path, 2)
        assert len(c.grid) == 5
        assert np.allclose(c.values[:, 0], c.grid.points**2)


class TestRestrictDyadic:
    @pytest.mark.parametrize("level", [0, 2, 5])
    def test_index_selection(self, level):
        g = TimeGrid.dyadic(5)
        vals = np.random.default_rng(level).standard_normal((len(g), 3))
        idx = [g.index_of(t) for t in TimeGrid.dyadic(level).points]
        assert np.array_equal(restrict_dyadic(vals, g, level), vals[idx])

    def test_leading_batch_axes(self):
        g = TimeGrid.dyadic(4)
        vals = np.random.default_rng(1).standard_normal((3, 2, len(g), 2))
        out = restrict_dyadic(vals, g, 2)
        assert out.shape == (3, 2, 5, 2)
        for i in range(3):
            for j in range(2):
                assert np.array_equal(out[i, j], restrict_dyadic(vals[i, j], g, 2))

    def test_rejects(self):
        with pytest.raises(ValueError, match="uniform dyadic"):
            restrict_dyadic(np.zeros((100, 1)), TimeGrid.uniform(100), 2)
        uneven = TimeGrid(np.array([0.0, 0.1, 0.5, 0.75, 1.0]))
        with pytest.raises(ValueError, match="uniform dyadic"):
            restrict_dyadic(np.zeros((5, 1)), uneven, 1)
        with pytest.raises(ValueError, match="level"):
            restrict_dyadic(np.zeros((9, 1)), TimeGrid.dyadic(3), 4)

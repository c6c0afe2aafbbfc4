import io

import numpy as np
import pytest

from roughlaplace.grids import SampledPath, TimeGrid, path_to_csv


def test_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(np.array([0.0, 0.5]))  # endpoint not 1
    with pytest.raises(ValueError):
        TimeGrid(np.array([0.0, 0.5, 0.5, 1.0]))  # not strictly increasing
    with pytest.raises(ValueError):
        TimeGrid(np.array([1.0]))
    g = TimeGrid.uniform(5)
    assert g.index_of(0.5) == 2
    with pytest.raises(ValueError):
        g.index_of(0.3)


def test_dyadic_grid():
    g = TimeGrid.dyadic(3)
    assert len(g) == 9
    assert g.is_uniform()


def test_path_shape_checks():
    g = TimeGrid.uniform(4)
    with pytest.raises(ValueError):
        SampledPath(g, np.zeros((3, 2)))
    p = SampledPath(g, np.arange(4.0))
    assert p.dim == 1
    assert p.values.shape == (4, 1)


def test_path_algebra():
    g = TimeGrid.uniform(6)
    a = SampledPath(g, np.outer(g.points, [1.0, 2.0]))
    b = SampledPath(g, np.outer(g.points**2, [0.5, -1.0]))
    s = a + 2.0 * b
    assert np.allclose(s.values, a.values + 2 * b.values)
    assert np.allclose((a - a).values, 0.0)


def test_csv_roundtrip_lossless():
    g = TimeGrid(np.array([0.0, 1 / 3, 0.7071067811865476, 1.0]))
    vals = np.array([[0.0, 1e-17], [np.pi, -2 / 3], [1e300, 5e-124], [-1.0, 3.3]])
    p = SampledPath(g, vals)
    rows = np.loadtxt(io.StringIO(path_to_csv(p)), delimiter=",", skiprows=1)
    assert np.array_equal(rows[:, 1:], p.values)
    assert np.array_equal(rows[:, 0], g.points)


def test_csv_header():
    g = TimeGrid.uniform(3)
    p = SampledPath(g, np.zeros((3, 2)))
    text = path_to_csv(p)
    assert text.splitlines()[0] == "t,x1,x2"

"""Finite-grid paths on [0,1]: the carrier types used by every other module.

A path is a finite list of vector samples on a strictly increasing time grid
with endpoints exactly 0 and 1.  All norms, integrals and solvers in this
package operate on these samples; between grid points a path is always read
as piecewise linear.
"""
from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "TimeGrid",
    "SampledPath",
    "path_to_csv",
]


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing times in [0,1] with first point 0 and last point 1."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 1 or pts.size < 2:
            raise ValueError("grid needs at least two points")
        if not (pts[0] == 0.0 and pts[-1] == 1.0):
            raise ValueError("grid must start at 0 and end at 1")
        if np.any(np.diff(pts) <= 0):
            raise ValueError("grid times must be strictly increasing")
        pts = pts.copy()
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @classmethod
    def uniform(cls, n_points: int) -> "TimeGrid":
        return cls(np.linspace(0.0, 1.0, n_points))

    @classmethod
    def dyadic(cls, level: int) -> "TimeGrid":
        """Uniform grid with 2**level intervals."""
        return cls.uniform(2**level + 1)

    def __len__(self) -> int:
        return len(self.points)

    @property
    def n_steps(self) -> int:
        return len(self.points) - 1

    @property
    def dt(self) -> np.ndarray:
        return np.diff(self.points)

    def index_of(self, t: float, tol: float = 1e-12) -> int:
        """Index of a time that must lie on the grid (within ``tol``)."""
        i = int(np.argmin(np.abs(self.points - t)))
        if abs(self.points[i] - t) > tol:
            raise ValueError(f"time {t} is not a grid point")
        return i

    def is_uniform(self, tol: float = 1e-12) -> bool:
        dt = self.dt
        return bool(np.all(np.abs(dt - dt[0]) <= tol))


@dataclass
class SampledPath:
    """Vector-valued samples on a :class:`TimeGrid`.

    ``values`` has shape ``(len(grid), dim)``.  ``meta`` carries solver
    diagnostics (error estimates, refinement ladders) and never enters
    comparisons.
    """

    grid: TimeGrid
    values: np.ndarray
    meta: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim == 1:
            v = v[:, None]
        if v.ndim != 2:
            raise ValueError("values must be a (n_points, dim) array")
        if v.shape[0] != len(self.grid):
            raise ValueError(
                f"{v.shape[0]} samples for a grid of {len(self.grid)} points"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("path values must be finite")
        self.values = v

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    @classmethod
    def zero(cls, grid: TimeGrid, dim: int = 1) -> "SampledPath":
        return cls(grid, np.zeros((len(grid), dim)))

    def increments(self) -> np.ndarray:
        return np.diff(self.values, axis=0)

    def at(self, t: float) -> np.ndarray:
        """Piecewise-linear evaluation at an arbitrary time."""
        out = np.empty(self.dim)
        for j in range(self.dim):
            out[j] = np.interp(t, self.grid.points, self.values[:, j])
        return out

    def same_grid(self, other: "SampledPath", tol: float = 1e-12) -> bool:
        return len(self.grid) == len(other.grid) and bool(
            np.all(np.abs(self.grid.points - other.grid.points) <= tol)
        )

    def _require_same_grid(self, other: "SampledPath"):
        if not self.same_grid(other):
            raise ValueError("paths live on different grids")

    def __add__(self, other: "SampledPath") -> "SampledPath":
        self._require_same_grid(other)
        return SampledPath(self.grid, self.values + other.values)

    def __sub__(self, other: "SampledPath") -> "SampledPath":
        self._require_same_grid(other)
        return SampledPath(self.grid, self.values - other.values)

    def __mul__(self, c: float) -> "SampledPath":
        return SampledPath(self.grid, float(c) * self.values)

    __rmul__ = __mul__

    def __neg__(self) -> "SampledPath":
        return SampledPath(self.grid, -self.values)


def path_to_csv(path: SampledPath) -> str:
    """CSV with header ``t,x1,...,xdim`` and 17-significant-digit decimals."""
    buf = io.StringIO()
    header = "t," + ",".join(f"x{j + 1}" for j in range(path.dim))
    buf.write(header + "\n")
    for t, row in zip(path.grid.points, path.values):
        buf.write(",".join(f"{v:.17g}" for v in (t, *row)) + "\n")
    return buf.getvalue()


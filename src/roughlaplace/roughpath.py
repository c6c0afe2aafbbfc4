"""Level-1/2/3 geometric rough paths over a grid, stored as running levels.

A rough path on a grid is a multiplicative functional, fixed by its running
levels S^k_{0,t} from the first grid point: O(N D^k) memory.  Every increment
follows from them by Chen's identity, X_{s,t} = S_{0,s}^{-1} (x) S_{0,t},
solved level by level on demand (:meth:`RoughPath.increment`); only
:meth:`RoughPath.levels` expands all grid pairs, for the two readers that
need every pair: :func:`chen_residual` and the CLI's ``lift`` kind, which
writes them out.  The running levels are the signature of the
piecewise-linear interpolant for :func:`lift`, and for :func:`pair` X's own
running levels, the running signature of k and one running sum per mixed
word; :func:`shift` folds the pairing's running levels onto x + k, and
:func:`scale_rough` scales and truncates them.
Chen's identity thus holds by construction, and :func:`chen_residual`
checks that the one Chen solve is right to rounding.

Within a grid step the cross integrals of the shift and pairing read k as
linear and take X's own step increments, which makes them exact for
polygonal inputs and Young-consistent in general.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .grids import SampledPath, TimeGrid

__all__ = [
    "RoughPath",
    "lift",
    "chen_residual",
    "shift",
    "pair",
    "scale_plan",
    "scale_rough",
    "running_signature",
]


@dataclass
class RoughPath:
    """Rough path on a grid, stored as its running levels for levels 1..level.

    ``running[k-1]`` has shape (N,) + (d,) * k and holds S^k_{0,t}, the
    level-k increment from the first grid point to every grid point (zero at
    the first).  Increments between other grid points come from
    :meth:`increment`.
    """

    grid: TimeGrid
    level: int
    running: list

    def __post_init__(self):
        if self.level not in (2, 3):
            raise ValueError("level must be 2 or 3")
        n, d = len(self.grid), self.dim
        want = [(n,) + (d,) * k for k in range(1, self.level + 1)]
        if [S.shape for S in self.running] != want:
            raise ValueError("running levels do not match the grid/dimension/level")

    @property
    def dim(self) -> int:
        return self.running[0].shape[-1]

    def increment(self, s, t) -> list:
        """Increments X^k_{s,t}, k = 1..level, for grid indices ``s`` and
        ``t`` (integers or index arrays that broadcast), by Chen's identity
        X_{s,t} = S_{0,s}^{-1} (x) S_{0,t} solved level by level:

            X^1_{s,t} = S^1_t - S^1_s,
            X^k_{s,t} = S^k_t - S^k_s - sum_{0<j<k} S^j_s (x) X^{k-j}_{s,t}.

        Each level has shape broadcast(s, t) + (d,) * k.  Nothing is zeroed:
        for t < s the result is the inverse-path increment.
        """
        out = []
        for k, Sk in enumerate(self.running, start=1):
            inc = Sk[t] - Sk[s]
            for j in range(1, k):
                inc -= _otimes(self.running[j - 1][s], out[k - j - 1], j, k - j)
            out.append(inc)
        return out

    def levels(self) -> list:
        """All-pairs increments ``X^k[s, t]``, shape (N, N) + (d,) * k, with
        the entries below the diagonal (t < s) zeroed: O(N^2 d^level) memory."""
        idx = np.arange(len(self.grid))
        out = self.increment(idx[:, None], idx[None, :])
        lower = idx[:, None] > idx[None, :]
        for inc in out:
            inc[lower] = 0.0
        return out


def _otimes(a: np.ndarray, b: np.ndarray, ka: int = 1, kb: int = 1) -> np.ndarray:
    """Tensor product of the last ``ka`` axes of ``a`` with the last ``kb``
    axes of ``b``; the leading axes broadcast."""
    return (a[(...,) + (slice(None),) * ka + (None,) * kb]
            * b[(...,) + (None,) * ka + (slice(None),) * kb])


def _running(terms: np.ndarray, ax: int = 0) -> np.ndarray:
    """Running sums of per-step ``terms`` along axis ``ax``: one more grid
    point than steps, zero at the first."""
    shape = list(terms.shape)
    shape[ax] += 1
    out = np.zeros(shape)
    np.cumsum(terms, axis=ax, out=out[(slice(None),) * ax + (slice(1, None),)])
    return out


def lift(path: SampledPath, level: int = 2) -> RoughPath:
    """Iterated integrals of the piecewise-linear interpolant of ``path``:
    the rough path whose running levels are its :func:`running_signature`."""
    return RoughPath(path.grid, level, running_signature(path.values, level))


def running_signature(values: np.ndarray, level: int = 2) -> list:
    """Signature levels S^k_{0,j} of the piecewise-linear path from the first
    grid point to every grid point j, for ``values`` of shape (..., N, d).

    Per step the level-k tensor of a linear segment with increment v is
    v^{(x)k} / k!.  With the running sums from the first grid point

        P_j = sum_{u<j} x_u (x) dx_u,  Q_j = sum_{u<j} dx_u^{(x)2} / 2,
        E_j = sum_{u<j} (P + Q)_u (x) dx_u,
        G_j = sum_{u<j} x_u (x) dx_u^{(x)2} / 2,  T_j = sum_{u<j} dx_u^{(x)3} / 6,

    Chen's identity against the first point x_0 gives S^1 = x - x_0,
    S^2 = P + Q - x_0 (x) S^1 and
    S^3 = E - x_0 (x) P + x_0 (x) x_0 (x) S^1 + G - x_0 (x) Q + T.

    Returns ``level`` arrays of shape (..., N) + (d,) * k, k = 1..level, in
    O(N d^level) memory per path.
    """
    if level not in (2, 3):
        raise ValueError("level must be 2 or 3")
    x = np.asarray(values, dtype=float)
    ax = x.ndim - 2
    dx = np.diff(x, axis=ax)
    x0, xu = x[..., :1, :], x[..., :-1, :]
    P = _running(_otimes(xu, dx), ax)
    Q = _running(0.5 * _otimes(dx, dx), ax)
    PQ = P + Q
    S1 = x - x0
    S2 = PQ - _otimes(x0, S1)
    if level == 2:
        return [S1, S2]
    E = _running(_otimes(PQ[..., :-1, :, :], dx, 2), ax)
    G = _running(0.5 * _otimes(_otimes(xu, dx), dx, 2), ax)
    T = _running(_otimes(_otimes(dx, dx), dx, 2) / 6.0, ax)
    S3 = E - _otimes(x0, P, 1, 2)
    S3 += _otimes(_otimes(x0, x0), S1, 2)
    S3 += G
    S3 -= _otimes(x0, Q, 1, 2)
    S3 += T
    return [S1, S2, S3]


def chen_residual(X: RoughPath) -> float:
    """Max defect of ``X_{s,t} = X_{s,u} (x) X_{u,t}`` over grid triples
    s <= u <= t, every factor from one all-pairs expansion
    (:meth:`RoughPath.levels`, whose entries are :meth:`RoughPath.increment`'s):
    per middle point u the blocks X_{s,u} = L[:u+1, u], X_{u,t} = L[u, u:]
    and X_{s,t} = L[:u+1, u:]."""
    L = X.levels()
    res = 0.0
    for u in range(len(X.grid)):
        a = [Lk[: u + 1, u] for Lk in L]  # X_{s,u}, (u+1, ...)
        b = [Lk[u, u:] for Lk in L]  # X_{u,t}, (n-u, ...)
        for k in range(2, X.level + 1):
            d = L[k - 1][: u + 1, u:] - a[k - 1][:, None]
            d -= b[k - 1][None, :]
            for j in range(k - 1, 0, -1):
                d -= _otimes(a[j - 1][:, None], b[k - j - 1][None, :], j, k - j)
            res = max(res, float(np.abs(d).max()))
    return res


# ---------------------------------------------------------------------------
# shift and pairing
#
# The running levels of the pair (x, k) from the first grid point: the pure
# blocks are X's running levels and k's running signature; each mixed word
# is one running sum of Chen step terms, with k read as linear within a step
# and X's own step increments X^2_{u,u+1} (exact for polygonal inputs,
# Young-consistent in general).  The (k,x,x) word goes through integration
# by parts, int (k - k_0) (x) dX^2 - int J (x) dx with J = int dk (x) x, so
# that every sum pairs a q-variation factor with a p-variation one.  The
# shift is the pairing's running levels folded onto x + k; the fold is
# linear, so it commutes with Chen's identity.
# ---------------------------------------------------------------------------


def _pair_running(X: RoughPath, k: SampledPath) -> list:
    """Running levels Z^j_{0,t} of the concatenated path (x, k), shape
    (N,) + (d + e,) * j for j = 1..X.level."""
    if len(k.grid) != len(X.grid) or not np.allclose(k.grid.points, X.grid.points):
        raise ValueError("k must live on the rough path's grid")
    n, d, e = len(X.grid), X.dim, k.dim
    steps = np.arange(n - 1)
    x, X2 = X.running[:2]
    X2s = X.increment(steps, steps + 1)[1]
    K = running_signature(k.values, X.level)
    kv = K[0]
    dx, dk = np.diff(x, axis=0), np.diff(kv, axis=0)
    xu, ku = x[:-1], kv[:-1]
    xk = _running(_otimes(xu, dk) + 0.5 * _otimes(dx, dk))
    kx = _running(_otimes(ku, dx) + 0.5 * _otimes(dk, dx))
    blocks = {"x": x, "k": kv, "xx": X2, "kk": K[1], "xk": xk, "kx": kx}
    if X.level == 3:
        def word(W, a, da, db, dc):
            # sum_u W_u (x) dc + a_u (x) db (x) dc / 2 + da (x) db (x) dc / 6
            return _running(_otimes(W[:-1], dc, 2) + 0.5 * _otimes(_otimes(a, db), dc, 2)
                            + _otimes(_otimes(da, db), dc, 2) / 6.0)

        J = _running(_otimes(dk, xu) + 0.5 * _otimes(dk, dx))
        blocks.update(
            xxx=X.running[2],
            kkk=K[2],
            xxk=_running(_otimes(X2[:-1], dk, 2) + 0.5 * _otimes(_otimes(xu, dx), dk, 2)
                         + _otimes(X2s, dk, 2) / 3.0),
            xkx=word(xk, xu, dx, dk, dx),
            xkk=word(xk, xu, dx, dk, dk),
            kxk=word(kx, ku, dk, dx, dk),
            kkx=word(K[1], ku, dk, dk, dx),
            kxx=_running(_otimes(ku, np.diff(X2, axis=0), 1, 2)
                         + (2.0 / 3.0) * _otimes(dk, X2s, 1, 2)
                         - _otimes(J[:-1], dx, 2) - _otimes(_otimes(dk, dx), dx, 2) / 6.0),
        )
    span = {"x": slice(0, d), "k": slice(d, d + e)}
    Z = []
    for j in range(1, X.level + 1):
        Zj = np.zeros((n,) + (d + e,) * j)
        for w, arr in blocks.items():
            if len(w) == j:
                Zj[(slice(None),) + tuple(span[c] for c in w)] = arr
        Z.append(Zj)
    return Z


def pair(X: RoughPath, k: SampledPath) -> RoughPath:
    """Rough path over the concatenated path (x, k) with block components,
    running levels :func:`_pair_running`.  Pure blocks are X^j and K^j; mixed
    blocks are the Young cross integrals word by word."""
    return RoughPath(X.grid, X.level, _pair_running(X, k))


def shift(X: RoughPath, k: SampledPath) -> RoughPath:
    """Rough path over x + k: the pairing's blocks summed, T_k X^j = sum over
    words in {x,k}^j.

    ``k`` must have finite q-variation with 1/p + 1/q > 1 for the ambient
    roughness p (caller-asserted).
    """
    if k.dim != X.dim:
        raise ValueError("shift path dimension must match the rough path")
    d = X.dim
    folded = []
    for j, Zj in enumerate(_pair_running(X, k), start=1):
        blocks = Zj.reshape((len(Zj),) + (2, d) * j)
        folded.append(blocks.sum(axis=tuple(range(1, 2 * j, 2))))
    return RoughPath(X.grid, X.level, folded)


def scale_plan(grid: TimeGrid, c, H: float) -> tuple:
    """Grid index m = c * n_steps of the rescaled horizon and the level
    factors (c^{-H}, c^{-2H}, c^{-3H}) of the self-similarity rescaling.

    Requires a uniform grid with ``c * n_steps`` integral, so that every
    rescaled time lands on a grid point.
    """
    if not grid.is_uniform():
        raise ValueError("scaling requires a uniform grid")
    frac = Fraction(c).limit_denominator(10**9)
    if not 0 < frac <= 1:
        raise ValueError("c must lie in (0, 1]")
    n_steps = grid.n_steps
    m = frac * n_steps
    if m.denominator != 1:
        raise ValueError(f"c = {c} is incompatible with a {n_steps}-step grid")
    cH = float(c) ** (-H)
    return int(m), (cH, cH**2, cH**3)


def scale_rough(X: RoughPath, c, H: float) -> RoughPath:
    """Self-similarity rescaling ``(c^{-jH} X^j_{cs,ct})`` reindexed to [0,1].

    Requires a uniform grid with ``c * n_steps`` integral (:func:`scale_plan`).
    """
    m, factor = scale_plan(X.grid, c, H)
    running = [f * S[: m + 1] for f, S in zip(factor, X.running)]
    return RoughPath(TimeGrid.uniform(m + 1), X.level, running)

"""Level-1/2/3 geometric rough paths over a grid.

Every rough path is formed one way: first its running levels S^k_{0,t} from
the first grid point, in O(N D^k), then the increments for all grid pairs by
one Chen expansion, X_{s,t} = S_{0,s}^{-1} (x) S_{0,t}.  The running levels
are the signature of the piecewise-linear interpolant for :func:`lift`, and
for :func:`pair` the first row of X, the running signature of k and one
running sum per mixed word; :func:`shift` folds the pairing's running levels
onto x + k.  The dense two-parameter arrays make Chen's identity a direct
array check (:func:`chen_residual`) and let the variation programs reuse the
grid DP.

Within a grid step the cross integrals of the shift and pairing read k as
linear and take X's own step increments, which makes them exact for
polygonal inputs and Young-consistent in general.
"""
from __future__ import annotations

import io
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .grids import SampledPath, TimeGrid
from .variation import pvar_backbone

__all__ = [
    "RoughPath",
    "XiValue",
    "lift",
    "chen_residual",
    "xi_norm",
    "djp_seminorm",
    "shift",
    "pair",
    "scale_plan",
    "scale_rough",
    "running_signature",
    "roughpath_to_csv",
]


@dataclass
class RoughPath:
    """Two-parameter increments ``X^j_{s,t}`` for levels 1..level on a grid.

    ``inc1[i, j]`` is the level-1 increment between grid indices ``i <= j``
    (entries below the diagonal are zero), and similarly for ``inc2`` and,
    when ``level == 3``, ``inc3``.
    """

    grid: TimeGrid
    level: int
    inc1: np.ndarray
    inc2: np.ndarray
    inc3: np.ndarray | None = None
    meta: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        if self.level not in (2, 3):
            raise ValueError("level must be 2 or 3")
        n = len(self.grid)
        d = self.inc1.shape[-1]
        if self.inc1.shape != (n, n, d) or self.inc2.shape != (n, n, d, d):
            raise ValueError("increment arrays do not match the grid/dimension")
        if self.level == 3 and (self.inc3 is None or self.inc3.shape != (n, n, d, d, d)):
            raise ValueError("level-3 increments missing or misshaped")

    @property
    def dim(self) -> int:
        return self.inc1.shape[-1]

    def levels(self):
        out = [self.inc1, self.inc2]
        if self.level == 3:
            out.append(self.inc3)
        return out


@dataclass
class XiValue:
    """Homogeneous rough-path norm: sum over levels of ||X^j||_{p/j-var}^{1/j}."""

    value: float
    per_level: list


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


def _expand(S: list) -> list:
    """Increments for every grid pair from running levels ``S[k-1] = S^k_{0,t}``
    of shape (N,) + (D,) * k, by Chen's identity X_{s,t} = S_{0,s}^{-1} (x) S_{0,t}
    solved level by level:

        X^1_{s,t} = S^1_t - S^1_s,
        X^k_{s,t} = S^k_t - S^k_s - sum_{0<j<k} S^j_s (x) X^{k-j}_{s,t}.

    Entries with t < s are zeroed.
    """
    base = [s[:, None] for s in S]
    out = []
    for k, Sk in enumerate(S, start=1):
        inc = Sk[None] - base[k - 1]
        for j in range(1, k):
            inc -= _otimes(base[j - 1], out[k - j - 1], j, k - j)
        out.append(inc)
    lower = np.tril(np.ones((len(S[0]),) * 2, dtype=bool), k=-1)
    for inc in out:
        inc[lower] = 0.0
    return out


def lift(path: SampledPath, level: int = 2) -> RoughPath:
    """Iterated integrals of the piecewise-linear interpolant of ``path``:
    the Chen expansion of its :func:`running_signature` to every grid pair,
    O(N^2 d^level) memory.  Use :func:`running_signature` when only
    increments from the first grid point are needed.
    """
    return RoughPath(path.grid, level, *_expand(running_signature(path.values, level)))


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
    """Max defect of ``X_{s,t} = X_{s,u} (x) X_{u,t}`` over grid triples s<=u<=t."""
    n = len(X.grid)
    res = 0.0
    for u in range(n):
        a1 = X.inc1[: u + 1, u]  # (i, d) for i <= u
        b1 = X.inc1[u, u:]  # (j, d) for j >= u
        d2 = (
            X.inc2[: u + 1, u:]
            - X.inc2[: u + 1, u][:, None]
            - X.inc2[u, u:][None, :]
            - np.einsum("ia,jb->ijab", a1, b1)
        )
        res = max(res, float(np.abs(d2).max()))
        if X.level == 3:
            d3 = (
                X.inc3[: u + 1, u:]
                - X.inc3[: u + 1, u][:, None]
                - X.inc3[u, u:][None, :]
                - np.einsum("iab,jc->ijabc", X.inc2[: u + 1, u], b1)
                - np.einsum("ia,jbc->ijabc", a1, X.inc2[u, u:])
            )
            res = max(res, float(np.abs(d3).max()))
    return res


def _level_norms(arr: np.ndarray) -> np.ndarray:
    """Frobenius magnitude of each two-parameter tensor entry."""
    flat = arr.reshape(arr.shape[0], arr.shape[1], -1)
    return np.sqrt(np.einsum("ijk,ijk->ij", flat, flat))


def xi_norm(X: RoughPath, p: float) -> XiValue:
    """Homogeneous norm from (def. of xi): sum_j ||X^j||_{p/j-var}^{1/j}.

    Level-j variation uses the grid DP on Frobenius magnitudes of the
    two-parameter increments.
    """
    if not 2 < p < 4:
        raise ValueError("p must lie in (2,4)")
    per = []
    for j, arr in enumerate(X.levels(), start=1):
        w = _level_norms(arr)
        v = pvar_backbone(w, p / j).value
        per.append(v ** (1.0 / j))
    return XiValue(value=float(sum(per)), per_level=per)


def djp_seminorm(
    X: RoughPath,
    Y: RoughPath | None,
    j: int,
    p: float,
    gamma: float,
    n_max: int,
) -> float:
    """Truncated dyadic seminorm

        ( sum_{n=1}^{n_max} n^gamma sum_{l=1}^{2^n} |X^j - Y^j|^{p/j}
          over increments ((l-1)/2^n, l/2^n) )^{j/p}

    with Y = 0 allowed.  The grid must contain all dyadic points up to level
    ``n_max``.
    """
    if gamma <= p - 1:
        raise ValueError("need gamma > p - 1")
    if j > X.level:
        raise ValueError(f"rough path has no level {j}")
    arrX = X.levels()[j - 1]
    arrY = None if Y is None else Y.levels()[j - 1]
    total = 0.0
    for n in range(1, n_max + 1):
        idx = [X.grid.index_of(l / 2**n) for l in range(2**n + 1)]
        diffs = []
        for a, b in zip(idx[:-1], idx[1:]):
            v = arrX[a, b] if arrY is None else arrX[a, b] - arrY[a, b]
            diffs.append(np.sqrt((v * v).sum()))
        total += n**gamma * np.sum(np.asarray(diffs) ** (p / j))
    return float(total ** (j / p))


# ---------------------------------------------------------------------------
# shift and pairing
#
# The running levels of the pair (x, k) from the first grid point: the pure
# blocks are X's first row and k's running signature; each mixed word is one
# running sum of Chen step terms, with k read as linear within a step and
# X's own step increments X^2_{u,u+1} (exact for polygonal inputs,
# Young-consistent in general).  The (k,x,x) word goes through integration
# by parts, int (k - k_0) (x) dX^2 - int J (x) dx with J = int dk (x) x, so
# that every sum pairs a q-variation factor with a p-variation one.  The
# shift is the pairing folded onto x + k; the fold is linear, so it
# commutes with the Chen expansion and happens on the running levels.
# ---------------------------------------------------------------------------


def _pair_running(X: RoughPath, k: SampledPath) -> list:
    """Running levels Z^j_{0,t} of the concatenated path (x, k), shape
    (N,) + (d + e,) * j for j = 1..X.level."""
    if len(k.grid) != len(X.grid) or not np.allclose(k.grid.points, X.grid.points):
        raise ValueError("k must live on the rough path's grid")
    n, d, e = len(X.grid), X.dim, k.dim
    steps = np.arange(n - 1)
    x, X2, X2s = X.inc1[0], X.inc2[0], X.inc2[steps, steps + 1]
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
            xxx=X.inc3[0],
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
    """Rough path over the concatenated path (x, k) with block components:
    the Chen expansion of :func:`_pair_running`.  Pure blocks are X^j and
    K^j; mixed blocks are the Young cross integrals word by word."""
    return RoughPath(X.grid, X.level, *_expand(_pair_running(X, k)))


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
    return RoughPath(X.grid, X.level, *_expand(folded))


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
    sl = slice(0, m + 1)
    inc3 = None if X.level == 2 else factor[2] * X.inc3[sl, sl]
    return RoughPath(
        grid=TimeGrid.uniform(m + 1),
        level=X.level,
        inc1=factor[0] * X.inc1[sl, sl],
        inc2=factor[1] * X.inc2[sl, sl],
        inc3=inc3,
    )


def roughpath_to_csv(X: RoughPath) -> dict:
    """CSV text per level with columns ``i,j,<flattened tensor entries>``."""
    out = {}
    n = len(X.grid)
    for lvl, arr in enumerate(X.levels(), start=1):
        buf = io.StringIO()
        width = int(np.prod(arr.shape[2:]))
        buf.write("i,j," + ",".join(f"v{k}" for k in range(width)) + "\n")
        for i in range(n):
            for j in range(i, n):
                flat = arr[i, j].reshape(-1)
                buf.write(f"{i},{j}," + ",".join(f"{v:.17g}" for v in flat) + "\n")
        out[lvl] = buf.getvalue()
    return out

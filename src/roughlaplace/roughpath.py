"""Level-1/2/3 geometric rough paths over a grid.

Rough paths here are lifts of piecewise-linear representatives (or images of
such lifts under shift, pairing and scaling), stored as dense two-parameter
increment arrays for all grid pairs.  Chen's identity then becomes a direct
array check and the two-parameter variation programs reuse the grid DP.

Within a grid step every path is read as linear; the cross integrals of the
shift and pairing use that reading, which makes them exact for polygonal
inputs and Young-consistent in general.
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


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a[..., :, None] * b[..., None, :]


def _outer3(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    return a[..., :, None, None] * b[..., None, :, None] * c[..., None, None, :]


def _cumulants(x: np.ndarray, level: int) -> tuple:
    """Running sums along the grid axis of ``x`` (shape (..., N, d)), zero at
    the first grid point:

        P_j = sum_{u<j} x_u (x) dx_u,  Q_j = sum_{u<j} dx_u^{(x)2} / 2,

    and at level 3 E_j = sum_{u<j} (P + Q)_u (x) dx_u,
    G_j = sum_{u<j} x_u (x) dx_u^{(x)2} / 2, T_j = sum_{u<j} dx_u^{(x)3} / 6.
    Returns (P, Q, P + Q) or (P, Q, P + Q, E, G, T).
    """
    ax = x.ndim - 2
    dx = np.diff(x, axis=ax)

    def running(terms):
        out = np.zeros(x.shape[:-1] + terms.shape[ax + 1:])
        np.cumsum(terms, axis=ax, out=out[(slice(None),) * ax + (slice(1, None),)])
        return out

    P = running(_outer(x[..., :-1, :], dx))
    Q = running(0.5 * _outer(dx, dx))
    PQ = P + Q
    if level == 2:
        return P, Q, PQ
    E = running(np.einsum("...uab,...uc->...uabc", PQ[..., :-1, :, :], dx))
    G = running(0.5 * _outer3(x[..., :-1, :], dx, dx))
    T = running(_outer3(dx, dx, dx) / 6.0)
    return P, Q, PQ, E, G, T


def _chen_increments(x: np.ndarray, cum: tuple, s: slice) -> list:
    """Increments X^k_{s,t} from the grid points selected by ``s`` to every
    grid point t, shape (..., |s|, N) + (d,) * k, for the piecewise-linear
    path ``x`` with cumulants ``cum`` from :func:`_cumulants`.

    Chen's identity against the first grid point gives each level as a
    difference of cumulants plus products of lower levels.  Entries with
    t < s are not increments; :func:`lift` zeroes them.
    """
    P, Q, PQ = cum[:3]
    xs = x[..., s, :]
    inc1 = x[..., None, :, :] - xs[..., :, None, :]
    inc2 = (
        PQ[..., None, :, :, :] - PQ[..., s, None, :, :]
        - np.einsum("...ia,...ijb->...ijab", xs, inc1)
    )
    if len(cum) == 3:
        return [inc1, inc2]
    E, G, T = cum[3:]

    def diff(C):
        return C[..., None, :, :, :, :] - C[..., s, None, :, :, :]

    def base(C):
        at_t = np.einsum("...ia,...jbc->...ijabc", xs, C)
        at_s = np.einsum("...ia,...ibc->...iabc", xs, C[..., s, :, :])
        return at_t - at_s[..., :, None, :, :, :]

    inc3 = diff(E)
    inc3 -= np.einsum("...iab,...ijc->...ijabc", PQ[..., s, :, :], inc1)
    inc3 -= base(P)
    inc3 += np.einsum("...ia,...ib,...ijc->...ijabc", xs, xs, inc1)
    inc3 += diff(G)
    inc3 -= base(Q)
    inc3 += diff(T)
    return [inc1, inc2, inc3]


def lift(path: SampledPath, level: int = 2) -> RoughPath:
    """Iterated integrals of the piecewise-linear interpolant of ``path``.

    Per step the level-j tensor of a linear segment with increment v is
    v^{tensor j} / j!; steps compose through Chen's identity.  The running
    sums take O(N d^level) memory; filling every grid pair makes the
    returned rough path O(N^2 d^level).  Use :func:`running_signature` when
    only increments from the first grid point are needed.
    """
    if level not in (2, 3):
        raise ValueError("level must be 2 or 3")
    x = path.values
    rp = RoughPath(path.grid, level, *_chen_increments(x, _cumulants(x, level), slice(None)))
    _zero_lower_triangle(rp)
    return rp


def running_signature(values: np.ndarray, level: int = 2) -> list:
    """Signature levels S^k_{0,j} of the piecewise-linear path from the first
    grid point to every grid point j, for ``values`` of shape (..., N, d).

    Returns ``level`` arrays of shape (..., N) + (d,) * k, k = 1..level; each
    equals ``lift(path, level).inc{k}[0]`` bit for bit, in O(N d^level)
    memory per path.
    """
    if level not in (2, 3):
        raise ValueError("level must be 2 or 3")
    x = np.asarray(values, dtype=float)
    incs = _chen_increments(x, _cumulants(x, level), slice(0, 1))
    ax = x.ndim - 2
    return [inc.squeeze(axis=ax) for inc in incs]


def _zero_lower_triangle(X: RoughPath):
    n = len(X.grid)
    mask = np.tril(np.ones((n, n), dtype=bool), k=-1)
    for arr in X.levels():
        arr[mask] = 0.0


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
# Mixed iterated integrals over the words {x,k}^2 and {x,k}^3 computed as
# Young integrals, with the within-step linear reading supplying the 1/2,
# 1/3, 1/6 step corrections (exact for polygonal inputs).  The (k,x,x) word
# uses the integration-by-parts rewriting through dX^2.
# ---------------------------------------------------------------------------


def _cross_words(X: RoughPath, k_vals: np.ndarray, want_level3: bool) -> dict:
    x = X.inc1[0]  # first-level path started at the first grid value offset 0
    n, d = x.shape
    dk_all = np.diff(k_vals, axis=0)
    dx_all = np.diff(x, axis=0)
    dkm = k_vals.shape[1]

    out = {}
    I_xk = np.zeros((n, n, d, dkm))
    I_kx = np.zeros((n, n, dkm, d))
    for u in range(n - 1):
        dxu, dku = dx_all[u], dk_all[u]
        xi = x[u] - x[: u + 1]  # (i, d) for i <= u
        ki = k_vals[u] - k_vals[: u + 1]
        I_xk[: u + 1, u + 1] = (
            I_xk[: u + 1, u] + _outer(xi, dku) + 0.5 * _outer(dxu, dku)
        )
        I_kx[: u + 1, u + 1] = (
            I_kx[: u + 1, u] + _outer(ki, dxu) + 0.5 * _outer(dku, dxu)
        )
    out["xk"] = I_xk
    out["kx"] = I_kx
    if not want_level3:
        return out

    K = lift(SampledPath(X.grid, k_vals), level=3)
    shapes = {
        "xxk": (d, d, dkm),
        "xkx": (d, dkm, d),
        "kxx": (dkm, d, d),
        "xkk": (d, dkm, dkm),
        "kxk": (dkm, d, dkm),
        "kkx": (dkm, dkm, d),
    }
    words = {w: np.zeros((n, n) + s) for w, s in shapes.items()}
    # running inner integral of dk (x) (x - x_i) for the (k,x,x) rewriting
    J = np.zeros((n, n, dkm, d))
    term2 = np.zeros((n, n, dkm, d, d))

    for u in range(n - 1):
        dxu, dku = dx_all[u], dk_all[u]
        sl = slice(0, u + 1)
        xi = x[u] - x[sl]
        ki = k_vals[u] - k_vals[sl]
        X2_step = X.inc2[u, u + 1]
        X2_base = X.inc2[sl, u]
        K2_base = K.inc2[sl, u]

        # (x,x,k): int X^2_{i,.} (x) dk
        words["xxk"][sl, u + 1] = (
            words["xxk"][sl, u]
            + np.einsum("iab,c->iabc", X2_base, dku)
            + 0.5 * _outer3(xi, dxu, dku)
            + np.einsum("ab,c->abc", X2_step, dku) / 3.0
        )
        # (x,k,x): nested through I_xk
        words["xkx"][sl, u + 1] = (
            words["xkx"][sl, u]
            + np.einsum("iab,c->iabc", I_xk[sl, u], dxu)
            + 0.5 * _outer3(xi, dku, dxu)
            + _outer3(dxu, dku, dxu) / 6.0
        )
        # (x,k,k): nested through I_xk
        words["xkk"][sl, u + 1] = (
            words["xkk"][sl, u]
            + np.einsum("iab,c->iabc", I_xk[sl, u], dku)
            + 0.5 * _outer3(xi, dku, dku)
            + _outer3(dxu, dku, dku) / 6.0
        )
        # (k,x,k): nested through I_kx
        words["kxk"][sl, u + 1] = (
            words["kxk"][sl, u]
            + np.einsum("iab,c->iabc", I_kx[sl, u], dku)
            + 0.5 * _outer3(ki, dxu, dku)
            + _outer3(dku, dxu, dku) / 6.0
        )
        # (k,k,x): nested through K^2
        words["kkx"][sl, u + 1] = (
            words["kkx"][sl, u]
            + np.einsum("iab,c->iabc", K2_base, dxu)
            + 0.5 * _outer3(ki, dku, dxu)
            + _outer3(dku, dku, dxu) / 6.0
        )
        # (k,x,x) via the rewriting  int (k-k_i)(x)dX^2  -  int [int dk(x)(x-x_i)](x)dx
        term1_step = (
            np.einsum("ia,bc->iabc", ki, X2_step)
            + _outer3(ki, xi, dxu)
            + 0.5 * _outer3(dku, xi, dxu)
            + 2.0 / 3.0 * np.einsum("a,bc->abc", dku, X2_step)
        )
        term2_step = (
            np.einsum("iab,c->iabc", J[sl, u], dxu)
            + 0.5 * _outer3(dku, xi, dxu)
            + _outer3(dku, dxu, dxu) / 6.0
        )
        term2[sl, u + 1] = term2[sl, u] + term2_step
        words["kxx"][sl, u + 1] = words["kxx"][sl, u] + term1_step - term2_step
        J[sl, u + 1] = J[sl, u] + _outer(dku, xi) + 0.5 * _outer(dku, dxu)

    out.update(words)
    out["K"] = K
    return out


def shift(X: RoughPath, k: SampledPath) -> RoughPath:
    """Rough path over x + k: cross terms by Young integration word by word.

    ``k`` must have finite q-variation with 1/p + 1/q > 1 for the ambient
    roughness p (caller-asserted).
    """
    if len(k.grid) != len(X.grid) or not np.allclose(k.grid.points, X.grid.points):
        raise ValueError("shift path must live on the rough path's grid")
    if k.dim != X.dim:
        raise ValueError("shift path dimension must match the rough path")
    want3 = X.level == 3
    words = _cross_words(X, k.values, want3)
    K = words["K"] if want3 else lift(k, level=X.level)

    inc1 = X.inc1 + K.inc1
    inc2 = X.inc2 + K.inc2 + words["xk"] + words["kx"]
    inc3 = None
    if want3:
        inc3 = X.inc3 + K.inc3
        for w in ("xxk", "xkx", "kxx", "xkk", "kxk", "kkx"):
            inc3 = inc3 + words[w]
    rp = RoughPath(grid=X.grid, level=X.level, inc1=inc1, inc2=inc2, inc3=inc3)
    _zero_lower_triangle(rp)
    return rp


def pair(X: RoughPath, k: SampledPath) -> RoughPath:
    """Rough path over the concatenated path (x, k) with block components.

    Pure blocks are X^j and K^j; mixed level-2 blocks are the Young cross
    integrals; mixed level-3 blocks follow the word decompositions, with the
    (k,x,x) word through the integration-by-parts identity.
    """
    if len(k.grid) != len(X.grid) or not np.allclose(k.grid.points, X.grid.points):
        raise ValueError("paired path must live on the rough path's grid")
    want3 = X.level == 3
    words = _cross_words(X, k.values, want3)
    K = words["K"] if want3 else lift(k, level=X.level)
    n = len(X.grid)
    d, e = X.dim, k.dim
    D = d + e
    sx, sk = slice(0, d), slice(d, D)

    inc1 = np.zeros((n, n, D))
    inc1[..., sx] = X.inc1
    inc1[..., sk] = K.inc1

    inc2 = np.zeros((n, n, D, D))
    inc2[..., sx, sx] = X.inc2
    inc2[..., sk, sk] = K.inc2
    inc2[..., sx, sk] = words["xk"]
    inc2[..., sk, sx] = words["kx"]

    inc3 = None
    if want3:
        inc3 = np.zeros((n, n, D, D, D))
        inc3[..., sx, sx, sx] = X.inc3
        inc3[..., sk, sk, sk] = K.inc3
        inc3[..., sx, sx, sk] = words["xxk"]
        inc3[..., sx, sk, sx] = words["xkx"]
        inc3[..., sk, sx, sx] = words["kxx"]
        inc3[..., sx, sk, sk] = words["xkk"]
        inc3[..., sk, sx, sk] = words["kxk"]
        inc3[..., sk, sk, sx] = words["kkx"]
    rp = RoughPath(grid=X.grid, level=X.level, inc1=inc1, inc2=inc2, inc3=inc3)
    _zero_lower_triangle(rp)
    return rp


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

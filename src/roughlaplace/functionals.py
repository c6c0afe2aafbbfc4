"""Built-in path functionals F, G and vector fields sigma, beta.

The built-in fields keep every derivative bounded: nonlinearities are always
tanh-saturated affine forms, so the bounded-smooth-coefficient model holds on
all of state space.  All evaluators broadcast over leading batch axes.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fbm import substream
from .grids import SampledPath
from .odes import VectorFieldSpec

__all__ = [
    "FunctionalSpec",
    "zero_functional",
    "one_functional",
    "endpoint_linear",
    "endpoint_quadratic",
    "integral_quadratic",
    "constant_field",
    "tanh_field",
    "rotation_field",
    "fractional_drift_field",
    "make_field",
    "make_functional",
]


@dataclass
class FunctionalSpec:
    """Evaluators for a path functional and its first two derivatives.

    ``value(values, grid)`` accepts sample arrays of shape (..., N, n) and
    broadcasts; ``grad(base, zs, grid)`` evaluates the derivative at the base
    path on direction arrays (..., N, n), and similarly for ``hess``.
    """

    value: Callable
    grad: Callable
    hess: Callable
    name: str = "custom"

    def __call__(self, path: SampledPath) -> float:
        return float(self.value(path.values, path.grid))

    def grad_at(self, base: SampledPath, zs) -> np.ndarray:
        return np.asarray(self.grad(base.values, np.asarray(zs, dtype=float), base.grid))

    def hess_at(self, base: SampledPath, z1, z2) -> np.ndarray:
        return np.asarray(
            self.hess(base.values, np.asarray(z1, dtype=float), np.asarray(z2, dtype=float), base.grid)
        )


def zero_functional() -> FunctionalSpec:
    return FunctionalSpec(
        value=lambda v, g: np.zeros(v.shape[:-2]),
        grad=lambda v, z, g: np.zeros(np.broadcast_shapes(v.shape[:-2], z.shape[:-2])),
        hess=lambda v, z1, z2, g: np.zeros(
            np.broadcast_shapes(v.shape[:-2], z1.shape[:-2], z2.shape[:-2])
        ),
        name="zero",
    )


def one_functional() -> FunctionalSpec:
    """G identically 1 (the default weight)."""
    spec = zero_functional()
    return FunctionalSpec(
        value=lambda v, g: np.ones(v.shape[:-2]),
        grad=spec.grad,
        hess=spec.hess,
        name="one",
    )


def endpoint_linear(v) -> FunctionalSpec:
    """F(y) = <v, y_1>."""
    v = np.asarray(v, dtype=float)
    return FunctionalSpec(
        value=lambda vals, g: vals[..., -1, :] @ v,
        grad=lambda vals, z, g: z[..., -1, :] @ v,
        hess=lambda vals, z1, z2, g: np.zeros(
            np.broadcast_shapes(z1.shape[:-2], z2.shape[:-2])
        ),
        name="endpoint_linear",
    )


def endpoint_quadratic(Q, v=None) -> FunctionalSpec:
    """F(y) = <y_1, Q y_1>/2 + <v, y_1>."""
    Q = np.asarray(Q, dtype=float)
    Q = 0.5 * (Q + Q.T)
    v = np.zeros(Q.shape[0]) if v is None else np.asarray(v, dtype=float)

    def value(vals, g):
        y1 = vals[..., -1, :]
        return 0.5 * np.einsum("...a,ab,...b->...", y1, Q, y1) + y1 @ v

    def grad(vals, z, g):
        y1 = vals[..., -1, :]
        return np.einsum("...a,ab,...b->...", y1, Q, z[..., -1, :]) + z[..., -1, :] @ v

    def hess(vals, z1, z2, g):
        return np.einsum("...a,ab,...b->...", z1[..., -1, :], Q, z2[..., -1, :])

    return FunctionalSpec(value=value, grad=grad, hess=hess, name="endpoint_quadratic")


def integral_quadratic(Q, v=None, c0: float = 0.0) -> FunctionalSpec:
    """F(y) = int_0^1 [ <y_t, Q y_t>/2 + <v, y_t> + c0 ] dt (trapezoid)."""
    Q = np.asarray(Q, dtype=float)
    Q = 0.5 * (Q + Q.T)
    v = np.zeros(Q.shape[0]) if v is None else np.asarray(v, dtype=float)

    def value(vals, g):
        f = 0.5 * np.einsum("...ta,ab,...tb->...t", vals, Q, vals) + vals @ v + c0
        return np.trapezoid(f, g.points, axis=-1)

    def grad(vals, z, g):
        f = np.einsum("...ta,ab,...tb->...t", vals, Q, z) + z @ v
        return np.trapezoid(f, g.points, axis=-1)

    def hess(vals, z1, z2, g):
        f = np.einsum("...ta,ab,...tb->...t", z1, Q, z2)
        return np.trapezoid(f, g.points, axis=-1)

    return FunctionalSpec(value=value, grad=grad, hess=hess, name="integral_quadratic")


# ---------------------------------------------------------------------------
# vector fields
# ---------------------------------------------------------------------------


def constant_field(S, beta_matrix=None) -> VectorFieldSpec:
    """sigma(y) = S constant; optional linear drift beta(eps, y) = B y."""
    S = np.atleast_2d(np.asarray(S, dtype=float))
    n, d = S.shape
    B = None if beta_matrix is None else np.asarray(beta_matrix, dtype=float)

    def sigma(y):
        y = np.asarray(y, dtype=float)
        return np.broadcast_to(S, y.shape[:-1] + (n, d)).copy()

    def beta(eps, y):
        y = np.asarray(y, dtype=float)
        if B is None:
            return np.zeros(y.shape)
        return np.einsum("ab,...b->...a", B, y)

    def zeros(shape):
        return lambda *args: np.zeros(np.asarray(args[-1]).shape[:-1] + shape)

    if B is None:
        dbeta_y = zeros((n, n))
    else:
        def dbeta_y(eps, y):
            return np.broadcast_to(B, np.asarray(y).shape[:-1] + (n, n)).copy()

    return VectorFieldSpec(
        n=n,
        d=d,
        sigma=sigma,
        beta=beta,
        dsigma=zeros((n, d, n)),
        d2sigma=zeros((n, d, n, n)),
        dbeta_y=dbeta_y,
        d2beta_y=zeros((n, n, n)),
        dbeta_eps=zeros((n,)),
        d2beta_eps=zeros((n,)),
        dbeta_y_eps=zeros((n, n)),
        batched=True,
        name="constant",
    )


def _tanh_tables(n: int, d: int, coef_seed: int, scale: float):
    rng = substream(coef_seed, 7, 0)
    s0 = scale * rng.uniform(-1.0, 1.0, size=(n, d))
    s1 = scale * rng.uniform(0.5, 1.0, size=(n, d)) * rng.choice([-1.0, 1.0], size=(n, d))
    W = rng.uniform(-1.0, 1.0, size=(n, d, n))
    b = rng.uniform(-0.3, 0.3, size=(n, d))
    return s0, s1, W, b


def tanh_field(
    n: int,
    d: int,
    coef_seed: int = 12,
    scale: float = 0.4,
    drift_scale: float = 0.3,
) -> VectorFieldSpec:
    """Bounded smooth test field: sigma_ij(y) = s0_ij + s1_ij tanh(<W_ij, y> + b_ij)
    with drift beta(eps, y) = c0 tanh(V y) + eps c1 tanh(U y + g) + eps^2/2 c2 tanh(Z y).

    Coefficient tables are drawn once from a counter-based stream keyed by
    ``coef_seed``, so a field is reproducible from its parameters.
    """
    s0, s1, W, b = _tanh_tables(n, d, coef_seed, scale)
    rng = substream(coef_seed, 7, 1)
    c0 = drift_scale * rng.uniform(-1.0, 1.0, size=n)
    c1 = drift_scale * rng.uniform(-1.0, 1.0, size=n)
    c2 = drift_scale * rng.uniform(-1.0, 1.0, size=n)
    V = rng.uniform(-1.0, 1.0, size=(n, n))
    U = rng.uniform(-1.0, 1.0, size=(n, n))
    Zm = rng.uniform(-1.0, 1.0, size=(n, n))
    g = rng.uniform(-0.3, 0.3, size=n)

    def _arg(y):
        return np.einsum("ijk,...k->...ij", W, y) + b

    def sigma(y):
        y = np.asarray(y, dtype=float)
        return s0 + s1 * np.tanh(_arg(y))

    def dsigma(y):
        y = np.asarray(y, dtype=float)
        sech2 = 1.0 - np.tanh(_arg(y)) ** 2
        return np.einsum("...ij,ijb->...ijb", s1 * sech2, W)

    def d2sigma(y):
        y = np.asarray(y, dtype=float)
        th = np.tanh(_arg(y))
        factor = s1 * (-2.0 * th * (1.0 - th**2))
        return np.einsum("...ij,ijb,ijc->...ijbc", factor, W, W)

    def beta(eps, y):
        y = np.asarray(y, dtype=float)
        t0 = np.tanh(np.einsum("ab,...b->...a", V, y))
        t1 = np.tanh(np.einsum("ab,...b->...a", U, y) + g)
        t2 = np.tanh(np.einsum("ab,...b->...a", Zm, y))
        return c0 * t0 + eps * c1 * t1 + 0.5 * eps**2 * c2 * t2

    def dbeta_y(eps, y):
        y = np.asarray(y, dtype=float)
        s0v = 1.0 - np.tanh(np.einsum("ab,...b->...a", V, y)) ** 2
        s1v = 1.0 - np.tanh(np.einsum("ab,...b->...a", U, y) + g) ** 2
        s2v = 1.0 - np.tanh(np.einsum("ab,...b->...a", Zm, y)) ** 2
        return (
            np.einsum("...a,ab->...ab", c0 * s0v, V)
            + eps * np.einsum("...a,ab->...ab", c1 * s1v, U)
            + 0.5 * eps**2 * np.einsum("...a,ab->...ab", c2 * s2v, Zm)
        )

    def d2beta_y(eps, y):
        y = np.asarray(y, dtype=float)
        out = 0.0
        for cc, Mx, off, w in ((c0, V, 0.0, 1.0), (c1, U, g, eps), (c2, Zm, 0.0, 0.5 * eps**2)):
            th = np.tanh(np.einsum("ab,...b->...a", Mx, y) + off)
            fac = w * cc * (-2.0 * th * (1.0 - th**2))
            out = out + np.einsum("...a,ab,ac->...abc", fac, Mx, Mx)
        return out

    def dbeta_eps(eps, y):
        y = np.asarray(y, dtype=float)
        t1 = np.tanh(np.einsum("ab,...b->...a", U, y) + g)
        t2 = np.tanh(np.einsum("ab,...b->...a", Zm, y))
        return c1 * t1 + eps * c2 * t2

    def d2beta_eps(eps, y):
        y = np.asarray(y, dtype=float)
        return c2 * np.tanh(np.einsum("ab,...b->...a", Zm, y))

    def dbeta_y_eps(eps, y):
        y = np.asarray(y, dtype=float)
        s1v = 1.0 - np.tanh(np.einsum("ab,...b->...a", U, y) + g) ** 2
        s2v = 1.0 - np.tanh(np.einsum("ab,...b->...a", Zm, y)) ** 2
        return np.einsum("...a,ab->...ab", c1 * s1v, U) + eps * np.einsum(
            "...a,ab->...ab", c2 * s2v, Zm
        )

    return VectorFieldSpec(
        n=n, d=d, sigma=sigma, beta=beta,
        dsigma=dsigma, d2sigma=d2sigma,
        dbeta_y=dbeta_y, d2beta_y=d2beta_y,
        dbeta_eps=dbeta_eps, d2beta_eps=d2beta_eps, dbeta_y_eps=dbeta_y_eps,
        batched=True, name="tanh",
    )


def rotation_field(d: int, kappa: float = 1.0, scale: float = 0.5) -> VectorFieldSpec:
    """Planar rotation-type field on n = 2: sigma(y) = R(kappa tanh(y_1 + y_2)) S.

    Bounded and smooth; derivative evaluators fall back to finite differences.
    """
    S = scale * np.ones((2, d))
    S[1, :] *= 0.5

    def sigma(y):
        y = np.asarray(y, dtype=float)
        th = kappa * np.tanh(y[..., 0] + y[..., 1])
        c, s = np.cos(th), np.sin(th)
        R = np.stack(
            [np.stack([c, -s], axis=-1), np.stack([s, c], axis=-1)], axis=-2
        )
        return np.einsum("...ab,bj->...aj", R, S)

    def beta(eps, y):
        y = np.asarray(y, dtype=float)
        return np.zeros(y.shape)

    return VectorFieldSpec(n=2, d=d, sigma=sigma, beta=beta, batched=True, name="rotation")


def fractional_drift_field(base: VectorFieldSpec, inv_H: float) -> VectorFieldSpec:
    """Wrap a field so the drift scales as eps^{1/H}: beta(eps, y) = eps^{1/H} beta0(y).

    Used by the short-time experiments, where the drift of the rescaled
    equation picks up the fractional power of the small parameter.
    """
    base_beta = base.beta

    def beta(eps, y):
        w = float(eps) ** inv_H if eps > 0 else 0.0
        return w * np.asarray(base_beta(0.0, y), dtype=float)

    def dbeta_y(eps, y):
        w = float(eps) ** inv_H if eps > 0 else 0.0
        return w * base.dbeta_y_at(0.0, y)

    zeros_n = lambda eps, y: np.zeros(np.asarray(y).shape)
    return VectorFieldSpec(
        n=base.n, d=base.d, sigma=base.sigma, beta=beta,
        dsigma=base.dsigma, d2sigma=base.d2sigma,
        dbeta_y=dbeta_y,
        d2beta_y=lambda eps, y: (float(eps) ** inv_H if eps > 0 else 0.0)
        * base.d2beta_y_at(0.0, y),
        dbeta_eps=zeros_n,  # 1/H > 2, so all low-order eps-derivatives vanish at 0
        d2beta_eps=zeros_n,
        dbeta_y_eps=lambda eps, y: np.zeros(np.asarray(y).shape[:-1] + (base.n, base.n)),
        batched=base.batched, name=f"{base.name}+frac_drift",
    )


_FIELD_BUILDERS = {
    "constant": lambda cfg: constant_field(
        np.asarray(cfg.get("S", np.eye(cfg["n"], cfg["d"]))),
        cfg.get("beta_matrix"),
    ),
    "tanh": lambda cfg: tanh_field(
        cfg["n"], cfg["d"],
        coef_seed=cfg.get("coef_seed", 12),
        scale=cfg.get("scale", 0.4),
        drift_scale=cfg.get("drift_scale", 0.3),
    ),
    "rotation": lambda cfg: rotation_field(
        cfg["d"], kappa=cfg.get("kappa", 1.0), scale=cfg.get("scale", 0.5)
    ),
}

_FUNCTIONAL_BUILDERS = {
    "zero": lambda cfg: zero_functional(),
    "one": lambda cfg: one_functional(),
    "endpoint_linear": lambda cfg: endpoint_linear(np.asarray(cfg["v"], dtype=float)),
    "endpoint_quadratic": lambda cfg: endpoint_quadratic(
        np.asarray(cfg["Q"], dtype=float), cfg.get("v")
    ),
    "integral_quadratic": lambda cfg: integral_quadratic(
        np.asarray(cfg["Q"], dtype=float), cfg.get("v"), cfg.get("c0", 0.0)
    ),
}


def make_field(name: str, cfg: dict) -> VectorFieldSpec:
    if name not in _FIELD_BUILDERS:
        raise ValueError(f"unknown field '{name}'; choices: {sorted(_FIELD_BUILDERS)}")
    return _FIELD_BUILDERS[name](cfg)


def make_functional(name: str, cfg: dict) -> FunctionalSpec:
    if name not in _FUNCTIONAL_BUILDERS:
        raise ValueError(
            f"unknown functional '{name}'; choices: {sorted(_FUNCTIONAL_BUILDERS)}"
        )
    return _FUNCTIONAL_BUILDERS[name](cfg)

"""Built-in path functionals F, G and vector fields sigma, beta.

The built-in fields keep every derivative bounded: nonlinearities are always
tanh-saturated affine forms, so the bounded-smooth-coefficient model holds on
all of state space.  All evaluators broadcast over leading batch axes.
"""
from __future__ import annotations

import inspect
from dataclasses import dataclass
from functools import lru_cache
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


def _zeros(shape):
    """An evaluator of y returning zeros of shape ``shape`` per leading index."""
    return lambda y: np.zeros(np.asarray(y).shape[:-1] + shape)


def constant_field(S, beta_matrix=None) -> VectorFieldSpec:
    """sigma(y) = S constant; optional linear drift beta(eps, y) = B y, and
    none (``beta=None``) without ``beta_matrix``.

    ``sigma`` and ``dbeta_y`` return read-only broadcast views of S and B,
    not copies; ``sigma`` builds one view per leading shape of y and returns
    it again on every later call with that shape (the Heun stages call it
    once per stage with the same shape).
    """
    S = np.atleast_2d(np.asarray(S, dtype=float))
    n, d = S.shape

    @lru_cache(maxsize=32)
    def sigma_view(lead):
        return np.broadcast_to(S, lead + (n, d))

    def sigma(y):
        return sigma_view(np.shape(y)[:-1])

    beta = dbeta_y = None
    if beta_matrix is not None:
        B = np.asarray(beta_matrix, dtype=float)

        def beta(eps, y):
            return np.einsum("ab,...b->...a", B, np.asarray(y, dtype=float))

        def dbeta_y(y):
            return np.broadcast_to(B, np.asarray(y).shape[:-1] + (n, n))

    return VectorFieldSpec(
        n=n,
        d=d,
        sigma=sigma,
        beta=beta,
        dsigma=_zeros((n, d, n)),
        d2sigma=_zeros((n, d, n, n)),
        dbeta_y=dbeta_y,
        d2beta_y=_zeros((n, n, n)),
        dbeta_eps=_zeros((n,)),
        d2beta_eps=_zeros((n,)),
        dbeta_y_eps=_zeros((n, n)),
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
        if eps == 0:
            return c0 * t0
        t1 = np.tanh(np.einsum("ab,...b->...a", U, y) + g)
        t2 = np.tanh(np.einsum("ab,...b->...a", Zm, y))
        return c0 * t0 + eps * c1 * t1 + 0.5 * eps**2 * c2 * t2

    # the derivatives at eps = 0, where the eps-weighted terms vanish
    def dbeta_y(y):
        y = np.asarray(y, dtype=float)
        s0v = 1.0 - np.tanh(np.einsum("ab,...b->...a", V, y)) ** 2
        return np.einsum("...a,ab->...ab", c0 * s0v, V)

    def d2beta_y(y):
        y = np.asarray(y, dtype=float)
        th = np.tanh(np.einsum("ab,...b->...a", V, y))
        fac = c0 * (-2.0 * th * (1.0 - th**2))
        return np.einsum("...a,ab,ac->...abc", fac, V, V)

    def dbeta_eps(y):
        y = np.asarray(y, dtype=float)
        return c1 * np.tanh(np.einsum("ab,...b->...a", U, y) + g)

    def d2beta_eps(y):
        y = np.asarray(y, dtype=float)
        return c2 * np.tanh(np.einsum("ab,...b->...a", Zm, y))

    def dbeta_y_eps(y):
        y = np.asarray(y, dtype=float)
        s1v = 1.0 - np.tanh(np.einsum("ab,...b->...a", U, y) + g) ** 2
        return np.einsum("...a,ab->...ab", c1 * s1v, U)

    return VectorFieldSpec(
        n=n, d=d, sigma=sigma, beta=beta,
        dsigma=dsigma, d2sigma=d2sigma,
        dbeta_y=dbeta_y, d2beta_y=d2beta_y,
        dbeta_eps=dbeta_eps, d2beta_eps=d2beta_eps, dbeta_y_eps=dbeta_y_eps,
        name="tanh",
    )


def rotation_field(d: int, kappa: float = 1.0, scale: float = 0.5, *,
                   n: int = 2) -> VectorFieldSpec:
    """Planar rotation-type field on n = 2: sigma(y) = R(kappa tanh(y_1 + y_2)) S.

    Bounded and smooth, without drift; the sigma derivatives fall back to
    finite differences.  The state dimension ``n`` is taken so that a
    config asking for another one is named, not solved in the plane.
    """
    if n != 2:
        raise ValueError(f"the rotation field is planar: n must be 2; got {n!r}")
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

    return VectorFieldSpec(n=2, d=d, sigma=sigma, name="rotation")


def fractional_drift_field(base: VectorFieldSpec, inv_H: float) -> VectorFieldSpec:
    """Wrap a field so the drift scales as eps^{1/H}: beta(eps, y) = eps^{1/H} beta0(y).

    Used by the short-time experiments, where the drift of the rescaled
    equation picks up the fractional power of the small parameter.
    """
    def beta(eps, y):
        w = float(eps) ** inv_H if eps > 0 else 0.0
        return w * base.beta_at(0.0, y)

    n = base.n
    # the weight and, as 1/H > 2, its first two eps-derivatives vanish at
    # eps = 0, and with them every beta derivative there
    return VectorFieldSpec(
        n=n, d=base.d, sigma=base.sigma, beta=beta,
        dsigma=base.dsigma, d2sigma=base.d2sigma,
        dbeta_y=_zeros((n, n)), d2beta_y=_zeros((n, n, n)),
        dbeta_eps=_zeros((n,)), d2beta_eps=_zeros((n,)), dbeta_y_eps=_zeros((n, n)),
        name=f"{base.name}+frac_drift",
    )


# name -> builder; each builder's signature declares its parameters and
# their defaults, and make_field / make_functional check a config against it
_FIELD_BUILDERS = {
    "constant": lambda n, d, S=None, beta_matrix=None: constant_field(
        np.eye(n, d) if S is None else S, beta_matrix),
    "tanh": tanh_field,
    "rotation": rotation_field,
}

_FUNCTIONAL_BUILDERS = {
    "zero": zero_functional,
    "one": one_functional,
    "endpoint_linear": endpoint_linear,
    "endpoint_quadratic": endpoint_quadratic,
    "integral_quadratic": integral_quadratic,
}


def _nearest(word: str, choices) -> str:
    """The entry of ``choices`` closest to ``word`` (difflib's ratio)."""
    import difflib  # only on an error path

    return difflib.get_close_matches(word, list(choices), n=1, cutoff=0.0)[0]


def _build(what: str, builders: dict, name: str, params: dict):
    """``builders[name](**params)``, after naming an unknown ``name`` or
    parameter with the nearest known one; a missing parameter raises
    Python's TypeError, which names it."""
    if name not in builders:
        raise ValueError(f"unknown {what} {name!r}; nearest: {_nearest(name, builders)!r}; "
                         f"choices: {sorted(builders)}")
    accepted = inspect.signature(builders[name]).parameters
    for key in params:
        if key not in accepted:
            hint = f"; nearest: {_nearest(key, accepted)!r}" if accepted else ""
            raise ValueError(f"{what} {name!r} has no parameter {key!r}{hint}")
    return builders[name](**params)


def make_field(name: str, cfg: dict) -> VectorFieldSpec:
    """The field ``name`` built from ``cfg``: its ``n``, ``d`` and parameters."""
    return _build("field", _FIELD_BUILDERS, name, cfg)


def make_functional(name: str, cfg: dict) -> FunctionalSpec:
    """The functional ``name`` built from its parameters ``cfg``."""
    return _build("functional", _FUNCTIONAL_BUILDERS, name, cfg)

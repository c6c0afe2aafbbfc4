"""Configuration-driven experiment runner.

One JSON config fully determines a run; the manifest (written before any
artifact) echoes the config, its hash, and the declared artifact list, and is
rewritten with status "complete" only after every artifact exists.  This is
the one module that turns results into files: every CSV artifact goes
through :func:`_csv`, and the library returns arrays and reports.  Numbers
never depend on the worker count: all randomness flows through per-sample
counter-based streams, and the laplace kind splits its Monte Carlo samples
into blocks fixed by the config alone.
"""
from __future__ import annotations

import argparse
import copy
import hashlib
import json
import math
import sys
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .fbm import _QUAD_NODES, FbmSampler, HurstParams, cm_map, sample_fbm, sample_fbm_ensemble
from .functionals import (
    _FIELD_BUILDERS,
    _FUNCTIONAL_BUILDERS,
    _nearest,
    make_field,
    make_functional,
)
from .grids import SampledPath, TimeGrid
from .hessian import hs_tail, hessian_matrix
from .laplace import (
    _MC_BLOCK,
    OptConfig,
    expansion_constants,
    expansion_fit,
    mc_laplace,
    minimize_F_Lambda,
)
from .roughpath import chen_residual, lift, scale_plan
from .taylor import _SLOPE_EPS, expansion_context, solve_rde, taylor_remainder_slope
from .variation import cosine_pvar, pvar_values

EXPERIMENT_KINDS = (
    "simulate",
    "lift",
    "pvar",
    "rde",
    "taylor-slope",
    "hessian",
    "laplace",
    "scale-test",
)
_NOT_PVAR = tuple(kind for kind in EXPERIMENT_KINDS if kind != "pvar")
_BUILDS = ("rde", "taylor-slope", "hessian", "laplace")  # the kinds that build a field


def _is_int(value) -> bool:
    """``value`` is an int, bool excluded."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """``value`` is an int or a float, bool excluded."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _int_in(lo, hi=math.inf):
    return lambda v, cfg: _is_int(v) and lo <= v <= hi


def _list_of(ok, shortest=0):
    return lambda v, cfg=None: isinstance(v, list) and len(v) >= shortest and all(map(ok, v))


def _positive(x) -> bool:
    return _is_real(x) and x > 0


def _spec(spec: str, kinds: tuple, builders: dict) -> tuple:
    """The name and parameter rows of the field, functional or weight ``spec``."""
    return (Key(f"{spec}_name", kinds, lambda v, cfg: isinstance(v, str) and v in builders,
                f"be one of {sorted(builders)}"),
            Key(f"{spec}_params", kinds,
                lambda v, cfg: isinstance(v, dict) and not {"n", "d"} & set(v),
                "be an object of named parameters other than n and d (the config's own)"))


def _is_gamma(v, cfg) -> bool:
    return (_list_of(_list_of(_is_real), 1)(v) and len(v) <= _QUAD_NODES
            and all(len(row) == cfg.d for row in v))


def _lift_level(cfg) -> int:
    """2 for H > 1/3, else 3"""
    return cfg.hurst().level


def _gamma_coeffs(cfg) -> list:
    """[[0.2] * d, [0.3] * d]"""
    return [[0.2] * cfg.d, [0.3] * cfg.d]


class Key(NamedTuple):
    """One row of the config schema: ``name`` as read by ``kinds``, valid
    where ``check(value, cfg)`` holds, else named as "{name} must {what};
    got {value!r}".  ``default`` is a value or a function of the config
    whose docstring documents it; None on a dataclass field leaves it the
    field's own default."""

    name: str
    kinds: tuple
    check: Callable
    what: str
    default: object = None


_MODES = f"be an int in [1, {_QUAD_NODES}], the cosine modes the kernel quadrature resolves"

# Every key a config may hold.  The dataclass fields are accepted by every
# kind and checked for the kinds listed; any other key only by its kinds.
KEYS = (
    Key("H", EXPERIMENT_KINDS, lambda v, cfg: _is_real(v) and 0.25 < v <= 0.5,
        "be a real number in (1/4, 1/2]"),
    *(Key(pq, EXPERIMENT_KINDS, lambda v, cfg: v is None or _positive(v), "be a positive number")
      for pq in "pq"),
    Key("grid_size", _NOT_PVAR, _int_in(2), "be an int of at least 2"),
    Key("n", _BUILDS, _int_in(1), "be a positive int"),
    Key("d", _NOT_PVAR, _int_in(1), "be a positive int"),
    Key("seed", ("simulate", "lift", "rde", "taylor-slope", "laplace", "scale-test"),
        _int_in(0, 2**64 - 1), "be an int in [0, 2**64)"),
    Key("eps_list", ("rde",), _list_of(_positive, 1), "be a non-empty list of positive numbers"),
    Key("eps_list", ("taylor-slope",), _list_of(_positive, 4),
        "be a list of at least 4 positive numbers", _SLOPE_EPS),
    Key("eps_list", ("laplace",), _list_of(_positive), "be a list of positive numbers"),
    Key("truncation", ("hessian", "laplace"), _int_in(1, _QUAD_NODES), _MODES),
    Key("n_samples", ("simulate", "taylor-slope", "scale-test"), _int_in(1),
        "be a positive int"),
    Key("n_samples", ("laplace",), _int_in(2), "be an int of at least 2"),
    *_spec("field", _BUILDS, _FIELD_BUILDERS),
    *_spec("functional", ("hessian", "laplace"), _FUNCTIONAL_BUILDERS),
    *_spec("weight", ("laplace",), _FUNCTIONAL_BUILDERS),
    # the lift's tensor level
    Key("level", ("lift",), lambda v, cfg: _is_int(v) and v in (2, 3), "be the int 2 or 3",
        _lift_level),
    # the largest cosine mode and the exponents of the p-variation corpus
    Key("n_max", ("pvar",), _int_in(1), "be a positive int", 16),
    Key("p_list", ("pvar",), _list_of(lambda p: _is_real(p) and p >= 1, 1),
        "be a non-empty list of real numbers of at least 1", [1.5, 2.0, 3.5]),
    # the horizon fraction of the scale test
    Key("c", ("scale-test",), lambda v, cfg: _is_real(v) and 0 < v <= 1,
        "be a real number in (0, 1]", 0.5),
    # the truncations of the Hilbert-Schmidt partial sums
    Key("N_list", ("hessian",),
        lambda v, cfg: _list_of(lambda N: _is_int(N) and N > 0)(v) and max(v, default=0) >= 4,
        "reach mode 4, the first mode of the decay fit, and hold positive ints only",
        [8, 16, 32]),
    # the cosine coefficients of the Cameron-Martin path gamma
    Key("gamma_coeffs", ("taylor-slope", "hessian"), _is_gamma,
        f"be a list of 1 to {_QUAD_NODES} cosine modes, each a list of d real numbers",
        _gamma_coeffs),
    # the Monte Carlo samples of alpha0, the Hessian truncation behind the
    # constants, the degree of the expansion fit, and whether the Monte
    # Carlo samples are recentred on gamma
    Key("alpha0_samples", ("laplace",), _int_in(2), "be an int of at least 2", 10_000),
    Key("hessian_N", ("laplace",), _int_in(1, _QUAD_NODES), _MODES, 8),
    Key("fit_order", ("laplace",), _int_in(0), "be a non-negative int", 2),
    Key("use_shift", ("laplace",), lambda v, cfg: isinstance(v, bool), "be true or false", True),
)


@dataclass
class ExperimentConfig:
    kind: str
    H: float = 0.4
    p: float | None = None
    q: float | None = None
    grid_size: int = 257
    n: int = 1
    d: int = 1
    seed: int = 0
    eps_list: list = field(default_factory=lambda: [0.5, 0.35, 0.25])
    truncation: int = 16
    n_samples: int = 1000
    field_name: str = "tanh"
    field_params: dict = field(default_factory=dict)
    functional_name: str = "endpoint_linear"
    functional_params: dict = field(default_factory=lambda: {"v": [1.0]})
    weight_name: str = "one"
    weight_params: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        """The config ``raw`` describes.  A key its kind does not read is an
        error naming the nearest known key; a field left out takes its
        kind's table default where the table gives one, else the field's."""
        raw = dict(raw)
        kind = raw.pop("kind", None)
        if kind not in EXPERIMENT_KINDS:
            raise ValueError(f"unknown experiment kind {kind!r}; choices: {EXPERIMENT_KINDS}")
        rows = [key for key in KEYS if kind in key.kinds]
        known = _FIELDS | {key.name for key in rows}
        unknown = [f"unknown {kind} config key {k!r}; nearest: {_nearest(k, known)!r}"
                   for k in raw if k not in known]
        if unknown:
            raise ValueError("invalid config:\n  " + "\n  ".join(unknown))
        kwargs = {k: raw.pop(k) for k in list(raw) if k in _FIELDS}
        for key in rows:
            if key.name in _FIELDS and key.default is not None:
                kwargs.setdefault(key.name, copy.deepcopy(key.default))
        return cls(kind=kind, extras=raw, **kwargs)

    def hurst(self) -> HurstParams:
        if self.p is None or self.q is None:
            return HurstParams.default(self.H)
        return HurstParams(H=self.H, p=self.p, q=self.q)

    def extra(self, name: str):
        """The kind key ``name`` (not a dataclass field) as the config gives
        it, else its table default; a key the kind does not read raises."""
        key = next((k for k in KEYS if k.name == name and self.kind in k.kinds), None)
        if key is None or name in _FIELDS:
            raise KeyError(f"{name!r} is not one of the {self.kind} kind's own keys")
        if name in self.extras:
            return self.extras[name]
        return key.default(self) if callable(key.default) else key.default

    def validate(self) -> list:
        """Every error of the config: each key its kind reads against its
        table row, then the checks that read several keys once those pass."""
        errors, bad = [], set()
        rows = [key for key in KEYS if self.kind in key.kinds]
        for key in rows:
            if key.name in _FIELDS or key.name in self.extras:
                value = getattr(self, key.name) if key.name in _FIELDS else self.extras[key.name]
                if not key.check(value, self):
                    errors.append(f"{key.name} must {key.what}; got {value!r}")
                    bad.add(key.name)
        if not bad & {"H", "p", "q"}:
            try:
                self.hurst()
            except ValueError as e:
                errors.append(str(e))
        if self.kind == "scale-test" and not bad & {"grid_size", "H", "c"}:
            try:
                scale_plan(TimeGrid.uniform(self.grid_size), self.extra("c"), self.H)
            except ValueError as e:
                errors.append(str(e))
        if self.kind == "laplace" and not bad & {"eps_list", "fit_order"}:
            order = self.extra("fit_order")
            if len(self.eps_list) < order + 1:
                errors.append(f"fit_order {order} needs at least {order + 1} eps values; "
                              f"eps_list has {len(self.eps_list)}")
        # the field, functional and weight the kind builds, with their parameters
        read = {key.name for key in rows}
        for spec in ("field", "functional", "weight"):
            if f"{spec}_params" in read and not bad & {f"{spec}_name", f"{spec}_params", "n", "d"}:
                try:
                    _build(self, spec)
                except (ValueError, TypeError, IndexError) as e:
                    errors.append(f"{spec}_params: {e}")
        return errors

    def numeric_dict(self) -> dict:
        """Every field that affects numbers, for the config hash."""
        return {
            "kind": self.kind, "H": self.H, "p": self.p, "q": self.q,
            "grid_size": self.grid_size, "n": self.n, "d": self.d,
            "seed": self.seed, "eps_list": list(self.eps_list),
            "truncation": self.truncation, "n_samples": self.n_samples,
            "field": [self.field_name, self.field_params],
            "functional": [self.functional_name, self.functional_params],
            "weight": [self.weight_name, self.weight_params],
            "extras": self.extras,
        }

    def config_hash(self) -> str:
        blob = json.dumps(self.numeric_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


_FIELDS = {f.name for f in fields(ExperimentConfig)} - {"kind", "extras"}


def _build(cfg: ExperimentConfig, spec: str):
    """The config's ``field``, ``functional`` or ``weight``, built."""
    name, params = getattr(cfg, f"{spec}_name"), getattr(cfg, f"{spec}_params")
    if spec == "field":
        return make_field(name, {"n": cfg.n, "d": cfg.d, **params})
    return make_functional(name, params)


def _gamma(cfg: ExperimentConfig, grid: TimeGrid) -> SampledPath:
    """The Cameron-Martin path of the ``taylor-slope`` and ``hessian`` kinds."""
    return cm_map(np.asarray(cfg.extra("gamma_coeffs"), dtype=float), cfg.H, grid).induced_path


def _write(out: Path, name: str, text: str):
    (out / name).write_text(text)


def _csv(rows, header=None) -> str:
    """CSV text of ``rows`` under an optional ``header`` line: floats with 17
    significant digits, which read back to the same float64 bit for bit, and
    anything else (indices, counts) as ``str`` gives it."""
    lines = [] if header is None else [",".join(header)]
    lines += (",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in r)
              for r in rows)
    return "\n".join(lines) + "\n"


def _path_csv(path: SampledPath) -> str:
    """``path`` as CSV with columns ``t,x1..x<dim>``."""
    return _csv(((t, *row) for t, row in zip(path.grid.points, path.values)),
                ["t", *(f"x{j + 1}" for j in range(path.dim))])


class RunContext:
    def __init__(self, cfg: ExperimentConfig, out_dir: Path, workers: int = 1):
        self.cfg = cfg
        self.out = out_dir
        self.workers = workers
        self.artifacts: list = []
        self.timings: dict = {}

    def declare(self, *names):
        self.artifacts.extend(names)

    @contextmanager
    def stage(self, name: str):
        """Time the enclosed block; the manifest reports it under ``timings``,
        summed over every time the stage is entered."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.timings[name] = self.timings.get(name, 0.0) + time.perf_counter() - t0

    def manifest(self, status: str):
        doc = {
            "status": status,
            "kind": self.cfg.kind,
            "config": self.cfg.numeric_dict(),
            "config_hash": self.cfg.config_hash(),
            "seed": self.cfg.seed,
            "artifacts": self.artifacts,
            "timings": self.timings,
            "version": __version__,
            "workers": self.workers,
        }
        _write(self.out, "manifest.json", json.dumps(doc, indent=2, sort_keys=True))


def run_simulate(rc: RunContext):
    cfg = rc.cfg
    grid = TimeGrid.uniform(cfg.grid_size)
    rc.declare("samples.csv", "summary.json")
    rc.manifest("started")
    with rc.stage("sample_s"):
        arr = sample_fbm_ensemble(grid, cfg.H, cfg.d, cfg.n_samples, cfg.seed)
    with rc.stage("csv_s"):
        rows = ((sid, t, *row) for sid, values in enumerate(arr)
                for t, row in zip(grid.points, values))
        header = ["sample_id", "t", *(f"x{j + 1}" for j in range(cfg.d))]
        _write(rc.out, "samples.csv", _csv(rows, header))
    i, j = len(grid) // 4, 3 * len(grid) // 4
    inc = arr[:, j] - arr[:, i]
    summary = {
        "n_samples": cfg.n_samples,
        "increment_variance": float(np.var(inc[:, 0])),
        "increment_variance_expected": float(
            abs(grid.points[j] - grid.points[i]) ** (2 * cfg.H)
        ),
        "endpoint_second_moment": float((arr[:, -1, 0] ** 2).mean()),
    }
    _write(rc.out, "summary.json", json.dumps(summary, indent=2, sort_keys=True))


def run_lift(rc: RunContext):
    cfg = rc.cfg
    grid = TimeGrid.uniform(cfg.grid_size)
    level = cfg.extra("level")
    names = [f"rough_level{j}.csv" for j in range(1, level + 1)]
    rc.declare("driver.csv", *names, "chen.json")
    rc.manifest("started")
    with rc.stage("sample_s"):
        path = sample_fbm(grid, cfg.H, cfg.d, cfg.seed)
    _write(rc.out, "driver.csv", _path_csv(path))
    with rc.stage("lift_s"):
        X = lift(path, level)
    with rc.stage("csv_s"):
        n = len(grid)
        for k, arr in enumerate(X.levels(), start=1):
            rows = ((i, j, *arr[i, j].reshape(-1)) for i in range(n) for j in range(i, n))
            header = ["i", "j", *(f"v{m}" for m in range(arr[0, 0].size))]
            _write(rc.out, f"rough_level{k}.csv", _csv(rows, header))
    with rc.stage("chen_s"):
        residual = chen_residual(X)
    _write(rc.out, "chen.json", json.dumps({"chen_residual": residual}))


def run_pvar(rc: RunContext):
    cfg = rc.cfg
    rc.declare("cosine_pvar.csv")
    rc.manifest("started")
    rows = []
    with rc.stage("pvar_s"):
        for nmode in range(1, cfg.extra("n_max") + 1):
            for p in cfg.extra("p_list"):
                grid = TimeGrid(np.linspace(0.0, 1.0, nmode + 1))
                path = SampledPath(grid, np.cos(nmode * math.pi * grid.points) - 1.0)
                dp = float(pvar_values(path.values, p))
                closed = cosine_pvar(nmode, p)
                rows.append((nmode, float(p), closed, dp, abs(dp - closed)))
    _write(
        rc.out, "cosine_pvar.csv",
        _csv(rows, ["n", "p", "closed_form", "dp_value", "difference"]),
    )


def run_rde(rc: RunContext):
    cfg = rc.cfg
    grid = TimeGrid.uniform(cfg.grid_size)
    rc.declare("solution.csv", "ladder.json")
    rc.manifest("started")
    field_spec = _build(cfg, "field")
    with rc.stage("sample_s"):
        driver = sample_fbm(grid, cfg.H, cfg.d, cfg.seed)
    with rc.stage("solve_s"):
        sol = solve_rde(field_spec, cfg.eps_list[0], driver)
    _write(rc.out, "solution.csv", _path_csv(sol))
    _write(rc.out, "ladder.json", json.dumps(sol.meta, indent=2, sort_keys=True))


def run_taylor_slope(rc: RunContext):
    cfg = rc.cfg
    grid = TimeGrid.uniform(cfg.grid_size)
    rc.declare("slopes.json")
    rc.manifest("started")
    field_spec = _build(cfg, "field")
    gamma = _gamma(cfg, grid)
    with rc.stage("sample_s"):
        drivers = sample_fbm_ensemble(grid, cfg.H, cfg.d, cfg.n_samples, cfg.seed)
    hp = cfg.hurst()
    reports = {}
    for m in (1, 2):
        with rc.stage(f"slope_m{m}_s"):
            reports[f"m{m}"] = taylor_remainder_slope(
                field_spec, gamma, drivers, m, eps_list=cfg.eps_list, p=hp.p
            )
    _write(rc.out, "slopes.json", json.dumps(reports, indent=2, sort_keys=True))


def run_hessian(rc: RunContext):
    cfg = rc.cfg
    grid = TimeGrid.uniform(cfg.grid_size)
    rc.declare("hessian.csv", "hessian_meta.json", "hs_tail.csv", "hs_tail.json")
    rc.manifest("started")
    field_spec = _build(cfg, "field")
    functional = _build(cfg, "functional")
    with rc.stage("cm_s"):
        gamma = _gamma(cfg, grid)
    with rc.stage("hessian_s"):
        ctx = expansion_context(field_spec, gamma)
        A = hessian_matrix(functional, ctx, cfg.truncation, cfg.H)
    _write(rc.out, "hessian.csv", _csv(A))
    meta = {
        "N": cfg.truncation,
        "basis": "cameron-martin images of L2 cosine modes",
        "H": cfg.H,
        "dim": field_spec.d,
        "gamma_hash": zlib.crc32(gamma.values.tobytes()),
    }
    _write(rc.out, "hessian_meta.json", json.dumps(meta, indent=2, sort_keys=True))
    hp = cfg.hurst()
    with rc.stage("hs_tail_s"):
        rep = hs_tail(ctx, N_list=cfg.extra("N_list"), hurst=hp)
    _write(
        rc.out, "hs_tail.csv",
        _csv(list(zip(rep.N_list, rep.partial_sums)), ["N", "partial_sum"]),
    )
    _write(
        rc.out, "hs_tail.json",
        json.dumps(
            {
                "fitted_tail_exponent": rep.fitted_tail_exponent,
                "reference_exponent": rep.reference_exponent,
                "partial_sums": rep.partial_sums,
                "N_list": rep.N_list,
                "increments": rep.increments,
                "increment_ratios": rep.increment_ratios,
                "tail_bound": rep.tail_bound,
            },
            indent=2, sort_keys=True,
        ),
    )


def run_laplace(rc: RunContext):
    cfg = rc.cfg
    grid = TimeGrid.uniform(cfg.grid_size)
    rc.declare("report.json", "mc_table.csv")
    rc.manifest("started")
    field_spec = _build(cfg, "field")
    functional = _build(cfg, "functional")
    weight = _build(cfg, "weight")
    with rc.stage("minimize_s"):
        rep = minimize_F_Lambda(
            functional, field_spec, cfg.H, grid, cfg.truncation,
            OptConfig(seed=cfg.seed + 1),
        )
    with rc.stage("constants_s"):
        rep = expansion_constants(
            rep, functional, field_spec,
            mc_samples=cfg.extra("alpha0_samples"),
            seed=cfg.seed + 2, G=weight,
            hessian_N=cfg.extra("hessian_N"), workers=rc.workers,
        )
    with rc.stage("mc_s"):
        table = mc_laplace(
            functional, weight, field_spec, cfg.H, grid, cfg.eps_list,
            cfg.n_samples, use_shift=cfg.extra("use_shift"),
            gamma_cm=rep.gamma, seed=cfg.seed + 3, workers=rc.workers,
        )
    with rc.stage("fit_s"):
        fit = expansion_fit(table, a=rep.F_Lambda_min, c=rep.c_coef,
                            order=cfg.extra("fit_order"))
    rep.fit = {**(rep.fit or {}), **fit}
    _write(rc.out, "mc_table.csv", _csv(table, ["eps", "J_hat", "se", "n"]))
    _write(rc.out, "report.json", json.dumps(rep.to_dict(), indent=2, sort_keys=True))


# Paths per block of the area sums: bounds the per-step products of one
# sample block of the scale test (``_MC_BLOCK`` paths) to a slice of it.
_SCALE_BLOCK = 256


def _endpoint_areas(values: np.ndarray, m: int, factor: float) -> np.ndarray:
    """Level-2 area 0.5 (A[0, 1] - A[1, 0]) of A = factor * S^2_{0,m} per path
    of an (n, N, d) ensemble, over blocks of ``_SCALE_BLOCK`` paths: only the
    entries (0, 1) and (1, 0) of :func:`running_signature`'s running sums
    P and Q (Q is symmetric), in its order of operations, so bit for bit."""
    out = np.empty(len(values))
    for b in range(0, len(values), _SCALE_BLOCK):
        x = values[b:b + _SCALE_BLOCK, : m + 1, :2]
        dx, x0 = np.diff(x, axis=1), x[:, 0]
        P = np.cumsum(x[:, :-1] * dx[..., ::-1], axis=1)[:, -1]  # P01, P10
        Q = np.cumsum(0.5 * (dx[..., 0] * dx[..., 1]), axis=1)[:, -1]
        A = factor * ((P + Q[:, None]) - x0 * (x[:, m] - x0)[:, ::-1])
        out[b:b + len(x)] = 0.5 * (A[:, 0] - A[:, 1])
    return out


def ks_2samp_exact(a, b) -> tuple[float, float]:
    """Two-sided two-sample Kolmogorov-Smirnov test for two samples of one
    size n: the statistic D = max |F_a - F_b| of the empirical CDFs, and its
    exact p-value Pr(D_{n,n} >= D) = 2 P.

    P is the Gnedenko-Korolyuk alternating sum of binomial ratios in
    Horner form, P = A_0 (1 - A_1 (1 - A_2 (...))), with h = round(D n) and
    A_k = binom(2n, n - (k + 1)h) / binom(2n, n - kh), a product of h
    factors.  This is the exact method of ``scipy.stats.ks_2samp`` for equal
    sizes, and the values match it wherever that method succeeds.  At
    D = 1/n the sum can round above 1, where scipy falls back to an
    asymptotic formula; the p-value here is capped at its exact value 1.
    The test is exact at every n: above n = 10000 scipy's default method
    switches to the asymptotic p-value and keeps the unrounded CDF gap as
    its statistic, so there this function agrees with
    ``ks_2samp(a, b, method="exact")`` and not with the default.
    """
    a, b = np.sort(a), np.sort(b)
    n = a.size
    if b.size != n or n == 0:
        raise ValueError(f"the samples must have equal nonzero sizes, got {a.size} and {b.size}")
    both = np.concatenate([a, b])
    gap = np.searchsorted(a, both, side="right") / n - np.searchsorted(b, both, side="right") / n
    h = int(np.round(max(gap.max(), -gap.min()) * n))
    if h == 0:
        return 0.0, 1.0
    P = 0.0
    for k in range(n // h, -1, -1):
        p1 = 1.0
        for j in range(h):
            p1 = (n - k * h - j) * p1 / (n + k * h + j + 1)
        P = p1 * (1.0 - P)
    return h / n, min(2 * P, 1.0)


def run_scale_test(rc: RunContext):
    cfg = rc.cfg
    grid = TimeGrid.uniform(cfg.grid_size)
    rc.declare("scale_test.json")
    rc.manifest("started")
    c = cfg.extra("c")
    m, factor = scale_plan(grid, c, cfg.H)
    d, n = max(cfg.d, 2), cfg.n_samples
    # the rescaled ensemble, then the plain one, each drawn in Monte Carlo
    # blocks into one reused buffer and reduced to its areas before the next
    # block is drawn, so memory is O(_MC_BLOCK * grid_size) at any n_samples
    buf = np.empty((min(n, _MC_BLOCK), len(grid), d))
    areas = []
    for seed, steps, level2 in ((cfg.seed, m, factor[1]), (cfg.seed + 1, grid.n_steps, 1.0)):
        with rc.stage("sample_s"):
            sampler = FbmSampler(grid, cfg.H, d, seed)
        area = np.empty(n)
        for lo in range(0, n, _MC_BLOCK):
            hi = min(lo + _MC_BLOCK, n)
            with rc.stage("sample_s"):
                block = sampler.batch(lo, hi, out=buf[: hi - lo])[0]
            with rc.stage("signature_s"):
                area[lo:hi] = _endpoint_areas(block, steps, level2)
        areas.append(area)
    with rc.stage("ks_s"):
        statistic, p_value = ks_2samp_exact(*areas)
    _write(
        rc.out, "scale_test.json",
        json.dumps(
            {"c": c, "ks_statistic": statistic, "p_value": p_value,
             "n_samples": cfg.n_samples},
            indent=2, sort_keys=True,
        ),
    )


_RUNNERS = {
    "simulate": run_simulate,
    "lift": run_lift,
    "pvar": run_pvar,
    "rde": run_rde,
    "taylor-slope": run_taylor_slope,
    "hessian": run_hessian,
    "laplace": run_laplace,
    "scale-test": run_scale_test,
}


def run(cfg: ExperimentConfig, out_root, workers: int = 1) -> Path:
    """Validate, create the hashed output directory, and execute the experiment.

    The manifest is written first (status "started", artifacts declared) and
    rewritten as "complete" only once every artifact exists on disk.
    """
    errors = cfg.validate()
    if errors:
        raise ValueError("invalid config:\n  " + "\n  ".join(errors))
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    out_dir = Path(out_root) / f"{cfg.kind}-{cfg.config_hash()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    rc = RunContext(cfg, out_dir, workers=workers)
    try:
        _RUNNERS[cfg.kind](rc)
    except Exception:
        rc.manifest("failed")
        raise
    missing = [a for a in rc.artifacts if not (out_dir / a).exists()]
    rc.manifest("complete" if not missing else "failed")
    if missing:
        raise RuntimeError(f"artifacts missing after run: {missing}")
    return out_dir


SCHEMA_DOC = """# Artifact schemas

Every run directory contains `manifest.json` (written before any artifact):
config echo, sha256-based `config_hash` over all number-affecting fields,
declared artifact list, a `status` that is `complete` only when every
declared artifact exists, `timings`: wall seconds per timed stage, and
`workers`: the worker processes the run was given.  Every CSV writes its
floats with 17 significant digits, which read back to the same float64.

## simulate
- timings: `sample_s` (fBm ensemble), `csv_s` (formatting and writing
  `samples.csv`).
- `samples.csv`: columns `sample_id,t,x1..xd`; one row per grid point per sample.
- `summary.json`: increment variance at the quartile pair vs `|t-s|^(2H)`,
  endpoint second moment.

## lift
- timings: `sample_s` (the fBm path), `lift_s` (running levels from the
  first grid point), `csv_s` (all-pairs Chen expansion, formatting and
  writing `rough_level{j}.csv`), `chen_s` (Chen defect).
- `driver.csv`: `t,x1..xd`.
- `rough_level{j}.csv`: columns `i,j,v0..` with the flattened level-j tensor
  for each grid pair i <= j.
- `chen.json`: max Chen defect over grid triples.

## pvar
- timings: `pvar_s` (the p-variation programs over the cosine corpus).
- `cosine_pvar.csv`: columns `n,p,closed_form,dp_value,difference` for the
  cosine corpus.

## rde
- timings: `sample_s` (driver), `solve_s` (dyadic ladder of solves).
- `solution.csv`: first-level solution path, `t,x1..xn` (its n coordinates).
- `ladder.json`: dyadic convergence ladder (levels, diffs, ratio,
  observed_order = log2 of the last two diffs' ratio or null, cauchy flag).

## taylor-slope
- timings: `sample_s` (drivers), `slope_m1_s`, `slope_m2_s` (remainder
  slopes of order 1 and 2).
- `slopes.json`: per order m in {1,2}: eps list, ensemble-mean remainder
  norms, fitted slope, r_squared.

## hessian
- timings: `cm_s` (gamma), `hessian_s` (expansion context and Hessian),
  `hs_tail_s` (Hilbert-Schmidt partial sums).
- `hessian.csv`: dense symmetric truncated Hessian matrix (no header).
- `hessian_meta.json`: basis name, truncation `N`, Hurst `H`, dimension
  `dim`, gamma hash (CRC-32 of the gamma sample bytes).
- `hs_tail.csv`: columns `N,partial_sum`.
- `hs_tail.json`: partial sums, their increments and increment ratios, the
  geometric tail bound (null when the last ratio is >= 1), and the fitted and
  reference tail exponents.

## laplace
- timings: `minimize_s`, `constants_s`, `mc_s`, `fit_s`.
- `mc_table.csv`: columns `eps,J_hat,se,n`.
- `report.json`: minimizer coefficients, F_Lambda, residual, c, alpha0 with
  SE, Hessian minimum eigenvalue, fit record (with `hessian_eigs`, and
  `det2_closed_form` only where theta1 and every phi2 table vanish, as for
  constant sigma), flags, and `optimizer`: per
  restart in start order `iterations` (accepted descent steps), `backtracks`
  (rejected line-search candidates) and final `values`, their `spread`
  (largest distance of a final value from the minimum), and `rounds`
  (batched objective evaluations: the restarts descend in lockstep, and
  each round evaluates every restart still descending at once).

## scale-test
- Both ensembles are drawn in blocks of 2048 samples, each reduced to its
  areas before the next is drawn, so memory is O(block * grid_size) at any
  `n_samples`.
- timings, each summed over the blocks: `sample_s` (drawing both
  ensembles), `signature_s` (endpoint Levy areas from the lift's running
  sums P, Q at (0,1) and (1,0)), `ks_s` (KS test).
- `scale_test.json`: KS statistic and p-value of the scaled-vs-plain
  level-2 antisymmetric (area) statistic.
"""


def _config_doc() -> str:
    """The "Config keys" section of SCHEMA.md, rendered from ``KEYS``."""
    own = ExperimentConfig(kind="")
    lines = ["# Config keys", "", "A field (a key of every kind) is accepted by every kind, any "
             "other key only by the kinds listed; an unknown key is named with the nearest "
             "known one.  Each key is checked for its kinds, then the (p, q) window, `c` against "
             "the grid, `fit_order` against `eps_list`, and the field, functional and weight "
             "parameters.  A failed check exits 2 before any output exists.", "",
             "| key | kinds | default | constraint |", "|---|---|---|---|"]
    for key in KEYS:
        own_default = key.default is None and key.name in _FIELDS
        default = getattr(own, key.name) if own_default else key.default
        text = default.__doc__ if callable(default) else f"`{json.dumps(default)}`"
        kinds = "every kind" if key.kinds == EXPERIMENT_KINDS else ", ".join(key.kinds)
        lines.append(f"| `{key.name}` | {kinds} | {text} | must {key.what} |")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="roughlaplace",
        description="experiment runner for the rough-path Laplace pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in EXPERIMENT_KINDS:
        sp = sub.add_parser(kind, help=f"run a {kind} experiment")
        sp.add_argument("--config", type=str, default=None, help="JSON config path")
        sp.add_argument("--out", type=str, default="runs", help="output root directory")
        sp.add_argument("--seed", type=int, default=None, help="override the config seed")
        sp.add_argument("--workers", type=int, default=1,
                        help="worker processes for the laplace kind's Monte Carlo "
                             "blocks (forked; numbers do not depend on it)")
    sp = sub.add_parser("schema", help="write SCHEMA.md documenting artifacts and config keys")
    sp.add_argument("--out", type=str, default="SCHEMA.md")

    args = parser.parse_args(argv)
    if args.command == "schema":
        Path(args.out).write_text(SCHEMA_DOC + "\n" + _config_doc())
        print(f"wrote {args.out}")
        return 0

    raw = {}
    if args.config:
        raw = json.loads(Path(args.config).read_text())
    raw.setdefault("kind", args.command)
    if raw["kind"] != args.command:
        print(f"config kind {raw['kind']!r} does not match subcommand {args.command!r}",
              file=sys.stderr)
        return 2
    if args.seed is not None:
        raw["seed"] = args.seed
    try:
        cfg = ExperimentConfig.from_dict(raw)
        out_dir = run(cfg, args.out, workers=args.workers)
    except (ValueError, RuntimeError) as e:
        print(str(e), file=sys.stderr)
        return 2
    print(out_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())

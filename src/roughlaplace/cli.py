"""Configuration-driven experiment runner.

One JSON config fully determines a run; the manifest (written before any
artifact) echoes the config, its hash, and the declared artifact list, and is
rewritten with status "complete" only after every artifact exists.  Numbers
never depend on the worker count: all randomness flows through per-sample
counter-based streams, and the laplace kind splits its Monte Carlo samples
and optimizer restarts into blocks fixed by the config alone.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .fbm import HurstParams, cm_map, sample_fbm_ensemble
from .functionals import make_field, make_functional
from .grids import SampledPath, TimeGrid, path_to_csv
from .hessian import hs_tail, hessian_matrix
from .laplace import (
    OptConfig,
    expansion_constants,
    expansion_fit,
    kappa_ladder,
    mc_laplace,
    minimize_F_Lambda,
    short_time_transform,
)
from .roughpath import chen_residual, lift, roughpath_to_csv, running_signature, scale_plan
from .taylor import expansion_context, solve_rde, taylor_remainder_slope
from .variation import cosine_pvar, pvar_exact

EXPERIMENT_KINDS = (
    "simulate",
    "lift",
    "pvar",
    "rde",
    "taylor-slope",
    "hessian",
    "laplace",
    "scale-test",
    "kappa",
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
        raw = dict(raw)
        kind = raw.pop("kind", None)
        if kind not in EXPERIMENT_KINDS:
            raise ValueError(f"unknown experiment kind {kind!r}; choices: {EXPERIMENT_KINDS}")
        known = {f for f in cls.__dataclass_fields__ if f != "extras"}
        kwargs = {k: raw.pop(k) for k in list(raw) if k in known}
        return cls(kind=kind, extras=raw, **kwargs)

    def hurst(self) -> HurstParams:
        if self.p is None or self.q is None:
            return HurstParams.default(self.H)
        return HurstParams(H=self.H, p=self.p, q=self.q)

    def validate(self) -> list:
        errors = []
        if self.grid_size < 2:
            errors.append("grid_size must be at least 2")
        if self.n < 1 or self.d < 1:
            errors.append("dimensions n, d must be positive")
        if self.n_samples < 1:
            errors.append("n_samples must be positive")
        if self.kind != "kappa":
            try:
                hp = self.hurst()
            except ValueError as e:
                errors.append(str(e))
            else:
                if hp.H < 0.5:
                    for name, ok in hp.window_checks():
                        if not ok:
                            errors.append(f"parameter window violated: {name}")
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


def _field(cfg: ExperimentConfig):
    params = {"n": cfg.n, "d": cfg.d, **cfg.field_params}
    return make_field(cfg.field_name, params)


def _functional(cfg: ExperimentConfig):
    return make_functional(cfg.functional_name, cfg.functional_params)


def _weight(cfg: ExperimentConfig):
    return make_functional(cfg.weight_name, cfg.weight_params)


def _write(out: Path, name: str, text: str):
    (out / name).write_text(text)


def _csv(rows, header) -> str:
    lines = [",".join(header)]
    for r in rows:
        lines.append(",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in r))
    return "\n".join(lines) + "\n"


class RunContext:
    def __init__(self, cfg: ExperimentConfig, out_dir: Path, workers: int = 1, plots: bool = False):
        self.cfg = cfg
        self.out = out_dir
        self.workers = workers
        self.plots = plots
        self.artifacts: list = []
        self.timings: dict = {}

    def declare(self, *names):
        self.artifacts.extend(names)

    @contextmanager
    def stage(self, name: str):
        """Time the enclosed block; the manifest reports it under ``timings``."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.timings[name] = time.perf_counter() - t0

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

    def maybe_plot(self, name: str, xs, ys_dict, xlabel: str, ylabel: str, logx=False, logy=False):
        if not self.plots:
            return
        try:
            import matplotlib
            matplotlib.use("Agg")
            import matplotlib.pyplot as plt
        except ImportError as e:
            raise RuntimeError("plots require matplotlib (install extras: plots)") from e
        fig, ax = plt.subplots(figsize=(5, 3.4))
        for label, ys in ys_dict.items():
            ax.plot(xs, ys, marker="o", ms=3, label=label)
        if logx:
            ax.set_xscale("log")
        if logy:
            ax.set_yscale("log")
        ax.set_xlabel(xlabel)
        ax.set_ylabel(ylabel)
        if len(ys_dict) > 1:
            ax.legend(fontsize=8)
        fig.tight_layout()
        fig.savefig(self.out / name, format="svg")
        plt.close(fig)
        self.declare(name)


def run_simulate(rc: RunContext):
    cfg = rc.cfg
    grid = TimeGrid.uniform(cfg.grid_size)
    rc.declare("samples.csv", "summary.json")
    rc.manifest("started")
    paths = sample_fbm_ensemble(grid, cfg.H, cfg.d, cfg.n_samples, cfg.seed)
    lines = ["sample_id,t," + ",".join(f"x{j+1}" for j in range(cfg.d))]
    for sid, p in enumerate(paths):
        for t, row in zip(grid.points, p.values):
            lines.append(f"{sid}," + ",".join(f"{v:.17g}" for v in (t, *row)))
    _write(rc.out, "samples.csv", "\n".join(lines) + "\n")
    arr = np.stack([p.values for p in paths])
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
    level = cfg.extras.get("level", cfg.hurst().level)
    names = [f"rough_level{j}.csv" for j in range(1, level + 1)]
    rc.declare("driver.csv", *names, "chen.json")
    rc.manifest("started")
    path = sample_fbm_ensemble(grid, cfg.H, cfg.d, 1, cfg.seed)[0]
    _write(rc.out, "driver.csv", path_to_csv(path))
    X = lift(path, level)
    for j, text in roughpath_to_csv(X).items():
        _write(rc.out, f"rough_level{j}.csv", text)
    _write(rc.out, "chen.json", json.dumps({"chen_residual": chen_residual(X)}))


def run_pvar(rc: RunContext):
    cfg = rc.cfg
    rc.declare("cosine_pvar.csv")
    rc.manifest("started")
    rows = []
    for nmode in range(1, cfg.extras.get("n_max", 16) + 1):
        for p in cfg.extras.get("p_list", [1.5, 2.0, 3.5]):
            grid = TimeGrid(np.linspace(0.0, 1.0, nmode + 1))
            path = SampledPath(grid, np.cos(nmode * math.pi * grid.points) - 1.0)
            dp = pvar_exact(path, p).value
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
    field_spec = _field(cfg)
    driver = sample_fbm_ensemble(grid, cfg.H, cfg.d, 1, cfg.seed)[0]
    eps = cfg.eps_list[0] if cfg.eps_list else 1.0
    sol = solve_rde(field_spec, eps, driver)
    _write(rc.out, "solution.csv", path_to_csv(sol))
    _write(rc.out, "ladder.json", json.dumps(sol.meta, indent=2, sort_keys=True))


def run_taylor_slope(rc: RunContext):
    cfg = rc.cfg
    grid = TimeGrid.uniform(cfg.grid_size)
    rc.declare("slopes.json")
    rc.manifest("started")
    field_spec = _field(cfg)
    gamma_coeffs = np.asarray(
        cfg.extras.get("gamma_coeffs", [[0.2] * cfg.d, [0.3] * cfg.d]), dtype=float
    )
    gamma = cm_map(gamma_coeffs, cfg.H, grid).induced_path
    drivers = sample_fbm_ensemble(grid, cfg.H, cfg.d, cfg.n_samples, cfg.seed)
    hp = cfg.hurst()
    reports = {}
    for m in (1, 2):
        reports[f"m{m}"] = taylor_remainder_slope(
            field_spec, gamma, drivers, m, eps_list=cfg.eps_list or None, p=hp.p
        )
    _write(rc.out, "slopes.json", json.dumps(reports, indent=2, sort_keys=True))
    for m in (1, 2):
        rep = reports[f"m{m}"]
        rc.maybe_plot(
            f"slope_m{m}.svg", rep["eps_list"], {"remainder": rep["norms"]},
            "eps", "p-var norm", logx=True, logy=True,
        )


def run_hessian(rc: RunContext):
    cfg = rc.cfg
    grid = TimeGrid.uniform(cfg.grid_size)
    rc.declare("hessian.csv", "hessian_meta.json", "hs_tail.csv", "hs_tail.json")
    rc.manifest("started")
    field_spec = _field(cfg)
    functional = _functional(cfg)
    gamma_coeffs = np.asarray(
        cfg.extras.get("gamma_coeffs", [[0.2] * cfg.d, [0.3] * cfg.d]), dtype=float
    )
    with rc.stage("cm_s"):
        gamma = cm_map(gamma_coeffs, cfg.H, grid).induced_path
    with rc.stage("hessian_s"):
        ctx = expansion_context(field_spec, gamma)
        hm = hessian_matrix(functional, ctx, cfg.truncation, cfg.H)
    _write(rc.out, "hessian.csv", hm.to_csv())
    _write(rc.out, "hessian_meta.json", hm.meta_json())
    hp = cfg.hurst()
    N_list = cfg.extras.get("N_list", [8, 16, 32])
    with rc.stage("hs_tail_s"):
        rep = hs_tail(ctx, N_list=N_list, hurst=hp)
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
    rc.maybe_plot(
        "hs_partial_sums.svg", rep.N_list, {"partial sum": rep.partial_sums},
        "N", "sum of squared norms",
    )


def run_laplace(rc: RunContext):
    cfg = rc.cfg
    grid = TimeGrid.uniform(cfg.grid_size)
    rc.declare("report.json", "mc_table.csv")
    rc.manifest("started")
    field_spec = _field(cfg)
    functional = _functional(cfg)
    weight = _weight(cfg)
    with rc.stage("minimize_s"):
        rep = minimize_F_Lambda(
            functional, field_spec, cfg.H, grid, cfg.truncation,
            OptConfig(seed=cfg.seed + 1), workers=rc.workers,
        )
    with rc.stage("constants_s"):
        rep = expansion_constants(
            rep, functional, field_spec,
            mc_samples=cfg.extras.get("alpha0_samples", 10_000),
            seed=cfg.seed + 2, G=weight,
            hessian_N=cfg.extras.get("hessian_N", 8), workers=rc.workers,
        )
    with rc.stage("mc_s"):
        table = mc_laplace(
            functional, weight, field_spec, cfg.H, grid, cfg.eps_list,
            cfg.n_samples, use_shift=cfg.extras.get("use_shift", True),
            gamma_cm=rep.gamma, seed=cfg.seed + 3, workers=rc.workers,
        )
    with rc.stage("fit_s"):
        fit = expansion_fit(table, a=rep.F_Lambda_min, c=rep.c_coef,
                            order=cfg.extras.get("fit_order", 2))
    rep.fit = {**(rep.fit or {}), **fit}
    _write(rc.out, "mc_table.csv", _csv(table, ["eps", "J_hat", "se", "n"]))
    _write(rc.out, "report.json", json.dumps(rep.to_dict(), indent=2, sort_keys=True))
    rc.maybe_plot(
        "expansion_fit.svg", [r[0] for r in table],
        {"rescaled J": fit["rescaled_values"]}, "eps", "J exp(a/eps^2 + c/eps)",
    )


# Paths per running-signature block in scale-test: the stacked block stays
# small next to the sampled ensemble, so peak memory does not grow with it.
_SCALE_BLOCK = 256


def _endpoint_areas(paths, m: int, factor: float) -> np.ndarray:
    """Level-2 area 0.5 (A[0, 1] - A[1, 0]) of A = factor * S^2_{0,m} per path,
    from running signatures over blocks of ``_SCALE_BLOCK`` paths."""
    out = np.empty(len(paths))
    for b in range(0, len(paths), _SCALE_BLOCK):
        values = np.stack([p.values for p in paths[b:b + _SCALE_BLOCK]])
        A = factor * running_signature(values, 2)[1][:, m]
        out[b:b + len(values)] = 0.5 * (A[:, 0, 1] - A[:, 1, 0])
    return out


def run_scale_test(rc: RunContext):
    from scipy.stats import ks_2samp

    cfg = rc.cfg
    grid = TimeGrid.uniform(cfg.grid_size)
    rc.declare("scale_test.json")
    rc.manifest("started")
    c = cfg.extras.get("c", 0.5)
    m, factor = scale_plan(grid, c, cfg.H)
    d = max(cfg.d, 2)
    with rc.stage("sample_s"):
        e1 = sample_fbm_ensemble(grid, cfg.H, d, cfg.n_samples, cfg.seed)
        e2 = sample_fbm_ensemble(grid, cfg.H, d, cfg.n_samples, cfg.seed + 1)
    with rc.stage("signature_s"):
        scaled = _endpoint_areas(e1, m, factor[1])
        plain = _endpoint_areas(e2, grid.n_steps, 1.0)
    with rc.stage("ks_s"):
        ks = ks_2samp(scaled, plain)
    _write(
        rc.out, "scale_test.json",
        json.dumps(
            {"c": c, "ks_statistic": float(ks.statistic), "p_value": float(ks.pvalue),
             "n_samples": cfg.n_samples},
            indent=2, sort_keys=True,
        ),
    )


def run_kappa(rc: RunContext):
    cfg = rc.cfg
    rc.declare("kappa.csv")
    rc.manifest("started")
    count = cfg.extras.get("count", 9)
    ladder = kappa_ladder(cfg.H, count)
    st = short_time_transform(cfg.extras.get("T", 0.25), cfg.H)
    rows = [
        (i, float(k), float(st.order_exponent(k)))
        for i, k in enumerate(ladder.indices)
    ]
    _write(rc.out, "kappa.csv", _csv(rows, ["index", "kappa", "short_time_exponent"]))


_RUNNERS = {
    "simulate": run_simulate,
    "lift": run_lift,
    "pvar": run_pvar,
    "rde": run_rde,
    "taylor-slope": run_taylor_slope,
    "hessian": run_hessian,
    "laplace": run_laplace,
    "scale-test": run_scale_test,
    "kappa": run_kappa,
}


def run(cfg: ExperimentConfig, out_root, workers: int = 1, plots: bool = False) -> Path:
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
    rc = RunContext(cfg, out_dir, workers=workers, plots=plots)
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
`workers`: the worker processes the run was given.

## simulate
- `samples.csv`: columns `sample_id,t,x1..xd`; one row per grid point per sample.
- `summary.json`: increment variance at the quartile pair vs `|t-s|^(2H)`,
  endpoint second moment.

## lift
- `driver.csv`: `t,x1..xd` (17 significant digits).
- `rough_level{j}.csv`: columns `i,j,v0..` with the flattened level-j tensor
  for each grid pair i <= j.
- `chen.json`: max Chen defect over grid triples.

## pvar
- `cosine_pvar.csv`: columns `n,p,closed_form,dp_value,difference` for the
  cosine corpus.

## rde
- `solution.csv`: first-level solution path, `t,y1..yn`.
- `ladder.json`: dyadic convergence ladder (levels, diffs, ratio, cauchy flag).

## taylor-slope
- `slopes.json`: per order m in {1,2}: eps list, ensemble-mean remainder
  norms, fitted slope, r_squared.

## hessian
- `hessian.csv`: dense symmetric truncated Hessian matrix (no header).
- `hessian_meta.json`: basis name, truncation, Hurst, gamma hash (CRC-32 of
  the gamma sample bytes).
- `hs_tail.csv`: columns `N,partial_sum`.
- `hs_tail.json`: partial sums, their increments and increment ratios, the
  geometric tail bound (null when the last ratio is >= 1), and the fitted and
  reference tail exponents.

## laplace
- `mc_table.csv`: columns `eps,J_hat,se,n`.
- `report.json`: minimizer coefficients, F_Lambda, residual, c, alpha0 with
  SE, Hessian minimum eigenvalue, fit record, flags.

## scale-test
- `scale_test.json`: KS statistic and p-value of the scaled-vs-plain
  level-2 antisymmetric (area) statistic.

## kappa
- `kappa.csv`: columns `index,kappa,short_time_exponent` (exponent = kappa*H).
"""


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
                             "blocks and optimizer restarts (forked; numbers do "
                             "not depend on it)")
        sp.add_argument("--plots", action="store_true", help="emit SVG plots")
    sp = sub.add_parser("schema", help="write SCHEMA.md documenting artifact columns")
    sp.add_argument("--out", type=str, default="SCHEMA.md")

    args = parser.parse_args(argv)
    if args.command == "schema":
        Path(args.out).write_text(SCHEMA_DOC)
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
        out_dir = run(cfg, args.out, workers=args.workers, plots=args.plots)
    except (ValueError, RuntimeError) as e:
        print(str(e), file=sys.stderr)
        return 2
    print(out_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())

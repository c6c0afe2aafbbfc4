"""One cold pass of one benchmark workload, in a fresh interpreter.

run.py starts this file once per pass, so every pass pays the interpreter
start, the imports and the per-process caches a command-line user pays:

    python3 perfbench/workload.py --workload NAME --seed N --workers W \
        --t0 T --out DIR [--trace] [--setup-only]

``--t0`` is the parent's ``time.monotonic()`` just before it started this
process; on Linux that clock is shared between processes.  The pass prints
one JSON line with:

- ``setup_s``: from ``--t0`` to the first library call (interpreter start,
  imports of numpy, scipy and roughlaplace, config parsing);
- ``wall_s``: from the first library call to the checked result of every
  operation;
- ``peak_rss_mb``: the peak resident set of this process;
- per operation: the exception it raised, if any, its failed checks, the
  values it records and a digest of its numeric output at full precision;
- the checker self-test: perturbed copies of passing outputs that each check
  must reject;
- with ``--trace``: per-layer self times and counts (see spans.py).

With ``--setup-only`` it stops after set-up and prints ``setup_s`` alone.
"""
import argparse
import copy
import hashlib
import json
import math
import resource
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import roughlaplace
from roughlaplace import cli
from roughlaplace.fbm import cm_map
from roughlaplace.functionals import make_field, make_functional
from roughlaplace.grids import TimeGrid
from roughlaplace.laplace import mc_laplace

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CONFIGS = ROOT / "scripts" / "configs"

# Workload name -> shipped config.  laplace_gaussian adds the linear term v of
# run_pipeline.py and criterion 13: without it the minimizer is gamma = 0,
# a = c = 0, and the shifted sampler's covariance is singular.
WORKLOADS = {
    "laplace_gaussian": "laplace_gaussian.json",
    "hessian_tanh": "hessian_tanh.json",
    "scale_test": "scale_test_h04.json",
}
GAUSSIAN_V = [0.4, -0.3]

# The small-eps probe: one shifted Monte Carlo estimate below the eps ladder.
PROBE_EPS = 0.01
PROBE_SAMPLES = 2048


def load_config(workload: str, seed) -> dict:
    raw = json.loads((CONFIGS / WORKLOADS[workload]).read_text())
    if workload == "laplace_gaussian":
        raw["functional_params"] = {**raw["functional_params"], "v": GAUSSIAN_V}
    if seed is not None:
        raw["seed"] = seed
    return raw


def _digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(len(c).to_bytes(8, "little"))
        h.update(c)
    return h.hexdigest()[:16]


def _artifacts(out_dir: Path, *names):
    """Manifest plus a digest over the bytes of the named numeric artifacts.

    hessian_meta.json is left out: its gamma_hash is Python's per-process
    randomized hash() of the gamma bytes, so it differs between processes.
    """
    manifest = json.loads((out_dir / "manifest.json").read_text())
    chunks = []
    for name in names:
        chunks += [name.encode(), (out_dir / name).read_bytes()]
    return manifest, _digest(*chunks)


def _csv_rows(path: Path):
    lines = path.read_text().splitlines()
    return [[float(v) for v in line.split(",")] for line in lines[1:]]


# --- readers: run directory -> the numbers the checks read ----------------


def read_laplace(out_dir: Path) -> dict:
    manifest, digest = _artifacts(out_dir, "report.json", "mc_table.csv")
    rep = json.loads((out_dir / "report.json").read_text())
    table = _csv_rows(out_dir / "mc_table.csv")
    J = [r[1] for r in table]
    se = [r[2] for r in table]
    return {
        "status": manifest["status"],
        "flags": rep["flags"],
        "residual": rep["first_order_residual"],
        "alpha0": rep["alpha0"],
        "alpha0_se": rep["alpha0_se"],
        "det2": rep["fit"]["det2_closed_form"],
        "fit_c0": rep["fit"]["coefficients"][0],
        "fit_se0": rep["fit"]["coefficient_se"][0],
        "J": J,
        "digest": digest,
        "recorded": {"laplace.mc_rel_se": max(s / j if j else math.inf for s, j in zip(se, J))},
    }


def read_hessian(out_dir: Path) -> dict:
    manifest, digest = _artifacts(out_dir, "hessian.csv", "hs_tail.csv", "hs_tail.json")
    A = [[float(v) for v in line.split(",")]
         for line in (out_dir / "hessian.csv").read_text().splitlines()]
    tail = json.loads((out_dir / "hs_tail.json").read_text())
    sums = tail["partial_sums"]
    return {
        "status": manifest["status"],
        "A": A,
        "fitted": tail["fitted_tail_exponent"],
        "reference": tail["reference_exponent"],
        "digest": digest,
        # criterion 09's last-doubling change: its known red, so recorded only
        "recorded": {"hessian.hs_cauchy_change": (sums[-1] - sums[-2]) / sums[-1]},
    }


def read_scale(out_dir: Path) -> dict:
    manifest, digest = _artifacts(out_dir, "scale_test.json")
    res = json.loads((out_dir / "scale_test.json").read_text())
    return {"status": manifest["status"], "p_value": res["p_value"],
            "digest": digest, "recorded": {}}


# --- checks: output -> [(name, passed, statistical)] ----------------------
# Tolerances are those of tests/test_acceptance.py.  A statistical check
# fails by chance at a known rate on a correct program (3-sigma: 0.3 %,
# KS at 1 %: 1 % of seeds); the others fail only on a wrong result.


def read_probe(raw) -> dict:
    J, se = raw
    return {"J": J, "se": se, "recorded": {},
            "digest": _digest(json.dumps([J.hex(), se.hex()]).encode())}


def check_laplace(o) -> list:
    z = abs(o["fit_c0"] - o["alpha0"]) / math.hypot(o["fit_se0"], o["alpha0_se"])
    return [
        ("manifest complete, no flags", o["status"] == "complete" and not o["flags"], False),
        ("first-order residual < 1e-6 (criterion 11)", o["residual"] < 1e-6, False),
        ("|alpha0 - det2 closed form| < 3 alpha0_se",
         abs(o["alpha0"] - o["det2"]) < 3.0 * o["alpha0_se"], True),
        ("fit intercept z < 3, alpha0 > 0 (criterion 13)", z < 3.0 and o["alpha0"] > 0, True),
        ("every J finite and > 0", all(math.isfinite(j) and j > 0 for j in o["J"]), False),
    ]


def check_hessian(o) -> list:
    A = o["A"]
    values = [v for row in A for v in row]
    finite = bool(values) and all(math.isfinite(v) for v in values)
    scale = max(abs(v) for v in values) if finite else math.nan
    symmetric = finite and all(
        abs(A[i][j] - A[j][i]) <= 1e-12 * scale for i in range(len(A)) for j in range(i)
    )
    return [
        ("manifest complete", o["status"] == "complete", False),
        ("Hessian finite and symmetric", symmetric, False),
        ("|fitted - reference tail exponent| <= 0.3 (criterion 09)",
         abs(o["fitted"] - o["reference"]) <= 0.3, False),
    ]


def check_scale(o) -> list:
    return [
        ("manifest complete", o["status"] == "complete", False),
        ("KS p > 0.01 (criterion 06)", o["p_value"] > 0.01, True),
    ]


def check_probe(o) -> list:
    ok = math.isfinite(o["J"]) and o["J"] > 0 and math.isfinite(o["se"])
    return [("finite J > 0 and finite se", ok, False)]


def _set(key, value):
    def f(o):
        o[key] = value
    return f


def _shift(key, by):
    def f(o):
        o[key] += by(o)
    return f


def _set_first_J_inf(o):
    o["J"][0] = math.inf


def _skew(o):
    o["A"][0][-1] += 1e-3 * max(abs(v) for row in o["A"] for v in row)


def _nan_diag(o):
    o["A"][0][0] = math.nan


# Perturbations each check must reject (the checker self-test).
PERTURBATIONS = {
    "laplace": [
        ("alpha0 moved by 10 SE", _shift("alpha0", lambda o: 10.0 * o["alpha0_se"])),
        ("fit intercept moved by 10 SE",
         _shift("fit_c0", lambda o: 10.0 * math.hypot(o["fit_se0"], o["alpha0_se"]))),
        ("one J set to inf", _set_first_J_inf),
        ("residual set to 1e-3", _set("residual", 1e-3)),
        ("a flag raised", _set("flags", ["perturbed"])),
        ("manifest failed", _set("status", "failed")),
    ],
    "hessian": [
        ("asymmetric entry", _skew),
        ("NaN entry", _nan_diag),
        ("tail exponent moved 0.5 away from the reference",
         _shift("fitted", lambda o: math.copysign(0.5, o["fitted"] - o["reference"]))),
        ("manifest failed", _set("status", "failed")),
    ],
    "scale": [
        ("KS p set to 0.001", _set("p_value", 0.001)),
        ("manifest failed", _set("status", "failed")),
    ],
    "probe": [
        ("J set to inf", _set("J", math.inf)),
        ("J set to 0", _set("J", 0.0)),
        ("se set to NaN", _set("se", math.nan)),
    ],
}

# Values read from a workload's output and reported with the per-layer metrics.
RECORDED = ("laplace.mc_rel_se", "hessian.hs_cauchy_change")

# A passing probe output, for the self-test while the probe itself raises.
PROBE_EXAMPLE = {"J": 1.0, "se": 0.01}


def self_test(kind: str, check, output) -> list:
    """Names of perturbations the check fails to reject."""
    missed = []
    for name, perturb in PERTURBATIONS[kind]:
        o = copy.deepcopy(output)
        perturb(o)
        if all(ok for _, ok, _ in check(o)):
            missed.append(name)
    return missed


# --- operations -------------------------------------------------------------


@dataclass
class Operation:
    name: str
    run: Callable  # () -> raw result; raising counts the operation as failed
    read: Callable  # raw result -> the numbers the checks read, "digest", "recorded"
    check: Callable
    kind: str  # its perturbations in the self-test
    example: dict | None = None  # a passing output, for the self-test


class Pass:
    """State of one pass: the parsed config, output root and worker count."""

    def __init__(self, cfg, out_root: Path, workers: int):
        self.cfg, self.out_root, self.workers = cfg, out_root, workers
        self.out_dir = None

    def cli_run(self):
        self.out_dir = cli.run(self.cfg, self.out_root, workers=self.workers)
        return self.out_dir

    def probe(self):
        """mc_laplace at eps = 0.01 around the gamma rebuilt from report.json."""
        cfg = self.cfg
        if self.out_dir is None:
            raise RuntimeError("the CLI run produced no report")
        rep = json.loads((self.out_dir / "report.json").read_text())
        grid = TimeGrid.uniform(cfg.grid_size)
        gamma = cm_map(np.asarray(rep["gamma_coeffs"]), cfg.H, grid)
        field = make_field(cfg.field_name, {"n": cfg.n, "d": cfg.d, **cfg.field_params})
        F = make_functional(cfg.functional_name, cfg.functional_params)
        G = make_functional(cfg.weight_name, cfg.weight_params)
        (_, J, se, _), = mc_laplace(
            F, G, field, cfg.H, grid, [PROBE_EPS], PROBE_SAMPLES,
            use_shift=True, gamma_cm=gamma, seed=cfg.seed + 4,
        )
        return J, se

    def operations(self) -> list:
        kind = self.cfg.kind
        read, check, tag = {
            "laplace": (read_laplace, check_laplace, "laplace"),
            "hessian": (read_hessian, check_hessian, "hessian"),
            "scale-test": (read_scale, check_scale, "scale"),
        }[kind]
        ops = [Operation(f"cli.run {kind}", self.cli_run, read, check, tag)]
        if kind == "laplace":
            ops.append(Operation(f"mc_laplace eps={PROBE_EPS} n={PROBE_SAMPLES}",
                                 self.probe, read_probe, check_probe, "probe", PROBE_EXAMPLE))
        return ops


def run_operation(op: Operation) -> dict:
    rec = {"name": op.name, "error": None, "checks": [], "failed_checks": [],
           "statistical_only": False, "digest": None, "recorded": {}, "output": None}
    try:
        raw = op.run()
    except Exception as e:  # an operation that raises is counted, not fatal
        rec["error"] = f"{type(e).__name__}: {e}"
        rec["digest"] = _digest(rec["error"].encode())
        return rec
    try:
        out = op.read(raw)
        rec["digest"], rec["recorded"] = out.pop("digest"), out.pop("recorded")
        results = op.check(out)
    except Exception as e:  # unreadable output is a wrong result
        out = None
        results = [(f"output unreadable: {type(e).__name__}: {e}", False, False)]
    failed = [(name, stat) for name, ok, stat in results if not ok]
    rec["checks"] = [name for name, _, _ in results]
    rec["failed_checks"] = [name for name, _ in failed]
    rec["statistical_only"] = bool(failed) and all(stat for _, stat in failed)
    rec["output"] = out
    return rec


def openblas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    src = Path(roughlaplace.__file__).resolve().parents[1]
    if src != SRC.resolve():
        raise SystemExit(f"roughlaplace imported from {src}, not from {SRC}")
    cfg = cli.ExperimentConfig.from_dict(load_config(args.workload, args.seed))
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    state = Pass(cfg, args.out, args.workers)
    ops = state.operations()
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    records = []
    t_first = time.perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        records.append(run_operation(op))
    wall_s = time.perf_counter() - t_first

    result = {
        "workload": args.workload, "seed": cfg.seed, "workers": args.workers,
        "setup_s": setup_s, "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    if tracer is not None:
        tracer.uninstall()
        layers, absent = tracer.layer_metrics(wall_s)
        for key in RECORDED:
            layers[key] = 0.0
            absent[key] = f"{args.workload} does not produce it"
        for rec in records:
            layers.update(rec["recorded"])
            for key in rec["recorded"]:
                absent.pop(key)
        result.update(layers=layers, absent=absent, missing=tracer.missing)

    missed = {}
    for op, rec in zip(ops, records):
        output = rec.pop("output")
        if output is None or rec["failed_checks"]:
            output = op.example
        if output is not None:
            missed[op.name] = self_test(op.kind, op.check, output)
    result["ops"] = records
    result["selftest_missed"] = missed
    result["versions"] = {
        "numpy": np.__version__,
        "scipy": sys.modules["scipy"].__version__,
        "openblas_threads": openblas_threads(),
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""sha256 of every artifact the shipped configs produce, for comparing two
checkouts bit for bit.

Usage: python3 scripts/artifact_digests.py > digests.txt

Runs each config in ``scripts/configs``, the laplace config with the linear
term v = [0.4, -0.3], and small inline ``lift`` (H = 0.3, d = 2, level 3),
``rde``, ``pvar``, ``scale-test`` and ``laplace`` configs, so that every
CSV the CLI writes is covered and the scale test's 5000 samples and the
drifted ``tanh`` laplace config's shifted Monte Carlo samples end in a
partial sampling block, through this checkout's CLI in a temporary
directory, and prints one ``sha256  config/artifact`` line per artifact,
sorted, leaving out the manifests (they hold timings).  Each run also gets
one ``sha256  config/<kind>-<config_hash> config`` line: its directory name
and the sha256 of its manifest's config echo, so a default that leaks into
the echo or the hash shows in the diff as well.  Each run is a fresh
interpreter with one BLAS thread, since OpenBLAS sums in an order that
depends on its thread count.  Run it in two checkouts and ``diff`` the
outputs.
"""
from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "scripts" / "configs"
ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


# Kinds no shipped config runs, kept small enough to finish in seconds.
INLINE = {
    "lift_h03": {"kind": "lift", "H": 0.3, "grid_size": 33, "d": 2, "seed": 61, "level": 3},
    "rde_tanh": {"kind": "rde", "H": 0.4, "grid_size": 65, "n": 2, "d": 2, "seed": 71,
                 "eps_list": [0.5]},
    "pvar_cosine": {"kind": "pvar", "n_max": 8, "p_list": [1.5, 2.0, 3.5]},
    "scale_h03": {"kind": "scale-test", "H": 0.3, "grid_size": 33, "d": 3, "seed": 81,
                  "c": 0.25, "n_samples": 5000},
    # a drifted field under shifted sampling, so beta(eps, .) along eps X + gamma
    # is solved, and sample counts that end in a partial sampling block
    "laplace_tanh": {"kind": "laplace", "H": 0.4, "grid_size": 33, "n": 2, "d": 2, "seed": 91,
                     "eps_list": [0.6, 0.5, 0.4], "truncation": 8, "n_samples": 2500,
                     "field_name": "tanh", "field_params": {"coef_seed": 5, "drift_scale": 0.3},
                     "functional_name": "endpoint_quadratic",
                     "functional_params": {"Q": [[0.5, 0.1], [0.1, 0.3]], "v": [0.4, -0.3]},
                     "alpha0_samples": 2300, "hessian_N": 8, "fit_order": 2, "use_shift": True},
}


def configs() -> dict:
    """Config name -> config dict: the shipped ones, the laplace variant and
    the inline ones."""
    runs = {p.stem: json.loads(p.read_text()) for p in sorted(CONFIGS.glob("*.json"))}
    laplace = runs["laplace_gaussian"]
    runs["laplace_gaussian_v"] = {
        **laplace, "functional_params": {**laplace["functional_params"], "v": [0.4, -0.3]}}
    return {**runs, **INLINE}


def run_config(name: str, cfg: dict, tmp: Path) -> list:
    """Run one config in a child interpreter; (sha256, name/artifact) pairs,
    and (sha256 of the config echo, name/run-directory config)."""
    path = tmp / f"{name}.json"
    path.write_text(json.dumps(cfg))
    out = tmp / name
    env = dict(os.environ, **ONE_BLAS_THREAD)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    subprocess.run([sys.executable, "-m", "roughlaplace.cli", cfg["kind"],
                    "--config", str(path), "--out", str(out)],
                   env=env, check=True, stdout=subprocess.DEVNULL)
    [run_dir] = out.iterdir()
    echo = json.loads((run_dir / "manifest.json").read_text())["config"]
    echo_digest = hashlib.sha256(json.dumps(echo, sort_keys=True).encode()).hexdigest()
    return [(echo_digest, f"{name}/{run_dir.name} config")] + [
        (hashlib.sha256(f.read_bytes()).hexdigest(), f"{name}/{f.relative_to(run_dir)}")
        for f in sorted(run_dir.rglob("*")) if f.is_file() and f.name != "manifest.json"]


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        lines = [pair for name, cfg in configs().items()
                 for pair in run_config(name, cfg, Path(tmp))]
    for digest, artifact in sorted(lines, key=lambda pair: pair[1]):
        print(f"{digest}  {artifact}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

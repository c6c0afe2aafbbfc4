#!/usr/bin/env python3
"""Benchmark of the roughlaplace pipeline, standard library only.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Workloads (BENCHMARK.json says why each was chosen):

- ``laplace_gaussian``: the ``laplace`` config on the Gaussian test case with
  the linear term v = (0.4, -0.3), then a small-eps probe: ``mc_laplace`` at
  eps = 0.01 with 2048 shifted samples around the minimizer;
- ``hessian_tanh``: the shipped ``hessian_tanh`` config;
- ``scale_test``: the shipped ``scale_test_h04`` config.

Every pass runs cold in a fresh interpreter (workload.py), through the public
entry points ``roughlaplace.cli.run`` and ``mc_laplace``, with ``--seed`` as
the config seed (default: the shipped config's seed),
``workers = min(2, nproc)`` and one BLAS thread.  With ``--trace 0`` a run
starts set-up-only processes, then passes for as long as another pass fits in
``--seconds`` (at least one), and reports medians of ``wall_s``, ``setup_s``
and ``peak_rss_mb``.  With ``--trace 1`` it runs one untraced and one traced
pass and reports the traced pass's per-layer self times and counts
(spans.py), with the tracing overhead as traced minus untraced ``wall_s``.

An operation that raises or fails a check in any pass counts in ``failed``.
``correct`` is false when an operation returns a wrong result (a failed check
that is not statistical), when repeated or traced passes disagree on an output
digest, or when the checker self-test finds a perturbed output that a check
accepts.
The last line of output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; ``--workload all`` runs the three workloads in
turn and prefixes each metric with its workload.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("laplace_gaussian", "hessian_tanh", "scale_test")
CONFIGS = ("laplace_gaussian.json", "hessian_tanh.json", "scale_test_h04.json")
SETUP_SAMPLES = 4  # set-up-only processes per timed run, besides one per pass
RUN_BUDGET_S = 170.0  # a run must end within 180 s
# One BLAS thread per pass: on a small shared machine a second BLAS thread
# made pass times far less steady, and OpenBLAS sums in an order that depends
# on its thread count, so digests would otherwise differ between machines.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


class HarnessError(Exception):
    """The benchmark could not measure; no result is printed."""


def preflight():
    """Units of every metric, after checking the checkout holds the program."""
    missing = [p for p in [ROOT / "src" / "roughlaplace" / "__init__.py"]
               + [ROOT / "scripts" / "configs" / c for c in CONFIGS] if not p.is_file()]
    if missing:
        raise HarnessError(f"not a roughlaplace checkout, missing: {missing[0]}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}, spec


def spawn(workload, seed, workers, trace=False, setup_only=False, timeout=RUN_BUDGET_S) -> dict:
    """One fresh interpreter running workload.py; returns its JSON report."""
    WORK.mkdir(exist_ok=True)
    out = Path(tempfile.mkdtemp(dir=WORK))
    env = dict(os.environ, **BLAS_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", workload,
           "--workers", str(workers), "--out", str(out)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    try:
        t0 = time.monotonic()
        proc = subprocess.run(cmd + ["--t0", repr(t0)], capture_output=True, text=True,
                              env=env, timeout=max(timeout, 1.0))
        elapsed = time.monotonic() - t0
    except subprocess.TimeoutExpired as e:
        raise HarnessError(f"{workload} pass exceeded {timeout:.0f} s") from e
    finally:
        shutil.rmtree(out, ignore_errors=True)
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        raise HarnessError(f"{workload} pass exited {proc.returncode}:\n{tail}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["elapsed_s"] = elapsed
    return report


def measure(workload, seed, seconds, trace) -> dict:
    """All passes of one run of one workload."""
    start = time.monotonic()
    workers = min(2, os.cpu_count() or 1)

    def left():
        return RUN_BUDGET_S - (time.monotonic() - start)

    def setup_samples(n):
        return [spawn(workload, seed, workers, setup_only=True, timeout=left())["setup_s"]
                for _ in range(n)]

    setups = []
    if trace:
        passes = [spawn(workload, seed, workers, timeout=left())]
        passes.append(spawn(workload, seed, workers, trace=True, timeout=left()))
    else:
        # set-up samples before and after the passes, so that both see the
        # machine's load during the run
        setups = setup_samples(SETUP_SAMPLES // 2)
        passes = []
        t_measure = time.monotonic()
        while True:
            passes.append(spawn(workload, seed, workers, timeout=left()))
            last = passes[-1]["elapsed_s"]
            if time.monotonic() - t_measure + last > seconds or last > left():
                break
        setups += setup_samples(SETUP_SAMPLES - SETUP_SAMPLES // 2)
    return {"workload": workload, "workers": workers, "trace": trace, "passes": passes,
            "setups": setups + [p["setup_s"] for p in passes if not trace]}


def summarize(run: dict) -> dict:
    """Outcome counts, correctness and metrics of one run."""
    passes = run["passes"]
    problems = []
    failed = 0
    for i, op in enumerate(passes[0]["ops"]):
        runs = [p["ops"][i] for p in passes]
        failed += any(r["error"] or r["failed_checks"] for r in runs)
        for r in runs:
            if r["failed_checks"] and not r["statistical_only"]:
                problems.append(f"{op['name']}: wrong result: {r['failed_checks']}")
        digests = {r["digest"] for r in runs}
        if len(digests) > 1:
            problems.append(f"{op['name']}: passes disagree on the output digest {sorted(digests)}")
    for p in passes:
        for name, missed in p["selftest_missed"].items():
            if missed:
                problems.append(f"{name}: check accepts perturbed output: {missed}")
    if run["trace"]:
        plain, traced = passes
        metrics = dict(traced["layers"])
        metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        samples = {"layers": 1, "trace.overhead_s": 2}
    else:
        metrics = {
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "setup_s": statistics.median(run["setups"]),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        }
        samples = {"wall_s": len(passes), "setup_s": len(run["setups"]),
                   "peak_rss_mb": len(passes)}
    return {"correct": not problems, "problems": problems, "attempted": len(passes[0]["ops"]),
            "failed": failed, "metrics": metrics, "samples": samples}


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def record(run: dict, summary: dict, seconds) -> dict:
    """The run record: machine, versions, inputs and sample counts."""
    first = run["passes"][0]
    return {
        "workload": run["workload"], "seed": first["seed"], "workers": run["workers"],
        "trace": int(run["trace"]), "seconds": seconds,
        "nproc": os.cpu_count(), "cpu_model": cpu_model(),
        "python": platform.python_version(), **first["versions"],
        "git_sha": git_sha(), "samples": summary["samples"],
        "digests": [{op["name"]: op["digest"] for op in p["ops"]} for p in run["passes"]],
    }


def show(run: dict, summary: dict, units: dict, seconds):
    print(f"== {run['workload']}  seed {run['passes'][0]['seed']}  "
          f"workers {run['workers']}  trace {int(run['trace'])}")
    for k, p in enumerate(run["passes"], 1):
        kind = "traced" if run["trace"] and k == 2 else "untraced"
        print(f"pass {k} ({kind}): setup {p['setup_s']:.3f} s, wall {p['wall_s']:.3f} s, "
              f"peak rss {p['peak_rss_mb']:.1f} MB")
        for op in p["ops"]:
            if op["error"]:
                state = f"FAILED, raised {op['error']}"
            elif op["failed_checks"]:
                state = "FAILED checks: " + "; ".join(op["failed_checks"])
            else:
                state = "ok"
            print(f"  op {op['name']}: {state}  digest {op['digest']}")
            if op["checks"]:
                print("    checks: " + "; ".join(op["checks"]))
            for key, value in op["recorded"].items():
                print(f"    recorded {key} = {value:.6g}")
        for name, missed in p["selftest_missed"].items():
            print(f"  self-test {name}: "
                  + (f"accepted {missed}" if missed else "every perturbation rejected"))
    for problem in summary["problems"]:
        print(f"PROBLEM {problem}")
    metrics = summary["metrics"]
    for name, value in metrics.items():
        n = summary["samples"].get(name, summary["samples"].get("layers"))
        note = f"  (median of {n})" if not run["trace"] else ""
        print(f"  {name:<26} {value:>14.6g} {units.get(name, '')}{note}")
    if run["trace"]:
        traced = run["passes"][1]
        self_sum = sum(v for k, v in traced["layers"].items()
                       if k.endswith("_s") and not k.startswith("trace.") and k != "cli.run_s")
        print(f"  self times {self_sum:.3f} s + untraced {traced['layers']['trace.untraced_s']:.3f} s"
              f" = traced wall {traced['wall_s']:.3f} s")
        for name, why in traced["absent"].items():
            print(f"  absent {name}: {why}")
        for why in traced["missing"]:
            print(f"  missing wrapper target {why}")
    print(f"  ops_failed {summary['failed']} of ops_attempted {summary['attempted']}")
    print("record " + json.dumps(record(run, summary, seconds), sort_keys=True))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="roughlaplace pipeline benchmark")
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=None,
                    help="config seed (default: the shipped config's seed)")
    ap.add_argument("--seconds", type=float, default=44.0,
                    help="measure passes while another fits in this time")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        units, spec = preflight()
        group = "per_layer" if args.trace else "end_to_end"
        wanted = [m["name"] for m in spec[group]]
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        rows = []
        for w in names:
            run = measure(w, args.seed, args.seconds, bool(args.trace))
            summary = summarize(run)
            show(run, summary, units, args.seconds)
            absent = [m for m in wanted if m not in summary["metrics"]]
            if absent:
                raise HarnessError(f"{w} produced no value for {absent}")
            rows.append((w, summary))
            prefix = f"{w}." if args.workload == "all" else ""
            total["correct"] &= summary["correct"]
            total["attempted"] += summary["attempted"]
            total["failed"] += summary["failed"]
            for m in wanted:
                total["metrics"][prefix + m] = {"value": summary["metrics"][m],
                                                "unit": units[m]}
    except HarnessError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    if len(rows) > 1 and not args.trace:
        print(f"{'workload':<18}" + "".join(f"{m:>16}" for m in wanted) + "   ops_failed")
        for w, s in rows:
            print(f"{w:<18}" + "".join(f"{s['metrics'][m]:>13.4g} {units[m]:<2}" for m in wanted)
                  + f"   {s['failed']} of {s['attempted']}")
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())

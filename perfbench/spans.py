"""Layer-boundary spans for the traced benchmark run.

The tracer replaces each layer-boundary function of roughlaplace, in every
loaded roughlaplace module that binds it, with a wrapper that records one
span per call: name, start, end, parent span and operation id.  Spans stay in
memory until the run ends.  A span's self time is its duration minus the time
its direct child spans cover; per-layer times are sums of self time.

Nothing here changes what the wrapped functions compute: a wrapper passes
its arguments through and returns the result unchanged, so traced and
untraced runs produce identical outputs.
"""
from __future__ import annotations

import functools
import logging
import math
import sys
import time
from collections import Counter, defaultdict


def _steps(out):
    """Path-steps of a solver result shaped (..., n_points, n)."""
    shape = getattr(out, "shape", ())
    if len(shape) < 2:
        return 0
    return math.prod(shape[:-2]) * (shape[-2] - 1)


def _count_streams(tracer, args, kwargs, out):
    tracer.stream_keys.add(tuple(args) + tuple(sorted(kwargs.items())))


def _count_cm(tracer, args, kwargs, out):
    tracer.counts["fbm.cm"] += len(out) if isinstance(out, list) else 1


def _count_heun(tracer, args, kwargs, out):
    tracer.counts["odes.heun"] += _steps(out)


def _count_linear(tracer, args, kwargs, out):
    tracer.counts["odes.linear_solve"] += _steps(out)


def _count_pvar(tracer, args, kwargs, out):
    path = args[0] if args else kwargs["path"]
    n = len(path.values)
    tracer.counts["variation.pvar"] += n * (n - 1) // 2


def _count_lift(tracer, args, kwargs, out):
    built = sum(a.nbytes for a in (out.inc1, out.inc2, out.inc3) if a is not None)
    tracer.counts["roughpath.lift"] += built / 1e6


# (span name, defining module, attribute, counter).  An attribute with a dot
# names a method on a class of that module.
TARGETS = (
    ("fbm.stream", "roughlaplace.fbm", "substream", _count_streams),
    ("fbm.sample", "roughlaplace.fbm", "sample_fbm_ensemble", None),
    ("fbm.sample", "roughlaplace.laplace", "_FbmBatcher.batch", None),
    ("fbm.cm", "roughlaplace.fbm", "cm_basis", _count_cm),
    ("fbm.cm", "roughlaplace.fbm", "cm_map", _count_cm),
    ("odes.heun", "roughlaplace.odes", "heun_controlled", _count_heun),
    ("odes.young", "roughlaplace.odes", "solve_young_ode", None),
    ("odes.flow", "roughlaplace.odes", "linear_flow", None),
    ("odes.linear_solve", "roughlaplace.odes", "linear_perturbation_solve", _count_linear),
    ("taylor.context", "roughlaplace.taylor", "expansion_context", None),
    # per-sample source assembly, the expansion engine's main hot spot
    ("taylor.sources", "roughlaplace.taylor", "_phi2_sources", None),
    ("taylor.sources", "roughlaplace.taylor", "_psi_sources", None),
    ("hessian.matrix", "roughlaplace.hessian", "hessian_matrix", None),
    ("hessian.hs_tail", "roughlaplace.hessian", "hs_tail", None),
    ("variation.pvar", "roughlaplace.variation", "pvar_exact", _count_pvar),
    ("roughpath.lift", "roughlaplace.roughpath", "lift", _count_lift),
    ("roughpath.scale", "roughlaplace.roughpath", "scale_rough", None),
    ("laplace.minimize", "roughlaplace.laplace", "minimize_F_Lambda", None),
    ("laplace.constants", "roughlaplace.laplace", "expansion_constants", None),
    ("laplace.mc", "roughlaplace.laplace", "mc_laplace", None),
    ("cli.run", "roughlaplace.cli", "run", None),
)


# (metric, span it reads, statistic): "self" sums self time, "incl" sums span
# duration, "calls" counts spans, "count" reads a counter kept by the
# wrappers, "derived" is computed from several spans.
LAYER_METRICS = (
    ("fbm.stream_s", "fbm.stream", "self"),
    ("fbm.streams", "fbm.stream", "calls"),
    ("fbm.stream_reuse", "fbm.stream", "derived"),
    ("fbm.sample_s", "fbm.sample", "self"),
    ("fbm.cm_s", "fbm.cm", "self"),
    ("fbm.cm_vectors", "fbm.cm", "count"),
    ("fbm.cholesky_retries", None, "derived"),
    ("odes.heun_s", "odes.heun", "self"),
    ("odes.heun_steps", "odes.heun", "count"),
    ("odes.young_s", "odes.young", "self"),
    ("odes.flow_s", "odes.flow", "self"),
    ("odes.linear_solve_s", "odes.linear_solve", "self"),
    ("odes.linear_solve_steps", "odes.linear_solve", "count"),
    ("taylor.context_s", "taylor.context", "self"),
    ("taylor.contexts", "taylor.context", "calls"),
    ("taylor.sources_s", "taylor.sources", "self"),
    ("hessian.matrix_s", "hessian.matrix", "self"),
    ("hessian.hs_tail_s", "hessian.hs_tail", "self"),
    ("variation.pvar_s", "variation.pvar", "self"),
    ("variation.pvar_calls", "variation.pvar", "calls"),
    ("variation.pvar_cells", "variation.pvar", "count"),
    ("roughpath.lift_s", "roughpath.lift", "self"),
    ("roughpath.lifts", "roughpath.lift", "calls"),
    ("roughpath.lift_mb", "roughpath.lift", "count"),
    ("roughpath.scale_s", "roughpath.scale", "self"),
    ("laplace.minimize_s", "laplace.minimize", "self"),
    ("laplace.objective_evals", "laplace.minimize", "derived"),
    ("laplace.constants_s", "laplace.constants", "self"),
    ("laplace.mc_s", "laplace.mc", "self"),
    ("cli.run_s", "cli.run", "incl"),
    ("cli.self_s", "cli.run", "self"),
    ("trace.wall_s", None, "derived"),
    ("trace.untraced_s", None, "derived"),
    ("trace.spans", None, "derived"),
)


class _JitterCounter(logging.Handler):
    """Counts the Cholesky jitter retries that roughlaplace.fbm logs."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        if "jitter" in record.getMessage():
            self.count += 1


class Tracer:
    """Spans and counters of one traced pass; ``op`` is the running operation."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index, op id]
        self.stack: list = []
        self.op = None
        self.counts: Counter = Counter()
        self.stream_keys: set = set()
        self.missing: list = []
        self.absent: set = set()
        self.jitter = _JitterCounter()
        self._undo: list = []

    def _wrap(self, name, fn, counter):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, self.op])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if counter is not None:
                counter(self, args, kwargs, out)
            return out

        return wrapper

    def install(self):
        """Wrap every target.  A target that no longer exists is listed in
        ``missing`` instead of raising; a span none of whose targets exists
        is absent."""
        wrapped = set()
        for name, modname, attr, counter in TARGETS:
            owner_name, _, meth = attr.rpartition(".")
            owner = sys.modules.get(modname)
            if owner_name:
                owner = getattr(owner, owner_name, None)
            original = getattr(owner, meth, None)
            if original is None:
                self.missing.append(f"{name}: {modname} has no {attr}")
                continue
            wrapped.add(name)
            wrapper = self._wrap(name, original, counter)
            if owner_name:
                self._patch(owner, meth, original, wrapper)
                continue
            for mname, m in list(sys.modules.items()):
                if mname.split(".")[0] == "roughlaplace" and m.__dict__.get(meth) is original:
                    self._patch(m, meth, original, wrapper)
        self.absent = {t[0] for t in TARGETS} - wrapped
        logging.getLogger("roughlaplace.fbm").addHandler(self.jitter)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        logging.getLogger("roughlaplace.fbm").removeHandler(self.jitter)

    def layer_metrics(self, wall_s: float) -> tuple:
        """Per-layer self times and counts, plus the traced wall time and the
        part of it that no span covers.  Returns (metrics, absent), where
        absent maps a metric whose layer function no longer exists to why."""
        self_s = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                self_s[s[3]] -= s[2] - s[1]
        stat = {"self": defaultdict(float), "incl": defaultdict(float), "calls": Counter()}
        for s, own in zip(self.spans, self_s):
            stat["self"][s[0]] += own
            stat["incl"][s[0]] += s[2] - s[1]
            stat["calls"][s[0]] += 1
        stat["count"] = self.counts
        streams = stat["calls"]["fbm.stream"]
        derived = {
            "fbm.stream_reuse": len(self.stream_keys) / streams if streams else 0.0,
            "fbm.cholesky_retries": self.jitter.count,
            "laplace.objective_evals": sum(
                1 for s in self.spans
                if s[0] == "taylor.context" and self._has_ancestor(s, "laplace.minimize")
            ),
            "trace.wall_s": wall_s,
            "trace.untraced_s": wall_s - sum(self_s),
            "trace.spans": len(self.spans),
        }
        metrics, absent = {}, {}
        for metric, span, kind in LAYER_METRICS:
            if kind == "derived":
                metrics[metric] = derived[metric]
            else:
                metrics[metric] = stat[kind][span]
            if span in self.absent:
                absent[metric] = "; ".join(
                    m for m in self.missing if m.startswith(span + ":")
                )
        return metrics, absent

    def _has_ancestor(self, span, name) -> bool:
        p = span[3]
        while p >= 0:
            if self.spans[p][0] == name:
                return True
            p = self.spans[p][3]
        return False

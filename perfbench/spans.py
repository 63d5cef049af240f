"""Span tracing of covest's public functions, installed from outside the program.

covest's modules import names directly (``from .estimator import
estimate_cov``), so a wrapper has to replace the name in the namespace the
caller looks it up in: ``covest.active.estimate_cov``, not
``covest.estimator.estimate_cov``. ``TARGETS`` lists each (namespace,
attribute) pair with the span name it records. Spans are kept in memory as
[name, start, end, parent, pid, extra] and written out once, at the end.

Pool workers forked by ``run_experiment`` inherit the wrappers. The worker
entry point ``covest.experiment._run_chunk`` is wrapped too: it clears the
inherited spans, runs the chunk and writes the worker's spans to a file that
the parent merges after the pool has shut down.
"""
from __future__ import annotations

import functools
import json
import os
import time
from pathlib import Path

import numpy as np

# (namespace, attribute, span name); "covest" is the package namespace the
# benchmark itself calls through
TARGETS = (
    ("covest", "make_spiked_model", "data.source"),
    ("covest", "build_empirical_source", "data.source"),
    ("covest", "load_idx", "data.load_idx"),
    ("covest", "run_active", "active.run_active"),
    ("covest", "run_experiment", "experiment.run_experiment"),
    ("covest", "export_csv", "experiment.export_csv"),
    ("covest.experiment", "make_spiked_model", "data.source"),
    ("covest.experiment", "build_empirical_source", "data.source"),
    ("covest.experiment", "load_idx", "data.load_idx"),
    ("covest.experiment", "child_rng", "sampling.child_rng"),
    ("covest.experiment", "design_probabilities", "design.design_probabilities"),
    ("covest.experiment", "run_active", "active.run_active"),
    ("covest.experiment", "run_fixed", "active.run_fixed"),
    ("covest.experiment", "bound_report", "bounds.bound_report"),
    ("covest.experiment", "effective_rank", "bounds.effective_rank"),
    ("covest.experiment", "_run_chunk", "experiment.worker_chunk"),
    ("covest.data", "psd_sqrt_factor", "linalg.psd_sqrt_factor"),
    ("covest.data", "spectral_norm", "linalg.spectral_norm"),
    ("covest.data.GaussianStream", "draw", "data.draw"),
    ("covest.data.EpochStream", "draw", "data.draw"),
    ("covest.active", "child_rng", "sampling.child_rng"),
    ("covest.active", "mask_batch", "sampling.mask_batch"),
    ("covest.active", "estimate_cov", "estimator.estimate_cov"),
    ("covest.active", "merge_estimates", "estimator.merge_estimates"),
    ("covest.active", "relative_frobenius_error", "estimator.relative_frobenius_error"),
    ("covest.design", "design_probabilities", "design.design_probabilities"),
    ("covest.design", "project_box_simplex", "design.project_box_simplex"),
    ("covest.bounds", "effective_rank", "bounds.effective_rank"),
)

# per-function metrics reported as <name>.calls and <name>.s
FUNCTIONS = sorted({name for _, _, name in TARGETS} - {"experiment.worker_chunk"})
LAYERS = ("sampling", "data", "linalg", "estimator", "design", "bounds", "active", "experiment")
_F8 = 8  # bytes per float64


def _resolve(cv, namespace: str):
    obj = cv
    for part in namespace.split(".")[1:]:
        obj = getattr(obj, part)
    return obj


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _extra(name, args, kwargs, out):
    """Counts recorded at the boundary: rows drawn, bytes moved, solver facts."""
    if name == "data.draw":
        return {"rows": int(args[1])}
    if name == "estimator.estimate_cov":
        n = out.matrix.shape[0]
        return {"bytes": _F8 * (int(np.size(args[0].observed)) + n * n)}
    if name == "estimator.merge_estimates":
        return {"bytes": _F8 * 3 * out.matrix.size}
    if name == "estimator.relative_frobenius_error":
        return {"bytes": _F8 * 2 * np.size(args[1])}
    if name == "design.design_probabilities":
        # the KKT residual is computed after the run, outside every span
        diag = np.asarray(args[0], dtype=float)
        return {"iterations": out.iterations, "converged": bool(out.converged),
                "kkt": (out.p.p, out.rho * np.sqrt(diag), float(_arg(args, kwargs, 1, "m")),
                        float(_arg(args, kwargs, 2, "eps", 1e-3)))}
    if name == "experiment.export_csv":
        path = Path(out)
        return {"bytes": path.stat().st_size + path.with_suffix(".meta.json").stat().st_size}
    return None


class Tracer:
    """Collects spans from wrapped covest functions in this process and its workers."""

    def __init__(self, cv, worker_dir):
        self._cv = cv
        self._worker_dir = Path(worker_dir)
        self._originals = []
        self.spans = []
        self._stack = []
        self._pid = os.getpid()

    def _wrap(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = tracer.spans, tracer._stack
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer._pid, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            span[5] = _extra(name, args, kwargs, out)
            return out

        return traced

    def _wrap_worker_entry(self, fn, name):
        inner = self._wrap(fn, name)
        tracer = self

        @functools.wraps(fn)
        def worker_entry(*args, **kwargs):
            # a forked worker starts with a copy of the parent's spans
            tracer._pid = os.getpid()
            tracer.spans, tracer._stack = [], []
            out = inner(*args, **kwargs)
            tracer._finish_kkt()
            dest = tracer._worker_dir / f"worker-{tracer._pid}-{time.perf_counter_ns()}.json"
            dest.write_text(json.dumps(tracer.spans))
            return out

        return worker_entry

    def __enter__(self):
        self._worker_dir.mkdir(parents=True, exist_ok=True)
        for stale in self._worker_dir.glob("worker-*.json"):
            stale.unlink()
        for namespace, attr, name in TARGETS:
            owner = _resolve(self._cv, namespace)
            fn = getattr(owner, attr)
            wrap = self._wrap_worker_entry if name == "experiment.worker_chunk" else self._wrap
            self._originals.append((owner, attr, fn))
            setattr(owner, attr, wrap(fn, name))
        return self

    def __exit__(self, *exc):
        for owner, attr, fn in reversed(self._originals):
            setattr(owner, attr, fn)
        self._originals.clear()
        self._finish_kkt()
        for path in sorted(self._worker_dir.glob("worker-*.json")):
            worker = json.loads(path.read_text())
            offset = len(self.spans)
            for span in worker:
                if span[3] >= 0:
                    span[3] += offset
            self.spans.extend(worker)
            path.unlink()
        return False

    def _finish_kkt(self):
        kkt_residual = self._cv.design.kkt_residual
        for span in self.spans:
            extra = span[5]
            if extra and isinstance(extra.get("kkt"), tuple):
                p, v, m, eps = extra["kkt"]
                extra["kkt"] = float(kkt_residual(p, v, m, lo=eps, hi=1.0))

    def write(self, path) -> None:
        """Write the spans as JSON: one [name, start, end, parent, pid] row each."""
        rows = [span[:5] for span in self.spans]
        Path(path).write_text(json.dumps({"fields": ["name", "start", "end", "parent", "pid"],
                                          "spans": rows}))


def layer_metrics(spans) -> dict:
    """Per-function calls and busy seconds, counts, and per-layer self time.

    A span's self time is its duration minus the durations of the traced
    calls nested directly inside it in the same process; a layer's self_s
    sums that over the layer's spans.
    """
    calls = dict.fromkeys(FUNCTIONS, 0)
    busy = dict.fromkeys(FUNCTIONS, 0.0)
    self_s = dict.fromkeys(LAYERS, 0.0)
    child = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child[span[3]] += span[2] - span[1]
    counts = {"data.draw.rows": 0, "estimator.matrix_bytes": 0, "design.iterations": 0,
              "design.converged": 0, "design.kkt_residual.max": 0.0, "experiment.export_bytes": 0}
    for i, (name, start, end, _parent, _pid, extra) in enumerate(spans):
        if name in calls:
            calls[name] += 1
            busy[name] += end - start
        self_s[name.split(".")[0]] += end - start - child[i]
        if not extra:
            continue
        if name == "data.draw":
            counts["data.draw.rows"] += extra["rows"]
        elif name.startswith("estimator."):
            counts["estimator.matrix_bytes"] += extra["bytes"]
        elif name == "design.design_probabilities":
            counts["design.iterations"] += extra["iterations"]
            counts["design.converged"] += int(extra["converged"])
            counts["design.kkt_residual.max"] = max(counts["design.kkt_residual.max"], extra["kkt"])
        elif name == "experiment.export_csv":
            counts["experiment.export_bytes"] += extra["bytes"]
    out = {}
    for name in FUNCTIONS:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.s"] = busy[name]
    out.update(counts)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
    return out


def metric_unit(name: str) -> str:
    if name.endswith((".calls", ".rows", ".iterations", ".converged")):
        return "count"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith(".max"):
        return "1"
    return "s"

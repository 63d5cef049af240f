"""Benchmark of covest: one workload per invocation, one JSON line of results.

    python3 perfbench/run.py --workload figure16 --seed 1 --seconds 20 --trace 0

Run from the root of a covest checkout; the package is imported from
``src/``. ``--trace 0`` times the workload untraced and prints the end-to-end
metrics. ``--trace 1`` alternates untraced and traced repetitions, prints the
per-layer metrics and writes the last traced repetition's spans to
``perfbench/generated/trace-<workload>-<seed>.json``. Progress and check
failures go to stderr; the last line of stdout is the result object.
"""
from __future__ import annotations

import os

# pin BLAS before numpy loads: one thread per process, so the two pool
# workers of digits784 use the machine's two cores and nothing oversubscribes
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_PER_ROUND = 3  # set-ups timed before each round, spread over the run


def import_covest():
    """Import covest afresh (dropping any loaded copy) and return the package."""
    for name in [m for m in sys.modules if m == "covest" or m.startswith("covest.")]:
        del sys.modules[name]
    return importlib.import_module("covest")


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


class Outcome:
    """Operation counts and check problems of one benchmark run."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.first = None

    def run_round(self, cv, source, probe: bool = True):
        """One round; returns (wall, payload), or None when it raised."""
        w = self.workload
        ops = w.main_ops + (w.probe_runs if probe else 0)
        self.attempted += ops
        try:
            wall, payload = w.run_round(cv, source, probe)
        except Exception as exc:  # a failed round is counted, not fatal
            self.failed += ops
            log(f"{w.name}: round failed: {exc!r}")
            return None
        if self.first is None:
            self.first = payload["digest"]
            self.problems += w.check(cv, source, payload)
        elif payload["digest"] != self.first:
            self.problems.append(f"{w.name}: outputs differ between rounds of one seed")
        return wall, payload


def measure(w, seconds: float):
    """Untraced rounds for ``seconds``: the end-to-end metrics."""
    outcome = Outcome(w)
    setup, walls, steps, final_err = [], [], [], None
    start = time.perf_counter()
    rounds = 0
    while rounds < w.min_rounds or time.perf_counter() - start < seconds:
        rounds += 1
        for _ in range(SETUP_PER_ROUND):
            begin = time.perf_counter()
            cv = import_covest()
            source = w.build(cv)
            setup.append(time.perf_counter() - begin)
        done = outcome.run_round(cv, source)
        if done is not None:
            walls.append(done[0])
            steps.extend(done[1]["steps"])
            final_err = done[1]["final_err"]

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    steps_ms = 1000.0 * np.asarray(steps)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(walls) if walls else float("nan"), "s"),
        "peak_rss_mb": ((own + w.jobs * workers) / 1024.0, "MB"),
        "final_rel_err": (final_err if final_err is not None else float("nan"), "1"),
        "step_ms_p50": (float(np.percentile(steps_ms, 50)) if steps else float("nan"), "ms"),
        "step_ms_p95": (float(np.percentile(steps_ms, 95)) if steps else float("nan"), "ms"),
    }
    log(f"{w.name}: {len(walls)} rounds, walls {[round(x, 3) for x in walls]}, "
        f"setup rounds {[round(x, 4) for x in setup]}, {len(steps)} steps")
    return outcome, metrics


def measure_traced(w, seconds: float, trace_path: Path):
    """Untraced and traced rounds in turn: the per-layer metrics."""
    outcome = Outcome(w)
    cv = import_covest()
    source = w.build(cv)
    plain, traced, per_round, tracer = [], [], [], None
    start = time.perf_counter()
    pairs = 0
    while pairs < 1 or time.perf_counter() - start < seconds:
        # alternate which side goes first so drift in host speed cancels
        for side in (("plain", "traced") if pairs % 2 == 0 else ("traced", "plain")):
            if side == "plain":
                done = outcome.run_round(cv, source, probe=False)
                if done is not None:
                    plain.append(done[0])
                continue
            tracer = spans.Tracer(cv, w.workdir / "workers")
            with tracer:
                w.build(cv)  # traced only for its data and linalg spans
                done = outcome.run_round(cv, source, probe=False)
            if done is not None:
                traced.append(done[0])
                per_round.append(spans.layer_metrics(tracer.spans))
        pairs += 1
    if tracer is not None:
        tracer.write(trace_path)
    metrics = {}
    for name in per_round[0] if per_round else ():
        metrics[name] = (statistics.median(r[name] for r in per_round), spans.metric_unit(name))
    overhead = statistics.median(traced) - statistics.median(plain) if traced and plain else float("nan")
    metrics["trace.overhead_s"] = (overhead, "s")
    log(f"{w.name}: untraced walls {[round(x, 3) for x in plain]}, "
        f"traced walls {[round(x, 3) for x in traced]}; spans in {trace_path}")
    return outcome, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="covest benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "covest" / "__init__.py").is_file():
        log(f"no covest sources under {ROOT / 'src'}; run from a covest checkout")
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    generated = ROOT / "perfbench" / "generated"
    workdir = generated / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        w = WORKLOADS[args.workload](args.seed, ROOT, workdir)
        w.prepare()
        if args.trace:
            trace_path = generated / f"trace-{w.name}-{args.seed}.json"
            outcome, metrics = measure_traced(w, args.seconds, trace_path)
        else:
            outcome, metrics = measure(w, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in outcome.problems:
        log(f"CHECK FAILED: {problem}")
    for name, (value, unit) in metrics.items():
        log(f"  {name:<42} {value:>16.6g} {unit}")
    correct = not outcome.problems and all(np.isfinite(v) for v, _ in metrics.values())
    print(json.dumps({
        "correct": bool(correct),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

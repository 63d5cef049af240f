"""The three benchmark workloads, each driven through covest's public API.

A workload knows how to make its inputs (untimed), build its source through
covest's public builders (the set-up that ``setup_s`` times), run one round
and check a round's outputs. A round is the timed call(s) plus, unless
tracing, a probe of the adaptive loop's per-batch latency on the same source,
timed apart. Every round of a workload runs the same operations, so the
operation counts repeat exactly between runs.
"""
from __future__ import annotations

import hashlib
import time
from pathlib import Path

import numpy as np

import checks
import digits

EPS = 1e-3  # covest's default probability floor, used by every workload


class StampedOracle:
    """Thin wrapper over a covest stream that timestamps each draw."""

    def __init__(self, stream, stamps: list):
        self._stream = stream
        self._stamps = stamps
        self.dim = stream.dim

    def draw(self, count):
        self._stamps.append(time.perf_counter())
        return self._stream.draw(count)


def _probe_steps(cv, source, seed: int, runs: int, budget: float, batch: int,
                 iterations: int, record_matrices: bool) -> list:
    """Draw-to-draw intervals (s) of run_active on the given source."""
    steps = []
    for i in range(runs):
        stamps = []
        oracle = StampedOracle(source.stream(cv.child_rng(seed, 3, i)), stamps)
        cfg = cv.ActiveConfig(budget=budget, batch_size=batch, iterations=iterations,
                              seed=cv.derive_seed(seed, 4, i))
        cv.run_active(oracle, cfg, truth=source.sigma, record_matrices=record_matrices)
        steps.extend(np.diff(stamps))
    return steps


def _files_digest(path: Path) -> str:
    h = hashlib.sha256(path.read_bytes())
    h.update(path.with_suffix(".meta.json").read_bytes())
    return h.hexdigest()


class _ExperimentWorkload:
    """Common part of the run_experiment + export_csv workloads."""

    name = ""
    jobs = 1
    main_ops = 2  # run_experiment, export_csv
    probe_runs = 0
    min_rounds = 1

    def __init__(self, seed: int, root: Path, workdir: Path):
        self.seed = seed
        self.root = root
        self.workdir = workdir

    def spec(self, cv):
        raise NotImplementedError

    def run_round(self, cv, source, probe: bool):
        spec = self.spec(cv)
        out = self.workdir / f"{self.name}.csv"
        start = time.perf_counter()
        result = cv.run_experiment(spec, jobs=self.jobs)
        cv.export_csv(result, out)
        wall = time.perf_counter() - start
        final = float(np.mean([result.errors[("active", f)][:, -1] for f in spec.budget_fracs]))
        steps = self.probe(cv, source) if probe else []
        return wall, {"result": result, "final_err": final, "digest": _files_digest(out),
                      "steps": steps}

    def check(self, cv, source, payload) -> list:
        result = payload["result"]
        n = result.dim
        problems = []
        for (arm, frac), design in sorted(result.final_designs.items()):
            problems += checks.check_design(design, frac * n, EPS, f"{self.name} {arm}@{frac:g}")
            if arm == "designed":
                problems += checks.check_designed(design, np.diag(source.sigma), frac * n, EPS,
                                                  f"{self.name} designed@{frac:g}")
        finals = {key: float(curves[:, -1].mean()) for key, curves in result.errors.items()}
        problems += checks.check_orderings(finals, self.name)
        return problems


class Figure16(_ExperimentWorkload):
    """The acceptance figure spec at jobs=1: the design solver dominates."""

    name = "figure16"
    jobs = 1
    probe_runs = 11  # 11 runs x 19 draw-to-draw intervals: >= 200 steps per round

    def prepare(self) -> None:
        pass

    def build(self, cv):
        # the address run_experiment derives its synthetic source seed from
        return cv.make_spiked_model(16, 2, 50.0, theta=1 / 16, seed=cv.derive_seed(self.seed, 0))

    def spec(self, cv):
        return cv.ExperimentSpec(
            source=cv.SyntheticSourceSpec(n=16, spikes=2, spike=50.0, theta=1 / 16),
            arms=("uniform", "designed", "active", "full"), budget_fracs=(0.25, 0.5, 0.75),
            batch_size=50, iterations=20, trials=50, seed=self.seed)

    def check(self, cv, source, payload) -> list:
        problems = super().check(cv, source, payload)
        result = payload["result"]
        for (arm, frac), curves in sorted(result.errors.items()):
            if arm != "active":
                problems += checks.check_exact_mse(curves, result.checkpoints, source.sigma,
                                                   result.final_designs[(arm, frac)],
                                                   f"{self.name} {arm}@{frac:g}")
        return problems

    def probe(self, cv, source) -> list:
        return _probe_steps(cv, source, self.seed, self.probe_runs, budget=8.0, batch=50,
                            iterations=20, record_matrices=False)


class Digits784(_ExperimentWorkload):
    """A dense-sigma empirical source at jobs=2, from generated IDX files."""

    name = "digits784"
    jobs = 2
    digit = 8
    theta = 1 / 784
    probe_runs = 2  # 100 draw-to-draw intervals per round ...
    min_rounds = 2  # ... and at least 200 per run

    def prepare(self) -> None:
        out = self.root / "perfbench" / "generated" / f"digits-{self.seed}"
        images, labels = digits.write_digits(self.seed, out)
        self.images = str(images.relative_to(self.root))
        self.labels = str(labels.relative_to(self.root))

    def build(self, cv):
        images = cv.load_idx(self.images)
        labels = cv.load_idx(self.labels)
        return cv.build_empirical_source(images, labels, self.digit, theta=self.theta)

    def spec(self, cv):
        return cv.ExperimentSpec(
            source=cv.EmpiricalSourceSpec(images=self.images, labels=self.labels,
                                          digit=self.digit, theta=self.theta),
            arms=("uniform", "designed", "active", "full"), budget_fracs=(0.25, 0.5),
            batch_size=100, iterations=10, trials=4, seed=self.seed)

    def check(self, cv, source, payload) -> list:
        problems = super().check(cv, source, payload)
        w = np.linalg.eigvalsh(source.sigma)
        erank = float(w.sum() / w[-1])
        if abs(payload["result"].truth_erank - erank) > 1e-9 * erank:
            problems.append(f"{self.name}: effective rank of the truth is "
                            f"{payload['result'].truth_erank!r}, expected {erank!r}")
        return problems

    def probe(self, cv, source) -> list:
        return _probe_steps(cv, source, self.seed, self.probe_runs, budget=0.25 * source.dim,
                            batch=100, iterations=51, record_matrices=False)


class Active784:
    """run_active as the README quickstart calls it, on a spiked n=784 stream."""

    name = "active784"
    jobs = 0
    runs = 5  # 5 runs x 49 draw-to-draw intervals >= 200 steps per round
    main_ops = runs
    probe_runs = 0
    min_rounds = 1
    n, spikes, spike, theta = 784, 10, 50.0, 1 / 16
    batch, iterations = 100, 50

    def __init__(self, seed: int, root: Path, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.budget = 0.25 * self.n

    def prepare(self) -> None:
        pass

    def build(self, cv):
        return cv.make_spiked_model(self.n, self.spikes, self.spike, theta=self.theta, seed=self.seed)

    def run_round(self, cv, source, probe: bool):
        wall = 0.0
        stamps, finals, designs = [], [], []
        for i in range(self.runs):
            run_stamps = []
            oracle = StampedOracle(source.stream(cv.child_rng(self.seed, 1, i)), run_stamps)
            cfg = cv.ActiveConfig(budget=self.budget, batch_size=self.batch,
                                  iterations=self.iterations, seed=cv.derive_seed(self.seed, 2, i))
            start = time.perf_counter()
            trace = cv.run_active(oracle, cfg, truth=source.sigma)
            wall += time.perf_counter() - start
            finals.append(float(trace.errors()[-1]))
            designs.append(np.vstack([trace.designs(), trace.final_design]))
            stamps.extend(np.diff(run_stamps))
            del trace, oracle  # keep one trace's matrices alive at a time
        return wall, {"final_errs": finals, "final_err": float(np.mean(finals)),
                      "designs": designs, "steps": stamps, "digest": repr(finals)}

    def check(self, cv, source, payload) -> list:
        problems = []
        for i, run_designs in enumerate(payload["designs"]):
            for k, design in enumerate(run_designs):
                problems += checks.check_design(design, self.budget, EPS, f"{self.name} run {i} batch {k}")
        designed = cv.design_probabilities(np.diag(source.sigma), self.budget, EPS).p.p
        problems += checks.check_designed(designed, np.diag(source.sigma), self.budget, EPS,
                                          f"{self.name} designed")
        problems += checks.check_active_band(
            payload["final_errs"], self.batch * self.iterations, source.sigma, designed,
            np.full(self.n, self.budget / self.n), self.name)
        return problems


WORKLOADS = {w.name: w for w in (Figure16, Active784, Digits784)}

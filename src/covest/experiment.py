"""Multi-trial experiment harness comparing observation strategies.

Arms: "uniform" spreads the budget evenly, "designed" fits probabilities to
the true variance profile once up front, "active" learns the profile on the
fly, and "full" observes everything (a budget-1.0 reference recorded once).
All arms inside one trial see identical raw data; only the masks differ. Each
trial draws its rows once, batch by batch, and replays the recorded batches to
every arm. Trials are independent and seeded by index, so any execution order,
including parallel workers, reproduces the same result, and aggregation is an
ordered reduction over trial index.
"""
from __future__ import annotations

import csv
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .active import ActiveConfig, run_active, run_fixed
# bound_report and effective_rank stay importable from this module, where
# perfbench/spans.py instruments them
from .bounds import BoundReport, _bound_report, bound_report, effective_rank  # noqa: F401
from .data import build_empirical_source, load_idx, make_spiked_model
from .design import design_probabilities
from .linalg import _check_count, _check_finite
from .sampling import MaskDistribution, child_rng, derive_seed

__all__ = [
    "ARMS",
    "SyntheticSourceSpec",
    "EmpiricalSourceSpec",
    "ExperimentSpec",
    "ExperimentResult",
    "run_experiment",
    "export_csv",
]

ARMS = ("uniform", "designed", "active", "full")

# stream-address tags under the master seed
_TAG_SOURCE = 0
_TAG_DATA = 1
_TAG_ARM = 2


@dataclass(frozen=True)
class SyntheticSourceSpec:
    """Spiked Gaussian source parameters."""

    n: int
    spikes: int
    spike: float
    theta: float = 0.0

    def __post_init__(self):
        for count in ("n", "spikes"):
            object.__setattr__(self, count, _check_count(count, getattr(self, count), ge=1))
        _check_finite("spike", self.spike, ge=1)
        _check_finite("theta", self.theta, ge=0)

    def to_dict(self) -> dict:
        return {"kind": "synthetic", "n": self.n, "spikes": self.spikes,
                "spike": self.spike, "theta": self.theta}


@dataclass(frozen=True)
class EmpiricalSourceSpec:
    """IDX-backed source parameters: image/label files plus a class filter."""

    images: str
    labels: str
    digit: int
    theta: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "digit", _check_count("digit", self.digit, ge=0))
        _check_finite("theta", self.theta, ge=0)

    def to_dict(self) -> dict:
        return {"kind": "empirical", "images": self.images, "labels": self.labels,
                "digit": self.digit, "theta": self.theta}


def _source_spec_from_dict(d: dict):
    kind = d.get("kind")
    if kind == "synthetic":
        return SyntheticSourceSpec(n=d["n"], spikes=d["spikes"],
                                   spike=float(d["spike"]), theta=float(d.get("theta", 0.0)))
    if kind == "empirical":
        return EmpiricalSourceSpec(images=str(d["images"]), labels=str(d["labels"]),
                                   digit=d["digit"], theta=float(d.get("theta", 0.0)))
    raise ValueError(f"unknown source kind {kind!r}")


@dataclass(frozen=True)
class ExperimentSpec:
    """Fully resolved experiment description; one spec = one reproducible run."""

    source: SyntheticSourceSpec | EmpiricalSourceSpec
    arms: tuple
    budget_fracs: tuple
    batch_size: int
    iterations: int
    trials: int
    seed: int = 0
    q: float = 2.0
    eps: float = 1e-3
    eta: float = 100.0
    gamma: float = 1.0
    sigma_ratio: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "arms", tuple(self.arms))
        object.__setattr__(self, "budget_fracs", tuple(float(f) for f in self.budget_fracs))
        for arm in self.arms:
            if arm not in ARMS:
                raise ValueError(f"unknown arm {arm!r}; choose from {ARMS}")
        if len(set(self.arms)) != len(self.arms):
            raise ValueError("arms must be distinct")
        for count in ("trials", "batch_size", "iterations"):
            object.__setattr__(self, count, _check_count(count, getattr(self, count), ge=1))
        _check_finite("eps", self.eps, ge=0, le=1)
        needs_budget = [a for a in self.arms if a != "full"]
        if needs_budget and not self.budget_fracs:
            raise ValueError("budgeted arms need at least one budget fraction")
        _check_finite("budget fraction", self.budget_fracs, ge=self.eps, le=1)
        _check_finite("q", self.q, ge=1)
        _check_finite("eta", self.eta, gt=1)
        _check_finite("gamma", self.gamma, gt=0)
        _check_finite("sigma_ratio", self.sigma_ratio, gt=0)

    @property
    def total_samples(self) -> int:
        return self.batch_size * self.iterations

    def to_dict(self) -> dict:
        return {
            "source": self.source.to_dict(),
            "arms": list(self.arms),
            "budget_fracs": list(self.budget_fracs),
            "batch_size": self.batch_size,
            "iterations": self.iterations,
            "trials": self.trials,
            "seed": self.seed,
            "q": self.q,
            "eps": self.eps,
            "eta": self.eta,
            "gamma": self.gamma,
            "sigma_ratio": self.sigma_ratio,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentSpec":
        known = {f for f in cls.__dataclass_fields__}
        extra = set(d) - known
        if extra:
            raise ValueError(f"unknown experiment fields: {sorted(extra)}")
        kwargs = dict(d)
        kwargs["source"] = _source_spec_from_dict(d["source"])
        return cls(**kwargs)


@dataclass
class ExperimentResult:
    """Per-trial error curves plus summary diagnostics, keyed by (arm, frac).

    truth_erank is the effective rank of the source's sigma, trace over top
    eigenvalue, with the top eigenvalue the source build recorded.
    """

    spec: ExperimentSpec
    dim: int
    checkpoints: np.ndarray
    errors: dict
    final_designs: dict
    bound_reports: dict
    truth_erank: float

    def keys(self) -> list:
        return sorted(self.errors)

    def mean_errors(self, arm: str, frac: float) -> np.ndarray:
        return self.errors[(arm, frac)].mean(axis=0)

    def std_errors(self, arm: str, frac: float) -> np.ndarray:
        e = self.errors[(arm, frac)]
        if e.shape[0] < 2:
            return np.zeros(e.shape[1])
        return e.std(axis=0, ddof=1)


def _build_source(spec: ExperimentSpec):
    src = spec.source
    if isinstance(src, SyntheticSourceSpec):
        return make_spiked_model(src.n, src.spikes, src.spike, theta=src.theta,
                                 seed=derive_seed(spec.seed, _TAG_SOURCE))
    images = load_idx(src.images)
    labels = load_idx(src.labels)
    return build_empirical_source(images, labels, src.digit, theta=src.theta)


def _truth_erank(source) -> float:
    # effective_rank(source.sigma) without a second decomposition of sigma
    return float(np.trace(source.sigma) / source.top_eigenvalue)


def _designed_map(spec: ExperimentSpec, source) -> dict:
    if "designed" not in spec.arms:
        return {}
    n = source.dim
    diag = np.diag(source.sigma)
    return {frac: design_probabilities(diag, frac * n, spec.eps).p for frac in spec.budget_fracs}


def _arm_tasks(spec: ExperimentSpec) -> list:
    tasks = []
    for arm in spec.arms:
        if arm == "full":
            tasks.append((arm, 1.0))
        else:
            tasks.extend((arm, frac) for frac in spec.budget_fracs)
    return tasks


class _Replay:
    """One arm's oracle over a trial's recorded batches: draw returns the next one."""

    def __init__(self, batches: list, dim: int):
        self._batches = iter(batches)
        self.dim = dim

    def draw(self, count: int) -> np.ndarray:
        rows = next(self._batches, None)
        if rows is None or rows.shape[0] != count:
            raise RuntimeError(f"replay holds no recorded batch of {count} rows")
        return rows


def _run_trial(source, designed: dict, spec: ExperimentSpec, r: int) -> dict:
    """Every arm of trial r, on one draw of the trial's rows.

    The stream is drawn with the batch calls each arm would make, so each arm
    sees the rows its own stream would give. The batches are read-only and
    held for the whole trial: batch_size x iterations x n x 8 bytes, 6.3 MB
    for 10 batches of 100 at n = 784 and 128 KB for 20 batches of 50 at n = 16.
    """
    n = source.dim
    total = spec.total_samples
    stream = source.stream(child_rng(spec.seed, _TAG_DATA, r))
    batches = []
    for _ in range(spec.iterations):
        rows = stream.draw(spec.batch_size)
        rows.flags.writeable = False
        batches.append(rows)
    out = {}
    for arm, frac in _arm_tasks(spec):
        oracle = _Replay(batches, n)
        arm_seed = derive_seed(spec.seed, _TAG_ARM, r, ARMS.index(arm),
                               0 if arm == "full" else spec.budget_fracs.index(frac))
        m = frac * n
        if arm == "active":
            cfg = ActiveConfig(budget=m, batch_size=spec.batch_size,
                               iterations=spec.iterations, eps=spec.eps, seed=arm_seed)
            trace = run_active(oracle, cfg, truth=source.sigma, record_matrices=False)
        else:
            p = designed[frac] if arm == "designed" else MaskDistribution.uniform(n, m)
            trace = run_fixed(oracle, p, total, truth=source.sigma,
                              batch_size=spec.batch_size, seed=arm_seed,
                              record_matrices=False)
        out[(arm, frac)] = (trace.errors(), trace.final_design)
        del trace  # its running sum is n x n; free it before the next arm allocates one
    return out


# the parent's source and designed map, installed in each pool worker by
# _init_worker: inherited under fork, pickled once per worker under spawn
_worker_inputs: tuple = ()


def _init_worker(source, designed: dict) -> None:
    global _worker_inputs
    _worker_inputs = (source, designed)


def _run_chunk(args):
    spec, indices = args
    source, designed = _worker_inputs
    return [(r, _run_trial(source, designed, spec, r)) for r in indices]


def run_experiment(spec: ExperimentSpec, jobs: int = 1) -> ExperimentResult:
    """Run all trials and aggregate, identically for any jobs >= 1."""
    source = _build_source(spec)
    designed = _designed_map(spec, source)
    n = source.dim

    trial_results: dict[int, dict] = {}
    if jobs <= 1 or spec.trials == 1:
        for r in range(spec.trials):
            trial_results[r] = _run_trial(source, designed, spec, r)
    else:
        jobs = min(jobs, spec.trials)
        splits = np.array_split(np.arange(spec.trials), jobs)
        chunk_args = [(spec, [int(r) for r in part]) for part in splits if len(part)]
        with ProcessPoolExecutor(max_workers=jobs, initializer=_init_worker,
                                 initargs=(source, designed)) as pool:
            for pairs in pool.map(_run_chunk, chunk_args):
                for r, res in pairs:
                    trial_results[r] = res

    truth_erank = _truth_erank(source)
    diagonal = np.diag(source.sigma)
    errors = {}
    final_designs = {}
    bound_reports: dict[tuple, BoundReport] = {}
    for arm, frac in _arm_tasks(spec):
        curves = np.stack([trial_results[r][(arm, frac)][0] for r in range(spec.trials)])
        designs = np.stack([trial_results[r][(arm, frac)][1] for r in range(spec.trials)])
        errors[(arm, frac)] = curves
        mean_design = designs.mean(axis=0)
        final_designs[(arm, frac)] = mean_design
        bound_reports[(arm, frac)] = _bound_report(
            diagonal, MaskDistribution(mean_design), spec.total_samples,
            spec.eta, spec.gamma, spec.q, spec.sigma_ratio, truth_erank,
        )

    checkpoints = spec.batch_size * np.arange(1, spec.iterations + 1)
    return ExperimentResult(
        spec=spec,
        dim=n,
        checkpoints=checkpoints,
        errors=errors,
        final_designs=final_designs,
        bound_reports=bound_reports,
        truth_erank=truth_erank,
    )


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def export_csv(result: ExperimentResult, path) -> Path:
    """Write the aggregated curves as CSV plus a JSON metadata sidecar.

    One row per (arm, budget fraction, checkpoint), sorted, floats at 12
    significant digits. Identical results produce byte-identical files. The
    sidecar echoes the resolved spec and records seeds, the checkpoint grid
    (absolute and per-dimension), final designs, and bound diagnostics.
    """
    from . import __version__

    path = Path(path)
    spec = result.spec
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["arm", "budget_frac", "checkpoint_T", "mean_rel_err",
                         "std_rel_err", "trials", "seed"])
        for arm, frac in sorted(result.errors):
            mean = result.mean_errors(arm, frac)
            std = result.std_errors(arm, frac)
            for j, t in enumerate(result.checkpoints):
                writer.writerow([arm, _fmt(frac), int(t), _fmt(mean[j]), _fmt(std[j]),
                                 spec.trials, spec.seed])

    meta = {
        "spec": spec.to_dict(),
        "version": __version__,
        "seed": spec.seed,
        "paired_streams": True,
        "dim": result.dim,
        "checkpoints": [int(t) for t in result.checkpoints],
        "t_over_n": [float(t) / result.dim for t in result.checkpoints],
        "truth_erank": result.truth_erank,
        "final_designs": {f"{arm}@{_fmt(frac)}": [float(x) for x in design]
                          for (arm, frac), design in sorted(result.final_designs.items())},
        "bounds": {f"{arm}@{_fmt(frac)}": report.to_dict()
                   for (arm, frac), report in sorted(result.bound_reports.items())},
    }
    sidecar = path.with_suffix(".meta.json")
    with open(sidecar, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path

"""Batch active estimation: redesign the observation budget as data arrives.

Each iteration freezes the current design, draws one batch of masked samples
under it, folds the batch's unbiased estimate into the running average, and
re-solves the design from the running estimate's diagonal. The first design
is uniform. Because every batch is unbiased conditionally on its (data-
dependent) design, the merged estimate stays unbiased at every iteration.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .design import update_design
# estimate_cov, merge_estimates and relative_frobenius_error are what the loop
# reproduces in place; they stay importable from this module, where
# perfbench/spans.py instruments them
from .estimator import (  # noqa: F401
    CovarianceEstimate,
    _inverse_mask_moment,
    estimate_cov,
    merge_estimates,
    relative_frobenius_error,
)
# mask_batch is unused here but stays importable: perfbench/spans.py wraps
# covest.active.mask_batch and fails when the name is missing
from .sampling import MaskDistribution, child_rng, draw_mask, mask_batch  # noqa: F401

__all__ = ["ActiveConfig", "IterationRecord", "ActiveTrace", "run_active", "run_fixed"]


@dataclass(frozen=True)
class ActiveConfig:
    """Loop parameters: budget m, batch size B, iteration count N."""

    budget: float
    batch_size: int
    iterations: int
    eps: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if self.budget <= 0:
            raise ValueError("budget must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be a positive integer")
        if self.iterations < 1:
            raise ValueError("iterations must be a positive integer")
        if not 0 <= self.eps <= 1:
            raise ValueError("eps must lie in [0, 1]")


@dataclass(frozen=True)
class IterationRecord:
    """What one iteration saw and produced.

    batch_estimate and merged are copies of the batch's estimate and of the
    running estimate after the merge, kept only when the loop runs with
    record_matrices=True; otherwise both are None.
    """

    iteration: int
    design: np.ndarray
    batch_estimate: CovarianceEstimate | None
    merged: CovarianceEstimate | None
    rel_error: float | None
    observed_count: int
    sample_count: int


@dataclass
class ActiveTrace:
    """Per-iteration records plus the design the loop would use next."""

    records: list = field(default_factory=list)
    final_design: np.ndarray | None = None
    final_estimate: CovarianceEstimate | None = None

    def errors(self) -> np.ndarray:
        """Relative errors by iteration (NaN where no truth was supplied)."""
        return np.array([np.nan if r.rel_error is None else r.rel_error for r in self.records])

    def sample_counts(self) -> np.ndarray:
        return np.array([r.sample_count for r in self.records])

    def designs(self) -> np.ndarray:
        return np.stack([r.design for r in self.records])

    def __len__(self) -> int:
        return len(self.records)


def _check_budget(n: int, budget: float, eps: float) -> None:
    if budget > n * (1 + 1e-12):
        raise ValueError(f"budget {budget} exceeds dimension {n}")
    if budget < n * eps - 1e-12:
        raise ValueError(f"budget {budget} cannot cover floor {eps} in dimension {n}")


def _run_batches(oracle, p0: MaskDistribution, cfg: ActiveConfig, truth, adapt: bool,
                 record_matrices: bool) -> ActiveTrace:
    """The batch loop, with one running mean updated in place.

    Each step performs the floating-point operations of estimate_cov followed
    by merge_estimates and relative_frobenius_error, in the same order, so the
    trace is bitwise equal to composing those functions; it only skips their
    fresh n x n arrays and per-call validation.
    """
    n = p0.n
    if truth is not None:
        truth = np.asarray(truth, dtype=float)
        if truth.shape != (n, n):
            raise ValueError("estimate and reference must share a shape")
        truth_norm = float(np.linalg.norm(truth))
        if truth_norm == 0.0:
            raise ValueError("reference matrix must be nonzero")
    p = p0
    weights = _inverse_mask_moment(p.p)
    mean = np.zeros((n, n))
    work = np.empty((n, n))  # the batch's estimate, then the error of the mean
    samples = 0
    trace = ActiveTrace()
    for t in range(cfg.iterations):
        rng = child_rng(cfg.seed, t)
        # the rows come from outside the program, so their shape is checked;
        # the masks are drawn here and need no validation
        xs = np.asarray(oracle.draw(cfg.batch_size), dtype=float)
        if xs.ndim != 2 or xs.shape[1] != n:
            raise ValueError(f"oracle returned rows of shape {xs.shape}, expected (count, {n})")
        masks = draw_mask(p, rng, size=xs.shape[0])
        observed = masks * xs
        count = xs.shape[0]
        # estimate_cov: (obs^T obs / count) * weights; obs^T obs is exactly symmetric
        np.matmul(observed.T, observed, out=work)
        work /= count
        work *= weights
        batch_estimate = CovarianceEstimate(work.copy(), count) if record_matrices else None
        # merge_estimates: batch / (t + 1) + mean * (t / (t + 1))
        mean *= t / (t + 1)
        work /= t + 1
        mean += work
        samples += count
        merged = CovarianceEstimate(mean.copy(), samples, t + 1) if record_matrices else None
        rel = None
        if truth is not None:
            # relative_frobenius_error
            np.subtract(mean, truth, out=work)
            rel = float(np.linalg.norm(work) / truth_norm)
        trace.records.append(
            IterationRecord(
                iteration=t,
                design=p.p,
                batch_estimate=batch_estimate,
                merged=merged,
                rel_error=rel,
                observed_count=int(masks.sum()),
                sample_count=samples,
            )
        )
        if adapt:
            p_next = update_design(mean, cfg.budget, cfg.eps).p
            if not np.array_equal(p_next.p, p.p):
                _inverse_mask_moment(p_next.p, out=weights)
            p = p_next
    trace.final_design = p.p
    trace.final_estimate = CovarianceEstimate(mean, samples, cfg.iterations)
    return trace


def run_active(oracle, cfg: ActiveConfig, truth: np.ndarray | None = None,
               record_matrices: bool = False) -> ActiveTrace:
    """Run the adaptive loop against a sample stream.

    oracle supplies raw vectors via draw(count) and a dim attribute; masks are
    drawn here from per-iteration child streams of cfg.seed, so equal
    (oracle stream, cfg) reproduce the trace exactly. truth, when given, is
    only scored against, never consumed by the loop. The records keep designs,
    errors and counts; record_matrices=True also keeps each batch's estimate
    and the running estimate per record, two n x n copies per batch.
    """
    n = oracle.dim
    _check_budget(n, cfg.budget, cfg.eps)
    p0 = MaskDistribution.uniform(n, cfg.budget)
    return _run_batches(oracle, p0, cfg, truth, adapt=True, record_matrices=record_matrices)


def run_fixed(oracle, p: MaskDistribution, total: int, truth: np.ndarray | None = None,
              batch_size: int | None = None, seed: int = 0,
              record_matrices: bool = False) -> ActiveTrace:
    """Estimate under a frozen design, checkpointed like the adaptive loop.

    total must split into equal batches of batch_size (default: one batch) so
    fixed and adaptive curves share their checkpoint grid. With the same seed
    and stream, this is bitwise identical to the adaptive loop whenever the
    adaptive design updates are no-ops (for example a full budget).
    record_matrices works as in run_active.
    """
    if oracle.dim != p.n:
        raise ValueError("oracle dimension does not match the design")
    batch_size = int(total) if batch_size is None else int(batch_size)
    if total < 1 or batch_size < 1 or total % batch_size != 0:
        raise ValueError("total must be a positive multiple of batch_size")
    cfg = ActiveConfig(
        budget=p.m, batch_size=batch_size, iterations=total // batch_size, seed=seed
    )
    return _run_batches(oracle, p, cfg, truth, adapt=False, record_matrices=record_matrices)

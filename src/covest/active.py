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

from . import design  # called through the module, where perfbench/spans.py wraps it
# estimate_cov, merge_estimates and relative_frobenius_error are what the loop
# computes in place; they stay importable from this module, where
# perfbench/spans.py instruments them
from .estimator import (  # noqa: F401
    CovarianceEstimate,
    _check_reweighting,
    _check_truth,
    _reweighted_gram,
    estimate_cov,
    merge_estimates,
    relative_frobenius_error,
)
from .linalg import _check_finite
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
        _check_finite("budget", self.budget, gt=0)
        _check_finite("batch_size", self.batch_size, ge=1)
        _check_finite("iterations", self.iterations, ge=1)
        _check_finite("eps", self.eps, ge=0, le=1)


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


def _run_batches(oracle, p0: MaskDistribution, cfg: ActiveConfig, truth, adapt: bool,
                 record_matrices: bool) -> ActiveTrace:
    """The batch loop, with one running sum S of reweighted Gram matrices.

    S / samples is the merged estimate under merge_estimates' sample-count
    rule, and the redesign reads only its diagonal, so a step costs one matmul
    and one n x n add (plus a divide, subtract and norm to score a truth). The
    trace equals composing estimate_cov, merge_estimates and
    relative_frobenius_error to rounding, without their n x n temporaries.
    """
    n = p0.n
    if truth is not None:
        truth, truth_norm = _check_truth(truth, (n, n))
    p = p0
    _check_reweighting(p.p)
    gram_sum = np.zeros((n, n))  # the running sum S
    work = np.empty((n, n))  # the batch's Gram matrix, then the error of the mean
    samples = 0
    trace = ActiveTrace()
    for t in range(cfg.iterations):
        rng = child_rng(cfg.seed, t)
        # the rows come from outside the program, so they are checked; the
        # masks are drawn here and need no validation
        xs = np.asarray(oracle.draw(cfg.batch_size), dtype=float)
        if xs.ndim != 2 or xs.shape[1] != n:
            raise ValueError(f"oracle returned rows of shape {xs.shape}, expected (count, {n})")
        count = xs.shape[0]
        if count == 0:
            raise ValueError("oracle returned no rows")
        if not np.isfinite(xs).all():
            raise ValueError("oracle returned non-finite values (NaN or inf)")
        masks = draw_mask(p, rng, size=count)
        observed_count = int(masks.sum())
        _reweighted_gram(np.multiply(masks, xs, out=masks), p.p, out=work)
        gram_sum += work
        samples += count
        batch_estimate = CovarianceEstimate(work / count, count) if record_matrices else None
        merged = CovarianceEstimate(gram_sum / samples, samples) if record_matrices else None
        rel = None
        if truth is not None:
            np.divide(gram_sum, samples, out=work)
            work -= truth
            rel = float(np.linalg.norm(work) / truth_norm)
        trace.records.append(
            IterationRecord(
                iteration=t,
                design=p.p,
                batch_estimate=batch_estimate,
                merged=merged,
                rel_error=rel,
                observed_count=observed_count,
                sample_count=samples,
            )
        )
        if adapt:
            # each diagonal entry of S is a sum of obs_i^2 / p_i, so the profile is >= 0
            p = design.design_probabilities(np.diagonal(gram_sum) / samples, cfg.budget, cfg.eps).p
            _check_reweighting(p.p)
    trace.final_design = p.p
    trace.final_estimate = CovarianceEstimate(gram_sum / samples, samples)
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
    p0 = design.design_probabilities(np.ones(oracle.dim), cfg.budget, cfg.eps).p
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
    _check_finite("total", total, ge=1)
    batch_size = int(total) if batch_size is None else int(_check_finite("batch_size", batch_size, ge=1))
    if total % batch_size != 0:
        raise ValueError("total must be a positive multiple of batch_size")
    cfg = ActiveConfig(
        budget=p.m, batch_size=batch_size, iterations=total // batch_size, seed=seed
    )
    return _run_batches(oracle, p, cfg, truth, adapt=False, record_matrices=record_matrices)

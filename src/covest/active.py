"""Batch active estimation: redesign the observation budget as data arrives.

Each iteration freezes the current design, draws one batch of masked samples
under it, folds the batch's unbiased estimate into the running average, and
re-solves the design from the running estimate's diagonal. The first design
is uniform. Because every batch is unbiased conditionally on its (data-
dependent) design, the merged estimate stays unbiased at every iteration.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

# the first design is called through the module, where perfbench/spans.py wraps
# it; the redesigns call its kernel _solve on the checked fixed inputs
from . import design
# estimate_cov, merge_estimates and relative_frobenius_error are what the loop
# computes in place; they stay importable from this module, where
# perfbench/spans.py instruments them
from .estimator import (  # noqa: F401
    CovarianceEstimate,
    _batch_estimate,
    _check_reweighting,
    _check_truth,
    _estimate_from_sum,
    _folding,
    estimate_cov,
    merge_estimates,
    relative_frobenius_error,
)
from .linalg import _check_count, _check_scalar, _store_checked
# mask_batch is unused here but stays importable: perfbench/spans.py wraps
# covest.active.mask_batch and fails when the name is missing
from .sampling import MaskDistribution, _draw_mask, child_rng, mask_batch  # noqa: F401

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
        _store_checked(self, _check_scalar, ("budget",), gt=0)
        _store_checked(self, _check_count, ("batch_size", "iterations"), ge=1)
        _store_checked(self, _check_scalar, ("eps",), ge=0, le=1)
        _store_checked(self, _check_count, ("seed",), ge=0)


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
    """Per-iteration records plus the design the loop would use next.

    final_estimate, the running estimate after the last batch, is built from
    the loop's running sum on first read and cached; a caller that never reads
    it pays for no n x n divide, mirror or symmetry check, and reading it
    leaves the sum as it was. The trace holds that one n x n sum; while it
    ran, the loop also held the panel products that estimator._folding's
    docstring counts. Each rel_error is scored panel by panel: for n <= 128
    it equals relative_frobenius_error of the merged estimate bit for bit,
    above that to a few ulp x n. An error whose square passes float range
    is scored by relative_frobenius_error of the merged estimate.
    """

    records: list = field(default_factory=list)
    final_design: np.ndarray | None = None
    # the running sum S behind final_estimate = S / samples, as the loop's
    # folds leave it
    _gram_sum: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    @cached_property
    def final_estimate(self) -> CovarianceEstimate | None:
        if self._gram_sum is None:
            return None
        return _estimate_from_sum(self._gram_sum, self.records[-1].sample_count)

    def errors(self) -> np.ndarray:
        """Relative errors by iteration (NaN where no truth was supplied)."""
        return np.array([np.nan if r.rel_error is None else r.rel_error for r in self.records])

    def sample_counts(self) -> np.ndarray:
        return np.array([r.sample_count for r in self.records])

    def designs(self) -> np.ndarray:
        return np.stack([r.design for r in self.records])

    def __len__(self) -> int:
        return len(self.records)


def _run_batches(oracle, p: np.ndarray, cfg: ActiveConfig, truth, adapt: bool,
                 record_matrices: bool) -> ActiveTrace:
    """The batch loop, with one running sum S of reweighted Gram matrices.

    S / samples is the merged estimate under merge_estimates' sample-count
    rule, and the redesign reads only its diagonal; a diagonal of 0s (every
    coordinate seen so far masked out) keeps the design. Each batch is one
    fold of an estimator._folding into S, which scores each part of S it
    touches against truth while it is in cache, so a step touches each entry
    of S once, and which hands prepare S's diagonal: prepare makes the next
    batch on this thread (redesign, rows, checks and masks), above 128 while
    the helpers fold; _folding's docstring gives its threads and memory and
    where the diagonal comes from. The loop holds S, the fold's panel
    products and two batches' rows. S stays on
    the trace, for final_estimate to read on first use. The trace equals
    composing estimate_cov, merge_estimates and relative_frobenius_error to
    rounding, without their n x n temporaries; for n <= 128 rel_error equals
    relative_frobenius_error of the merged estimate bit for bit, above that
    to a few ulp x n. With record_matrices, each batch estimate is built as
    estimate_cov builds it, by folding a copy of the masked rows into a
    fresh zero sum, and equals estimate_cov of the batch bit for bit.
    """
    n = p.size
    if truth is not None:
        truth, truth_norm = _check_truth(truth, (n, n))
    _check_reweighting(p)
    gram_sum = np.zeros((n, n))  # the running sum S
    samples = 0
    trace = ActiveTrace()

    def prepare(diagonal):
        q = p
        # a profile of 0s (every coordinate seen so far masked out) keeps the design;
        # the budget and eps were checked with the first design, the profile is
        # data, and rows near the float limit overflow it to inf
        if adapt and samples and (profile := diagonal / samples).any():
            q = design._solve(np.sqrt(design._check_profile(profile)), cfg.budget, cfg.eps)[0]
            _check_reweighting(q)
        if t + 1 == cfg.iterations:
            return None, 0, q
        # the rows come from outside the program, so they are checked; the
        # masks are drawn here and need no validation
        xs = np.asarray(oracle.draw(cfg.batch_size), dtype=float)
        if xs.ndim != 2 or xs.shape[1] != n:
            raise ValueError(f"oracle returned rows of shape {xs.shape}, expected (count, {n})")
        if xs.shape[0] == 0:
            raise ValueError("oracle returned no rows")
        if not np.isfinite(xs).all():
            raise ValueError("oracle returned non-finite values (NaN or inf)")
        masks = _draw_mask(q, child_rng(cfg.seed, t + 1), xs.shape)
        observed_count = int(masks.sum())
        return np.multiply(masks, xs, out=masks), observed_count, q

    t = -1  # prepare makes batch t + 1
    observed, observed_count, p = prepare(None)
    with _folding(gram_sum, truth) as fold:
        for t in range(cfg.iterations):
            samples += observed.shape[0]
            # built before the fold below scales observed in place
            batch_estimate = _batch_estimate(observed, p) if record_matrices else None
            sq, upcoming = fold(observed, p, samples, prepare)
            merged = _estimate_from_sum(gram_sum, samples) if record_matrices else None
            rel = None if truth is None else float(np.sqrt(sq)) / truth_norm
            if rel is not None and not rel < np.inf:
                # the squared error passed float range: score the merged estimate again, scaled
                try:
                    rel = relative_frobenius_error(_estimate_from_sum(gram_sum, samples), truth)
                except ValueError as err:
                    raise ValueError(f"oracle returned rows too large to score: {err}") from None
            trace.records.append(
                IterationRecord(
                    iteration=t,
                    design=p,
                    batch_estimate=batch_estimate,
                    merged=merged,
                    rel_error=rel,
                    observed_count=observed_count,
                    sample_count=samples,
                )
            )
            observed, observed_count, p = upcoming
    trace.final_design = p
    trace._gram_sum = gram_sum
    return trace


def run_active(oracle, cfg: ActiveConfig, truth: np.ndarray | None = None,
               record_matrices: bool = False) -> ActiveTrace:
    """Run the adaptive loop against a sample stream.

    oracle supplies raw vectors via draw(count) and a dim attribute; masks are
    drawn here from per-iteration child streams of cfg.seed, so equal
    (oracle stream, cfg) reproduce the trace exactly. truth, when given, is
    only scored against, never consumed by the loop. Batch t + 1's design,
    rows and masks depend on batch t only through the running diagonal, so
    above n = 128 they are made while batch t is folded; the oracle is asked
    from the calling thread, cfg.iterations times in all. The records keep
    designs, errors and counts; record_matrices=True also keeps each batch's
    estimate and the running estimate per record, two n x n copies per batch.
    """
    p0 = design.design_probabilities(np.ones(oracle.dim), cfg.budget, cfg.eps).p.p
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
    total = _check_count("total", total, ge=1)
    batch_size = total if batch_size is None else _check_count("batch_size", batch_size, ge=1)
    if total % batch_size != 0:
        raise ValueError("total must be a positive multiple of batch_size")
    cfg = ActiveConfig(
        budget=p.m, batch_size=batch_size, iterations=total // batch_size, seed=seed
    )
    return _run_batches(oracle, p.p, cfg, truth, adapt=False, record_matrices=record_matrices)

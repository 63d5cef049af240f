"""Unbiased covariance estimation from Bernoulli-masked samples."""
from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

import numpy as np

from .linalg import _blas_threads, _check_count, _check_finite, check_symmetric
from .sampling import MaskDistribution, MaskedBatch

__all__ = [
    "CovarianceEstimate",
    "estimate_cov",
    "merge_estimates",
    "relative_frobenius_error",
]


@dataclass(frozen=True)
class CovarianceEstimate:
    """A symmetric estimate and the number of samples behind it.

    sample_count is the merge weight: merging averages estimates in
    proportion to their sample counts.
    """

    matrix: np.ndarray
    sample_count: int

    def __post_init__(self):
        matrix = check_symmetric(self.matrix, "matrix")
        sample_count = _check_count("sample_count", self.sample_count, ge=0)
        if sample_count == 0 and np.any(matrix != 0.0):
            raise ValueError("an estimate from zero samples must be the zero matrix")
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "sample_count", sample_count)

    @classmethod
    def zero(cls, n: int) -> "CovarianceEstimate":
        """Empty accumulator: merging a batch into it returns the batch."""
        return cls(np.zeros((n, n)), sample_count=0)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _stack_observed(samples, n: int) -> np.ndarray:
    if not isinstance(samples, MaskedBatch):
        raise TypeError("samples must be a MaskedBatch")
    if samples.n != n:
        raise ValueError(f"batch dimension {samples.n} does not match distribution ({n})")
    return samples.observed


def _check_reweighting(p: np.ndarray) -> None:
    """Reject p whose largest reweighting factor overflows, in O(n).

    That factor is 1/(p_i p_j) for the two smallest entries, or 1/p_0 when n = 1.
    """
    smallest = np.partition(p, 1)[:2] if p.size > 1 else p
    if not float(np.prod(smallest)) * np.finfo(float).max >= 1.0:
        raise ValueError("entrywise inverse requires strictly positive entries: 1/(p_i p_j) overflows")


# rows of the running sum folded per BLAS call; on active784, panels of 64,
# 128 and 256 rows timed within noise of one another (BENCH_panel_gram.json)
_PANEL = 128


def _panels(n: int) -> list:
    """Row panels [i0, i1) of _PANEL rows, the last one shorter, covering range(n)."""
    return [(i0, min(i0 + _PANEL, n)) for i0 in range(0, n, _PANEL)]


def _fold_panel(a, p, gram_sum, i0, i1, truth, samples) -> float:
    """Fold row panel [i0, i1) of the scaled rows a; return its part of the squared error."""
    rows, width = i1 - i0, p.shape[0] - i0
    panel = a[:, i0:i1].T @ a[:, i0:]
    panel.reshape(-1)[::width + 1] *= p[i0:i1]  # the diagonal, a view of the contiguous panel
    block = gram_sum[i0:i1, i0:]
    block += panel
    if truth is None:
        return 0.0
    # a part past float range reads inf or NaN, in Python floats that add up
    # without a warning; the batch loop scores such a batch again
    with np.errstate(over="ignore", invalid="ignore"):
        np.divide(block, samples, out=panel)
        panel -= truth[i0:i1, i0:]
        flat = panel.reshape(-1)
        total = float(flat.dot(flat))
        if rows == width:
            return total
        # the part right of the diagonal block stands for itself and its mirror image
        diag_block = panel[:, :rows]
        return 2.0 * total - float(np.einsum("ij,ij->", diag_block, diag_block))


# threads a batch loop folds on, its own included; experiment._init_worker
# gives each pool worker its share
_cores = os.cpu_count() or 1


@contextmanager
def _folding(gram_sum: np.ndarray, truth: np.ndarray | None = None):
    """Yield fold(observed, p, samples, meanwhile=None) -> (sq, meanwhile()), adding batches to gram_sum.

    With a = observed / p (observed is scaled in place), a^T a holds
    obs_i obs_j / (p_i p_j); its diagonal times p holds obs_i^2 / p_i. Each
    fold adds that product to the upper triangle of gram_sum in row panels
    [i0, i1) of _PANEL rows: panel a[:, i0:i1]^T a[:, i0:] is computed and
    added to gram_sum[i0:i1, i0:], so each entry on or above the diagonal
    blocks is touched once and the blocks below are never written;
    _estimate_from_sum divides and mirrors a copy of the sum where a caller
    reads it whole. With truth, each panel of gram_sum / samples is scored
    while it is in cache, and sq is the squared Frobenius error against
    truth (0.0 without truth), the panels' parts added in panel order; a
    square past float range gives sq = inf or NaN, without a warning. For
    n <= _PANEL there is one panel, and the calls are a^T a (syrk) and one
    dot.

    The panels are shared among the calling thread and one helper thread
    per spare core, min(panels, _cores) - 1 of them, so none (and no
    executor) for n <= _PANEL or one core. The helpers start folding, the
    calling thread runs meanwhile (the batch loop draws its next rows
    there), then folds the panels still left and waits for the helpers.
    Whichever thread folds a panel, every output is the same bit for bit.
    Each folding thread holds one panel product at a time, at most
    min(n, _PANEL) x n floats (0.8 MB at n = 784), and, while it adds a
    strided panel, numpy's two ufunc buffers of 64 KB. BLAS runs at one
    thread in the block, so each product runs in the thread that calls it
    and rounds as in a serial fold. The helpers are joined when the block
    ends, also when meanwhile or the caller raises.
    """
    n = gram_sum.shape[0]
    panels = _panels(n)
    helpers = min(len(panels), _cores) - 1
    lock = threading.Lock()

    def fold(observed: np.ndarray, p: np.ndarray, samples: int, meanwhile=None):
        observed /= p
        todo = iter(range(len(panels)))
        parts = [0.0] * len(panels)

        def work():
            while True:
                with lock:
                    k = next(todo, None)
                if k is None:
                    return
                i0, i1 = panels[k]
                parts[k] = _fold_panel(observed, p, gram_sum, i0, i1, truth, samples)

        helping = [pool.submit(work) for _ in range(helpers)]
        drawn = None if meanwhile is None else meanwhile()
        work()
        for helper in helping:
            helper.result()
        sq = 0.0
        for part in parts:
            sq += part
        return sq, drawn

    with _blas_threads(1), (ThreadPoolExecutor(helpers) if helpers else nullcontext()) as pool:
        yield fold


def _estimate_from_sum(gram_sum: np.ndarray, samples: int) -> CovarianceEstimate:
    """The estimate gram_sum / samples of a sum _folding built; gram_sum is read, never written.

    The quotient is a fresh array, whose upper blocks are mirrored below.
    """
    matrix = gram_sum / samples
    for i0, i1 in _panels(matrix.shape[0])[:-1]:
        matrix[i1:, i0:i1] = matrix[i0:i1, i1:].T
    return CovarianceEstimate(matrix, samples)


def _batch_estimate(observed: np.ndarray, p: np.ndarray) -> CovarianceEstimate:
    """The estimate of one batch of masked rows: a copy folded into a zero sum."""
    n = p.shape[0]
    gram_sum = np.zeros((n, n))
    with _folding(gram_sum) as fold:
        fold(observed.copy(), p, 1)
    return _estimate_from_sum(gram_sum, observed.shape[0])


def estimate_cov(samples, p: MaskDistribution) -> CovarianceEstimate:
    """Unbiased covariance estimate from masked samples.

    Averages the outer products of the observed vectors, reweighted entrywise
    by the reciprocal of the mask second moment: 1/(p_i p_j) off the diagonal,
    1/p_i on it, computed as (obs/p)^T (obs/p) with its diagonal times p. That
    exactly cancels the expected attenuation from masking, so the estimate is
    unbiased for the true covariance no matter how few coordinates each sample
    reveals. The price is that the output is symmetric but need not be
    positive semidefinite. The product is folded into a zero sum by
    _folding, the batch loop's kernel, whose docstring gives its memory and
    threads, and mirrored once; the estimate does not depend on the BLAS
    thread count.
    """
    observed = _stack_observed(samples, p.n)
    count = observed.shape[0]
    if count == 0:
        raise ValueError("cannot estimate from an empty sample collection")
    _check_reweighting(p.p)
    return _batch_estimate(observed, p.p)


def merge_estimates(prev: CovarianceEstimate, batch: CovarianceEstimate) -> CovarianceEstimate:
    """Fold one more batch into a running estimate, weighted by sample count.

    With n_prev and n_b samples behind the two estimates, the batch enters
    with weight n_b / (n_prev + n_b) and the running estimate keeps the rest,
    so merging batches of any sizes reproduces the estimate of their union
    (the streaming update of Chan, Golub & LeVeque, 1979). Each batch is
    unbiased under its own design and the weights are fixed, so the merge
    stays unbiased. Merging into the zero accumulator returns the batch
    unchanged; a batch of zero samples is rejected.
    """
    if prev.dim != batch.dim:
        raise ValueError("cannot merge estimates of different dimensions")
    if batch.sample_count == 0:
        raise ValueError("cannot merge a batch of zero samples")
    total = prev.sample_count + batch.sample_count
    matrix = batch.matrix / (total / batch.sample_count) + prev.matrix * (prev.sample_count / total)
    return CovarianceEstimate(matrix=matrix, sample_count=total)


def _check_truth(truth, shape: tuple) -> tuple[np.ndarray, float]:
    """A finite, nonzero reference of the given shape, and its Frobenius norm.

    The norm's sum of squares must stay finite, as the errors against truth
    are scored from such sums. It is taken with BLAS at one thread, whose
    dot splits its sum by thread count.
    """
    truth = _check_finite("truth", truth)
    if truth.shape != shape:
        raise ValueError("estimate and reference must share a shape")
    with _blas_threads(1), np.errstate(over="ignore"):
        norm = float(np.linalg.norm(truth))
    if norm == 0.0:
        raise ValueError("reference matrix must be nonzero")
    if norm == np.inf:
        raise ValueError("truth is too large to score: its squared Frobenius norm overflows")
    return truth, norm


def relative_frobenius_error(estimate, truth: np.ndarray) -> float:
    """Frobenius-norm error of an estimate relative to a nonzero reference.

    Where the difference's sum of squares overflows, its norm is taken again
    from the difference divided by its largest entry, so every error within
    float range is scored.
    """
    matrix = estimate.matrix if isinstance(estimate, CovarianceEstimate) else _check_finite("estimate", estimate)
    truth, denom = _check_truth(truth, matrix.shape)
    with _blas_threads(1), np.errstate(over="ignore", invalid="ignore"):
        diff = matrix - truth
        norm = np.linalg.norm(diff)
        if norm == np.inf:
            scale = np.abs(diff).max()
            norm = scale * np.linalg.norm(diff / scale)
        error = float(norm / denom)
    if not error < np.inf:
        raise ValueError("estimate is too far from truth to score: its relative error overflows")
    return error
